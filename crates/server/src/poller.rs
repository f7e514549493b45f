//! The reactor shard's readiness wait: one epoll instance plus one eventfd
//! waker per shard, declared by hand (`std` already links the C library,
//! so no crate is needed).
//!
//! Two kinds of wake source feed one blocking [`Poller::wait`]:
//!
//! * **Descriptors** — TCP connections register their socket, level
//!   triggered, always for readable and for writable only while output is
//!   pending ([`Poller::register`] / [`Poller::reregister`]).
//! * **The waker** — transports without a descriptor (in-process channels,
//!   mux sub-streams) get a [`std::task::Waker`] built from a
//!   [`ConnWaker`]: waking it queues the connection's key on the shard's
//!   [`Wakeup`] and signals the eventfd. Daemon control events (a submitted
//!   connection, drain, halt, a migration order, a parked session) signal
//!   the same eventfd through [`Wakeup::signal`].
//!
//! Platforms without epoll compile a minimal timed-wait fallback instead:
//! the shard blocks on a condvar for at most 1 ms and reports
//! every registered descriptor as ready.

use parking_lot::Mutex;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::Wake;
use std::time::Duration;

/// Which readiness a registered descriptor waits for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Interest {
    pub(crate) read: bool,
    pub(crate) write: bool,
}

/// Cross-thread wake state of one shard: the keys of connections whose
/// transports signalled, plus the signal that ends the shard's wait.
pub(crate) struct Wakeup {
    ready: Mutex<Vec<u64>>,
    /// A signal is outstanding: a burst of wakes costs one eventfd write.
    /// Cleared by the shard before it drains `ready` and re-reads its
    /// control flags, so a wake after the clear always writes again.
    signalled: AtomicBool,
    #[cfg(target_os = "linux")]
    efd: std::fs::File,
    #[cfg(not(target_os = "linux"))]
    cv: (std::sync::Mutex<()>, std::sync::Condvar),
}

impl Wakeup {
    /// End the shard's current (or next) wait.
    pub(crate) fn signal(&self) {
        if !self.signalled.swap(true, Ordering::SeqCst) {
            self.raise();
        }
    }

    fn push(&self, key: u64) {
        self.ready.lock().push(key);
        self.signal();
    }

    /// Clear the outstanding signal, then move every queued key to `out`.
    fn take(&self, out: &mut Vec<u64>) {
        self.signalled.store(false, Ordering::SeqCst);
        out.append(&mut self.ready.lock());
    }

    #[cfg(target_os = "linux")]
    fn raise(&self) {
        use std::io::Write;
        // A nonblocking eventfd write fails only if the counter would
        // overflow, which one write per outstanding signal never reaches.
        let _ = (&self.efd).write(&1u64.to_ne_bytes());
    }

    #[cfg(not(target_os = "linux"))]
    fn raise(&self) {
        let _guard = self.cv.0.lock().expect("wakeup lock");
        self.cv.1.notify_all();
    }
}

/// The per-connection waker handed to fd-less transports. `queued` keeps a
/// connection in the ready list at most once until its shard pumps it.
pub(crate) struct ConnWaker {
    wakeup: Arc<Wakeup>,
    key: u64,
    queued: AtomicBool,
}

impl ConnWaker {
    pub(crate) fn new(wakeup: &Arc<Wakeup>, key: u64) -> Arc<ConnWaker> {
        Arc::new(ConnWaker {
            wakeup: Arc::clone(wakeup),
            key,
            queued: AtomicBool::new(false),
        })
    }

    /// Called by the shard just before it pumps the connection: any wake
    /// from here on queues the connection again.
    pub(crate) fn rearm(&self) {
        self.queued.store(false, Ordering::SeqCst);
    }
}

impl Wake for ConnWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if !self.queued.swap(true, Ordering::SeqCst) {
            self.wakeup.push(self.key);
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_uint};

    pub(super) const EPOLL_CLOEXEC: c_int = 0o2_000_000;
    pub(super) const EPOLL_CTL_ADD: c_int = 1;
    pub(super) const EPOLL_CTL_DEL: c_int = 2;
    pub(super) const EPOLL_CTL_MOD: c_int = 3;
    pub(super) const EPOLLIN: u32 = 0x001;
    pub(super) const EPOLLOUT: u32 = 0x004;
    pub(super) const EPOLLRDHUP: u32 = 0x2000;
    pub(super) const EFD_CLOEXEC: c_int = 0o2_000_000;
    pub(super) const EFD_NONBLOCK: c_int = 0o4_000;

    /// `struct epoll_event`; the kernel ABI packs it on x86-64 only.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        pub(super) events: u32,
        pub(super) data: u64,
    }

    extern "C" {
        pub(super) fn epoll_create1(flags: c_int) -> c_int;
        pub(super) fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent)
            -> c_int;
        pub(super) fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub(super) fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    }
}

/// Events fetched per `epoll_wait`; more ready descriptors simply stay
/// ready for the next wait (level triggered).
#[cfg(target_os = "linux")]
const MAX_EVENTS: usize = 256;

/// The eventfd's key in the epoll set (connection keys carry a slab index
/// in their low half, which never reaches `u32::MAX`).
#[cfg(target_os = "linux")]
const WAKE_KEY: u64 = u64::MAX;

/// A shard's readiness wait.
#[cfg(target_os = "linux")]
pub(crate) struct Poller {
    epfd: std::os::fd::OwnedFd,
    wakeup: Arc<Wakeup>,
    events: Vec<sys::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl Poller {
    pub(crate) fn new() -> io::Result<Poller> {
        use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
        // SAFETY: plain syscalls with constant flags; each returned
        // descriptor is checked and then owned by exactly one `OwnedFd`.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `epfd` is a fresh descriptor nothing else owns.
        let epfd = unsafe { OwnedFd::from_raw_fd(epfd) };
        // SAFETY: as above.
        let efd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if efd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `efd` is a fresh descriptor nothing else owns.
        let efd = std::fs::File::from(unsafe { OwnedFd::from_raw_fd(efd) });
        let poller = Poller {
            epfd,
            wakeup: Arc::new(Wakeup {
                ready: Mutex::new(Vec::new()),
                signalled: AtomicBool::new(false),
                efd,
            }),
            events: vec![sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS],
        };
        let efd = poller.wakeup.efd.as_raw_fd();
        poller.ctl(sys::EPOLL_CTL_ADD, efd, sys::EPOLLIN, WAKE_KEY)?;
        Ok(poller)
    }

    pub(crate) fn wakeup(&self) -> &Arc<Wakeup> {
        &self.wakeup
    }

    fn ctl(&self, op: i32, fd: i32, events: u32, key: u64) -> io::Result<()> {
        use std::os::fd::AsRawFd;
        let mut event = sys::EpollEvent { events, data: key };
        // SAFETY: `epfd` is open for the poller's lifetime and `event` is a
        // valid `epoll_event` the kernel only reads.
        let rc = unsafe { sys::epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut event) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    fn bits(interest: Interest) -> u32 {
        let mut bits = 0;
        if interest.read {
            bits |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if interest.write {
            bits |= sys::EPOLLOUT;
        }
        bits
    }

    pub(crate) fn register(
        &mut self,
        sock: &TcpStream,
        key: u64,
        interest: Interest,
    ) -> io::Result<()> {
        use std::os::fd::AsRawFd;
        self.ctl(
            sys::EPOLL_CTL_ADD,
            sock.as_raw_fd(),
            Self::bits(interest),
            key,
        )
    }

    pub(crate) fn reregister(
        &mut self,
        sock: &TcpStream,
        key: u64,
        interest: Interest,
    ) -> io::Result<()> {
        use std::os::fd::AsRawFd;
        self.ctl(
            sys::EPOLL_CTL_MOD,
            sock.as_raw_fd(),
            Self::bits(interest),
            key,
        )
    }

    pub(crate) fn deregister(&mut self, sock: &TcpStream, _key: u64) {
        use std::os::fd::AsRawFd;
        // Failure means the descriptor was never (or is no longer)
        // registered: nothing left to undo.
        let _ = self.ctl(sys::EPOLL_CTL_DEL, sock.as_raw_fd(), 0, 0);
    }

    /// Block until a registered descriptor is ready, the waker fires, or
    /// `timeout` passes (`None` waits indefinitely), then append every
    /// ready connection key to `out`.
    pub(crate) fn wait(&mut self, timeout: Option<Duration>, out: &mut Vec<u64>) -> io::Result<()> {
        use std::io::Read;
        use std::os::fd::AsRawFd;
        let ms = match timeout {
            None => -1,
            // Round up: waking before a deadline would only wait again.
            Some(t) => t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
        };
        // SAFETY: `events` holds `MAX_EVENTS` initialized entries the
        // kernel may overwrite; `epfd` is open.
        let n = unsafe {
            sys::epoll_wait(
                self.epfd.as_raw_fd(),
                self.events.as_mut_ptr(),
                MAX_EVENTS as i32,
                ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        for event in &self.events[..n.max(0) as usize] {
            let key = event.data;
            if key == WAKE_KEY {
                let mut counter = [0u8; 8];
                let _ = (&self.wakeup.efd).read(&mut counter);
            } else {
                out.push(key);
            }
        }
        self.wakeup.take(out);
        Ok(())
    }
}

/// The timed-wait fallback for platforms without epoll.
#[cfg(not(target_os = "linux"))]
const FALLBACK_POLL: Duration = Duration::from_millis(1);

/// A shard's readiness wait (timed-wait fallback).
#[cfg(not(target_os = "linux"))]
pub(crate) struct Poller {
    wakeup: Arc<Wakeup>,
    /// Registered descriptors: every one is reported ready after each wait.
    polled: Vec<u64>,
}

#[cfg(not(target_os = "linux"))]
impl Poller {
    pub(crate) fn new() -> io::Result<Poller> {
        Ok(Poller {
            wakeup: Arc::new(Wakeup {
                ready: Mutex::new(Vec::new()),
                signalled: AtomicBool::new(false),
                cv: Default::default(),
            }),
            polled: Vec::new(),
        })
    }

    pub(crate) fn wakeup(&self) -> &Arc<Wakeup> {
        &self.wakeup
    }

    pub(crate) fn register(
        &mut self,
        _sock: &TcpStream,
        key: u64,
        _interest: Interest,
    ) -> io::Result<()> {
        self.polled.push(key);
        Ok(())
    }

    pub(crate) fn reregister(
        &mut self,
        _sock: &TcpStream,
        _key: u64,
        _interest: Interest,
    ) -> io::Result<()> {
        Ok(())
    }

    pub(crate) fn deregister(&mut self, _sock: &TcpStream, key: u64) {
        self.polled.retain(|&k| k != key);
    }

    pub(crate) fn wait(&mut self, timeout: Option<Duration>, out: &mut Vec<u64>) -> io::Result<()> {
        let mut wait = timeout.unwrap_or(Duration::MAX);
        if !self.polled.is_empty() {
            wait = wait.min(FALLBACK_POLL);
        }
        let guard = self.wakeup.cv.0.lock().expect("wakeup lock");
        if !self.wakeup.signalled.load(Ordering::SeqCst) {
            let _ = self
                .wakeup
                .cv
                .1
                .wait_timeout(guard, wait)
                .expect("wakeup lock");
        }
        out.extend_from_slice(&self.polled);
        self.wakeup.take(out);
        Ok(())
    }
}
