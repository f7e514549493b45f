//! The sharded reactor: a fixed pool of readiness-loop workers
//! multiplexing every connection the daemon serves.
//!
//! The thread-per-connection daemon reproduced the original middleware's
//! process-per-execution model faithfully, but its thread count scaled with
//! the session count — at thousands of concurrent remote executions the
//! stacks alone dominate memory and the scheduler thrashes. The reactor
//! fixes the thread count:
//!
//! * **N shards** (`DaemonBuilder::shards`), each one OS thread named
//!   `rcuda-shard-<i>` running a readiness loop over its share of the
//!   connections. Connections are handed to shards round-robin at admission
//!   through a per-shard injector queue and never migrate.
//! * **A readiness wait** — each shard blocks in its own
//!   [`Poller`](crate::poller) (epoll plus an eventfd waker) until a
//!   socket is ready, a fd-less transport or a daemon control event wakes
//!   it, or the earliest resume deadline passes, and then pumps only the
//!   connections that are ready. A connection whose pump stopped on a
//!   budget with work left is pumped again without waiting; an idle shard
//!   costs no CPU.
//! * **Nonblocking transports** — each connection's transport is switched
//!   with [`Transport::set_nonblocking`]; all I/O goes through
//!   [`Transport::try_read`] / [`Transport::try_write`], so a stalled peer
//!   parks its connection, never its shard.
//! * **Incremental decode** — bytes accumulate in a per-connection
//!   [`StreamDecoder`]; a partial frame simply stays buffered until more
//!   bytes arrive.
//! * **Per-shard resources** — one [`BufferPool`] per shard (recycled
//!   across its connections), one clock, and hash-routed
//!   [`ShardedRegistry`] shards, so the steady-state request path touches
//!   no cross-shard locks.
//!
//! Every session decision (hello forms, auth gate, dispatch and panic
//! isolation, park or release) belongs to [`SessionCore`], the engine the
//! blocking driver runs too. A connection here is only its I/O shell:
//! reads into the decoder, outbound flushing, the handshake watermark, the
//! live-migration quiesce, the mux upgrade, and daemon accounting.
//! `tests/driver_equivalence.rs` checks that both drivers answer the same
//! client byte streams with the same bytes and reports.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rcuda_core::time::wall_clock;
use rcuda_core::Clock as _;
use rcuda_gpu::{GpuContext, GpuDevice};
use rcuda_obs::ShardSpan;
use rcuda_proto::mux::MuxHello;
use rcuda_proto::{BufferPool, StreamDecoder};
use rcuda_transport::{MuxCloser, Progress, Transport};
use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, OnceLock};
use std::task::Waker;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::poller::{ConnWaker, Interest, Poller, Wakeup};
use crate::pool::PoolGuard;
use crate::registry::ShardedRegistry;
use crate::session::{SessionCore, Step, RESUME_WAIT};
use crate::worker::{ServerConfig, SessionReport};

/// Smallest per-connection read chunk: enough for every fixed-size request
/// in one gulp while keeping idle connections cheap (10k parked
/// connections hold 10k of these, so the floor matters).
const READ_CHUNK_MIN: usize = 2 * 1024;
/// Largest per-connection read chunk; reached only by connections that
/// actually move bulk payloads.
const READ_CHUNK_MAX: usize = 256 * 1024;
/// Frames dispatched per connection per pass before yielding to shard
/// neighbors (leftover frames stay buffered and the connection is pumped
/// again without waiting).
const FRAMES_PER_PASS: u32 = 64;
/// Bytes read per connection per pass, for the same fairness.
const READ_BUDGET: usize = 4 * READ_CHUNK_MAX;
/// Quiet time after the last bulk connection ended before its shard
/// returns freed memory to the OS.
const TRIM_DELAY: Duration = Duration::from_secs(1);

/// Atomic daemon counters, shared between the accept loop, the reactor
/// shards, and `DaemonHealth` snapshots.
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) attempted: AtomicU64,
    pub(crate) admitted: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) served: AtomicU64,
    pub(crate) live: AtomicU64,
    pub(crate) accept_errors: AtomicU64,
    pub(crate) panics: AtomicU64,
    pub(crate) reclaimed_bytes: AtomicU64,
}

const DRAIN_OFF: u8 = 0;
const DRAIN_GRACE: u8 = 1;
const DRAIN_FORCE: u8 = 2;

/// Drain coordination between the daemon and the shards. While a drain is
/// in progress, connections that finish on their own count `graceful`;
/// once the daemon flips to force mode every surviving connection is
/// closed by its shard and counts `forced`.
#[derive(Default)]
pub(crate) struct DrainState {
    mode: AtomicU8,
    graceful: AtomicUsize,
    forced: AtomicUsize,
}

impl DrainState {
    pub(crate) fn begin(&self) {
        self.graceful.store(0, Ordering::SeqCst);
        self.forced.store(0, Ordering::SeqCst);
        self.mode.store(DRAIN_GRACE, Ordering::SeqCst);
    }

    pub(crate) fn force(&self) {
        self.mode.store(DRAIN_FORCE, Ordering::SeqCst);
    }

    pub(crate) fn end(&self) -> (usize, usize) {
        self.mode.store(DRAIN_OFF, Ordering::SeqCst);
        (
            self.graceful.load(Ordering::SeqCst),
            self.forced.load(Ordering::SeqCst),
        )
    }

    fn forcing(&self) -> bool {
        self.mode.load(Ordering::SeqCst) == DRAIN_FORCE
    }

    fn note_closed(&self) {
        match self.mode.load(Ordering::SeqCst) {
            DRAIN_GRACE => {
                self.graceful.fetch_add(1, Ordering::SeqCst);
            }
            DRAIN_FORCE => {
                self.forced.fetch_add(1, Ordering::SeqCst);
            }
            _ => {}
        }
    }
}

/// Live-migration coordination between the daemon handle and the shards.
///
/// [`crate::daemon::RcudaDaemon::migrate_out`] arms an order for a session
/// token; the shard owning that connection quiesces it at the next frame
/// boundary (every response flushed, no partial request buffered) and
/// sends the context through the order's channel. The `armed` flag keeps
/// the steady-state pump overhead to one relaxed atomic load.
#[derive(Default)]
pub(crate) struct MigrationTable {
    orders: Mutex<HashMap<u64, Sender<GpuContext>>>,
    armed: AtomicBool,
    /// Orders ever armed: a shard that sees this change visits its idle
    /// running sessions once, so an order never waits for client traffic.
    armed_total: AtomicU64,
}

impl MigrationTable {
    /// Arm an order for `session`; the context arrives on the returned
    /// channel once its connection reaches a frame boundary. The caller
    /// wakes the shards ([`Shared::wake_shards`]).
    pub(crate) fn arm(&self, session: u64) -> Receiver<GpuContext> {
        let (tx, rx) = unbounded();
        self.orders.lock().insert(session, tx);
        self.armed.store(true, Ordering::SeqCst);
        self.armed_total.fetch_add(1, Ordering::SeqCst);
        rx
    }

    fn generation(&self) -> u64 {
        self.armed_total.load(Ordering::SeqCst)
    }

    /// Withdraw an order that never completed (quiesce timeout). The shard
    /// may have raced the withdrawal and already sent — the caller must
    /// drain the receiver once more after this.
    pub(crate) fn disarm(&self, session: u64) {
        let mut orders = self.orders.lock();
        orders.remove(&session);
        if orders.is_empty() {
            self.armed.store(false, Ordering::SeqCst);
        }
    }

    #[inline]
    fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Claim the order for `session`, if one is armed.
    fn take(&self, session: u64) -> Option<Sender<GpuContext>> {
        let mut orders = self.orders.lock();
        let tx = orders.remove(&session);
        if orders.is_empty() {
            self.armed.store(false, Ordering::SeqCst);
        }
        tx
    }
}

/// State shared by the accept loop, every reactor shard, and the daemon
/// handle.
pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    pub(crate) counters: Counters,
    pub(crate) reports: Mutex<Vec<SessionReport>>,
    pub(crate) sessions_served: AtomicU64,
    pub(crate) registry: ShardedRegistry,
    pub(crate) drain: DrainState,
    pub(crate) halt: AtomicBool,
    /// Late-bound reactor/pool links for mux trunk hosts (see
    /// [`crate::mux_host`]).
    pub(crate) links: crate::mux_host::MuxLinks,
    /// Armed live-migration orders, keyed by session token.
    pub(crate) migrations: MigrationTable,
    /// Tokens of resumable sessions currently being served (the broker
    /// heartbeat advertises these alongside the parked tokens).
    pub(crate) live_tokens: Mutex<HashSet<u64>>,
    /// Set once a drain begins, for the broker heartbeat's `draining` flag
    /// (the broker stops placing new sessions here).
    pub(crate) draining: AtomicBool,
    /// Signalled whenever a connection gives its admission slot back.
    pub(crate) settled: Settled,
    /// Every shard's waker, installed when the reactor starts.
    pub(crate) wakeups: OnceLock<Vec<Arc<Wakeup>>>,
    /// Reactor-path mux trunks, closed at daemon halt (dead ones are pruned
    /// as new trunks open).
    pub(crate) trunks: Mutex<Vec<MuxCloser>>,
}

/// Wakes daemon threads waiting for sessions to end
/// ([`crate::daemon::RcudaDaemon::wait_for_sessions`] and `drain`).
#[derive(Default)]
pub(crate) struct Settled {
    lock: std::sync::Mutex<()>,
    cv: Condvar,
}

impl Shared {
    /// Record the shards' wakers and have every park wake them: a
    /// `Reconnect` waiting on any shard re-checks the registry at once.
    fn install_wakeups(&self, wakeups: Vec<Arc<Wakeup>>) {
        let on_park = wakeups.clone();
        self.registry.on_park(Box::new(move || {
            for w in &on_park {
                w.signal();
            }
        }));
        let _ = self.wakeups.set(wakeups);
    }

    /// Wake every shard to re-read the daemon's control state (drain mode,
    /// halt, migration orders).
    pub(crate) fn wake_shards(&self) {
        for w in self.wakeups.get().into_iter().flatten() {
            w.signal();
        }
    }

    /// Halt the daemon: shards force-close their connections and exit,
    /// reactor-path trunk hosts stop.
    pub(crate) fn begin_halt(&self) {
        self.halt.store(true, Ordering::SeqCst);
        self.wake_shards();
        for trunk in self.trunks.lock().drain(..) {
            trunk.close();
        }
    }

    /// The single session-finalize path: record the report of a session
    /// whose handshake completed, then give the admission slot back.
    pub(crate) fn end_session(&self, report: Option<SessionReport>) {
        if let Some(report) = report {
            let c = &self.counters;
            if report.panicked {
                c.panics.fetch_add(1, Ordering::SeqCst);
            }
            c.reclaimed_bytes
                .fetch_add(report.reclaimed_bytes, Ordering::SeqCst);
            self.reports.lock().push(report);
            self.sessions_served.fetch_add(1, Ordering::SeqCst);
        }
        self.drain.note_closed();
        self.release_slot();
    }

    /// Balance an admission as a finished connection and wake waiters. Also
    /// the whole ending of connections that never became sessions (a mux
    /// upgrade, a socket that died before reaching a shard).
    pub(crate) fn release_slot(&self) {
        self.counters.served.fetch_add(1, Ordering::SeqCst);
        // `live` goes last: a drain watching it hit zero must observe this
        // connection's graceful/forced accounting already settled.
        self.counters.live.fetch_sub(1, Ordering::SeqCst);
        let _guard = self.settled.lock.lock().expect("settled lock");
        self.settled.cv.notify_all();
    }

    /// Block until `done` holds (checked again after every released slot)
    /// or `timeout` passes. Returns whether `done` held.
    pub(crate) fn wait_until(
        &self,
        timeout: Option<Duration>,
        done: impl Fn(&Shared) -> bool,
    ) -> bool {
        let guard = self.settled.lock.lock().expect("settled lock");
        let pending = |_: &mut ()| !done(self);
        let cv = &self.settled.cv;
        match timeout {
            None => {
                drop(cv.wait_while(guard, pending).expect("settled lock"));
                true
            }
            Some(t) => {
                let (_guard, waited) = cv
                    .wait_timeout_while(guard, t, pending)
                    .expect("settled lock");
                !waited.timed_out()
            }
        }
    }
}

/// A freshly admitted connection on its way to a shard.
pub(crate) struct NewConn {
    pub(crate) transport: Box<dyn Transport>,
    /// TCP-only: a clone of the socket so a forced close can shut the peer
    /// down at the OS level (in-process transports see plain EOF instead).
    pub(crate) raw: Option<TcpStream>,
    pub(crate) device: Arc<GpuDevice>,
    pub(crate) guard: PoolGuard,
    /// The connection arrived through an authenticated mux trunk: the
    /// auth gate on legacy hellos does not apply to it.
    pub(crate) authenticated: bool,
}

struct ShardHandle {
    tx: Sender<NewConn>,
    queued: Arc<AtomicU32>,
    wakeup: Arc<Wakeup>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

/// The running shard pool. Dropping the reactor does not stop the shards —
/// call [`Shared::begin_halt`] first, then [`Reactor::join`].
pub(crate) struct Reactor {
    shards: Vec<ShardHandle>,
    next: AtomicUsize,
}

impl Reactor {
    /// Spawn `n` shard threads (at least one) over `shared`, each blocking
    /// in its own [`Poller`].
    pub(crate) fn start(n: usize, shared: &Arc<Shared>) -> io::Result<Reactor> {
        let pollers = (0..n.max(1))
            .map(|_| Poller::new())
            .collect::<io::Result<Vec<_>>>()?;
        let wakeups: Vec<Arc<Wakeup>> = pollers.iter().map(|p| Arc::clone(p.wakeup())).collect();
        shared.install_wakeups(wakeups);
        let shards = pollers
            .into_iter()
            .enumerate()
            .map(|(id, poller)| {
                let (tx, rx) = unbounded::<NewConn>();
                let queued = Arc::new(AtomicU32::new(0));
                let wakeup = Arc::clone(poller.wakeup());
                let shard_queued = Arc::clone(&queued);
                let shard_shared = Arc::clone(shared);
                let thread = std::thread::Builder::new()
                    .name(format!("rcuda-shard-{id}"))
                    .spawn(move || shard_loop(id as u32, rx, shard_queued, shard_shared, poller))
                    .expect("spawn reactor shard");
                ShardHandle {
                    tx,
                    queued,
                    wakeup,
                    thread: Mutex::new(Some(thread)),
                }
            })
            .collect();
        Ok(Reactor {
            shards,
            next: AtomicUsize::new(0),
        })
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Hand an admitted connection to the next shard (round-robin).
    pub(crate) fn submit(&self, conn: NewConn) {
        let shard = &self.shards[self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len()];
        shard.queued.fetch_add(1, Ordering::SeqCst);
        if shard.tx.send(conn).is_err() {
            // Shard already halted (daemon dropping): nothing to serve the
            // connection with; the NewConn drop closes it.
            shard.queued.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        shard.wakeup.signal();
    }

    /// Join every shard thread. Callers must call [`Shared::begin_halt`]
    /// first or this blocks forever.
    pub(crate) fn join(&self) {
        for shard in &self.shards {
            if let Some(t) = shard.thread.lock().take() {
                let _ = t.join();
            }
        }
    }
}

// --------------------------------------------------------------- the shard

/// The shard's connections, addressed by `generation << 32 | slot` keys: a
/// key that outlives its connection (a late wake, a stale ready event)
/// fails the generation check instead of reaching the slot's next tenant.
#[derive(Default)]
struct Slab {
    slots: Vec<(u32, Option<Conn>)>,
    free: Vec<u32>,
    len: usize,
}

impl Slab {
    fn insert_with(&mut self, make: impl FnOnce(u64) -> Conn) -> u64 {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push((0, None));
            (self.slots.len() - 1) as u32
        });
        let entry = &mut self.slots[slot as usize];
        let key = u64::from(entry.0) << 32 | u64::from(slot);
        entry.1 = Some(make(key));
        self.len += 1;
        key
    }

    fn get_mut(&mut self, key: u64) -> Option<&mut Conn> {
        match self.slots.get_mut(key as u32 as usize) {
            Some((generation, conn)) if u64::from(*generation) == key >> 32 => conn.as_mut(),
            _ => None,
        }
    }

    fn remove(&mut self, key: u64) -> Conn {
        let slot = key as u32;
        let entry = &mut self.slots[slot as usize];
        entry.0 = entry.0.wrapping_add(1);
        self.free.push(slot);
        self.len -= 1;
        entry.1.take().expect("removing a live connection")
    }

    /// Keys of every connection `pick` selects.
    fn keys_where(&self, pick: impl Fn(&Conn) -> bool, out: &mut Vec<u64>) {
        for (slot, (generation, conn)) in self.slots.iter().enumerate() {
            if conn.as_ref().is_some_and(&pick) {
                out.push(u64::from(*generation) << 32 | slot as u64);
            }
        }
    }
}

fn shard_loop(
    id: u32,
    rx: Receiver<NewConn>,
    queued: Arc<AtomicU32>,
    shared: Arc<Shared>,
    mut poller: Poller,
) {
    let pool = BufferPool::new();
    let clock = wall_clock();
    let obs = shared.config.observer.clone();
    let mut conns = Slab::default();
    // Connections to pump this pass.
    let mut ready: Vec<u64> = Vec::new();
    // Pumped again without waiting: their last pump stopped on a budget
    // with work left.
    let mut hot: Vec<u64> = Vec::new();
    // A `Reconnect` waiting for its session to be parked: pumped on every
    // wake (a park signals all shards) and at the earliest deadline.
    let mut resuming: Vec<u64> = Vec::new();
    let mut migration_orders = shared.migrations.generation();
    // When to hand memory freed by finished bulk connections back to the
    // OS (see [`release_freed_memory`]).
    let mut trim_at: Option<Instant> = None;

    loop {
        let halting = shared.halt.load(Ordering::SeqCst);
        let forcing = halting || shared.drain.forcing();
        let depth = queued.load(Ordering::SeqCst);
        let started = clock.now();

        // Register freshly admitted connections.
        let mut admitted: u32 = 0;
        while let Ok(new) = rx.try_recv() {
            queued.fetch_sub(1, Ordering::SeqCst);
            ready.push(
                conns.insert_with(|key| Conn::register(new, key, &pool, &shared, &mut poller)),
            );
            admitted += 1;
        }
        if forcing {
            conns.keys_where(|_| true, &mut ready);
        } else if shared.migrations.generation() != migration_orders {
            // A new order: idle running sessions must reach the quiesce
            // point without waiting for their clients.
            migration_orders = shared.migrations.generation();
            conns.keys_where(|c| c.live_token.is_some(), &mut ready);
        }
        ready.append(&mut resuming);
        ready.append(&mut hot);
        ready.sort_unstable();
        ready.dedup();

        let mut frames: u32 = 0;
        for key in ready.drain(..) {
            let Some(conn) = conns.get_mut(key) else {
                continue;
            };
            if let Some(waker) = &conn.waker {
                waker.rearm();
            }
            if forcing {
                conn.force_close();
            }
            let act = conn.pump(&shared);
            frames += act.frames;
            if conn.done {
                let mut conn = conns.remove(key);
                if let Some(raw) = &conn.raw {
                    poller.deregister(raw, key);
                }
                if conn.read_chunk == READ_CHUNK_MAX || conn.out.capacity() >= READ_CHUNK_MAX {
                    trim_at = Some(Instant::now() + TRIM_DELAY);
                }
                if let Some(hello) = conn.upgrade.take() {
                    conn.upgrade_to_mux(hello, &shared);
                }
                continue;
            }
            if act.hot {
                hot.push(key);
            }
            if conn.resume_deadline.is_some() {
                resuming.push(key);
            }
            conn.update_interest(&mut poller, key);
        }

        if frames > 0 || admitted > 0 {
            obs.emit_shard(&ShardSpan {
                shard: id,
                sessions: conns.len as u32,
                queue_depth: depth,
                frames,
                start: started,
                end: clock.now(),
            });
        }

        if halting && conns.len == 0 && queued.load(Ordering::SeqCst) == 0 {
            break;
        }

        let timeout = if !hot.is_empty() || queued.load(Ordering::SeqCst) > 0 {
            Some(Duration::ZERO)
        } else {
            resuming
                .iter()
                .filter_map(|&key| conns.get_mut(key).and_then(|c| c.resume_deadline))
                .chain(trim_at)
                .min()
                .map(|deadline| deadline.saturating_duration_since(Instant::now()))
        };
        poller
            .wait(timeout, &mut ready)
            .expect("waiting on the shard's own poller");
        if trim_at.is_some_and(|at| Instant::now() >= at) {
            trim_at = None;
            release_freed_memory();
        }
    }
}

/// Hand memory freed by finished bulk connections back to the OS. glibc
/// keeps freed heap memory mapped, and after the first large buffer it
/// frees it serves buffers up to that size from the heap too, so a daemon
/// would otherwise stay at the footprint of its largest past transfer.
/// `malloc_trim` is process-wide; a shard runs it [`TRIM_DELAY`] after the
/// last connection that moved bulk data (256 KiB reads or replies) ended,
/// so back-to-back bulk sessions reuse each other's memory instead of
/// faulting it in again.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_freed_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: `malloc_trim` only returns free heap pages to the kernel,
    // under the allocator's own locks; no live allocation is touched.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_freed_memory() {}

// ---------------------------------------------------------- the connection

struct PumpResult {
    frames: u32,
    /// The pump stopped on a budget (frames or read bytes) with work left:
    /// pump again without waiting for a wake.
    hot: bool,
}

struct Conn {
    transport: Box<dyn Transport>,
    raw: Option<TcpStream>,
    /// Fd-less transports' waker (see [`crate::poller`]); TCP connections
    /// are woken through their registered socket instead.
    waker: Option<Arc<ConnWaker>>,
    /// What the registered socket currently waits for.
    interest: Option<Interest>,
    decoder: StreamDecoder,
    /// Outbound bytes not yet accepted by the transport.
    out: Vec<u8>,
    out_pos: usize,
    /// Total bytes ever flushed, for the handshake watermark.
    flushed_total: u64,
    /// Once the outbound bytes up to this watermark are flushed, the
    /// handshake has observably completed and the session produces a
    /// report — exactly the connections whose blocking driver returned
    /// `Ok(report)` rather than a handshake error.
    handshake_done_at: Option<u64>,
    /// The session; taken by finalize (or dropped by a mux upgrade).
    core: Option<SessionCore>,
    /// A `Reconnect` arrived before the dying connection parked the
    /// session: the registry is checked again on every shard wake until
    /// this deadline (the nonblocking form of
    /// `SessionRegistry::take_deadline`).
    resume_deadline: Option<Instant>,
    /// The resumable session token advertised in `Shared::live_tokens`.
    live_token: Option<u64>,
    /// Drain the outbound buffer, then finalize.
    closing: bool,
    /// The client asked for a mux trunk; the shard hands the connection
    /// over once the pass ends.
    upgrade: Option<MuxHello>,
    read_chunk: usize,
    eof: bool,
    done: bool,
    guard: Option<PoolGuard>,
}

impl Conn {
    fn register(
        new: NewConn,
        key: u64,
        pool: &BufferPool,
        shared: &Shared,
        poller: &mut Poller,
    ) -> Conn {
        let NewConn {
            transport,
            raw,
            device,
            guard,
            authenticated,
        } = new;
        let mut out = Vec::new();
        let core = SessionCore::new(
            &device,
            wall_clock(),
            pool.clone(),
            authenticated,
            &shared.config,
            &mut out,
        );
        let mut conn = Conn {
            transport,
            raw,
            waker: None,
            interest: None,
            decoder: StreamDecoder::new(),
            out,
            out_pos: 0,
            flushed_total: 0,
            handshake_done_at: None,
            core: Some(core),
            resume_deadline: None,
            live_token: None,
            closing: false,
            upgrade: None,
            read_chunk: READ_CHUNK_MIN,
            eof: false,
            done: false,
            guard: Some(guard),
        };
        // A transport the shard cannot drive nonblocking or wait on is
        // closed immediately (register still returns a Conn so the daemon
        // counters balance through the normal finalize path).
        let waitable = conn
            .transport
            .set_nonblocking(true)
            .and_then(|()| match &conn.raw {
                Some(raw) => {
                    let interest = conn.wanted();
                    poller.register(raw, key, interest)?;
                    conn.interest = Some(interest);
                    Ok(())
                }
                None => {
                    let waker = ConnWaker::new(poller.wakeup(), key);
                    conn.transport.set_waker(Waker::from(Arc::clone(&waker)))?;
                    conn.waker = Some(waker);
                    Ok(())
                }
            });
        if waitable.is_err() {
            conn.abort();
        }
        conn
    }

    /// The readiness a registered socket should wait for: readable until
    /// EOF or close, writable only while output is pending.
    fn wanted(&self) -> Interest {
        Interest {
            read: !self.eof && !self.closing,
            write: self.out_pos < self.out.len(),
        }
    }

    /// Re-register the socket if its wanted readiness changed.
    fn update_interest(&mut self, poller: &mut Poller, key: u64) {
        let (Some(raw), Some(current)) = (&self.raw, self.interest) else {
            return;
        };
        let wanted = self.wanted();
        if wanted != current {
            if poller.reregister(raw, key, wanted).is_err() {
                // The socket can no longer be waited on: end the
                // connection on the next pass.
                self.force_close();
                self.interest = None;
                return;
            }
            self.interest = Some(wanted);
        }
    }

    fn eligible(&self) -> bool {
        self.handshake_done_at
            .is_some_and(|w| self.flushed_total >= w)
    }

    /// Close without ever producing a report: the nonblocking equivalent
    /// of the blocking driver returning a handshake `Err`.
    fn abort(&mut self) {
        self.handshake_done_at = None;
        self.out_pos = self.out.len();
        self.closing = true;
    }

    /// Drain-deadline or daemon-halt close: shut the peer down and
    /// finalize now, abandoning undeliverable output.
    fn force_close(&mut self) {
        if let Some(raw) = &self.raw {
            let _ = raw.shutdown(Shutdown::Both);
        }
        self.eof = true;
        self.out_pos = self.out.len();
        self.closing = true;
    }

    /// A write failure is a vanished peer. Before the handshake watermark
    /// flushed this matches a blocking handshake error (no report); after
    /// it, a disconnect (report, park-eligible).
    fn on_write_failure(&mut self) {
        if self.eligible() {
            self.out_pos = self.out.len();
            self.closing = true;
        } else {
            self.abort();
        }
    }

    /// Push pending outbound bytes into the transport.
    fn flush_out(&mut self) {
        while self.out_pos < self.out.len() {
            match self.transport.try_write(&self.out[self.out_pos..]) {
                Ok(Progress::Ready(0)) | Ok(Progress::Pending) => break,
                Ok(Progress::Ready(n)) => {
                    self.out_pos += n;
                    self.flushed_total += n as u64;
                }
                Err(_) => return self.on_write_failure(),
            }
        }
        if self.out_pos >= self.out.len() && !self.out.is_empty() {
            self.out.clear();
            self.out_pos = 0;
            // Mark the message boundary. On a nonblocking endpoint a flush
            // that cannot complete right now reports WouldBlock and is
            // retried implicitly by the next pass's writes.
            if let Err(e) = self.transport.flush() {
                if e.kind() != io::ErrorKind::WouldBlock {
                    self.on_write_failure();
                }
            }
        }
    }

    /// One pass over a ready connection: flush, read, step the session,
    /// flush, finalize.
    fn pump(&mut self, shared: &Arc<Shared>) -> PumpResult {
        let mut res = PumpResult {
            frames: 0,
            hot: false,
        };
        self.flush_out();
        if !self.eof && !self.closing {
            res.hot = self.read_available();
        }

        self.process(shared, &mut res);
        if self.done {
            return res;
        }

        self.flush_out();
        self.quiesce_for_migration(shared);
        if self.closing && self.out_pos >= self.out.len() {
            self.finalize(shared);
        }
        res
    }

    /// Read what the transport has, growing the chunk for connections that
    /// move bulk data. Fd-less transports signal their waker once per
    /// arrival, so they are read until `Pending`; a registered socket is
    /// level triggered, so a short read (which drained it) ends the loop.
    /// Returns whether the byte budget stopped the loop with input left.
    fn read_available(&mut self) -> bool {
        let mut budget = READ_BUDGET;
        loop {
            let chunk = self.read_chunk;
            match self.transport.try_read(self.decoder.space(chunk)) {
                Ok(Progress::Ready(0)) => self.eof = true,
                Ok(Progress::Ready(n)) => {
                    self.decoder.commit(n);
                    if n == chunk && chunk < READ_CHUNK_MAX {
                        self.read_chunk = (chunk * 2).min(READ_CHUNK_MAX);
                    }
                    budget = budget.saturating_sub(n);
                    if budget == 0 {
                        return self.waker.is_some();
                    }
                    if n < chunk && self.waker.is_none() {
                        return false;
                    }
                    continue;
                }
                Ok(Progress::Pending) => {}
                // A read error is a client disconnect, not a server
                // fault — same as EOF once buffered frames are served.
                Err(_) => self.eof = true,
            }
            return false;
        }
    }

    /// Step the session over every buffered message, up to the per-pass
    /// frame budget.
    fn process(&mut self, shared: &Arc<Shared>, res: &mut PumpResult) {
        let config = &shared.config;
        while !self.closing {
            if res.frames == FRAMES_PER_PASS {
                res.hot = true;
                return;
            }
            let Some(core) = self.core.as_mut() else {
                return;
            };
            let step = match core.step(
                &mut self.decoder,
                self.eof,
                &mut self.out,
                config,
                &shared.registry,
            ) {
                Ok(step) => step,
                Err(_) => return self.abort(),
            };
            match step {
                Step::NeedInput => return,
                Step::Served => res.frames += 1,
                Step::Handshaken => self.on_handshaken(shared),
                Step::Resume(session) => {
                    if self.eof {
                        return self.abort();
                    }
                    let deadline = *self
                        .resume_deadline
                        .get_or_insert_with(|| Instant::now() + RESUME_WAIT);
                    let ctx = shared.registry.take(session);
                    if ctx.is_none() && Instant::now() < deadline {
                        return;
                    }
                    self.resume_deadline = None;
                    core.resume(ctx, &mut self.out, config);
                    self.on_handshaken(shared);
                }
                Step::Mux(hello) => {
                    self.upgrade = Some(hello);
                    self.done = true;
                    return;
                }
                Step::Closed => self.closing = true,
            }
        }
    }

    /// The hello reply is queued: set the handshake watermark and
    /// advertise a running resumable session's token.
    fn on_handshaken(&mut self, shared: &Shared) {
        let pending = (self.out.len() - self.out_pos) as u64;
        self.handshake_done_at = Some(self.flushed_total + pending);
        self.live_token = self.core.as_ref().and_then(SessionCore::running_token);
        if let Some(token) = self.live_token {
            shared.live_tokens.lock().insert(token);
        }
    }

    /// Live-migration quiesce point. A running session whose token has an
    /// armed migration order is captured at a frame boundary: every
    /// response flushed, no partial request buffered, peer still present.
    /// The context travels to `RcudaDaemon::migrate_out` through the
    /// order's channel; the connection then closes without parking (the
    /// session lives elsewhere now), and the client's reconnect finds it
    /// on the target daemon.
    fn quiesce_for_migration(&mut self, shared: &Shared) {
        if !shared.migrations.is_armed() || self.closing || self.eof {
            return;
        }
        let Some(core) = self.core.as_mut() else {
            return;
        };
        let Some(token) = core.running_token() else {
            return;
        };
        if self.out_pos < self.out.len() || self.decoder.buffered() != 0 {
            return;
        }
        let Some(tx) = shared.migrations.take(token) else {
            return;
        };
        if !core.migrate(&tx) {
            return;
        }
        shared.live_tokens.lock().remove(&token);
        self.live_token = None;
        self.force_close();
    }

    /// The client asked for the multiplexed framing layer: hand this
    /// connection to a dedicated trunk host (see [`crate::mux_host`]). The
    /// trunk is not a session — its sub-streams are admitted individually —
    /// so the warm context and pool seat are returned and the accept-time
    /// accounting is balanced here as an immediately-finished connection.
    fn upgrade_to_mux(mut self, hello: MuxHello, shared: &Arc<Shared>) {
        drop(self.core.take());
        drop(self.guard.take());
        shared.release_slot();
        crate::mux_host::spawn_reactor_trunk(
            self.transport,
            self.raw,
            hello,
            self.decoder.take_buffered(),
            self.out.split_off(self.out_pos),
            Arc::clone(shared),
        );
    }

    /// Connection end: the session's report (only if its handshake
    /// observably completed), then the daemon-side accounting.
    fn finalize(&mut self, shared: &Shared) {
        self.done = true;
        drop(self.guard.take());
        if let Some(token) = self.live_token.take() {
            // Parked tokens are advertised through the registry instead.
            shared.live_tokens.lock().remove(&token);
        }
        let core = self.core.take().expect("finalized once");
        let report = if self.eligible() {
            Some(core.finish(&shared.config, &shared.registry))
        } else {
            // The handshake never observably completed: contexts drop
            // silently, mirroring the blocking driver's early `Err` return
            // (a warm, allocation-free context releases nothing).
            drop(core);
            None
        };
        shared.end_session(report);
    }
}
