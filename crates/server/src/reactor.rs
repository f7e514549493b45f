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

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;
use rcuda_core::time::wall_clock;
use rcuda_core::Clock as _;
use rcuda_gpu::{GpuContext, GpuDevice};
use rcuda_obs::ShardSpan;
use rcuda_proto::mux::MuxHello;
use rcuda_proto::{BufferPool, StreamDecoder};
use rcuda_transport::{Progress, Transport};
use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
/// neighbors (leftover frames stay buffered and the pass is re-run hot).
const FRAMES_PER_PASS: u32 = 64;
/// Longest idle-shard sleep. Bounds resume-poll and drain-notice latency.
const IDLE_SLEEP_MAX_US: u64 = 2_000;

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
}

impl MigrationTable {
    /// Arm an order for `session`; the context arrives on the returned
    /// channel once its connection reaches a frame boundary.
    pub(crate) fn arm(&self, session: u64) -> Receiver<GpuContext> {
        let (tx, rx) = unbounded();
        self.orders.lock().insert(session, tx);
        self.armed.store(true, Ordering::SeqCst);
        rx
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
}

/// Wakes daemon threads waiting for sessions to end
/// ([`crate::daemon::RcudaDaemon::wait_for_sessions`] and `drain`).
#[derive(Default)]
pub(crate) struct Settled {
    lock: std::sync::Mutex<()>,
    cv: Condvar,
}

impl Shared {
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
    thread: Mutex<Option<JoinHandle<()>>>,
}

/// The running shard pool. Dropping the reactor does not stop the shards —
/// set `Shared::halt` first, then call [`Reactor::join`].
pub(crate) struct Reactor {
    shards: Vec<ShardHandle>,
    next: AtomicUsize,
}

impl Reactor {
    /// Spawn `n` shard threads (at least one) over `shared`.
    pub(crate) fn start(n: usize, shared: &Arc<Shared>) -> Reactor {
        let shards = (0..n.max(1) as u32)
            .map(|id| {
                let (tx, rx) = unbounded::<NewConn>();
                let queued = Arc::new(AtomicU32::new(0));
                let shard_queued = Arc::clone(&queued);
                let shard_shared = Arc::clone(shared);
                let thread = std::thread::Builder::new()
                    .name(format!("rcuda-shard-{id}"))
                    .spawn(move || shard_loop(id, rx, shard_queued, shard_shared))
                    .expect("spawn reactor shard");
                ShardHandle {
                    tx,
                    queued,
                    thread: Mutex::new(Some(thread)),
                }
            })
            .collect();
        Reactor {
            shards,
            next: AtomicUsize::new(0),
        }
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Hand an admitted connection to the next shard (round-robin).
    pub(crate) fn submit(&self, conn: NewConn) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.shards[i].queued.fetch_add(1, Ordering::SeqCst);
        if self.shards[i].tx.send(conn).is_err() {
            // Shard already halted (daemon dropping): nothing to serve the
            // connection with; the NewConn drop closes it.
            self.shards[i].queued.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Join every shard thread. Callers must set `Shared::halt` first or
    /// this blocks forever.
    pub(crate) fn join(&self) {
        for shard in &self.shards {
            if let Some(t) = shard.thread.lock().take() {
                let _ = t.join();
            }
        }
    }
}

// --------------------------------------------------------------- the shard

fn shard_loop(id: u32, rx: Receiver<NewConn>, queued: Arc<AtomicU32>, shared: Arc<Shared>) {
    let pool = BufferPool::new();
    let clock = wall_clock();
    let obs = shared.config.observer.clone();
    let mut conns: Vec<Conn> = Vec::new();
    let mut idle_passes: u32 = 0;

    loop {
        let halting = shared.halt.load(Ordering::SeqCst);
        let forcing = halting || shared.drain.forcing();
        let depth = queued.load(Ordering::SeqCst);
        let started = clock.now();

        // Register freshly admitted connections.
        let mut admitted: u32 = 0;
        loop {
            match rx.try_recv() {
                Ok(new) => {
                    queued.fetch_sub(1, Ordering::SeqCst);
                    conns.push(Conn::register(new, &pool, &shared));
                    admitted += 1;
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break,
            }
        }

        // One readiness pass over every connection.
        let mut frames: u32 = 0;
        let mut moved = admitted > 0;
        let mut i = 0;
        while i < conns.len() {
            let conn = &mut conns[i];
            if forcing {
                conn.force_close();
            }
            let act = conn.pump(&shared);
            frames += act.frames;
            moved |= act.progress;
            if conn.done {
                let mut conn = conns.swap_remove(i);
                if let Some(hello) = conn.upgrade.take() {
                    conn.upgrade_to_mux(hello, &shared);
                }
            } else {
                i += 1;
            }
        }

        if frames > 0 || admitted > 0 {
            obs.emit_shard(&ShardSpan {
                shard: id,
                sessions: conns.len() as u32,
                queue_depth: depth,
                frames,
                start: started,
                end: clock.now(),
            });
        }

        if halting && conns.is_empty() && queued.load(Ordering::SeqCst) == 0 {
            break;
        }

        // Adaptive idle backoff: spin briefly for latency, then sleep with
        // a bounded ceiling so resume polls and drain flags stay fresh.
        if moved {
            idle_passes = 0;
        } else {
            idle_passes = idle_passes.saturating_add(1);
            if idle_passes < 8 {
                std::thread::yield_now();
            } else {
                let us = (u64::from(idle_passes) * 50).min(IDLE_SLEEP_MAX_US);
                std::thread::sleep(Duration::from_micros(us));
            }
        }
    }
}

// ---------------------------------------------------------- the connection

struct PumpResult {
    frames: u32,
    progress: bool,
}

struct Conn {
    transport: Box<dyn Transport>,
    raw: Option<TcpStream>,
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
    /// session: the registry is polled until this deadline (the
    /// nonblocking form of `SessionRegistry::take_deadline`).
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
    fn register(new: NewConn, pool: &BufferPool, shared: &Shared) -> Conn {
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
        // A transport without a nonblocking half cannot be multiplexed;
        // close it immediately (register still returns a Conn so the
        // daemon counters balance through the normal finalize path).
        if conn.transport.set_nonblocking(true).is_err() {
            conn.abort();
        }
        conn
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

    /// Push pending outbound bytes into the transport. Returns whether any
    /// bytes moved.
    fn flush_out(&mut self) -> bool {
        let mut progress = false;
        while self.out_pos < self.out.len() {
            match self.transport.try_write(&self.out[self.out_pos..]) {
                Ok(Progress::Ready(0)) | Ok(Progress::Pending) => break,
                Ok(Progress::Ready(n)) => {
                    self.out_pos += n;
                    self.flushed_total += n as u64;
                    progress = true;
                }
                Err(_) => {
                    self.on_write_failure();
                    return progress;
                }
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
        progress
    }

    /// One readiness pass: flush, read, step the session, flush, finalize.
    fn pump(&mut self, shared: &Arc<Shared>) -> PumpResult {
        let mut res = PumpResult {
            frames: 0,
            progress: false,
        };
        res.progress |= self.flush_out();

        // Read whatever the transport has, growing the chunk for
        // connections that move bulk data.
        if !self.eof && !self.closing {
            loop {
                let chunk = self.read_chunk;
                let space = self.decoder.space(chunk);
                match self.transport.try_read(space) {
                    Ok(Progress::Ready(0)) => {
                        self.eof = true;
                        res.progress = true;
                        break;
                    }
                    Ok(Progress::Ready(n)) => {
                        self.decoder.commit(n);
                        res.progress = true;
                        if n == chunk && chunk < READ_CHUNK_MAX {
                            self.read_chunk = (chunk * 2).min(READ_CHUNK_MAX);
                        } else {
                            break;
                        }
                    }
                    Ok(Progress::Pending) => break,
                    // A read error is a client disconnect, not a server
                    // fault — same as EOF once buffered frames are served.
                    Err(_) => {
                        self.eof = true;
                        break;
                    }
                }
            }
        }

        self.process(shared, &mut res);
        if self.done {
            return res;
        }

        res.progress |= self.flush_out();
        self.quiesce_for_migration(shared, &mut res);
        if self.closing && self.out_pos >= self.out.len() {
            self.finalize(shared);
            res.progress = true;
        }
        res
    }

    /// Step the session over every buffered message, up to the per-pass
    /// frame budget.
    fn process(&mut self, shared: &Arc<Shared>, res: &mut PumpResult) {
        let config = &shared.config;
        while !self.closing && res.frames < FRAMES_PER_PASS {
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
                    core.resume(ctx, &mut self.out, config);
                    self.on_handshaken(shared);
                }
                Step::Mux(hello) => {
                    self.upgrade = Some(hello);
                    self.done = true;
                    res.progress = true;
                    return;
                }
                Step::Closed => self.closing = true,
            }
            res.progress = true;
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
    fn quiesce_for_migration(&mut self, shared: &Shared, res: &mut PumpResult) {
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
        res.progress = true;
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
