//! Stream multiplexing over one ordered byte transport.
//!
//! A [`MuxPeer`] owns the "trunk" — the split halves of an underlying
//! [`Transport`] — and demultiplexes [`rcuda_proto::mux`] frames onto
//! independent [`MuxStream`]s, each of which is itself a full [`Transport`].
//! Bulk payloads are chopped into [`CHUNK`]-sized DATA frames at flush, so
//! a 16 MiB memcpy on one stream serializes as 256 interleavable frames and
//! a small control call on a sibling stream waits behind at most one chunk
//! — the head-of-line-blocking fix measured by the `multiplex` bench.
//!
//! ## Threading model
//!
//! One detached demux thread per trunk owns the read half and blocks on
//! frame headers; inbound DATA lands in per-stream inboxes of pooled
//! buffers ([`BufferPool`] — the zero-copy path stays allocation-free in
//! steady state). Writers share the write half behind a mutex, locking per
//! frame: one frame, one flush, so frames from different streams interleave
//! at chunk granularity and the [`crate::StreamFaultWrite`] wrapper can
//! attribute every flush to its stream.
//!
//! ## Flow control
//!
//! Every stream starts with [`INITIAL_WINDOW`] bytes of send credit;
//! consuming reads re-grant via CREDIT frames once [`CREDIT_REFRESH`] bytes
//! have been drained. A blocked writer parks on a condvar (blocking path)
//! or reports [`Progress::Pending`] (nonblocking path, so a reactor shard
//! simply retries from its out-buffer). Because the sender never exceeds
//! its window, a stream's inbox is bounded by the window size — a stalled
//! reader cannot balloon the process.
//!
//! ## Encryption
//!
//! When a cipher was negotiated at the handshake (see
//! [`rcuda_proto::secure`]), each `(stream, direction)` pair runs its own
//! keystream lane; payloads are encrypted in place as frames are emitted
//! and decrypted as they land. Frame headers stay in the clear — the demux
//! loop needs them, and they carry no payload data.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::task::Waker;
use std::time::Duration;

use rcuda_obs::{Dir, ObsHandle};
use rcuda_proto::mux::{
    FrameHeader, FrameKind, CHUNK, CREDIT_REFRESH, INITIAL_WINDOW, TRUNK_STREAM,
};
use rcuda_proto::payload::{BufferPool, PooledBuf};
use rcuda_proto::secure::{CipherSuite, CipherSuiteKind};

use crate::stats::TransportStats;
use crate::{Progress, ReadHalf, Transport, WriteHalf};

/// Which end of the trunk this peer is. The client opens streams; the
/// server accepts them. The role also fixes which cipher lane each
/// direction uses, so both ends agree without negotiation per stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MuxRole {
    Client,
    Server,
}

/// Cipher lane direction tags (must agree between the two ends).
const DIR_CLIENT_TO_SERVER: u8 = 0;
const DIR_SERVER_TO_CLIENT: u8 = 1;

/// Configuration for a [`MuxPeer`], produced by the upgrade handshake.
pub struct MuxConfig {
    /// Negotiated cipher ([`CipherSuiteKind::None`] = cleartext).
    pub cipher: CipherSuiteKind,
    /// Session key derived from the handshake transcript (ignored when
    /// `cipher` is `None`).
    pub key: [u8; 32],
    /// Pool for inbound frame buffers (share the session's pool to keep
    /// the steady-state receive path allocation-free).
    pub pool: BufferPool,
    /// Observer for per-frame [`rcuda_obs::StreamFrameEvent`]s.
    pub obs: ObsHandle,
}

impl Default for MuxConfig {
    fn default() -> MuxConfig {
        MuxConfig {
            cipher: CipherSuiteKind::None,
            key: [0u8; 32],
            pool: BufferPool::new(),
            obs: ObsHandle::none(),
        }
    }
}

/// One received DATA frame queued for consumption.
struct InChunk {
    buf: PooledBuf,
    pos: usize,
    end_of_message: bool,
}

/// FIFO ticket lock around the trunk's write half.
///
/// A plain mutex is unfair: a bulk stream re-acquiring it in a tight
/// chunk-emitting loop can starve a sibling stream's single small frame
/// for the whole transfer — exactly the head-of-line blocking the mux
/// exists to remove. Tickets grant the writer in arrival order, so a
/// waiting small frame departs after at most the chunks already in line.
struct FairWriter {
    inner: Mutex<FairWriterInner>,
    turn: Condvar,
    next_ticket: AtomicU64,
}

struct FairWriterInner {
    writer: WriteHalf,
    serving: u64,
}

impl FairWriter {
    fn new(writer: WriteHalf) -> FairWriter {
        FairWriter {
            inner: Mutex::new(FairWriterInner { writer, serving: 0 }),
            turn: Condvar::new(),
            next_ticket: AtomicU64::new(0),
        }
    }

    /// Run `f` with exclusive access to the write half, in FIFO order
    /// among concurrent callers.
    fn with<R>(&self, f: impl FnOnce(&mut WriteHalf) -> R) -> R {
        let ticket = self.next_ticket.fetch_add(1, Ordering::SeqCst);
        let mut inner = self.inner.lock().unwrap();
        while inner.serving != ticket {
            inner = self.turn.wait(inner).unwrap();
        }
        let out = f(&mut inner.writer);
        inner.serving += 1;
        drop(inner);
        self.turn.notify_all();
        out
    }
}

/// Mutable per-stream state, guarded by one mutex per stream.
struct StreamState {
    inbox: VecDeque<InChunk>,
    /// Peer sent CLOSE: reads drain the inbox then report EOF.
    closed: bool,
    /// Trunk died: reads fail once the inbox drains, writes fail now.
    poisoned: bool,
    /// Our remaining send window, in bytes.
    credit: u64,
    /// Message-end markers that arrived as bare zero-length frames after
    /// the inbox had already drained: the consumer accounts them on its
    /// next state access.
    orphan_ends: u32,
}

struct StreamShared {
    state: Mutex<StreamState>,
    /// Signaled when the inbox grows, the stream closes, or the trunk dies.
    readable: Condvar,
    /// Signaled when credit arrives or the trunk dies.
    writable: Condvar,
    /// The nonblocking path's waker ([`Transport::set_waker`]), signaled
    /// alongside either condvar.
    waker: Mutex<Option<Waker>>,
    /// Receive-direction cipher lane (applied by the demux thread).
    rx_cipher: Mutex<Option<Box<dyn CipherSuite>>>,
}

impl StreamShared {
    fn notify(&self, cv: &Condvar) {
        cv.notify_all();
        if let Some(waker) = self.waker.lock().unwrap().as_ref() {
            waker.wake_by_ref();
        }
    }

    fn poison(&self) {
        self.state.lock().unwrap().poisoned = true;
        self.writable.notify_all();
        self.notify(&self.readable);
    }
}

/// Shared trunk state: the guarded write half plus the stream registry.
struct TrunkCore {
    writer: FairWriter,
    streams: Mutex<HashMap<u32, Arc<StreamShared>>>,
    pool: BufferPool,
    dead: AtomicBool,
    /// Paired with `died` for [`MuxPeer::wait_dead`].
    dead_lock: Mutex<()>,
    died: Condvar,
    obs: ObsHandle,
    role: MuxRole,
    cipher: CipherSuiteKind,
    key: [u8; 32],
}

impl TrunkCore {
    /// Emit one frame: header + payload, one flush. Locking per frame is
    /// what lets streams interleave at chunk granularity.
    fn send_frame(&self, header: FrameHeader, payload: &[u8]) -> io::Result<()> {
        if self.dead.load(Ordering::Acquire) {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "mux trunk dead"));
        }
        let result = self.writer.with(|w| {
            w.write_all(&header.to_wire())?;
            if !payload.is_empty() {
                w.write_all(payload)?;
            }
            w.flush()
        });
        if result.is_err() {
            self.poison();
        }
        result
    }

    /// Kill the trunk: every stream's pending and future I/O fails.
    fn poison(&self) {
        self.dead.store(true, Ordering::Release);
        drop(self.dead_lock.lock().unwrap());
        self.died.notify_all();
        let streams = self.streams.lock().unwrap();
        for shared in streams.values() {
            shared.poison();
        }
    }

    /// Register stream `id` and build its endpoint (cipher lanes keyed on
    /// the trunk role so both ends pair up correctly).
    fn make_stream(self: &Arc<Self>, id: u32) -> MuxStream {
        let shared = Arc::new(StreamShared {
            state: Mutex::new(StreamState {
                inbox: VecDeque::new(),
                closed: false,
                poisoned: self.dead.load(Ordering::Acquire),
                credit: u64::from(INITIAL_WINDOW),
                orphan_ends: 0,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            waker: Mutex::new(None),
            rx_cipher: Mutex::new(None),
        });
        let (tx_dir, rx_dir) = match self.role {
            MuxRole::Client => (DIR_CLIENT_TO_SERVER, DIR_SERVER_TO_CLIENT),
            MuxRole::Server => (DIR_SERVER_TO_CLIENT, DIR_CLIENT_TO_SERVER),
        };
        *shared.rx_cipher.lock().unwrap() = self.cipher.instantiate(&self.key, id, rx_dir);
        let tx_cipher = self.cipher.instantiate(&self.key, id, tx_dir);
        self.streams.lock().unwrap().insert(id, Arc::clone(&shared));
        MuxStream {
            id,
            trunk: Arc::clone(self),
            shared,
            tx_cipher,
            out: Vec::new(),
            out_pos: 0,
            scratch: Vec::new(),
            current: None,
            consumed: 0,
            chunks_in_msg: 0,
            msg_bytes: 0,
            in_msg_bytes: 0,
            read_deadline: None,
            stats: TransportStats::default(),
            obs: self.obs.clone(),
        }
    }
}

/// One end of a multiplexed trunk. Cheap handle: open streams, then keep it
/// alive as long as the streams matter — dropping the peer sends a GOAWAY.
pub struct MuxPeer {
    core: Arc<TrunkCore>,
    next_id: AtomicU32,
    /// Called on drop to unblock a demux thread stuck in a read (e.g. a
    /// TCP socket shutdown). Channel-backed trunks don't need one: the
    /// write half dropping hangs the peer up.
    shutdown: Option<Box<dyn Fn() + Send + Sync>>,
}

impl MuxPeer {
    /// Build the client end over split transport halves. The handshake
    /// (hello/challenge/auth/accept) must already have completed; `config`
    /// carries its outcome.
    pub fn client(read: ReadHalf, write: WriteHalf, config: MuxConfig) -> MuxPeer {
        Self::start(read, write, MuxRole::Client, config, None)
    }

    /// Build the server end. `on_stream` runs on the demux thread once per
    /// peer-opened stream, receiving the fresh [`MuxStream`]; it should
    /// hand the stream off quickly (e.g. submit to a reactor or spawn a
    /// worker) — the trunk cannot make progress while it runs.
    pub fn server<F>(read: ReadHalf, write: WriteHalf, config: MuxConfig, on_stream: F) -> MuxPeer
    where
        F: FnMut(MuxStream) + Send + 'static,
    {
        Self::start(
            read,
            write,
            MuxRole::Server,
            config,
            Some(Box::new(on_stream)),
        )
    }

    fn start(
        read: ReadHalf,
        write: WriteHalf,
        role: MuxRole,
        config: MuxConfig,
        on_stream: Option<Box<dyn FnMut(MuxStream) + Send>>,
    ) -> MuxPeer {
        let core = Arc::new(TrunkCore {
            writer: FairWriter::new(write),
            streams: Mutex::new(HashMap::new()),
            pool: config.pool,
            dead: AtomicBool::new(false),
            dead_lock: Mutex::new(()),
            died: Condvar::new(),
            obs: config.obs,
            role,
            cipher: config.cipher,
            key: config.key,
        });
        let demux_core = Arc::clone(&core);
        std::thread::Builder::new()
            .name("rcuda-mux-demux".into())
            .spawn(move || demux_loop(demux_core, read, on_stream))
            .expect("spawn mux demux thread");
        MuxPeer {
            core,
            next_id: AtomicU32::new(1),
            shutdown: None,
        }
    }

    /// Install a hook that forcibly unblocks the demux thread (run at
    /// drop). TCP trunks pass a socket-shutdown closure here.
    pub fn set_shutdown<F: Fn() + Send + Sync + 'static>(&mut self, hook: F) {
        self.shutdown = Some(Box::new(hook));
    }

    /// Open a new sub-stream (client role). Announces it to the peer with
    /// an OPEN frame and returns the local endpoint.
    pub fn open_stream(&self) -> io::Result<MuxStream> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let stream = self.core.make_stream(id);
        self.core.send_frame(
            FrameHeader {
                stream_id: id,
                kind: FrameKind::Open,
                len: 0,
            },
            &[],
        )?;
        Ok(stream)
    }

    /// Whether the trunk has died (I/O error, peer GOAWAY, or EOF).
    pub fn is_dead(&self) -> bool {
        self.core.dead.load(Ordering::Acquire)
    }

    /// Block until the trunk dies (I/O error, peer GOAWAY, EOF, or a
    /// [`MuxCloser::close`]).
    pub fn wait_dead(&self) {
        let mut guard = self.core.dead_lock.lock().unwrap();
        while !self.is_dead() {
            guard = self.core.died.wait(guard).unwrap();
        }
    }

    /// A handle that kills this trunk from another thread, e.g. to stop a
    /// host parked in [`MuxPeer::wait_dead`] at daemon shutdown.
    pub fn closer(&self) -> MuxCloser {
        MuxCloser(Arc::downgrade(&self.core))
    }

    /// Open streams right now (registered and not yet closed locally).
    pub fn stream_count(&self) -> usize {
        self.core.streams.lock().unwrap().len()
    }
}

/// Kills a trunk from outside its [`MuxPeer`] (see [`MuxPeer::closer`]):
/// the trunk turns dead exactly as on a read error.
#[derive(Clone)]
pub struct MuxCloser(Weak<TrunkCore>);

impl MuxCloser {
    /// Kill the trunk: its streams' I/O fails and [`MuxPeer::wait_dead`]
    /// returns. A no-op once the trunk is gone.
    pub fn close(&self) {
        if let Some(core) = self.0.upgrade() {
            core.poison();
        }
    }

    /// Whether the trunk is still alive (not dead, not dropped).
    pub fn is_open(&self) -> bool {
        self.0
            .upgrade()
            .is_some_and(|core| !core.dead.load(Ordering::Acquire))
    }
}

impl Drop for MuxPeer {
    fn drop(&mut self) {
        // Best-effort GOAWAY so the peer tears down promptly instead of
        // discovering the loss on its next I/O.
        let _ = self.core.send_frame(
            FrameHeader {
                stream_id: TRUNK_STREAM,
                kind: FrameKind::Close,
                len: 0,
            },
            &[],
        );
        self.core.poison();
        if let Some(hook) = &self.shutdown {
            hook();
        }
        // The demux thread is detached: it exits on its next read (EOF
        // after the halves drop, or immediately via the shutdown hook).
    }
}

/// The trunk read loop: parse frames, route DATA/CLOSE/CREDIT to streams,
/// surface OPENs to the server callback. Any read or protocol error kills
/// the whole trunk — sub-streams have no independent failure domain on a
/// shared byte pipe.
fn demux_loop(
    core: Arc<TrunkCore>,
    mut read: ReadHalf,
    mut on_stream: Option<Box<dyn FnMut(MuxStream) + Send>>,
) {
    while let Ok(header) = FrameHeader::read(&mut read) {
        match header.kind {
            FrameKind::Data { end_of_message } => {
                let len = header.len as usize;
                let mut chunk = core.pool.get(len);
                if len > 0 && read.read_exact(&mut chunk).is_err() {
                    break;
                }
                let target = core.streams.lock().unwrap().get(&header.stream_id).cloned();
                // Frames for unknown streams (closed locally while data was
                // in flight) are drained and dropped.
                let Some(shared) = target else { continue };
                if let Some(cipher) = shared.rx_cipher.lock().unwrap().as_mut() {
                    cipher.apply(&mut chunk);
                }
                core.obs.emit_stream_frame(
                    header.stream_id,
                    Dir::Received,
                    len as u64,
                    end_of_message,
                );
                let mut state = shared.state.lock().unwrap();
                // Empty DATA frames carry only the message-end flag; mark
                // the tail chunk rather than queueing a zero-length chunk
                // (which a reader could mistake for EOF).
                if len > 0 {
                    state.inbox.push_back(InChunk {
                        buf: chunk,
                        pos: 0,
                        end_of_message,
                    });
                } else if end_of_message {
                    match state.inbox.back_mut() {
                        Some(tail) => tail.end_of_message = true,
                        // Inbox already drained: the boundary applies to
                        // bytes the consumer has consumed.
                        None => state.orphan_ends += 1,
                    }
                }
                drop(state);
                shared.notify(&shared.readable);
            }
            FrameKind::Open => {
                if let Some(callback) = &mut on_stream {
                    let stream = core.make_stream(header.stream_id);
                    callback(stream);
                }
                // Client role: peers must not open streams toward us;
                // tolerate (ignore) rather than kill the trunk.
            }
            FrameKind::Close => {
                if header.stream_id == TRUNK_STREAM {
                    break; // GOAWAY
                }
                let target = core.streams.lock().unwrap().get(&header.stream_id).cloned();
                if let Some(shared) = target {
                    shared.state.lock().unwrap().closed = true;
                    shared.notify(&shared.readable);
                }
            }
            FrameKind::Credit => {
                let target = core.streams.lock().unwrap().get(&header.stream_id).cloned();
                if let Some(shared) = target {
                    let mut state = shared.state.lock().unwrap();
                    state.credit += u64::from(header.len);
                    drop(state);
                    shared.notify(&shared.writable);
                }
            }
        }
    }
    core.poison();
}

/// One multiplexed sub-stream: a full [`Transport`] multiplexed over its
/// trunk. Blocking reads park on the inbox; writes stage locally and leave
/// as [`CHUNK`]-bounded DATA frames (at flush on the blocking path,
/// immediately on the nonblocking one).
pub struct MuxStream {
    id: u32,
    trunk: Arc<TrunkCore>,
    shared: Arc<StreamShared>,
    tx_cipher: Option<Box<dyn CipherSuite>>,
    /// Blocking-path staging: bytes written since the last flush.
    out: Vec<u8>,
    /// Already-emitted prefix of `out` (chunks leave eagerly at CHUNK size).
    out_pos: usize,
    /// Nonblocking-path encryption staging (reused, no per-write alloc).
    scratch: Vec<u8>,
    /// Inbox chunk currently being consumed.
    current: Option<InChunk>,
    /// Bytes consumed since the last CREDIT grant we sent.
    consumed: u64,
    /// Chunks emitted for the message being assembled (blocking path).
    chunks_in_msg: u64,
    /// Payload bytes emitted for the message being assembled.
    msg_bytes: u64,
    /// Payload bytes consumed of the incoming message being assembled.
    in_msg_bytes: u64,
    read_deadline: Option<Duration>,
    stats: TransportStats,
    obs: ObsHandle,
}

impl MuxStream {
    /// The stream's id on the trunk.
    pub fn stream_id(&self) -> u32 {
        self.id
    }

    /// Account consumed bytes and re-grant credit to the sender once the
    /// refresh threshold is reached. Grant failures mean the trunk died;
    /// reads may still drain the inbox, so they are not surfaced here.
    fn note_consumed(&mut self, n: usize) {
        self.consumed += n as u64;
        if self.consumed >= u64::from(CREDIT_REFRESH) {
            let grant = self.consumed.min(u64::from(u32::MAX)) as u32;
            let _ = self.trunk.send_frame(
                FrameHeader {
                    stream_id: self.id,
                    kind: FrameKind::Credit,
                    len: grant,
                },
                &[],
            );
            self.consumed -= u64::from(grant);
        }
    }

    /// Account message boundaries whose marker frames landed after the
    /// inbox drained (must run before consuming newer chunks, so the
    /// boundary attaches to the bytes already consumed).
    fn drain_orphan_ends(&mut self, state: &mut StreamState) {
        while state.orphan_ends > 0 {
            state.orphan_ends -= 1;
            self.stats.record_message_received();
            self.obs.emit_message(Dir::Received, self.in_msg_bytes);
            self.in_msg_bytes = 0;
        }
    }

    /// Copy out of the current inbox chunk (which must be present).
    fn consume_current(&mut self, buf: &mut [u8]) -> usize {
        let chunk = self.current.as_mut().expect("current chunk");
        let n = buf.len().min(chunk.buf.len() - chunk.pos);
        buf[..n].copy_from_slice(&chunk.buf[chunk.pos..chunk.pos + n]);
        chunk.pos += n;
        self.stats.record_recv(n as u64);
        self.in_msg_bytes += n as u64;
        if chunk.pos == chunk.buf.len() {
            let ended = chunk.end_of_message;
            // Dropping the chunk returns its buffer to the pool.
            self.current = None;
            if ended {
                self.stats.record_message_received();
                self.obs.emit_message(Dir::Received, self.in_msg_bytes);
                self.in_msg_bytes = 0;
            }
        }
        self.note_consumed(n);
        n
    }

    /// Emit `n` staged bytes as one DATA frame, waiting for send credit.
    /// `n == 0` with `end_of_message` emits a bare message-end marker.
    fn emit_chunk(&mut self, n: usize, end_of_message: bool) -> io::Result<()> {
        debug_assert!(n <= CHUNK);
        if n > 0 {
            let mut state = self.shared.state.lock().unwrap();
            while state.credit < n as u64 && !state.poisoned {
                state = self.shared.writable.wait(state).unwrap();
            }
            if state.poisoned {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "mux trunk dead"));
            }
            state.credit -= n as u64;
        }
        let payload = &mut self.out[self.out_pos..self.out_pos + n];
        if let Some(cipher) = &mut self.tx_cipher {
            cipher.apply(payload);
        }
        self.trunk.send_frame(
            FrameHeader {
                stream_id: self.id,
                kind: FrameKind::Data { end_of_message },
                len: n as u32,
            },
            payload,
        )?;
        self.out_pos += n;
        self.chunks_in_msg += 1;
        self.msg_bytes += n as u64;
        self.obs
            .emit_stream_frame(self.id, Dir::Sent, n as u64, end_of_message);
        Ok(())
    }
}

impl Read for MuxStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        loop {
            if self.current.is_some() {
                return Ok(self.consume_current(buf));
            }
            let shared = Arc::clone(&self.shared);
            let mut state = shared.state.lock().unwrap();
            loop {
                self.drain_orphan_ends(&mut state);
                if let Some(chunk) = state.inbox.pop_front() {
                    drop(state);
                    self.current = Some(chunk);
                    break;
                }
                if state.closed {
                    return Ok(0);
                }
                if state.poisoned {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "mux trunk dead",
                    ));
                }
                match self.read_deadline {
                    Some(deadline) => {
                        let (guard, timeout) =
                            shared.readable.wait_timeout(state, deadline).unwrap();
                        state = guard;
                        if timeout.timed_out()
                            && state.inbox.is_empty()
                            && !state.closed
                            && !state.poisoned
                        {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                "read deadline exceeded",
                            ));
                        }
                    }
                    None => state = shared.readable.wait(state).unwrap(),
                }
            }
        }
    }
}

impl Write for MuxStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.out.extend_from_slice(buf);
        self.stats.record_send(buf.len() as u64);
        // Full chunks leave eagerly: a bulk write starts interleaving with
        // sibling streams before its flush, and the staging buffer stays
        // bounded near CHUNK instead of the whole transfer. Strictly
        // greater: the last full chunk is held back so the message-end
        // flag always rides a data chunk at flush.
        while self.out.len() - self.out_pos > CHUNK {
            self.emit_chunk(CHUNK, false)?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        let remainder = self.out.len() - self.out_pos;
        if remainder == 0 {
            debug_assert_eq!(self.chunks_in_msg, 0, "write holds back the last chunk");
            return Ok(()); // empty flush is not a message
        }
        self.emit_chunk(remainder, true)?;
        self.stats.record_message();
        self.obs.emit_message(Dir::Sent, self.msg_bytes);
        self.out.clear();
        self.out_pos = 0;
        self.chunks_in_msg = 0;
        self.msg_bytes = 0;
        Ok(())
    }
}

impl Transport for MuxStream {
    fn stats(&self) -> TransportStats {
        self.stats
    }

    fn set_read_deadline(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.read_deadline = timeout;
        Ok(())
    }

    fn set_observer(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    // Streams are inherently dual-mode (condvar-backed inbox, write-through
    // sends): both halves coexist, like the channel transport.
    fn set_nonblocking(&mut self, _nonblocking: bool) -> io::Result<()> {
        Ok(())
    }

    fn set_waker(&mut self, waker: Waker) -> io::Result<()> {
        *self.shared.waker.lock().unwrap() = Some(waker);
        Ok(())
    }

    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<Progress> {
        if buf.is_empty() {
            return Ok(Progress::Ready(0));
        }
        if self.current.is_none() {
            let shared = Arc::clone(&self.shared);
            let mut state = shared.state.lock().unwrap();
            self.drain_orphan_ends(&mut state);
            match state.inbox.pop_front() {
                Some(chunk) => {
                    drop(state);
                    self.current = Some(chunk);
                }
                // EOF for both close and trunk death: Ready(0) lets the
                // reactor run its normal teardown.
                None if state.closed || state.poisoned => return Ok(Progress::Ready(0)),
                None => return Ok(Progress::Pending),
            }
        }
        Ok(Progress::Ready(self.consume_current(buf)))
    }

    fn try_write(&mut self, buf: &[u8]) -> io::Result<Progress> {
        if buf.is_empty() {
            return Ok(Progress::Ready(0));
        }
        let mut n = buf.len().min(CHUNK);
        {
            let mut state = self.shared.state.lock().unwrap();
            if state.poisoned {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "mux trunk dead"));
            }
            if state.credit == 0 {
                // Out of window: the reactor keeps the bytes in its out
                // buffer and retries; the CREDIT frame restores progress.
                return Ok(Progress::Pending);
            }
            n = n.min(state.credit as usize);
            state.credit -= n as u64;
        }
        // Write-through: no message boundary is known here (the reactor
        // flushes opportunistically), so frames go out unflagged and the
        // peer treats the stream as a plain byte queue.
        self.scratch.clear();
        self.scratch.extend_from_slice(&buf[..n]);
        if let Some(cipher) = &mut self.tx_cipher {
            cipher.apply(&mut self.scratch);
        }
        let header = FrameHeader {
            stream_id: self.id,
            kind: FrameKind::Data {
                end_of_message: false,
            },
            len: n as u32,
        };
        // Borrow dance: send_frame needs &self.trunk and &self.scratch.
        let trunk = Arc::clone(&self.trunk);
        trunk.send_frame(header, &self.scratch)?;
        self.stats.record_send(n as u64);
        self.obs
            .emit_stream_frame(self.id, Dir::Sent, n as u64, false);
        Ok(Progress::Ready(n))
    }
}

impl Drop for MuxStream {
    fn drop(&mut self) {
        self.trunk.streams.lock().unwrap().remove(&self.id);
        let _ = self.trunk.send_frame(
            FrameHeader {
                stream_id: self.id,
                kind: FrameKind::Close,
                len: 0,
            },
            &[],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::channel_pair;
    use std::sync::mpsc;

    /// A connected client peer + server peer over an in-process channel,
    /// with server streams delivered on an mpsc receiver.
    fn peer_pair(
        client_cfg: MuxConfig,
        server_cfg: MuxConfig,
    ) -> (MuxPeer, MuxPeer, mpsc::Receiver<MuxStream>) {
        let (a, b) = channel_pair();
        let (ar, aw) = (Box::new(a) as Box<dyn Transport>).into_split().unwrap();
        let (br, bw) = (Box::new(b) as Box<dyn Transport>).into_split().unwrap();
        let client = MuxPeer::client(ar, aw, client_cfg);
        let (tx, rx) = mpsc::channel();
        let server = MuxPeer::server(br, bw, server_cfg, move |s| {
            let _ = tx.send(s);
        });
        (client, server, rx)
    }

    fn send(t: &mut impl Transport, msg: &[u8]) {
        t.write_all(msg).unwrap();
        t.flush().unwrap();
    }

    fn recv(t: &mut impl Transport, n: usize) -> Vec<u8> {
        let mut buf = vec![0u8; n];
        t.read_exact(&mut buf).unwrap();
        buf
    }

    #[test]
    fn round_trip_one_stream() {
        let (client, _server, accepted) = peer_pair(MuxConfig::default(), MuxConfig::default());
        let mut s = client.open_stream().unwrap();
        send(&mut s, b"ping");
        let mut peer = accepted.recv().unwrap();
        assert_eq!(recv(&mut peer, 4), b"ping");
        send(&mut peer, b"pong");
        assert_eq!(recv(&mut s, 4), b"pong");
        assert_eq!(s.stats().messages_sent, 1);
        assert_eq!(s.stats().messages_received, 1);
    }

    #[test]
    fn streams_are_independent_byte_queues() {
        let (client, _server, accepted) = peer_pair(MuxConfig::default(), MuxConfig::default());
        let mut s1 = client.open_stream().unwrap();
        let mut s2 = client.open_stream().unwrap();
        assert_ne!(s1.stream_id(), s2.stream_id());
        send(&mut s2, b"on-two");
        send(&mut s1, b"on-one");
        // Acceptance order follows OPEN frames (open_stream time), not
        // first-data order: s1 was opened first.
        let mut p1 = accepted.recv().unwrap();
        let mut p2 = accepted.recv().unwrap();
        assert_eq!(p1.stream_id(), s1.stream_id());
        assert_eq!(p2.stream_id(), s2.stream_id());
        assert_eq!(recv(&mut p1, 6), b"on-one");
        assert_eq!(recv(&mut p2, 6), b"on-two");
    }

    #[test]
    fn bulk_transfer_is_chunked_and_reassembled() {
        let (client, _server, accepted) = peer_pair(MuxConfig::default(), MuxConfig::default());
        let mut s = client.open_stream().unwrap();
        let payload: Vec<u8> = (0..3 * CHUNK + 1234).map(|i| (i % 251) as u8).collect();
        let expected = payload.clone();
        let t = std::thread::spawn(move || {
            send(&mut s, &payload);
            s // keep alive until the peer has read everything
        });
        let mut peer = accepted.recv().unwrap();
        let got = recv(&mut peer, expected.len());
        assert_eq!(got, expected);
        assert_eq!(peer.stats().messages_received, 1, "one flush, one message");
        t.join().unwrap();
    }

    #[test]
    fn exact_chunk_multiple_message_ends_cleanly() {
        let (client, _server, accepted) = peer_pair(MuxConfig::default(), MuxConfig::default());
        let mut s = client.open_stream().unwrap();
        let payload = vec![7u8; 2 * CHUNK];
        let t = std::thread::spawn(move || {
            send(&mut s, &payload);
            s
        });
        let mut peer = accepted.recv().unwrap();
        assert_eq!(recv(&mut peer, 2 * CHUNK), vec![7u8; 2 * CHUNK]);
        assert_eq!(peer.stats().messages_received, 1);
        t.join().unwrap();
    }

    #[test]
    fn flow_control_blocks_then_credits_resume() {
        let (client, _server, accepted) = peer_pair(MuxConfig::default(), MuxConfig::default());
        let mut s = client.open_stream().unwrap();
        // More than one window of data: the writer must park until the
        // reader drains enough to trigger a CREDIT grant.
        let total = INITIAL_WINDOW as usize + CHUNK * 4;
        let writer = std::thread::spawn(move || {
            send(&mut s, &vec![0xAB; total]);
            s
        });
        let mut peer = accepted.recv().unwrap();
        let got = recv(&mut peer, total);
        assert!(got.iter().all(|&b| b == 0xAB));
        writer.join().unwrap();
    }

    #[test]
    fn nonblocking_write_reports_pending_at_zero_credit() {
        let (client, _server, accepted) = peer_pair(MuxConfig::default(), MuxConfig::default());
        let mut s = client.open_stream().unwrap();
        // Exhaust the window chunk by chunk without the peer consuming.
        let chunk = vec![0u8; CHUNK];
        let mut sent = 0u64;
        while let Progress::Ready(n) = s.try_write(&chunk).unwrap() {
            sent += n as u64;
        }
        assert_eq!(sent, u64::from(INITIAL_WINDOW));
        // Draining the peer re-credits the writer.
        let mut peer = accepted.recv().unwrap();
        let _ = recv(&mut peer, INITIAL_WINDOW as usize);
        // The CREDIT frame races the assertion: poll briefly.
        let mut progressed = false;
        for _ in 0..100 {
            if let Progress::Ready(n) = s.try_write(&chunk).unwrap() {
                assert!(n > 0);
                progressed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(progressed, "credit grant never unblocked the writer");
    }

    #[test]
    fn small_call_overtakes_inflight_bulk_transfer() {
        // The HOL property at transport level: while a bulk message is
        // mid-flight on stream 1, a small message on stream 2 still gets
        // through (with single-stream framing it would wait for the whole
        // bulk payload).
        let (client, _server, accepted) = peer_pair(MuxConfig::default(), MuxConfig::default());
        let mut bulk = client.open_stream().unwrap();
        let mut small = client.open_stream().unwrap();
        let total = 4 * INITIAL_WINDOW as usize; // blocks without a reader
        let bulk_writer = std::thread::spawn(move || {
            send(&mut bulk, &vec![1u8; total]);
            bulk
        });
        let mut bulk_peer = accepted.recv().unwrap();
        let mut small_peer = accepted.recv().unwrap();
        // The bulk writer is now stalled on credit mid-message. The small
        // call must complete round-trip regardless.
        send(&mut small, b"urgent");
        assert_eq!(recv(&mut small_peer, 6), b"urgent");
        send(&mut small_peer, b"done!!");
        assert_eq!(recv(&mut small, 6), b"done!!");
        // Now drain the bulk transfer.
        let got = recv(&mut bulk_peer, total);
        assert!(got.iter().all(|&b| b == 1));
        bulk_writer.join().unwrap();
    }

    #[test]
    fn cipher_lanes_encrypt_on_the_wire_and_decrypt_at_the_edge() {
        let key = [0x42u8; 32];
        let cfg = || MuxConfig {
            cipher: CipherSuiteKind::ChaCha20,
            key,
            ..MuxConfig::default()
        };
        let (client, _server, accepted) = peer_pair(cfg(), cfg());
        let mut s = client.open_stream().unwrap();
        send(&mut s, b"secret payload");
        let mut peer = accepted.recv().unwrap();
        assert_eq!(recv(&mut peer, 14), b"secret payload");
        // Both directions, multiple messages: keystream lanes must stay in
        // sync per (stream, direction).
        send(&mut peer, b"ack-1");
        send(&mut peer, b"ack-2");
        assert_eq!(recv(&mut s, 5), b"ack-1");
        assert_eq!(recv(&mut s, 5), b"ack-2");
    }

    #[test]
    fn cleartext_peer_against_cipher_peer_garbles() {
        // Negotiation matters: mismatched cipher configs must not silently
        // interoperate.
        let cipher_cfg = MuxConfig {
            cipher: CipherSuiteKind::ChaCha20,
            key: [9u8; 32],
            ..MuxConfig::default()
        };
        let (client, _server, accepted) = peer_pair(cipher_cfg, MuxConfig::default());
        let mut s = client.open_stream().unwrap();
        send(&mut s, b"secret");
        let mut peer = accepted.recv().unwrap();
        assert_ne!(recv(&mut peer, 6), b"secret");
    }

    #[test]
    fn close_drains_then_eofs() {
        let (client, _server, accepted) = peer_pair(MuxConfig::default(), MuxConfig::default());
        let mut s = client.open_stream().unwrap();
        send(&mut s, b"last words");
        drop(s); // CLOSE after the data
        let mut peer = accepted.recv().unwrap();
        assert_eq!(recv(&mut peer, 10), b"last words");
        let mut buf = [0u8; 1];
        assert_eq!(peer.read(&mut buf).unwrap(), 0, "EOF after drain");
    }

    #[test]
    fn peer_drop_goaway_poisons_streams() {
        let (client, server, _accepted) = peer_pair(MuxConfig::default(), MuxConfig::default());
        let mut s = client.open_stream().unwrap();
        drop(server);
        // The GOAWAY (or half drop) reaches the client demux and poisons
        // the stream; blocking read fails rather than hanging.
        let mut buf = [0u8; 1];
        let err = s.read_exact(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(client.is_dead());
    }

    #[test]
    fn read_deadline_times_out() {
        let (client, _server, _accepted) = peer_pair(MuxConfig::default(), MuxConfig::default());
        let mut s = client.open_stream().unwrap();
        s.set_read_deadline(Some(Duration::from_millis(15)))
            .unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(
            s.read_exact(&mut buf).unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
    }

    /// A waker that reports each wake on a channel.
    struct ChannelWake(Mutex<mpsc::Sender<()>>);

    impl std::task::Wake for ChannelWake {
        fn wake(self: Arc<Self>) {
            let _ = self.0.lock().unwrap().send(());
        }
    }

    fn channel_waker() -> (Waker, mpsc::Receiver<()>) {
        let (tx, rx) = mpsc::channel();
        (Waker::from(Arc::new(ChannelWake(Mutex::new(tx)))), rx)
    }

    #[test]
    fn try_read_pending_then_ready_then_eof() {
        let (client, _server, accepted) = peer_pair(MuxConfig::default(), MuxConfig::default());
        let mut s = client.open_stream().unwrap();
        send(&mut s, b"x"); // force the peer stream into existence
        let mut peer = accepted.recv().unwrap();
        let _ = recv(&mut peer, 1);
        let (waker, woken) = channel_waker();
        peer.set_waker(waker).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(peer.try_read(&mut buf).unwrap(), Progress::Pending);
        // Delivery is asynchronous (demux thread): the waker says when.
        send(&mut s, b"abc");
        woken
            .recv_timeout(Duration::from_secs(5))
            .expect("data wakes");
        assert_eq!(peer.try_read(&mut buf).unwrap(), Progress::Ready(3));
        assert_eq!(&buf[..3], b"abc");
        assert_eq!(peer.try_read(&mut buf).unwrap(), Progress::Pending);
        drop(s);
        woken
            .recv_timeout(Duration::from_secs(5))
            .expect("CLOSE wakes");
        assert_eq!(peer.try_read(&mut buf).unwrap(), Progress::Ready(0));
    }

    #[test]
    fn waker_fires_when_credit_returns_and_when_the_trunk_dies() {
        let (client, server, accepted) = peer_pair(MuxConfig::default(), MuxConfig::default());
        let mut s = client.open_stream().unwrap();
        let chunk = vec![0u8; CHUNK];
        while let Progress::Ready(_) = s.try_write(&chunk).unwrap() {}
        let (waker, woken) = channel_waker();
        s.set_waker(waker).unwrap();
        let mut peer = accepted.recv().unwrap();
        let _ = recv(&mut peer, INITIAL_WINDOW as usize);
        woken
            .recv_timeout(Duration::from_secs(5))
            .expect("CREDIT wakes");
        assert!(matches!(s.try_write(&chunk).unwrap(), Progress::Ready(n) if n > 0));
        drop(server);
        woken
            .recv_timeout(Duration::from_secs(5))
            .expect("trunk death wakes");
        client.wait_dead();
        assert!(client.is_dead());
    }

    #[test]
    fn closer_kills_the_trunk_and_releases_wait_dead() {
        let (client, _server, _accepted) = peer_pair(MuxConfig::default(), MuxConfig::default());
        let closer = client.closer();
        assert!(closer.is_open());
        let waiter = std::thread::spawn(move || {
            client.wait_dead();
            client
        });
        closer.close();
        let client = waiter.join().unwrap();
        assert!(client.is_dead());
        assert!(!closer.is_open());
    }

    #[test]
    fn pooled_inbox_buffers_recycle() {
        let pool = BufferPool::new();
        let server_cfg = MuxConfig {
            pool: pool.clone(),
            ..MuxConfig::default()
        };
        let (client, _server, accepted) = peer_pair(MuxConfig::default(), server_cfg);
        let mut s = client.open_stream().unwrap();
        send(&mut s, &vec![3u8; 4096]);
        let mut peer = accepted.recv().unwrap();
        let _ = recv(&mut peer, 4096);
        // The inbox chunk came from the pool and went back on consumption.
        let stats = pool.stats();
        assert!(
            stats.returns >= 1,
            "inbox chunk was not recycled: {stats:?}"
        );
        // Steady state: subsequent messages of the same class are pool hits.
        send(&mut s, &vec![4u8; 4096]);
        let _ = recv(&mut peer, 4096);
        assert!(pool.stats().hits >= 1);
    }

    #[test]
    fn stream_frames_are_observed_per_chunk() {
        let recorder = std::sync::Arc::new(rcuda_obs::Recorder::new());
        let client_cfg = MuxConfig {
            obs: recorder.handle(),
            ..MuxConfig::default()
        };
        let (client, _server, accepted) = peer_pair(client_cfg, MuxConfig::default());
        let mut s = client.open_stream().unwrap();
        let payload = vec![0u8; CHUNK + 100];
        let sid = s.stream_id();
        let t = std::thread::spawn(move || {
            send(&mut s, &payload);
            s
        });
        let mut peer = accepted.recv().unwrap();
        let _ = recv(&mut peer, CHUNK + 100);
        let s = t.join().unwrap();
        let report = recorder.report();
        let per_stream = report.per_stream();
        let (_, totals) = per_stream
            .iter()
            .find(|(id, _)| *id == sid)
            .expect("stream appears in per-stream totals");
        assert_eq!(totals.sent_bytes, (CHUNK + 100) as u64);
        assert_eq!(totals.sent_count, 2, "two DATA frames: CHUNK + remainder");
        drop(s);
    }
}
