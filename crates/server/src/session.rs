//! The session engine: every per-session decision, with no I/O.
//!
//! One server session is one remote execution on one warm GPU context
//! (§III): announce the device, read the client's hello, then request →
//! dispatch → respond until Quit or disconnect, then release (or park) the
//! context. [`SessionCore`] makes each of those decisions exactly once and
//! never touches a socket: its driver feeds a [`StreamDecoder`] with
//! whatever bytes arrived, calls [`SessionCore::step`], ships whatever the
//! step appended to its outbound `Vec<u8>`, and does what the returned
//! [`Step`] asks next. Two drivers run it:
//!
//! * the blocking loop in [`crate::worker::serve_connection_with_registry`]
//!   (channel and simulated sessions, per-stream trunk workers, benches);
//! * the reactor's nonblocking `Conn` shell in [`crate::reactor`] (every
//!   daemon connection).
//!
//! `tests/driver_equivalence.rs` runs the same client byte streams through
//! both and asserts identical replies and session reports.

use crossbeam::channel::Sender;
use rcuda_core::{CudaError, SharedClock, SimTime};
use rcuda_gpu::snapshot::ContextSnapshot;
use rcuda_gpu::{GpuContext, GpuDevice};
use rcuda_obs::{DaemonEvent, ObsHandle, Op, ServerSpan};
use rcuda_proto::codec::{fold_caps, CAP_ALL, CAP_LZ4};
use rcuda_proto::handshake::write_hello_reply;
use rcuda_proto::ids::MemcpyKind;
use rcuda_proto::mux::MuxHello;
use rcuda_proto::{
    Batch, BatchResponse, BufferPool, ClientHello, Codec, Frame, Request, Response, SessionHello,
    StreamDecoder,
};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use crate::dispatch::dispatch_pooled;
use crate::registry::Parking;
use crate::worker::{ChaosHook, ServerConfig, SessionReport};

/// How long a reconnecting client's driver waits for the dead connection
/// to park the session before rejecting the resume. Covers the window
/// between the new connection being accepted and the old one observing EOF.
pub(crate) const RESUME_WAIT: Duration = Duration::from_secs(1);

/// What the driver must do after a [`SessionCore::step`]. Whatever bytes
/// the step appended to `out` go to the peer first, as one message.
#[derive(Debug)]
pub(crate) enum Step {
    /// The next message is not fully buffered: feed the decoder (or report
    /// EOF) and step again.
    NeedInput,
    /// `out` holds the hello reply. Once those bytes reach the peer the
    /// session has started and [`SessionCore::finish`] owes a report;
    /// failing to deliver them is a handshake error (no report).
    Handshaken,
    /// A `Reconnect` found nothing parked under this token yet: look for
    /// it until [`RESUME_WAIT`] runs out, then hand the outcome to
    /// [`SessionCore::resume`], which answers the hello.
    Resume(u64),
    /// The client asked for the multiplexed framing layer: the connection
    /// leaves the session path (the core is dropped unfinished).
    Mux(MuxHello),
    /// One frame was dispatched; its reply is in `out`.
    Served,
    /// The session is over: deliver `out`, then [`SessionCore::finish`].
    Closed,
}

#[derive(Clone, Copy)]
enum Phase {
    Hello,
    /// Waiting on the driver's registry lookup (see [`Step::Resume`]).
    AwaitResume(u64),
    Running,
    Closed,
}

/// One session's state machine (see the module docs).
pub(crate) struct SessionCore {
    device: Arc<GpuDevice>,
    /// The context charges simulated GPU time to this clock, and span
    /// timestamps come from it too, so client and server spans line up.
    clk: SharedClock,
    /// Payload pool for decoded request bodies, D2H reply staging and
    /// codec scratch.
    pool: BufferPool,
    /// From accept time until the hello, the warm context (§VI-B); then
    /// the session's context, if it has one here.
    ctx: Option<GpuContext>,
    /// Resumable sessions' token: set means park (not release) on an
    /// unorderly end.
    token: Option<u64>,
    /// Installed when the client's `CodecHello` accepts the advertised
    /// capabilities; `None` = legacy framing.
    codec: Option<Codec>,
    /// The connection arrived through an authenticated mux trunk, so the
    /// auth gate on legacy hellos does not apply.
    authenticated: bool,
    phase: Phase,
    report: SessionReport,
}

impl SessionCore {
    /// Open a session: create the warm context before the client says
    /// anything (§VI-B) and append the 8-byte compute-capability push to
    /// `out`. A codec-advertising daemon folds its capability bits into the
    /// high half of the minor word — legacy clients read the full word as
    /// the minor digit but never inspect it beyond display, while
    /// codec-aware clients mask it off (see `rcuda_proto::codec`).
    pub(crate) fn new(
        device: &Arc<GpuDevice>,
        clock: SharedClock,
        pool: BufferPool,
        authenticated: bool,
        config: &ServerConfig,
        out: &mut Vec<u8>,
    ) -> SessionCore {
        let warm = if config.phantom_memory {
            device.create_phantom_context(clock.clone(), config.preinitialize_context)
        } else {
            device.create_context(clock.clone(), config.preinitialize_context)
        };
        let mut cc = device.properties().compute_capability_wire();
        if config.codec {
            let minor = u32::from_le_bytes(cc[4..8].try_into().expect("8-byte wire"));
            cc[4..8].copy_from_slice(&fold_caps(minor, CAP_ALL).to_le_bytes());
        }
        out.extend_from_slice(&cc);
        SessionCore {
            device: Arc::clone(device),
            clk: clock,
            pool,
            ctx: Some(warm),
            token: None,
            codec: None,
            authenticated,
            phase: Phase::Hello,
            report: SessionReport::default(),
        }
    }

    /// Handle the next buffered message, appending any reply to `out`.
    /// `eof` says no more bytes will arrive. An error means the hello
    /// never completed (garbage or EOF before it): the connection ends
    /// without a report. After the hello, garbage and EOF end the session
    /// unorderly ([`Step::Closed`]).
    pub(crate) fn step(
        &mut self,
        dec: &mut StreamDecoder,
        eof: bool,
        out: &mut Vec<u8>,
        config: &ServerConfig,
        registry: &dyn Parking,
    ) -> io::Result<Step> {
        loop {
            match self.phase {
                Phase::Hello => match dec.poll_client_hello()? {
                    None if eof => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed before the session hello",
                        ))
                    }
                    None => return Ok(Step::NeedInput),
                    Some(ClientHello::Mux(hello)) => return Ok(Step::Mux(hello)),
                    // A codec-opting client precedes its session hello with
                    // the one-way `CodecHello`: switch this connection's
                    // framing, then parse the hello proper.
                    Some(ClientHello::Codec(caps)) => {
                        if caps & CAP_LZ4 != 0 {
                            self.codec = Some(Codec::new(self.pool.clone()));
                        }
                    }
                    Some(ClientHello::Session(hello)) => {
                        return Ok(self.on_hello(hello, out, config, registry))
                    }
                },
                Phase::AwaitResume(session) => return Ok(Step::Resume(session)),
                Phase::Running => {
                    return Ok(
                        match dec.poll_frame_codec(Some(&self.pool), self.codec.as_ref()) {
                            Ok(Some(frame)) => {
                                self.on_frame(frame, out, config);
                                Step::Served
                            }
                            Ok(None) if !eof => Step::NeedInput,
                            // A disconnect, or garbage on the wire: the
                            // session ends unorderly (park-eligible).
                            Ok(None) | Err(_) => {
                                self.phase = Phase::Closed;
                                Step::Closed
                            }
                        },
                    );
                }
                Phase::Closed => return Ok(Step::Closed),
            }
        }
    }

    /// The driver's answer to [`Step::Resume`]: the parked context, or
    /// `None` once [`RESUME_WAIT`] ran out. Appends the hello reply.
    pub(crate) fn resume(
        &mut self,
        ctx: Option<GpuContext>,
        out: &mut Vec<u8>,
        config: &ServerConfig,
    ) -> Step {
        let Phase::AwaitResume(session) = self.phase else {
            panic!("resume answers a Reconnect wait");
        };
        match ctx {
            Some(ctx) => {
                write_hello_reply(out, &Ok(())).expect("Vec write");
                self.report.resumed = true;
                self.start(ctx, Some(session), config);
            }
            // Nothing parked under that token: reject and end the
            // connection cleanly.
            None => {
                write_hello_reply(out, &Err(CudaError::InitializationError)).expect("Vec write");
                self.phase = Phase::Closed;
            }
        }
        Step::Handshaken
    }

    /// The session hello proper.
    fn on_hello(
        &mut self,
        hello: SessionHello,
        out: &mut Vec<u8>,
        config: &ServerConfig,
        registry: &dyn Parking,
    ) -> Step {
        // Every form but Fresh/Resumable discards the warm context: a
        // parked or shipped one carries the session's state.
        let mut warm = self.ctx.take().expect("the warm context serves one hello");
        self.phase = Phase::Closed;
        // An auth-gated server only serves sessions that arrived through an
        // authenticated mux trunk. A legacy single-stream hello cannot
        // carry the token, so it is rejected before any context work — the
        // same 4-byte error code every hello form knows how to read.
        if config.auth_token.is_some() && !self.authenticated {
            write_hello_reply(out, &Err(CudaError::AuthFailed)).expect("Vec write");
            return Step::Handshaken;
        }
        let (module, token) = match hello {
            SessionHello::Fresh { module } => (module, None),
            SessionHello::Resumable { session, module } => (module, Some(session)),
            SessionHello::Reconnect { session } => {
                drop(warm);
                self.phase = Phase::AwaitResume(session);
                return match registry.take(session) {
                    Some(ctx) => self.resume(Some(ctx), out, config),
                    None => Step::Resume(session),
                };
            }
            SessionHello::Migrate { session, snapshot } => {
                // A peer daemon ships a quiesced session: rebuild its
                // context and park it for the client's reconnect. Errors go
                // back as the hello reply (the shipper keeps its copy on
                // failure) and the connection ends either way.
                drop(warm);
                let reply = ContextSnapshot::decode(&snapshot)
                    .map_err(|_| CudaError::InvalidValue)
                    .and_then(|snap| self.device.restore_context(self.clk.clone(), &snap))
                    .map(|mut ctx| {
                        ctx.set_mem_quota(config.session_mem_quota);
                        self.report.reclaimed_bytes +=
                            park(registry, session, ctx, &config.observer);
                    });
                write_hello_reply(out, &reply).expect("Vec write");
                return Step::Handshaken;
            }
        };
        let init = Request::Init { module };
        dispatch_observed(&mut warm, &init, None, &self.clk, &config.observer, None)
            .expect("init never quits")
            .write(out)
            .expect("Vec write");
        self.start(warm, token, config);
        Step::Handshaken
    }

    /// Start serving `ctx`. Multi-tenant limits apply to resumed sessions
    /// too: the quota follows the config serving the connection, not the
    /// context's history.
    fn start(&mut self, mut ctx: GpuContext, token: Option<u64>, config: &ServerConfig) {
        ctx.set_mem_quota(config.session_mem_quota);
        self.ctx = Some(ctx);
        self.token = token;
        self.phase = Phase::Running;
    }

    /// Dispatch one frame. Both framings are accepted: the paper's
    /// one-call-per-message protocol and the batched extension. Dispatch
    /// runs inside a panic guard: a panicking request (a dispatch bug, or
    /// the chaos hook) kills this one session — answered with a
    /// correctly-shaped `cudaErrorLaunchFailure` so the client never
    /// desyncs — and the daemon lives on.
    fn on_frame(&mut self, frame: Frame, out: &mut Vec<u8>, config: &ServerConfig) {
        let obs = &config.observer;
        let chaos = &config.chaos;
        let ctx = self.ctx.as_mut().expect("Running implies a context");
        let (pool, clk, codec) = (&self.pool, &self.clk, self.codec.as_ref());
        let panicked = match frame {
            Frame::Single(req) => {
                self.report.requests += 1;
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    chaos.fire(&req);
                    dispatch_observed(ctx, &req, Some(pool), clk, obs, None)
                }));
                match outcome {
                    Ok(Some(resp)) => {
                        resp.write_codec(out, codec).expect("Vec write");
                        false
                    }
                    Ok(None) => {
                        // Finalization stage: acknowledge the Quit, then
                        // release everything ("the daemon server quits
                        // servicing the current execution and releases the
                        // associated resources", §III).
                        Response::Ack(Ok(())).write(out).expect("Vec write");
                        self.report.orderly_shutdown = true;
                        self.phase = Phase::Closed;
                        false
                    }
                    Err(_) => {
                        panic_response(&req).write(out).expect("Vec write");
                        true
                    }
                }
            }
            Frame::Batch(batch) => {
                self.report.requests += batch.len() as u64;
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    dispatch_batch(ctx, &batch, Some(pool), clk, obs, chaos)
                }));
                match outcome {
                    Ok((resp, quit)) => {
                        resp.write_codec(out, codec).expect("Vec write");
                        if quit {
                            self.report.orderly_shutdown = true;
                            self.phase = Phase::Closed;
                        }
                        false
                    }
                    Err(_) => {
                        // Answer every element so the frame stays shaped,
                        // then kill the session.
                        let responses = batch.requests().iter().map(panic_response).collect();
                        BatchResponse { responses }.write(out).expect("Vec write");
                        true
                    }
                }
            }
        };
        if panicked {
            obs.emit_daemon(DaemonEvent::SessionPanicked);
            self.report.panicked = true;
            self.phase = Phase::Closed;
        }
    }

    /// The token of a running resumable session.
    pub(crate) fn running_token(&self) -> Option<u64> {
        match self.phase {
            Phase::Running => self.token,
            _ => None,
        }
    }

    /// Live migration: send the running session's context to the daemon's
    /// migration order and return whether it went. Once it has, the
    /// session lives elsewhere — this core neither parks nor releases it —
    /// and the core is closed. If the order was withdrawn meanwhile, the
    /// context comes back and serving continues as if nothing happened.
    pub(crate) fn migrate(&mut self, to: &Sender<GpuContext>) -> bool {
        let ctx = self.ctx.take().expect("a running session holds a context");
        match to.send(ctx) {
            Ok(()) => {
                self.token = None;
                self.phase = Phase::Closed;
                true
            }
            Err(back) => {
                self.ctx = Some(back.0);
                false
            }
        }
    }

    /// Session end, once the hello reply reached the peer. An unorderly
    /// end of a resumable session parks the context for the client's
    /// reconnect; anything else releases it (a Quit, a panic — a panicked
    /// session is never parked — or a plain session's disconnect).
    pub(crate) fn finish(mut self, config: &ServerConfig, registry: &dyn Parking) -> SessionReport {
        let obs = &config.observer;
        if let Some(ctx) = self.ctx.take() {
            match self.token {
                Some(session) if !self.report.orderly_shutdown && !self.report.panicked => {
                    self.report.reclaimed_bytes += park(registry, session, ctx, obs);
                    self.report.parked = true;
                }
                _ => {
                    self.report.leaked_allocations = ctx.live_allocations();
                    self.report.reclaimed_bytes += release_context(ctx, obs);
                }
            }
        }
        self.report.pool = self.pool.stats();
        self.report
    }
}

/// Park `ctx` under `session`, returning the device bytes reclaimed from
/// a session evicted to make room (released through the same path as a
/// session exit).
pub(crate) fn park(registry: &dyn Parking, session: u64, ctx: GpuContext, obs: &ObsHandle) -> u64 {
    match registry.park(session, ctx) {
        Some((evicted, evicted_ctx)) => {
            obs.emit_daemon(DaemonEvent::SessionEvicted { session: evicted });
            release_context(evicted_ctx, obs)
        }
        None => 0,
    }
}

/// Release a session's context, returning the device bytes it gave back.
/// Dropping the context returns its allocations to the device ledger; the
/// observer hears about any nonzero reclamation. Session exit, registry
/// eviction, and daemon drain all release through here.
pub(crate) fn release_context(ctx: GpuContext, obs: &ObsHandle) -> u64 {
    let bytes = ctx.used_bytes();
    drop(ctx);
    if bytes > 0 {
        obs.emit_daemon(DaemonEvent::BytesReclaimed { bytes });
    }
    bytes
}

/// The correctly-shaped error answer for a request whose dispatch
/// panicked: every `Err` response serializes as the bare 4-byte code, so
/// matching the request's response *kind* keeps the client's decoder in
/// sync while it learns the session is dead.
fn panic_response(req: &Request) -> Response {
    let err = CudaError::LaunchFailure;
    match req {
        Request::Malloc { .. } => Response::Malloc(Err(err)),
        Request::Memcpy {
            kind: MemcpyKind::DeviceToHost,
            ..
        }
        | Request::MemcpyAsync {
            kind: MemcpyKind::DeviceToHost,
            ..
        } => Response::MemcpyToHost(Err(err)),
        Request::DeviceProps => Response::DeviceProps(Err(err)),
        Request::StreamCreate => Response::StreamCreate(Err(err)),
        Request::EventCreate => Response::EventCreate(Err(err)),
        Request::EventElapsed { .. } => Response::EventElapsed(Err(err)),
        _ => Response::Ack(Err(err)),
    }
}

/// Dispatch one request, reporting its service time as a [`ServerSpan`]
/// whose queue wait runs from `arrived` (the frame's arrival; `None` for a
/// request that waited behind nothing). With no observer installed this is
/// exactly [`dispatch_pooled`]: no timestamps are taken.
fn dispatch_observed(
    ctx: &mut GpuContext,
    req: &Request,
    pool: Option<&BufferPool>,
    clk: &SharedClock,
    obs: &ObsHandle,
    arrived: Option<SimTime>,
) -> Option<Response> {
    if !obs.is_enabled() {
        return dispatch_pooled(ctx, req, pool);
    }
    let start = clk.now();
    let resp = dispatch_pooled(ctx, req, pool);
    obs.emit_server(&ServerSpan {
        op: Op::Named(req.op_name()),
        queue_wait: arrived.map_or(SimTime::ZERO, |at| start.saturating_sub(at)),
        start,
        end: clk.now(),
    });
    resp
}

/// Handle a batched frame: execute every packed request in submission
/// order, collecting one response per request, with the chaos hook fired
/// and a [`ServerSpan`] reported per element (its queue wait is the time it
/// spent behind earlier elements of the same frame).
///
/// Individual errors do not stop the batch — each element's result code is
/// recorded and execution continues, exactly as if the calls had been
/// issued one at a time. A `Quit` inside a batch is honored gracefully: it
/// is acknowledged, the returned flag ends the session after the combined
/// reply, and any elements after it are answered with `InvalidValue`
/// without being executed (the session is already over).
fn dispatch_batch(
    ctx: &mut GpuContext,
    batch: &Batch,
    pool: Option<&BufferPool>,
    clk: &SharedClock,
    obs: &ObsHandle,
    chaos: &ChaosHook,
) -> (BatchResponse, bool) {
    let arrived = obs.is_enabled().then(|| clk.now());
    let mut responses = Vec::with_capacity(batch.len());
    let mut quit = false;
    for req in batch.requests() {
        if quit {
            responses.push(Response::Ack(Err(CudaError::InvalidValue)));
            continue;
        }
        chaos.fire(req);
        match dispatch_observed(ctx, req, pool, clk, obs, arrived) {
            Some(resp) => responses.push(resp),
            None => {
                responses.push(Response::Ack(Ok(())));
                quit = true;
            }
        }
    }
    (BatchResponse { responses }, quit)
}
