//! Event types and the [`Observer`] sink.
//!
//! Every payload is `Copy` and every emission goes through [`ObsHandle`],
//! whose disarmed form is a `None` check — the instrumented layers pay
//! nothing (no allocation, no locking, no virtual dispatch) when no
//! observer is installed.

use crate::op::Op;
use rcuda_core::SimTime;
use std::fmt;
use std::sync::Arc;

/// Message direction, from the instrumented endpoint's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    Sent,
    Received,
}

/// One protocol message crossing the transport (reported at flush time for
/// sends, at consumption time for receives).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageEvent {
    pub dir: Dir,
    /// Payload bytes of the message (before transport framing).
    pub bytes: u64,
}

/// One multiplexed-transport frame crossing a sub-stream (reported per DATA
/// chunk by the mux layer, in both directions). Stream 0 is the trunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamFrameEvent {
    /// The sub-stream the frame belongs to.
    pub stream: u32,
    pub dir: Dir,
    /// Payload bytes of the frame (headers excluded).
    pub bytes: u64,
    /// Whether this frame closed a protocol message (flush boundary).
    pub end_of_message: bool,
}

/// One client-side CUDA call: request/response byte counts and monotonic
/// clock timestamps (wall for real runs, virtual for simulated ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallSpan {
    pub op: Op,
    /// Request bytes on the wire (Table I's send column).
    pub bytes_sent: u64,
    /// Response bytes on the wire (Table I's receive column).
    pub bytes_received: u64,
    pub start: SimTime,
    pub end: SimTime,
    /// Transport-fault replays this call needed (0 on the happy path).
    pub retries: u32,
}

impl CallSpan {
    pub fn duration(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }

    /// Application payload moved by this call, if it is a bulk memcpy
    /// (header bytes excluded): `x` of Table I.
    pub fn bulk_payload(&self) -> u64 {
        match self.op.as_named() {
            // Request carries 20 header bytes + payload.
            Some("cudaMemcpyH2D" | "cudaMemcpyAsyncH2D") => self.bytes_sent.saturating_sub(20),
            // Response carries 4 status bytes + payload (async adds a
            // stream field to the request, not the response).
            Some("cudaMemcpyD2H" | "cudaMemcpyAsyncD2H") => self.bytes_received.saturating_sub(4),
            _ => 0,
        }
    }
}

/// One request dispatched on the server worker: GPU service time plus the
/// queue wait it spent behind earlier elements of the same batch frame.
/// Subtracting the per-group service sum from the matching client spans
/// splits call time into network and GPU-service components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerSpan {
    pub op: Op,
    /// Time between the frame arriving and this element starting.
    pub queue_wait: SimTime,
    /// Dispatch start on the server's clock.
    pub start: SimTime,
    /// Dispatch end (service time = `end - start`).
    pub end: SimTime,
}

impl ServerSpan {
    pub fn service(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }
}

/// A daemon lifecycle event: admission decisions, resource reclamation, and
/// failures that are invisible from any single session's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonEvent {
    /// A connection was shed at the handshake (over admission limits); the
    /// client was told to retry after this many milliseconds.
    SessionRejected { retry_after_ms: u32 },
    /// `listener.incoming()` yielded an error (no session involved).
    AcceptError,
    /// A dispatch panicked; the session was killed, the daemon survived.
    SessionPanicked,
    /// A parked session was evicted from the resume registry to make room.
    SessionEvicted { session: u64 },
    /// Device bytes returned to the allocator when a session's context was
    /// released (worker exit, eviction, or drain).
    BytesReclaimed { bytes: u64 },
    /// The accept loop hit a transient error (e.g. `EMFILE`) and backed off
    /// instead of retrying hot: it slept `backoff_ms` after
    /// `consecutive_errors` failures in a row.
    AcceptThrottled {
        consecutive_errors: u32,
        backoff_ms: u64,
    },
}

/// A cluster-broker event: membership transitions, placement decisions and
/// migrations. Daemons are identified by the numeric id the broker assigned
/// at registration (the broker's directory maps ids to addresses) so the
/// payload stays `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrokerEvent {
    /// A daemon registered (or re-registered) with the directory.
    DaemonJoined { daemon: u64 },
    /// A daemon missed enough heartbeats to be considered suspect.
    DaemonSuspect { daemon: u64 },
    /// A suspect daemon recovered (enough consecutive heartbeats arrived).
    DaemonRecovered { daemon: u64 },
    /// A daemon was declared down (heartbeat timeout expired or its
    /// registration trunk died) and its sessions became orphans.
    DaemonDown { daemon: u64, orphaned_sessions: u64 },
    /// A placement decision was served: the chosen daemon and how many
    /// candidates were considered.
    Placed { daemon: u64, candidates: u32 },
    /// A placement request could not be satisfied (no live daemon).
    PlacementFailed,
    /// The broker ordered a session migrated between daemons.
    MigrationOrdered { session: u64, from: u64, to: u64 },
}

/// One readiness pass of a reactor shard that did useful work: how loaded
/// the shard was and how much it moved. Idle passes are not reported, so
/// the stream's density tracks actual activity, not spin rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpan {
    /// Which shard (0-based, stable for the daemon's lifetime).
    pub shard: u32,
    /// Connections registered on the shard at the end of the pass.
    pub sessions: u32,
    /// Freshly-admitted connections waiting in the shard's injector queue
    /// when the pass began (queue depth).
    pub queue_depth: u32,
    /// Frames dispatched during the pass.
    pub frames: u32,
    /// Pass start on the shard's clock.
    pub start: SimTime,
    /// Pass end.
    pub end: SimTime,
}

impl ShardSpan {
    pub fn duration(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }
}

/// A sink for observability events. All methods default to no-ops so
/// observers implement only what they need. Implementations must be
/// thread-safe: client, transport, and server layers may report from
/// different threads.
pub trait Observer: Send + Sync {
    fn call_span(&self, _span: &CallSpan) {}
    fn message(&self, _event: &MessageEvent) {}
    fn stream_frame(&self, _event: &StreamFrameEvent) {}
    fn retry(&self, _op: Op, _attempt: u32) {}
    fn reconnect(&self) {}
    fn server_span(&self, _span: &ServerSpan) {}
    fn daemon_event(&self, _event: &DaemonEvent) {}
    fn shard_span(&self, _span: &ShardSpan) {}
    fn broker_event(&self, _event: &BrokerEvent) {}
}

/// The nullable observer handle held by instrumented layers.
///
/// Cloning shares the same observer. The default (disarmed) handle makes
/// every `emit_*` an inlined `None` check over `Copy` arguments — zero
/// allocation on the per-call hot path, as the counting-allocator test in
/// this crate asserts.
#[derive(Clone, Default)]
pub struct ObsHandle {
    observer: Option<Arc<dyn Observer>>,
}

impl ObsHandle {
    /// The disarmed handle (all emissions are no-ops).
    pub const fn none() -> Self {
        ObsHandle { observer: None }
    }

    /// Arm the handle with an observer.
    pub fn new(observer: Arc<dyn Observer>) -> Self {
        ObsHandle {
            observer: Some(observer),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.observer.is_some()
    }

    #[inline]
    pub fn emit_call(&self, span: &CallSpan) {
        if let Some(obs) = &self.observer {
            obs.call_span(span);
        }
    }

    #[inline]
    pub fn emit_message(&self, dir: Dir, bytes: u64) {
        if let Some(obs) = &self.observer {
            obs.message(&MessageEvent { dir, bytes });
        }
    }

    #[inline]
    pub fn emit_stream_frame(&self, stream: u32, dir: Dir, bytes: u64, end_of_message: bool) {
        if let Some(obs) = &self.observer {
            obs.stream_frame(&StreamFrameEvent {
                stream,
                dir,
                bytes,
                end_of_message,
            });
        }
    }

    #[inline]
    pub fn emit_retry(&self, op: Op, attempt: u32) {
        if let Some(obs) = &self.observer {
            obs.retry(op, attempt);
        }
    }

    #[inline]
    pub fn emit_reconnect(&self) {
        if let Some(obs) = &self.observer {
            obs.reconnect();
        }
    }

    #[inline]
    pub fn emit_server(&self, span: &ServerSpan) {
        if let Some(obs) = &self.observer {
            obs.server_span(span);
        }
    }

    #[inline]
    pub fn emit_daemon(&self, event: DaemonEvent) {
        if let Some(obs) = &self.observer {
            obs.daemon_event(&event);
        }
    }

    #[inline]
    pub fn emit_shard(&self, span: &ShardSpan) {
        if let Some(obs) = &self.observer {
            obs.shard_span(span);
        }
    }

    #[inline]
    pub fn emit_broker(&self, event: BrokerEvent) {
        if let Some(obs) = &self.observer {
            obs.broker_event(&event);
        }
    }
}

impl From<Arc<dyn Observer>> for ObsHandle {
    fn from(observer: Arc<dyn Observer>) -> Self {
        ObsHandle::new(observer)
    }
}

impl fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_enabled() {
            "ObsHandle(armed)"
        } else {
            "ObsHandle(none)"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct Counting {
        calls: AtomicU64,
        messages: AtomicU64,
        retries: AtomicU64,
        reconnects: AtomicU64,
        server: AtomicU64,
        daemon: AtomicU64,
        broker: AtomicU64,
    }

    impl Observer for Counting {
        fn call_span(&self, _: &CallSpan) {
            self.calls.fetch_add(1, Ordering::Relaxed);
        }
        fn message(&self, _: &MessageEvent) {
            self.messages.fetch_add(1, Ordering::Relaxed);
        }
        fn retry(&self, _: Op, _: u32) {
            self.retries.fetch_add(1, Ordering::Relaxed);
        }
        fn reconnect(&self) {
            self.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        fn server_span(&self, _: &ServerSpan) {
            self.server.fetch_add(1, Ordering::Relaxed);
        }
        fn daemon_event(&self, _: &DaemonEvent) {
            self.daemon.fetch_add(1, Ordering::Relaxed);
        }
        fn broker_event(&self, _: &BrokerEvent) {
            self.broker.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn span() -> CallSpan {
        CallSpan {
            op: Op::Named("cudaMalloc"),
            bytes_sent: 8,
            bytes_received: 8,
            start: SimTime::ZERO,
            end: SimTime::from_nanos(10),
            retries: 0,
        }
    }

    #[test]
    fn armed_handle_forwards_every_event() {
        let obs = Arc::new(Counting::default());
        let handle = ObsHandle::new(obs.clone());
        assert!(handle.is_enabled());
        handle.emit_call(&span());
        handle.emit_message(Dir::Sent, 8);
        handle.emit_retry(Op::Named("cudaFree"), 1);
        handle.emit_reconnect();
        handle.emit_server(&ServerSpan {
            op: Op::Named("cudaMalloc"),
            queue_wait: SimTime::ZERO,
            start: SimTime::ZERO,
            end: SimTime::from_nanos(3),
        });
        handle.emit_daemon(DaemonEvent::SessionRejected { retry_after_ms: 25 });
        handle.emit_broker(BrokerEvent::Placed {
            daemon: 1,
            candidates: 3,
        });
        assert_eq!(obs.broker.load(Ordering::Relaxed), 1);
        assert_eq!(obs.calls.load(Ordering::Relaxed), 1);
        assert_eq!(obs.messages.load(Ordering::Relaxed), 1);
        assert_eq!(obs.retries.load(Ordering::Relaxed), 1);
        assert_eq!(obs.reconnects.load(Ordering::Relaxed), 1);
        assert_eq!(obs.server.load(Ordering::Relaxed), 1);
        assert_eq!(obs.daemon.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn disarmed_handle_is_silent_and_clonable() {
        let handle = ObsHandle::none();
        assert!(!handle.is_enabled());
        handle.emit_call(&span());
        handle.emit_reconnect();
        let clone = handle.clone();
        assert!(!clone.is_enabled());
        assert_eq!(format!("{handle:?}"), "ObsHandle(none)");
    }

    #[test]
    fn clones_share_the_observer() {
        let obs = Arc::new(Counting::default());
        let a = ObsHandle::new(obs.clone());
        let b = a.clone();
        a.emit_reconnect();
        b.emit_reconnect();
        assert_eq!(obs.reconnects.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn span_durations_saturate() {
        let s = CallSpan {
            start: SimTime::from_nanos(5),
            end: SimTime::ZERO,
            ..span()
        };
        assert_eq!(s.duration(), SimTime::ZERO);
    }
}
