//! The rCUDA server daemon.
//!
//! §III: "on the other side, there is a GPU network service listening for
//! requests on a TCP port. ... Time-multiplexing (sharing) the GPU is
//! accomplished by spawning a different server process for each remote
//! execution over a new GPU context." This crate is that service:
//!
//! * `session` — the session engine, `SessionCore`: the initialization
//!   handshake, then a request/dispatch/respond loop over a fresh,
//!   **pre-initialized** GPU context (the warm context is why remote
//!   executions skip the CUDA environment initialization delay, §VI-B),
//!   then release or park. It does no I/O; every decision lives there once;
//! * [`worker`] — the blocking driver of that engine
//!   ([`serve_connection`]), behind in-process channel and simulated
//!   sessions, and the session types ([`ServerConfig`], [`SessionReport`]);
//! * [`dispatch`] — maps each protocol request onto the context;
//! * [`reactor`] — the sharded readiness loop: a fixed pool of shard
//!   threads driving the same engine over nonblocking transports for every
//!   admitted connection. `tests/driver_equivalence.rs` checks that both
//!   drivers answer identical client byte streams identically;
//! * [`daemon`] — the TCP accept loop (admission control, accept backoff)
//!   feeding the reactor; built through [`DaemonBuilder`].

pub(crate) mod broker_agent;
pub mod builder;
pub mod daemon;
pub mod dispatch;
pub mod mux_host;
pub mod pool;
pub(crate) mod reactor;
pub mod registry;
pub(crate) mod session;
pub mod worker;

pub use builder::DaemonBuilder;
pub use daemon::{DaemonHealth, DrainReport, RcudaDaemon};
pub use mux_host::serve_mux_trunk;
pub use pool::{GpuPool, PoolPolicy};
pub use registry::{SessionRegistry, ShardedRegistry};
pub use worker::{
    serve_connection, serve_connection_with_registry, ChaosHook, ServerConfig, SessionReport,
};
