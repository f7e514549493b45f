//! The system under test: a live in-process `RcudaDaemon` (one reactor
//! shard, functional Tesla C1060) and the client sessions that reach it
//! over loopback TCP through the public `Session` API.

use std::time::{Duration, Instant};

use rcuda::api::CudaRuntime;
use rcuda::obs::ObsHandle;
use rcuda::proto::secure::CipherSuiteKind;
use rcuda::server::{DaemonBuilder, RcudaDaemon, SessionReport};
use rcuda::session::{Connector, Endpoint, Session};

use crate::ops::small_module;

/// The shared token of the authenticated trunk.
const TOKEN: &[u8] = b"rcbench-token";

/// How the client reaches the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// One plain single-stream TCP connection per session.
    Plain,
    /// One authenticated mux trunk (ChaCha20, adaptive codec) shared by
    /// every session.
    Trunk,
}

/// A running daemon plus its long-lived client sessions.
pub struct Rig {
    wire: Wire,
    obs: ObsHandle,
    daemon: RcudaDaemon,
    connector: Option<Connector>,
    /// The long-lived sessions, initialized.
    pub sessions: Vec<Session>,
}

impl Rig {
    /// Bind a daemon, connect `sessions` long-lived sessions (over one
    /// trunk for [`Wire::Trunk`]) and initialize each. Returns the rig and
    /// the wall time all of that took: the workload's set-up time.
    pub fn start(wire: Wire, sessions: usize, obs: ObsHandle) -> Result<(Rig, Duration), String> {
        let t = Instant::now();
        let mut builder = DaemonBuilder::new().shards(1).observer(obs.clone());
        if wire == Wire::Trunk {
            builder = builder
                .auth(TOKEN.to_vec())
                .cipher(CipherSuiteKind::ChaCha20);
        }
        let daemon = crate::util::on_daemon_core(|| builder.bind("127.0.0.1:0"))
            .map_err(|e| format!("daemon bind: {e}"))?;
        let mut rig = Rig {
            wire,
            obs,
            daemon,
            connector: None,
            sessions: Vec::new(),
        };
        if wire == Wire::Trunk {
            let connector = rig
                .builder()
                .connector(Endpoint::Tcp(rig.daemon.local_addr()))
                .map_err(|e| format!("trunk handshake: {e:?}"))?;
            rig.connector = Some(connector);
        }
        for _ in 0..sessions {
            let mut sess = rig.open()?;
            sess.initialize(&small_module())
                .map_err(|e| format!("initialize: {e:?}"))?;
            rig.sessions.push(sess);
        }
        Ok((rig, t.elapsed()))
    }

    fn builder(&self) -> rcuda::session::SessionBuilder {
        let b = Session::builder().observer(self.obs.clone());
        match self.wire {
            Wire::Plain => b,
            Wire::Trunk => b
                .auth(TOKEN.to_vec())
                .cipher(CipherSuiteKind::ChaCha20)
                .codec(true),
        }
    }

    /// Open one more (uninitialized) session: a new TCP connection, or a
    /// new sub-stream of the trunk.
    pub fn open(&self) -> Result<Session, String> {
        match &self.connector {
            Some(c) => c.open().map_err(|e| format!("open sub-stream: {e:?}")),
            None => self
                .builder()
                .connect(Endpoint::Tcp(self.daemon.local_addr()))
                .map_err(|e| format!("connect: {e:?}")),
        }
    }

    /// Finalize every session and stop the daemon, joining its threads.
    /// Returns the daemon's reports of the sessions it served.
    pub fn stop(mut self) -> Vec<SessionReport> {
        for mut sess in self.sessions.drain(..) {
            let _ = sess.finalize();
            sess.finish();
        }
        if let Some(c) = self.connector.take() {
            c.finish();
        }
        self.daemon.drain(Duration::from_secs(5));
        self.daemon.session_reports()
    }
}

/// Time `n` complete set-ups (and tear-downs) of `wire` with `sessions`
/// sessions; returns the set-up times in seconds.
pub fn setup_times(wire: Wire, sessions: usize, n: usize) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let (rig, took) = Rig::start(wire, sessions, ObsHandle::none())?;
        out.push(took.as_secs_f64());
        rig.stop();
    }
    Ok(out)
}
