//! Server-side multiplexed-trunk hosting.
//!
//! Two entry points share one handshake:
//!
//! * **Reactor path** — a connection whose first message is a
//!   [`MuxHello`] is pulled out of its shard ([`spawn_reactor_trunk`]):
//!   a dedicated host thread completes the blocking challenge-response
//!   handshake, splits the transport, and stands up a [`MuxPeer`] whose
//!   accepted sub-streams are admitted — each against the daemon's
//!   admission caps, each with its own GPU context and pool seat — and
//!   submitted back to the reactor as ordinary nonblocking connections.
//!   The trunk itself holds **no** session slot: its accounting was
//!   balanced when it upgraded.
//! * **Blocking path** — [`serve_mux_trunk`] hosts a trunk on the calling
//!   thread over any in-process transport (channel, simulated network),
//!   spawning one blocking worker per accepted stream. The facade's
//!   `Endpoint::Channel`/`Endpoint::Simulated` mux sessions use this.
//!
//! The handshake (see `rcuda_proto::mux`): the client's hello carries a
//! nonce and option flags; the server answers with its own nonce and the
//! negotiated cipher; the client proves possession of the shared token
//! with `HMAC-SHA256(token, label ‖ nonces)`; the server compares in
//! constant time and accepts (code 0) or rejects (`rcudaErrorAuthFailed`).
//! With no token configured both ends MAC under the empty key, so open
//! daemons still complete the same handshake.

use parking_lot::Mutex;
use rcuda_core::{CudaError, SharedClock};
use rcuda_gpu::GpuDevice;
use rcuda_proto::handshake::ServerHello;
use rcuda_proto::mux::{
    write_mux_accept, MuxAuth, MuxChallenge, MuxHello, FLAG_CIPHER, MUX_VERSION,
};
use rcuda_proto::secure::{auth_proof, ct_eq, derive_key, random_nonce, CipherSuiteKind};
use rcuda_proto::{BufferPool, ClientHello, StreamDecoder};
use rcuda_transport::{MuxCloser, MuxConfig, MuxPeer, MuxStream, ReadHalf, Transport};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

use crate::daemon::admit;
use crate::pool::GpuPool;
use crate::reactor::{NewConn, Reactor, Shared};
use crate::registry::SessionRegistry;
use crate::worker::{serve_connection_with_registry, ServerConfig, SessionReport, READ_CHUNK};

/// Late-bound links from [`Shared`] back to the reactor and GPU pool, so a
/// trunk's stream-acceptance callback can admit sub-streams. Installed by
/// the daemon right after the reactor starts; `Weak` breaks the
/// `Reactor → Shared → Reactor` cycle.
#[derive(Default)]
pub(crate) struct MuxLinks {
    inner: Mutex<Option<(Weak<Reactor>, Arc<GpuPool>)>>,
}

impl MuxLinks {
    pub(crate) fn install(&self, reactor: &Arc<Reactor>, pool: &Arc<GpuPool>) {
        *self.inner.lock() = Some((Arc::downgrade(reactor), Arc::clone(pool)));
    }

    fn get(&self) -> Option<(Arc<Reactor>, Arc<GpuPool>)> {
        let guard = self.inner.lock();
        let (reactor, pool) = guard.as_ref()?;
        Some((reactor.upgrade()?, Arc::clone(pool)))
    }
}

/// Complete the server half of the secure upgrade handshake over `t`,
/// then start the trunk's demultiplexer, handing it every accepted
/// sub-stream. `Ok(None)` means the client was cleanly rejected (bad token
/// or version) and the trunk must be closed.
fn open_trunk(
    mut t: Prefixed,
    hello: &MuxHello,
    config: &ServerConfig,
    on_stream: impl FnMut(MuxStream) + Send + 'static,
) -> io::Result<Option<MuxPeer>> {
    let cipher = if hello.wants_cipher() {
        config.cipher
    } else {
        CipherSuiteKind::None
    };
    let flags = if cipher == CipherSuiteKind::None {
        0
    } else {
        FLAG_CIPHER
    };
    let server_nonce = random_nonce();
    MuxChallenge {
        flags,
        cipher: cipher.as_u32(),
        server_nonce,
    }
    .write(&mut t)?;
    t.flush()?;

    let auth = MuxAuth::read(&mut t)?;
    let token: &[u8] = config.auth_token.as_deref().unwrap_or(&[]);
    let expected = auth_proof(token, &hello.client_nonce, &server_nonce);
    if hello.version != MUX_VERSION || !ct_eq(&expected, &auth.mac) {
        write_mux_accept(&mut t, CudaError::AuthFailed.code())?;
        t.flush()?;
        return Ok(None);
    }
    write_mux_accept(&mut t, 0)?;
    t.flush()?;

    // Any prefix bytes the handshake left unread stay ahead of the read
    // half.
    let rest = t.pre.get_ref()[t.pre.position() as usize..].to_vec();
    let (read, write) = t.inner.into_split()?;
    let read: ReadHalf = if rest.is_empty() {
        read
    } else {
        Box::new(io::Cursor::new(rest).chain(read))
    };
    let mux_config = MuxConfig {
        cipher,
        key: derive_key(token, &hello.client_nonce, &server_nonce),
        pool: BufferPool::new(),
        obs: config.observer.clone(),
    };
    Ok(Some(MuxPeer::server(read, write, mux_config, on_stream)))
}

/// A transport with a prefix of already-read bytes replayed ahead of it:
/// whatever a decoder read past the client's hello must be seen by the
/// handshake (and later the demultiplexer) in order.
struct Prefixed {
    pre: io::Cursor<Vec<u8>>,
    inner: Box<dyn Transport>,
}

impl Read for Prefixed {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.pre.read(buf)?;
        if n > 0 {
            return Ok(n);
        }
        self.inner.read(buf)
    }
}

impl Write for Prefixed {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Hand an upgrading reactor connection to a dedicated trunk-host thread.
/// `pending_out` is whatever the shard had queued but not yet flushed
/// (normally nothing — the client reads the hello push before upgrading);
/// `leftover` is any read-ahead past the client's `MuxHello`.
pub(crate) fn spawn_reactor_trunk(
    transport: Box<dyn Transport>,
    raw: Option<TcpStream>,
    hello: MuxHello,
    leftover: Vec<u8>,
    pending_out: Vec<u8>,
    shared: Arc<Shared>,
) {
    let _ = std::thread::Builder::new()
        .name("rcuda-mux-host".into())
        .spawn(move || {
            let _ = host_reactor_trunk(transport, raw, hello, leftover, pending_out, shared);
        });
}

fn host_reactor_trunk(
    mut transport: Box<dyn Transport>,
    raw: Option<TcpStream>,
    hello: MuxHello,
    leftover: Vec<u8>,
    pending_out: Vec<u8>,
    shared: Arc<Shared>,
) -> io::Result<()> {
    // The handshake is a strict request/response exchange: run it blocking.
    transport.set_nonblocking(false)?;
    if !pending_out.is_empty() {
        transport.write_all(&pending_out)?;
        transport.flush()?;
    }
    let pre = Prefixed {
        pre: io::Cursor::new(leftover),
        inner: transport,
    };
    let stream_shared = Arc::clone(&shared);
    let accept = move |stream| accept_reactor_stream(stream, &stream_shared);
    let Some(mut peer) = open_trunk(pre, &hello, &shared.config, accept)? else {
        return Ok(());
    };
    if let Some(raw) = raw {
        // Unblocks the demux thread's blocking read at daemon teardown.
        peer.set_shutdown(move || {
            let _ = raw.shutdown(Shutdown::Both);
        });
    }
    // Park holding the peer (dropping it would GOAWAY the trunk) until the
    // client leaves or the daemon halts: [`Shared::begin_halt`] raises
    // `halt`, then closes every trunk registered under this lock.
    {
        let mut trunks = shared.trunks.lock();
        if shared.halt.load(Ordering::SeqCst) {
            return Ok(());
        }
        trunks.retain(MuxCloser::is_open);
        trunks.push(peer.closer());
    }
    peer.wait_dead();
    Ok(())
}

/// Admission for one accepted sub-stream: exactly the fresh-TCP path —
/// counted against the same caps, shed with the same `Busy` frame — except
/// the connection is already authenticated by its trunk.
fn accept_reactor_stream(mut stream: MuxStream, shared: &Arc<Shared>) {
    if !admit(shared) {
        let busy = ServerHello::Busy {
            retry_after_ms: shared.config.busy_retry_after_ms,
        };
        let _ = stream.write_all(&busy.to_wire());
        let _ = stream.flush();
        return;
    }
    match shared.links.get() {
        Some((reactor, pool)) => {
            let (device, guard) = pool.assign();
            reactor.submit(NewConn {
                transport: Box::new(stream),
                raw: None,
                device,
                guard,
                authenticated: true,
            });
        }
        // Daemon mid-teardown: balance the admission as an
        // immediately-finished session.
        None => shared.release_slot(),
    }
}

/// Host a multiplexed trunk on the calling thread over any blocking
/// transport, serving each accepted sub-stream with a dedicated blocking
/// worker ([`serve_connection_with_registry`]); all streams of the trunk
/// share one park/resume registry. Returns once the client closes the
/// trunk, with every stream's session report (in stream-acceptance order).
///
/// The trunk-level exchange: the 8-byte compute-capability push, the
/// client's `MuxHello` (anything else is a protocol error — callers choose
/// this path only for mux clients), then the secure handshake. A rejected
/// handshake returns an empty report list.
pub fn serve_mux_trunk<T: Transport + 'static>(
    transport: T,
    device: Arc<GpuDevice>,
    clock: SharedClock,
    config: ServerConfig,
) -> io::Result<Vec<SessionReport>> {
    let mut transport: Box<dyn Transport> = Box::new(transport);
    transport.write_all(&device.properties().compute_capability_wire())?;
    transport.flush()?;

    // The hello arrives through the same decoder every connection's first
    // message goes through.
    let mut dec = StreamDecoder::new();
    let hello = loop {
        match dec.poll_client_hello()? {
            Some(ClientHello::Mux(hello)) => break hello,
            Some(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "expected a mux upgrade hello on a trunk-serving connection",
                ))
            }
            None => {
                let n = transport.read(dec.space(READ_CHUNK))?;
                if n == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                dec.commit(n);
            }
        }
    };
    let pre = Prefixed {
        pre: io::Cursor::new(dec.take_buffered()),
        inner: transport,
    };

    // Per-stream workers authenticate by construction (the trunk already
    // did); clearing the token keeps the worker-level gate from rejecting
    // their plain session hellos.
    let stream_config = ServerConfig {
        auth_token: None,
        ..config.clone()
    };
    let registry = Arc::new(SessionRegistry::new());
    type Workers = Arc<Mutex<Vec<JoinHandle<io::Result<SessionReport>>>>>;
    let workers: Workers = Arc::new(Mutex::new(Vec::new()));
    let spawned = Arc::clone(&workers);
    let accept = move |stream| {
        let device = Arc::clone(&device);
        let clock = clock.clone();
        let config = stream_config.clone();
        let registry = Arc::clone(&registry);
        let handle = std::thread::Builder::new()
            .name("rcuda-mux-stream".into())
            .spawn(move || {
                serve_connection_with_registry(stream, &device, clock, &config, &registry)
            })
            .expect("spawn mux stream worker");
        spawned.lock().push(handle);
    };
    let Some(peer) = open_trunk(pre, &hello, &config, accept)? else {
        return Ok(Vec::new());
    };

    peer.wait_dead();
    drop(peer);

    let handles = std::mem::take(&mut *workers.lock());
    Ok(handles
        .into_iter()
        .filter_map(|h| h.join().ok().and_then(|r| r.ok()))
        .collect())
}
