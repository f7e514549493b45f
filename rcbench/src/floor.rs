//! Transport-layer echo probes over loopback TCP: the raw `std` socket
//! floor, the framed `TcpTransport`, and a ChaCha20 `MuxPeer` trunk.
//!
//! Every probe is a length-prefixed store-and-forward echo: the client
//! writes `[len u32][len bytes]`, the server reads all of it and writes the
//! bytes back. This has the shape of a request/reply call of that size.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rcuda::proto::secure::CipherSuiteKind;
use rcuda::proto::BufferPool;
use rcuda::transport::{MuxConfig, MuxPeer, TcpTransport};

use crate::util::{median, Rng};

/// Serve length-prefixed echoes on `io` until the peer hangs up.
fn echo_loop(mut io: impl Read + Write) {
    let mut buf = Vec::new();
    loop {
        let mut len = [0u8; 4];
        if io.read_exact(&mut len).is_err() {
            return;
        }
        buf.resize(u32::from_le_bytes(len) as usize, 0);
        if io.read_exact(&mut buf).is_err() || io.write_all(&buf).and_then(|_| io.flush()).is_err()
        {
            return;
        }
    }
}

/// One echo of `msg`, checked byte for byte.
fn echo_once(io: &mut (impl Read + Write), msg: &[u8], back: &mut [u8]) -> io::Result<bool> {
    io.write_all(&(msg.len() as u32).to_le_bytes())?;
    io.write_all(msg)?;
    io.flush()?;
    io.read_exact(&mut back[..msg.len()])?;
    Ok(back[..msg.len()] == *msg)
}

/// Echo `msg` until `budget` is spent (at least `min` rounds) and return
/// the median round trip in µs, or an error if any echo came back wrong.
fn rtt(io: &mut (impl Read + Write), msg: &[u8], budget: Duration, min: usize) -> io::Result<f64> {
    let mut back = vec![0u8; msg.len()];
    // Warm the path (buffers, congestion window) before timing.
    for _ in 0..3 {
        echo_once(io, msg, &mut back)?;
    }
    let start = Instant::now();
    let mut rtts = Vec::new();
    while rtts.len() < min || start.elapsed() < budget {
        let t = Instant::now();
        if !echo_once(io, msg, &mut back)? {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "echo changed the bytes",
            ));
        }
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&rtts))
}

/// A loopback connection pair: (client side, accepted server side).
fn loopback_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let client = TcpStream::connect(listener.local_addr()?)?;
    let (server, _) = listener.accept()?;
    client.set_nodelay(true)?;
    server.set_nodelay(true)?;
    Ok((client, server))
}

/// Serve echoes from a thread on the daemon core.
fn spawn_echo<T: Read + Write + Send + 'static>(io: T) -> JoinHandle<()> {
    crate::util::on_daemon_core(|| {
        std::thread::Builder::new()
            .name("rcbench-echo".into())
            .spawn(move || echo_loop(io))
            .expect("spawn echo thread")
    })
}

/// The four floor sizes, as (label, bytes).
pub const FLOOR_SIZES: [(&str, usize); 4] =
    [("64", 64), ("4k", 4096), ("64k", 65536), ("1m", 1 << 20)];

/// The raw loopback floor: a plain `std` `TcpStream` echo with nodelay.
/// Returns the median RTT in µs for each of [`FLOOR_SIZES`].
pub fn raw_floor(rng: &mut Rng, budget: Duration) -> io::Result<[f64; 4]> {
    let (mut client, server) = loopback_pair()?;
    let echo = spawn_echo(server);
    let mut out = [0.0; 4];
    let mut result = Ok(());
    for (i, &(_, size)) in FLOOR_SIZES.iter().enumerate() {
        let mut msg = vec![0u8; size];
        rng.fill(&mut msg);
        match rtt(&mut client, &msg, budget / 4, 20) {
            Ok(v) => out[i] = v,
            Err(e) => {
                result = Err(e);
                break;
            }
        }
    }
    let _ = client.shutdown(Shutdown::Both);
    echo.join().expect("echo thread panicked");
    result.map(|_| out)
}

/// `TcpTransport` framed echo (buffered writer, flush per message) at
/// 64 B and 1 MiB: median RTT in µs.
pub fn tcp_transport_rtt(rng: &mut Rng, budget: Duration) -> io::Result<(f64, f64)> {
    let (client, server) = loopback_pair()?;
    let mut client = TcpTransport::from_stream(client)?;
    let echo = spawn_echo(TcpTransport::from_stream(server)?);
    let small = rtt_sized(&mut client, rng, 64, budget / 2);
    let large =
        small.and_then(|s| rtt_sized(&mut client, rng, 1 << 20, budget / 2).map(|l| (s, l)));
    let _ = client.shutdown();
    echo.join().expect("echo thread panicked");
    large
}

fn rtt_sized(
    io: &mut (impl Read + Write),
    rng: &mut Rng,
    size: usize,
    budget: Duration,
) -> io::Result<f64> {
    let mut msg = vec![0u8; size];
    rng.fill(&mut msg);
    rtt(io, &msg, budget, 20)
}

/// A `MuxPeer` trunk with ChaCha20 over loopback TCP, one sub-stream
/// echoing: 64 B median RTT in µs and 1 MiB echo goodput in Gb/s (payload
/// bytes both ways over the RTT).
pub fn mux_rtt(rng: &mut Rng, budget: Duration) -> io::Result<(f64, f64)> {
    let (client, server) = loopback_pair()?;
    let mut key = [0u8; 32];
    rng.fill(&mut key);
    let config = |key| MuxConfig {
        cipher: CipherSuiteKind::ChaCha20,
        key,
        pool: BufferPool::default(),
        obs: Default::default(),
    };
    let (tx, rx) = mpsc::channel();
    let (server_read, server_write) = (server.try_clone()?, server.try_clone()?);
    let mut server_peer = crate::util::on_daemon_core(|| {
        MuxPeer::server(
            Box::new(server_read),
            Box::new(server_write),
            config(key),
            move |stream| {
                let _ = tx.send(stream);
            },
        )
    });
    server_peer.set_shutdown(move || {
        let _ = server.shutdown(Shutdown::Both);
    });
    let mut client_peer = MuxPeer::client(
        Box::new(client.try_clone()?),
        Box::new(client.try_clone()?),
        config(key),
    );
    client_peer.set_shutdown(move || {
        let _ = client.shutdown(Shutdown::Both);
    });
    let mut stream = client_peer.open_stream()?;
    let served = rx
        .recv_timeout(Duration::from_secs(10))
        .map_err(|_| io::Error::new(io::ErrorKind::TimedOut, "mux stream never opened"))?;
    let echo = spawn_echo(served);
    let small = rtt_sized(&mut stream, rng, 64, budget / 2);
    let large =
        small.and_then(|s| rtt_sized(&mut stream, rng, 1 << 20, budget / 2).map(|l| (s, l)));
    drop(stream);
    drop(client_peer);
    drop(server_peer);
    echo.join().expect("echo thread panicked");
    large.map(|(s, l)| (s, 2.0 * (1u64 << 20) as f64 * 8.0 / (l * 1e-6) / 1e9))
}
