//! The blocking driver (`serve_connection_with_registry`) and the daemon's
//! reactor run one session engine. This suite holds them to it: the same
//! scripted client byte streams go through both, and the server's reply
//! bytes and session reports must match exactly. (Reports are compared
//! without `pool`: the reactor reports its shard's shared pool.)
//!
//! A case is a sequence of connections against one fresh server — a
//! blocking registry on one side, one single-shard daemon on the other —
//! so park-then-reconnect and migrate-then-reconnect cross connections the
//! same way on both. Each connection sends its whole script, then either
//! hangs up its sending half at once (a client vanishing mid-session) or
//! keeps it open, and collects every reply byte — the compute-capability
//! push included — until the server closes.
//!
//! The one place the drivers may legitimately differ is a client that hangs
//! up while its `Reconnect` waits for a park: the reactor sees the EOF and
//! drops the connection, the blocking driver only finds out when the reply
//! fails to send. The reconnect scripts therefore keep their sending half
//! open.

use rcuda::core::time::wall_clock;
use rcuda::core::DevicePtr;
use rcuda::gpu::module::build_module;
use rcuda::gpu::GpuDevice;
use rcuda::proto::codec::CAP_LZ4;
use rcuda::proto::ids::MemcpyKind;
use rcuda::proto::{Batch, Codec, CodecHello, CodecMode, Request, SessionHello};
use rcuda::server::{
    serve_connection_with_registry, ChaosHook, DaemonBuilder, ServerConfig, SessionRegistry,
    SessionReport,
};
use rcuda::transport::{channel_pair, ChannelTransport, Transport};
use std::io::{Read, Write};
use std::time::Duration;

/// One connection's client → server byte stream.
struct Script {
    /// Messages, one flushed write each.
    msgs: Vec<Vec<u8>>,
    /// Close the sending half right after the last message; otherwise the
    /// client waits for the server to end the session.
    hang_up: bool,
}

/// A client that lets the server end the session.
fn waits(msgs: Vec<Vec<u8>>) -> Script {
    Script {
        msgs,
        hang_up: false,
    }
}

/// A client that vanishes after its last message.
fn vanishes(msgs: Vec<Vec<u8>>) -> Script {
    Script {
        msgs,
        hang_up: true,
    }
}

fn hello(h: SessionHello) -> Vec<u8> {
    let mut wire = Vec::new();
    h.write(&mut wire).unwrap();
    wire
}

fn fresh() -> Vec<u8> {
    hello(SessionHello::Fresh {
        module: build_module(&["fill"], 0),
    })
}

fn req(r: Request) -> Vec<u8> {
    let mut wire = Vec::new();
    r.write(&mut wire).unwrap();
    wire
}

fn batch(reqs: Vec<Request>) -> Vec<u8> {
    let mut wire = Vec::new();
    Batch::new(reqs).unwrap().write(&mut wire).unwrap();
    wire
}

/// Where the first 64-byte allocation of a fresh context lands (each
/// context has its own deterministic allocator).
fn first_ptr() -> DevicePtr {
    GpuDevice::tesla_c1060_functional()
        .create_context(wall_clock(), true)
        .malloc(64)
        .unwrap()
}

fn h2d(ptr: DevicePtr) -> Request {
    Request::Memcpy {
        dst: ptr.addr(),
        src: 0,
        size: 64,
        kind: MemcpyKind::HostToDevice,
        data: Some((0..64u8).collect::<Vec<_>>().into()),
    }
}

fn d2h(ptr: DevicePtr) -> Request {
    Request::Memcpy {
        dst: 0,
        src: ptr.addr(),
        size: 64,
        kind: MemcpyKind::DeviceToHost,
        data: None,
    }
}

/// Play `script` and return every reply byte until the server closes.
fn converse(client: ChannelTransport, script: &Script) -> Vec<u8> {
    let (mut rd, mut wr) = Box::new(client).into_split().unwrap();
    for msg in &script.msgs {
        // A session the server already ended refuses further bytes.
        let _ = wr.write_all(msg).and_then(|()| wr.flush());
    }
    let open = (!script.hang_up).then_some(wr);
    let mut replies = Vec::new();
    let mut buf = [0u8; 4096];
    while let Ok(n @ 1..) = rd.read(&mut buf) {
        replies.extend_from_slice(&buf[..n]);
    }
    drop(open);
    replies
}

type Transcript = (Vec<Vec<u8>>, Vec<SessionReport>);

fn without_pool(mut reports: Vec<SessionReport>) -> Vec<SessionReport> {
    for r in &mut reports {
        r.pool = Default::default();
    }
    reports
}

fn run_blocking(config: &ServerConfig, case: &[Script]) -> Transcript {
    let device = GpuDevice::tesla_c1060_functional();
    let registry = SessionRegistry::new();
    let mut replies = Vec::new();
    let mut reports = Vec::new();
    for script in case {
        let (client, server) = channel_pair();
        let report = std::thread::scope(|s| {
            let worker = s.spawn(|| {
                serve_connection_with_registry(server, &device, wall_clock(), config, &registry)
            });
            replies.push(converse(client, script));
            worker.join().unwrap()
        });
        reports.push(report.expect("every scripted session completes its handshake"));
    }
    (replies, without_pool(reports))
}

fn run_reactor(config: &ServerConfig, case: &[Script]) -> Transcript {
    let daemon = DaemonBuilder::new()
        .device(GpuDevice::tesla_c1060_functional())
        .config(config.clone())
        .shards(1)
        .bind("127.0.0.1:0")
        .unwrap();
    let mut replies = Vec::new();
    for (i, script) in case.iter().enumerate() {
        replies.push(converse(daemon.connect_in_process(), script));
        assert!(daemon.wait_for_sessions(i as u64 + 1, Duration::from_secs(10)));
    }
    (replies, without_pool(daemon.session_reports()))
}

/// Run `case` through both drivers and demand identical transcripts.
fn check(name: &str, config: &ServerConfig, case: &[Script]) -> Vec<SessionReport> {
    let (blocking_replies, blocking_reports) = run_blocking(config, case);
    let (reactor_replies, reactor_reports) = run_reactor(config, case);
    for (i, (b, r)) in blocking_replies.iter().zip(&reactor_replies).enumerate() {
        assert_eq!(b, r, "{name}: connection {i} replies differ");
    }
    assert_eq!(blocking_reports, reactor_reports, "{name}: reports differ");
    blocking_reports
}

fn chaos_on_synchronize() -> ServerConfig {
    ServerConfig {
        chaos: ChaosHook::new(|req| {
            if matches!(req, Request::ThreadSynchronize) {
                panic!("chaos: injected dispatch panic");
            }
        }),
        ..Default::default()
    }
}

#[test]
fn session_hellos_match() {
    let config = ServerConfig::default();
    let p = first_ptr();

    let reports = check(
        "fresh",
        &config,
        &[waits(vec![
            fresh(),
            req(Request::Malloc { size: 64 }),
            req(Request::Quit),
        ])],
    );
    assert!(reports[0].orderly_shutdown);

    // A resumable session vanishes mid-session and parks; the reconnect
    // finds its data.
    let reports = check(
        "resumable + reconnect hit",
        &config,
        &[
            vanishes(vec![
                hello(SessionHello::Resumable {
                    session: 5,
                    module: build_module(&[], 0),
                }),
                req(Request::Malloc { size: 64 }),
                req(h2d(p)),
            ]),
            waits(vec![
                hello(SessionHello::Reconnect { session: 5 }),
                req(d2h(p)),
                req(Request::Quit),
            ]),
        ],
    );
    assert!(reports[0].parked && reports[1].resumed && reports[1].orderly_shutdown);

    let reports = check(
        "reconnect miss",
        &config,
        &[waits(vec![hello(SessionHello::Reconnect { session: 99 })])],
    );
    assert!(!reports[0].resumed);
}

#[test]
fn migrate_hellos_match() {
    let config = ServerConfig::default();
    let p = first_ptr();
    let mut shipped = GpuDevice::tesla_c1060_functional().create_context(wall_clock(), true);
    assert_eq!(shipped.malloc(64).unwrap(), p);
    shipped.memcpy_h2d(p, &[7u8; 64]).unwrap();
    let snapshot = shipped.snapshot().encode();

    check(
        "migrate valid + reconnect",
        &config,
        &[
            waits(vec![hello(SessionHello::Migrate {
                session: 7,
                snapshot,
            })]),
            waits(vec![
                hello(SessionHello::Reconnect { session: 7 }),
                req(d2h(p)),
                req(Request::Quit),
            ]),
        ],
    );
    check(
        "migrate corrupt",
        &config,
        &[waits(vec![hello(SessionHello::Migrate {
            session: 8,
            snapshot: vec![0xAB; 16],
        })])],
    );
}

#[test]
fn codec_prehello_and_auth_gate_match() {
    let p = first_ptr();
    let mut codec_hello = Vec::new();
    CodecHello { caps: CAP_LZ4 }
        .write(&mut codec_hello)
        .unwrap();
    // Small payloads stay below the compression floor on both sides, so
    // the codec framing is exercised deterministically.
    let codec = Codec::with_mode(Default::default(), CodecMode::Never);
    let mut upload = Vec::new();
    h2d(p).write_codec(&mut upload, Some(&codec)).unwrap();
    check(
        "codec prehello",
        &ServerConfig::default(),
        &[waits(vec![
            codec_hello,
            fresh(),
            req(Request::Malloc { size: 64 }),
            upload,
            req(d2h(p)),
            req(Request::Quit),
        ])],
    );

    let gated = ServerConfig {
        auth_token: Some(b"secret".to_vec()),
        ..Default::default()
    };
    check("auth gate", &gated, &[waits(vec![fresh()])]);
}

#[test]
fn frames_and_batches_match() {
    let config = ServerConfig::default();
    let p = first_ptr();
    check(
        "single frames and a batch",
        &config,
        &[waits(vec![
            fresh(),
            req(Request::Malloc { size: 64 }),
            batch(vec![h2d(p), d2h(p), Request::ThreadSynchronize]),
            req(Request::Free { ptr: p }),
            req(Request::Quit),
        ])],
    );
    let reports = check(
        "batch containing Quit",
        &config,
        &[waits(vec![
            fresh(),
            batch(vec![
                Request::ThreadSynchronize,
                Request::Quit,
                Request::ThreadSynchronize,
            ]),
        ])],
    );
    assert!(reports[0].orderly_shutdown);
}

#[test]
fn chaos_panics_match() {
    let config = chaos_on_synchronize();
    let p = first_ptr();
    let reports = check(
        "panic in a single request",
        &config,
        &[waits(vec![
            fresh(),
            req(Request::Malloc { size: 64 }),
            req(Request::ThreadSynchronize),
            req(Request::Quit),
        ])],
    );
    assert!(reports[0].panicked && reports[0].reclaimed_bytes > 0);
    let reports = check(
        "panic inside a batch",
        &config,
        &[waits(vec![
            fresh(),
            req(Request::Malloc { size: 64 }),
            batch(vec![
                d2h(p),
                Request::ThreadSynchronize,
                Request::StreamCreate,
            ]),
        ])],
    );
    assert!(reports[0].panicked);
}

#[test]
fn garbage_and_eof_mid_session_match() {
    let config = ServerConfig::default();
    let reports = check(
        "garbage mid-session",
        &config,
        &[waits(vec![
            fresh(),
            req(Request::Malloc { size: 64 }),
            vec![0xFF; 16],
        ])],
    );
    assert_eq!(reports[0].leaked_allocations, 1);
    let truncated = req(h2d(first_ptr()))[..10].to_vec();
    let reports = check(
        "EOF mid-session",
        &config,
        &[vanishes(vec![
            fresh(),
            req(Request::Malloc { size: 64 }),
            truncated,
        ])],
    );
    assert!(!reports[0].orderly_shutdown && reports[0].leaked_allocations == 1);
}
