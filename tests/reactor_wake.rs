//! The reactor shard's readiness wait, end to end: an idle shard blocks
//! (no CPU, no wakeups) and still answers at once when any of its wake
//! sources fires — a socket, an in-process channel, a mux sub-stream, or
//! a daemon control event (migration order, drain force, a park that a
//! waiting `Reconnect` needs) — and a budget-limited pump is resumed
//! without new client bytes.
//!
//! Every test holds `SERIAL` for its whole body, so the shard threads it
//! inspects are the only reactor threads in the process while it runs.

use rcuda::api::CudaRuntime;
use rcuda::client::RemoteRuntime;
use rcuda::core::time::wall_clock;
use rcuda::gpu::module::build_module;
use rcuda::proto::handshake::read_hello_reply;
use rcuda::proto::{Request, Response, SessionHello};
use rcuda::server::{DaemonBuilder, RcudaDaemon};
use rcuda::session::{Endpoint, Session};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How long a session sits silent before it is used again.
const IDLE: Duration = Duration::from_millis(250);

/// A bound no wake path may come near: a missing wake would show up as a
/// wait for a deadline (1 s resume wait, 2 s migration quiesce) or forever.
const PROMPT: Duration = Duration::from_millis(500);

/// Thread ids of this process's reactor shards.
#[cfg(target_os = "linux")]
fn shard_tids() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|e| {
            let tid = e.ok()?.file_name().into_string().ok()?;
            let comm = std::fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok()?;
            comm.starts_with("rcuda-shard-").then_some(tid)
        })
        .collect()
}

/// `(utime + stime in clock ticks, voluntary context switches)` of a thread.
#[cfg(target_os = "linux")]
fn thread_usage(tid: &str) -> (u64, u64) {
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).unwrap();
    // Fields after the parenthesized command name: state is field 3, so
    // utime (14) and stime (15) are the 12th and 13th after it.
    let rest = &stat[stat.rfind(')').unwrap() + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    let status = std::fs::read_to_string(format!("/proc/self/task/{tid}/status")).unwrap();
    let switches = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    (ticks, switches)
}

#[cfg(target_os = "linux")]
fn clock_ticks_per_second() -> u64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: `sysconf` only reads a configuration value.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    assert!(hz > 0, "sysconf(_SC_CLK_TCK) failed");
    hz as u64
}

/// Allocate and free one small buffer, timed.
fn small_call(rt: &mut dyn CudaRuntime) -> Duration {
    let started = Instant::now();
    let p = rt.malloc(64).unwrap();
    rt.free(p).unwrap();
    started.elapsed()
}

/// Linux only: the per-thread CPU and wakeup counts come from `/proc`.
#[cfg(target_os = "linux")]
#[test]
fn idle_shard_sleeps_and_every_transport_wakes_it() {
    let _serial = serialize();
    let before = shard_tids();
    let daemon: RcudaDaemon = DaemonBuilder::new().shards(1).bind("127.0.0.1:0").unwrap();
    let module = build_module(&[], 0);

    // One session per server-side transport, all on the single shard.
    let mut tcp = Session::builder()
        .connect(Endpoint::Tcp(daemon.local_addr()))
        .unwrap();
    tcp.initialize(&module).unwrap();
    let mut chan = RemoteRuntime::new(daemon.connect_in_process(), wall_clock());
    chan.initialize(&module).unwrap();
    let mut mux = Session::builder()
        .mux(true)
        .connect(Endpoint::Tcp(daemon.local_addr()))
        .unwrap();
    mux.initialize(&module).unwrap();
    let sessions: [(&str, &mut dyn CudaRuntime); 3] = [
        ("tcp", &mut *tcp),
        ("channel", &mut chan),
        ("mux", &mut *mux),
    ];
    for (_, rt) in sessions {
        small_call(rt);
    }
    // The shard has served calls, so it runs under its name by now.
    let shard: Vec<String> = shard_tids()
        .into_iter()
        .filter(|t| !before.contains(t))
        .collect();
    assert_eq!(shard.len(), 1, "one new shard thread");

    // Idle: the shard blocks in its wait.
    std::thread::sleep(IDLE);
    let (ticks0, switches0) = thread_usage(&shard[0]);
    let window = Instant::now();
    std::thread::sleep(Duration::from_secs(1));
    let (ticks1, switches1) = thread_usage(&shard[0]);
    let secs = window.elapsed().as_secs_f64();
    let cpu = (ticks1 - ticks0) as f64 / clock_ticks_per_second() as f64 / secs;
    assert!(cpu < 0.01, "idle shard used {:.1}% CPU", cpu * 100.0);
    assert!(
        switches1 - switches0 < 20,
        "idle shard woke {} times in {secs:.2} s",
        switches1 - switches0
    );

    // After the idle stretch every transport's next request is answered.
    let sessions: [(&str, &mut dyn CudaRuntime); 3] = [
        ("tcp", &mut *tcp),
        ("channel", &mut chan),
        ("mux", &mut *mux),
    ];
    for (name, rt) in sessions {
        let took = small_call(rt);
        assert!(took < PROMPT, "{name}: answered after {took:?}");
    }
}

/// Open a resumable session over raw TCP and return the live connection.
fn resumable(addr: SocketAddr, token: u64) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut cc = [0u8; 8];
    s.read_exact(&mut cc).unwrap();
    SessionHello::Resumable {
        session: token,
        module: build_module(&[], 0),
    }
    .write(&mut s)
    .unwrap();
    assert_eq!(read_hello_reply(&mut s).unwrap(), Ok(()));
    let malloc = Request::Malloc { size: 64 };
    malloc.write(&mut s).unwrap();
    Response::read(&mut s, &malloc)
        .unwrap()
        .into_malloc()
        .unwrap();
    s
}

/// Read until the daemon closes the connection (EOF or reset).
fn closed_by_daemon(s: &mut TcpStream) -> bool {
    let mut buf = [0u8; 64];
    loop {
        match s.read(&mut buf) {
            Ok(0) => return true,
            Ok(_) => continue,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => return false,
            Err(_) => return true,
        }
    }
}

#[test]
fn control_events_reach_idle_connections_promptly() {
    let _serial = serialize();

    // A migration order: the idle live session is captured at once.
    let source = DaemonBuilder::new().shards(1).bind("127.0.0.1:0").unwrap();
    let target = DaemonBuilder::new().shards(1).bind("127.0.0.1:0").unwrap();
    let token = 0x5EED_0001u64;
    let mut live = resumable(source.local_addr(), token);
    std::thread::sleep(IDLE);
    let started = Instant::now();
    source
        .migrate_out(token, &target.local_addr().to_string())
        .expect("idle session migrates");
    let took = started.elapsed();
    assert!(took < PROMPT, "migration quiesce took {took:?}");
    assert_eq!(
        target.parked_sessions(),
        1,
        "the session lives on the target"
    );
    assert!(
        closed_by_daemon(&mut live),
        "the source closes the connection"
    );

    // Drain force: an idle session is hard-stopped right at the deadline.
    let mut daemon: RcudaDaemon = DaemonBuilder::new().shards(1).bind("127.0.0.1:0").unwrap();
    let _quiet = resumable(daemon.local_addr(), 0x5EED_0002);
    std::thread::sleep(IDLE);
    let grace = Duration::from_millis(100);
    // Drained on a helper thread: a shard that never hears the force
    // order would block `drain` forever.
    let (done, drained) = std::sync::mpsc::channel();
    let drainer = std::thread::spawn(move || {
        let started = Instant::now();
        let report = daemon.drain(grace);
        let _ = done.send((report.forced, started.elapsed()));
        daemon
    });
    let (forced, took) = drained
        .recv_timeout(Duration::from_secs(10))
        .expect("forced drain finishes");
    assert_eq!(forced, 1);
    assert!(took < grace + PROMPT, "forced drain took {took:?}");
    drop(drainer.join().unwrap());

    // A Reconnect that arrives before its session is parked waits on the
    // shard and resumes as soon as the dying connection parks it.
    let daemon = DaemonBuilder::new().shards(2).bind("127.0.0.1:0").unwrap();
    let token = 0x5EED_0003u64;
    let old = resumable(daemon.local_addr(), token);
    let mut new = TcpStream::connect(daemon.local_addr()).unwrap();
    new.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut cc = [0u8; 8];
    new.read_exact(&mut cc).unwrap();
    SessionHello::Reconnect { session: token }
        .write(&mut new)
        .unwrap();
    new.flush().unwrap();
    // Let the Reconnect reach its shard and find nothing parked.
    std::thread::sleep(IDLE / 2);
    assert_eq!(daemon.parked_sessions(), 0);
    let started = Instant::now();
    drop(old);
    assert_eq!(read_hello_reply(&mut new).unwrap(), Ok(()), "resumed");
    let took = started.elapsed();
    assert!(took < PROMPT, "resume waited {took:?} for the park");
}

/// Write `n` pipelined `cudaMalloc` requests as one message after an
/// idle pause and read all `n` replies without sending another byte.
fn pipelined_burst<S: Read + Write>(s: &mut S, n: usize) {
    let malloc = Request::Malloc { size: 16 };
    let mut burst = Vec::new();
    for _ in 0..n {
        malloc.write(&mut burst).unwrap();
    }
    std::thread::sleep(IDLE);
    s.write_all(&burst).unwrap();
    s.flush().unwrap();
    for i in 0..n {
        let reply = Response::read(&mut *s, &malloc).unwrap_or_else(|e| panic!("reply {i}: {e}"));
        reply.into_malloc().unwrap();
    }
}

#[test]
fn a_burst_beyond_the_frame_budget_is_fully_answered() {
    let _serial = serialize();
    let daemon = DaemonBuilder::new().shards(1).bind("127.0.0.1:0").unwrap();
    // Three times the per-pass frame budget of 64.
    const FRAMES: usize = 3 * 64 + 5;

    let mut tcp = TcpStream::connect(daemon.local_addr()).unwrap();
    tcp.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut cc = [0u8; 8];
    tcp.read_exact(&mut cc).unwrap();
    SessionHello::Fresh {
        module: build_module(&[], 0),
    }
    .write(&mut tcp)
    .unwrap();
    assert_eq!(read_hello_reply(&mut tcp).unwrap(), Ok(()));
    pipelined_burst(&mut tcp, FRAMES);

    let mut chan = daemon.connect_in_process();
    chan.read_exact(&mut cc).unwrap();
    SessionHello::Fresh {
        module: build_module(&[], 0),
    }
    .write(&mut chan)
    .unwrap();
    chan.flush().unwrap();
    assert_eq!(read_hello_reply(&mut chan).unwrap(), Ok(()));
    pipelined_burst(&mut chan, FRAMES);
}
