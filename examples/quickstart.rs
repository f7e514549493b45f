//! Quickstart: start an rCUDA daemon, connect over real loopback TCP, and
//! run a kernel on the "remote" GPU — the five-minute tour of the
//! middleware.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use rcuda::api::CudaRuntime;
use rcuda::core::{ArgPack, Dim3};
use rcuda::gpu::module::build_module;
use rcuda::gpu::GpuDevice;
use rcuda::obs::Recorder;
use rcuda::proto::wire::f32s_to_bytes;
use rcuda::server::RcudaDaemon;
use rcuda::session;
use rcuda::session::Endpoint;

fn main() {
    // 1. A node with a GPU runs the daemon (here: in-process, real TCP).
    let mut daemon = RcudaDaemon::builder()
        .device(GpuDevice::tesla_c1060_functional())
        .bind("127.0.0.1:0")
        .unwrap();
    println!("rCUDA daemon listening on {}", daemon.local_addr());

    // 2. A GPU-less node connects and initializes with its GPU module. The
    //    recorder keeps one span per call.
    let recorder = Recorder::new();
    let mut rt = session::Session::builder()
        .observer(recorder.handle())
        .connect(Endpoint::Tcp(daemon.local_addr()))
        .unwrap();
    rt.initialize(&build_module(&["vec_add"], 0)).unwrap();
    println!(
        "connected; server announced compute capability {:?}",
        rt.server_compute_capability().unwrap()
    );

    // 3. Ordinary CUDA-style code, oblivious to the network underneath.
    let n = 8u32;
    let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let y: Vec<f32> = (0..n).map(|i| (10 * i) as f32).collect();
    let a = rt.malloc(n * 4).unwrap();
    let b = rt.malloc(n * 4).unwrap();
    let c = rt.malloc(n * 4).unwrap();
    rt.memcpy_h2d(a, &f32s_to_bytes(&x)).unwrap();
    rt.memcpy_h2d(b, &f32s_to_bytes(&y)).unwrap();

    let args = ArgPack::new()
        .push_ptr(a)
        .push_ptr(b)
        .push_ptr(c)
        .push_u32(n)
        .into_bytes();
    rt.launch("vec_add", Dim3::x(1), Dim3::x(n), 0, 0, &args)
        .unwrap();

    let out = rt.memcpy_d2h(c, n * 4).unwrap();
    let sums: Vec<f32> = out
        .chunks_exact(4)
        .map(|ch| f32::from_le_bytes(ch.try_into().unwrap()))
        .collect();
    println!("x + y = {sums:?}");
    assert_eq!(sums, vec![0.0, 11.0, 22.0, 33.0, 44.0, 55.0, 66.0, 77.0]);

    for p in [a, b, c] {
        rt.free(p).unwrap();
    }
    rt.finalize().unwrap();

    // 4. The trace shows exactly what crossed the wire (paper Table I).
    println!("\nsession trace:");
    for span in &recorder.report().spans {
        println!(
            "  {:<22} sent {:>6} B  received {:>6} B",
            span.op, span.bytes_sent, span.bytes_received
        );
    }

    // `shutdown` stops the acceptor; the session itself finishes on a
    // reactor shard, so wait for its report before reading the counter.
    daemon.shutdown();
    daemon.wait_for_sessions(1, std::time::Duration::from_secs(5));
    println!("\ndone: {} session(s) served", daemon.sessions_served());
}
