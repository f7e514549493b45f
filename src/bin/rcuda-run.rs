//! `rcuda-run` — run a case study against an rCUDA daemon over TCP.
//!
//! Pairs with `rcudad` for a two-terminal demo of the middleware:
//!
//! ```text
//! terminal 1:  cargo run -p rcuda-server --bin rcudad -- --listen 127.0.0.1:8308
//! terminal 2:  cargo run --bin rcuda-run -- --connect 127.0.0.1:8308 mm 256
//!              cargo run --bin rcuda-run -- --connect 127.0.0.1:8308 fft 16
//! ```
//!
//! The workload executes remotely, the result is verified against a local
//! reference computation, and the session's wire trace is printed.
//!
//! Cluster mode: `--broker ADDR` dials an `rcuda-brokerd` directory
//! instead of a daemon — placement picks the daemon — and `--retries N`
//! arms reconnect/failover so the run survives its daemon dying.

use rcuda::api::{run_fft_bytes, run_matmul_bytes};
use rcuda::core::time::wall_clock;
use rcuda::kernels::complex::complex_to_bytes;
use rcuda::kernels::fft::fft_batch_512;
use rcuda::kernels::matrix::CpuSgemm;
use rcuda::kernels::workload::{fft_input, matrix_pair};
use rcuda::obs::Recorder;
use rcuda::proto::wire::f32s_to_bytes;
use rcuda::session::{self, Endpoint};

fn usage(msg: &str) -> ! {
    eprintln!("rcuda-run: {msg}");
    eprintln!(
        "usage: rcuda-run (--connect ADDR | --broker ADDR) \
         (mm DIM | fft BATCH) [--seed N] [--retries N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr = None;
    let mut broker = false;
    let mut retries = 0u32;
    let mut workload: Option<(String, u32)> = None;
    let mut seed = 1u64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => addr = args.next(),
            "--broker" => {
                addr = args.next();
                broker = true;
            }
            "--retries" => {
                retries = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--retries needs an integer"));
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "mm" | "fft" => {
                let size = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("workload needs a size"));
                workload = Some((arg, size));
            }
            "--help" | "-h" => usage("help"),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let addr = addr.unwrap_or_else(|| usage("--connect or --broker is required"));
    let (kind, size) = workload.unwrap_or_else(|| usage("pick a workload: mm DIM or fft BATCH"));

    let clock = wall_clock();
    let sock = std::net::ToSocketAddrs::to_socket_addrs(&addr)
        .ok()
        .and_then(|mut addrs| addrs.next())
        .unwrap_or_else(|| usage(&format!("cannot resolve `{addr}`")));
    let endpoint = if broker {
        Endpoint::Broker(sock)
    } else {
        Endpoint::Tcp(sock)
    };
    // The wire trace printed at the end: one span per call.
    let recorder = Recorder::new();
    let mut builder = session::Session::builder().observer(recorder.handle());
    if retries > 0 {
        builder = builder.retries(retries);
    }
    let mut rt = match builder.connect(endpoint) {
        Ok(rt) => rt,
        Err(e) => {
            eprintln!("rcuda-run: cannot connect to {addr}: {e:?}");
            std::process::exit(1);
        }
    };

    // A typed CUDA error (SessionLost after an unrecoverable failover,
    // ServerBusy, ...) is an outcome, not a bug — report it cleanly.
    fn fail(e: rcuda::core::CudaError) -> ! {
        eprintln!("rcuda-run: remote run failed: {e:?}");
        std::process::exit(1);
    }

    match kind.as_str() {
        "mm" => {
            let m = size;
            let (a, b) = matrix_pair(m as usize, seed);
            let report = run_matmul_bytes(
                &mut *rt,
                &*clock,
                m,
                &f32s_to_bytes(a.as_slice()),
                &f32s_to_bytes(b.as_slice()),
            )
            .unwrap_or_else(|e| fail(e));
            // Verify against a local 8-thread reference.
            let mut expect = vec![0.0f32; (m * m) as usize];
            CpuSgemm::new(8).run(
                m as usize,
                m as usize,
                m as usize,
                a.as_slice(),
                b.as_slice(),
                &mut expect,
            );
            let got: Vec<f32> = report
                .output
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            let diff = got
                .iter()
                .zip(&expect)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max);
            let tol = m as f32 * 1e-5 * 8.0;
            assert!(diff <= tol, "remote result diverged: max diff {diff}");
            println!("mm {m}×{m}: remote result verified (max |Δ| = {diff:.2e})");
            for (phase, t) in &report.phases {
                println!("  {phase:<16} {:>10.3} ms", t.as_millis_f64());
            }
        }
        "fft" => {
            let batch = size;
            let input = fft_input(batch as usize, seed);
            let report = run_fft_bytes(&mut *rt, &*clock, batch, &complex_to_bytes(&input))
                .unwrap_or_else(|e| fail(e));
            let mut expect = input;
            fft_batch_512(&mut expect);
            assert_eq!(
                report.output,
                complex_to_bytes(&expect),
                "remote FFT result diverged"
            );
            println!("fft batch {batch}: remote result bit-identical to reference");
            for (phase, t) in &report.phases {
                println!("  {phase:<16} {:>10.3} ms", t.as_millis_f64());
            }
        }
        _ => unreachable!(),
    }

    let report = recorder.report();
    println!("\nwire trace:");
    for span in &report.spans {
        println!(
            "  {:<22} sent {:>10} B  received {:>10} B  {:>10.3} ms",
            span.op,
            span.bytes_sent,
            span.bytes_received,
            span.duration().as_millis_f64()
        );
    }
    let (sent, received) = report.totals();
    println!("total: {sent} B sent, {received} B received");
}
