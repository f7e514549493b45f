//! The network planner — the capability the paper's conclusion advertises:
//! "a tool to determine the behavior of our proposal over different
//! interconnects with no need of the physical equipment".
//!
//! Workflow (exactly §V's methodology, but driven by a real execution
//! trace, and workload-agnostic):
//!
//! 1. run the application once against a remote GPU on the network you DO
//!    have (here: a simulated GigaE link standing in for the lab network);
//! 2. from the recorded client trace, split the run into bulk-transfer time
//!    (priced by the network) and fixed time (everything else);
//! 3. re-price the traced bulk payload for every candidate interconnect and
//!    rank, including the local-CPU break-even check where a baseline
//!    exists.
//!
//! Because step 2 works from the trace's byte counts, ANY application can
//! be planned this way — demonstrated here with the paper's MM plus the
//! N-body extension workload.
//!
//! ```sh
//! cargo run --release --example network_planner [mm DIM | fft BATCH | nbody N]
//! ```

use rcuda::api::{run_fft_bytes, run_matmul_bytes, run_nbody_bytes};
use rcuda::core::{CaseStudy, Clock as _, SimTime};
use rcuda::model::estimate::{estimate_bytes, fixed_time_bytes};
use rcuda::model::render::{secs, TextTable};
use rcuda::model::SimulatedTestbed;
use rcuda::netsim::NetworkId;
use rcuda::obs::Recorder;
use rcuda::session;
use rcuda::session::Endpoint;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (kind, size) = match args.as_slice() {
        [] => ("mm".to_string(), 4096),
        [k, s] => (k.clone(), s.parse().unwrap_or(4096)),
        _ => {
            eprintln!("usage: network_planner [mm DIM | fft BATCH | nbody N]");
            std::process::exit(2);
        }
    };

    // ---- 1. One traced run on the network we "own" (simulated GigaE at
    //         scale; phantom memory keeps host cost negligible).
    let recorder = Recorder::new();
    let mut sess = session::Session::builder()
        .phantom(true)
        .observer(recorder.handle())
        .connect(Endpoint::Simulated(NetworkId::GigaE))
        .unwrap();
    let clock = sess.clock().clone();
    match kind.as_str() {
        "mm" => {
            let bytes = vec![0u8; (size * size * 4) as usize];
            run_matmul_bytes(&mut *sess, &*clock, size, &bytes, &bytes).unwrap();
        }
        "fft" => {
            let bytes = vec![0u8; (size * 512 * 8) as usize];
            run_fft_bytes(&mut *sess, &*clock, size, &bytes).unwrap();
        }
        "nbody" => {
            let bytes = vec![0u8; (size * 16) as usize];
            run_nbody_bytes(&mut *sess, &*clock, size, &bytes, 0.01).unwrap();
        }
        other => {
            eprintln!("unknown workload `{other}` (mm, fft, nbody)");
            std::process::exit(2);
        }
    }
    let measured = sess.clock().now();
    sess.finish();
    let trace = recorder.report();
    let calls = trace
        .spans
        .iter()
        .filter(|s| s.op.as_phase().is_none())
        .count();

    println!("traced one {kind} run (size = {size}) over GigaE:");
    println!("  measured total          : {} s", secs(measured));
    println!(
        "  bulk payload on the wire : {:.1} MiB across {calls} calls",
        trace.bulk_payload() as f64 / (1 << 20) as f64,
    );

    // ---- 2. Split into transfer + fixed, from the trace alone.
    let payload = trace.bulk_payload();
    let fixed = fixed_time_bytes(measured, payload, NetworkId::GigaE);
    println!("  fixed (network-independent) time: {} s", secs(fixed));

    // Local baselines exist only for the paper-calibrated case studies.
    let baseline = match kind.as_str() {
        "mm" => {
            let tb = SimulatedTestbed::new();
            Some((
                tb.measured_cpu(CaseStudy::MatMul { dim: size }),
                tb.measured_gpu(CaseStudy::MatMul { dim: size }),
            ))
        }
        "fft" => {
            let tb = SimulatedTestbed::new();
            Some((
                tb.measured_cpu(CaseStudy::Fft { batch: size }),
                tb.measured_gpu(CaseStudy::Fft { batch: size }),
            ))
        }
        _ => None,
    };

    // ---- 3. Re-price for every interconnect and rank.
    println!("\npredicted execution time per interconnect:");
    let mut headers = vec!["Network", "Predicted"];
    if baseline.is_some() {
        headers.push("vs CPU");
        headers.push("vs local GPU");
    }
    let mut table = TextTable::new(headers);
    let mut rankings: Vec<(NetworkId, SimTime)> = NetworkId::ALL
        .iter()
        .map(|&net| (net, estimate_bytes(fixed, payload, net)))
        .collect();
    rankings.sort_by_key(|&(_, t)| t);
    for (net, t) in &rankings {
        let mut cells = vec![net.to_string(), format!("{} s", secs(*t))];
        if let Some((cpu, gpu)) = baseline {
            cells.push(speedup(cpu, *t));
            cells.push(speedup(gpu, *t));
        }
        table.row(cells);
    }
    println!("{}", table.render());

    match baseline {
        Some((cpu, gpu)) => {
            println!("local CPU: {} s   local GPU: {} s", secs(cpu), secs(gpu));
            let viable: Vec<String> = rankings
                .iter()
                .filter(|&&(_, t)| t < cpu)
                .map(|(net, _)| net.to_string())
                .collect();
            if viable.is_empty() {
                println!("\nverdict: keep this workload on the CPU — no interconnect wins.");
            } else {
                println!(
                    "\nverdict: remote GPU beats the 8-core CPU on: {}",
                    viable.join(", ")
                );
            }
        }
        None => {
            let spread = rankings.last().unwrap().1.as_secs_f64()
                / rankings.first().unwrap().1.as_secs_f64();
            println!(
                "no calibrated CPU baseline for `{kind}`; network choice changes the \
                 run time by {spread:.2}× between {} and {} — the compute/transfer \
                 ratio decides whether that matters.",
                rankings.last().unwrap().0,
                rankings.first().unwrap().0,
            );
        }
    }
}

fn speedup(reference: SimTime, t: SimTime) -> String {
    format!("{:.2}×", reference.as_secs_f64() / t.as_secs_f64())
}
