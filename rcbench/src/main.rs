//! rcbench: the rcuda-rs benchmark.
//!
//! ```text
//! rcbench --workload <chatty|paced|casestudy> --seed <n> --seconds <s> --trace <0|1>
//! rcbench --selftest
//! ```
//!
//! With `--trace 0` the last line of standard output is one JSON object
//! holding the end-to-end metrics; with `--trace 1` it holds the per-layer
//! metrics. The line before it stamps the run (revision, `nproc`, load,
//! CPU pressure, core placement) and carries diagnostics: `fail_frac`, the
//! same-run raw floor, `x_raw` ratios and the per-window small-call p50
//! series. See README.md.

mod floor;
mod ops;
mod probes;
mod rig;
mod tracer;
mod util;
mod work;

use std::process::ExitCode;
use std::time::Duration;

use ops::{Inputs, Tally};
use tracer::{is_bulk, is_small, Event, Kind, Tracer};
use util::{json_num, json_str, median, Samples};
use work::{Pass, Workload};

/// Where the client and daemon threads run, set once per process.
static PLACEMENT: std::sync::OnceLock<String> = std::sync::OnceLock::new();

/// `setup_s` is the median over rounds of the mean of the SETUP_GROUP
/// set-ups timed at the start of each round: one set-up waits for zero, one
/// or two shard wake-ups, so single set-ups cluster at three values and a
/// plain median would jump between clusters.
const SETUP_GROUP: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--selftest") {
        return Ok(None);
    }
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let args = Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Some(args))
}

/// One run's outcome.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    meta: String,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }

    fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

type Metric = (&'static str, f64, &'static str);

/// `"name": {"value": v, "unit": u}, ...`
fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    fields.join(", ")
}

/// `end ÷ floor` ratios of the same run.
fn x_raw(pass: &Pass) -> (f64, f64) {
    (
        pass.small.median() / pass.floor[0],
        pass.bulk.median() / pass.floor[3],
    )
}

fn meta(args: &Args, pass: &Pass, tally: &Tally, extra: &str) -> String {
    let (attempted, failed) = tally.counts();
    let (x_call, x_bulk) = x_raw(pass);
    let failures: Vec<String> = tally.first_failures().iter().map(|f| json_str(f)).collect();
    let windows: Vec<String> = pass.windows.iter().map(|w| format!("{w:.1}")).collect();
    format!(
        "{{\"rcbench\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"stamp\": {}, \
         \"placement\": {}, \"fail_frac\": {}, \"failures\": [{}], \"floor_rtt_us\": {{\"64\": {}, \"4k\": {}, \"64k\": {}, \"1m\": {}}}, \
         \"x_raw\": {{\"call_p50\": {}, \"bulk_p50\": {}}}, \"samples\": {{\"call\": {}, \"bulk\": {}, \"mm\": {}, \"fft\": {}}}, \
         \"shard_cpu_frac\": {}, \"window_calls\": {}, \"window_p50_us\": [{}]{extra}}}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace as u8,
        util::stamp(),
        json_str(PLACEMENT.get().map_or("", String::as_str)),
        json_num(failed as f64 / attempted.max(1) as f64),
        failures.join(", "),
        json_num(pass.floor[0]),
        json_num(pass.floor[1]),
        json_num(pass.floor[2]),
        json_num(pass.floor[3]),
        json_num(x_call),
        json_num(x_bulk),
        pass.small.len(),
        pass.bulk.len(),
        pass.mm.len(),
        pass.fft.len(),
        json_num(pass.shard_cpu_frac),
        work::WINDOW_CALLS,
        windows.join(", ")
    )
}

/// A `--trace 0` run: the end-to-end metrics.
fn run_untraced(args: &Args, inputs: &Inputs, tally: &Tally) -> Result<Outcome, String> {
    let wl = args.workload;
    let pass = work::run_pass(
        wl,
        inputs,
        Duration::from_secs_f64(args.seconds),
        SETUP_GROUP,
        None,
        tally,
    )?;
    let setups = &pass.setups;
    let setup_groups: Vec<f64> = setups
        .chunks_exact(SETUP_GROUP)
        .map(|g| g.iter().sum::<f64>() / g.len() as f64)
        .collect();
    // Gated by BENCHMARK.json: steady from run to run.
    let metrics = vec![
        ("setup_s", median(&setup_groups), "s"),
        ("call_p50_us", pass.small.quantile(0.5), "us"),
        (
            "calls_per_s",
            pass.small_calls as f64 / pass.small_wall.as_secs_f64(),
            "1/s",
        ),
        ("bulk_p50_ms", pass.bulk.quantile(0.5) / 1e3, "ms"),
        (
            "goodput_gbps",
            median(&work::window_goodputs(&pass.bulk_busy)),
            "Gb/s",
        ),
        ("mm_s", pass.mm.median() / 1e6, "s"),
        ("fft_s", pass.fft.median() / 1e6, "s"),
        ("peak_rss_mb", util::peak_rss_mib(), "MiB"),
    ];
    // Printed on the line before, not gated: these tails move by more than
    // any useful bound from run to run (see README.md).
    let ungated = [
        ("call_p99_us", pass.small.quantile(0.99), "us"),
        (
            "goodput_mean_gbps",
            (pass.bulk_busy.len() * 2 * ops::BULK * 8) as f64 / (pass.bulk_busy.sum() * 1e3),
            "Gb/s",
        ),
        ("bulk_p99_ms", pass.bulk.quantile(0.99) / 1e3, "ms"),
    ];
    let setups_ms: Vec<String> = setups.iter().map(|s| format!("{:.3}", s * 1e3)).collect();
    let extra = format!(
        ", \"ungated\": {{{}}}, \"setup_ms\": [{}]",
        metrics_json(&ungated),
        setups_ms.join(", ")
    );
    let (attempted, failed) = tally.counts();
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        meta: meta(args, &pass, tally, &extra),
    })
}

/// The per-layer metrics a traced pass's events give.
struct Traced {
    call_p50: f64,
    call_p99: f64,
    wire_malloc: f64,
    service_small: f64,
    service_bulk: f64,
    queue_wait: f64,
    shard_pass: f64,
    frames_per_pass: f64,
}

fn analyze(events: &[Event]) -> Traced {
    let us = |ns: u64| ns as f64 / 1e3;
    let (mut call, mut svc_small, mut svc_bulk, mut queue, mut pass, mut frames) = (
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
    );
    let mut wire_malloc = f64::NAN;
    // The pass that dispatched a server span ends with the next shard span:
    // record, for each event, the start of the next pass.
    let mut next_pass = vec![None; events.len()];
    let mut pending = None;
    for (i, e) in events.iter().enumerate().rev() {
        next_pass[i] = pending;
        if let Kind::Shard { dur_ns, .. } = e.kind {
            pending = Some(e.at_ns.saturating_sub(dur_ns));
        }
    }
    for (i, e) in events.iter().enumerate() {
        match e.kind {
            Kind::Call {
                op,
                sent,
                received,
                dur_ns,
            } => {
                if op == "cudaMalloc" && wire_malloc.is_nan() {
                    wire_malloc = (sent + received) as f64;
                }
                if is_small(e.seg, op) {
                    call.push_value(us(dur_ns));
                }
            }
            Kind::Server { op, service_ns, .. } => {
                if is_small(e.seg, op) {
                    svc_small.push_value(us(service_ns));
                } else if is_bulk(e.seg, op) {
                    svc_bulk.push_value(us(service_ns));
                }
                // Queue wait: dispatch start − start of its shard pass.
                if let Some(pass_start) = next_pass[i] {
                    let dispatch = e.at_ns.saturating_sub(service_ns);
                    queue.push_value(us(dispatch.saturating_sub(pass_start)));
                }
            }
            Kind::Shard { frames: f, dur_ns } => {
                pass.push_value(us(dur_ns));
                frames.push_value(f as f64);
            }
            Kind::Frame { .. } => {}
        }
    }
    Traced {
        call_p50: call.quantile(0.5),
        call_p99: call.quantile(0.99),
        wire_malloc,
        service_small: svc_small.median(),
        service_bulk: svc_bulk.median(),
        queue_wait: queue.median(),
        shard_pass: pass.median(),
        frames_per_pass: frames.sum() / frames.len() as f64,
    }
}

/// A `--trace 1` run: layer probes, an untraced pass and a traced pass.
fn run_traced(args: &Args, inputs: &Inputs, tally: &Tally) -> Result<Outcome, String> {
    let wl = args.workload;
    let total = Duration::from_secs_f64(args.seconds);
    let probes = probes::run(inputs, total.mul_f64(0.2), tally)?;
    let plain = work::run_pass(wl, inputs, total.mul_f64(0.4), 0, None, tally)?;
    let tracer = Tracer::new();
    let traced = work::run_pass(wl, inputs, total.mul_f64(0.4), 0, Some(&tracer), tally)?;
    let t = analyze(&tracer.events());
    let trace_file = std::path::PathBuf::from(format!("rcbench/out/trace-{}.csv", wl.name()));
    if let Err(e) = tracer.write_csv(&trace_file) {
        eprintln!("rcbench: could not write {}: {e}", trace_file.display());
    }

    // Tracing must not change a single wire byte.
    if plain.wire_malloc as f64 != t.wire_malloc || plain.wire_malloc != traced.wire_malloc {
        tally.mismatch(format!(
            "cudaMalloc wire bytes: untraced {} B, traced {} B (spans {} B)",
            plain.wire_malloc, traced.wire_malloc, t.wire_malloc
        ));
    }

    let floor = plain.floor;
    let (x_call, x_bulk) = x_raw(&plain);
    // §V: fixed time = measured − k·transfer, transfer priced on the
    // same-run floor (one 1 MiB one-way transfer is half the 1 MiB RTT).
    let one_way_mib = floor[3] / 2.0 / 1e6;
    let mm_bytes_mib = (ops::MM_M * ops::MM_M * 4) as f64 / (1u64 << 20) as f64;
    let fft_bytes_mib = (ops::FFT_BATCH * 512 * 8) as f64 / (1u64 << 20) as f64;
    let mm_s = plain.mm.median() / 1e6;
    let fft_s = plain.fft.median() / 1e6;
    let slow = plain
        .windows
        .iter()
        .filter(|&&w| w > 10.0 * floor[0])
        .count() as f64;

    let mut metrics: Vec<Metric> = vec![
        ("transport.raw_rtt_us.64", floor[0], "us"),
        ("transport.raw_rtt_us.4k", floor[1], "us"),
        ("transport.raw_rtt_us.64k", floor[2], "us"),
        ("transport.raw_rtt_us.1m", floor[3], "us"),
        ("x_raw.call_p50", x_call, "ratio"),
        ("x_raw.bulk_p50", x_bulk, "ratio"),
    ];
    let unit = |name: &str| {
        let tokens = name.split(['.', '_']);
        let mut unit = tokens.filter_map(|t| match t {
            "us" => Some("us"),
            "ns" => Some("ns"),
            "ms" => Some("ms"),
            "mbps" => Some("MiB/s"),
            "gbps" => Some("Gb/s"),
            "gflops" => Some("GFLOP/s"),
            _ => None,
        });
        unit.next_back().unwrap_or("ratio")
    };
    for (name, v) in probes {
        metrics.push((name, v, unit(name)));
    }
    // Where the workload runs a codec, its live decisions replace the
    // probe's.
    if let Some(c) = plain.codec.filter(|c| c.decisions() > 0) {
        for m in metrics.iter_mut() {
            match m.0 {
                "proto.codec_ratio" => m.1 = c.ratio(),
                "proto.codec_compressed_frac" => m.1 = c.compressed as f64 / c.decisions() as f64,
                _ => {}
            }
        }
    }
    metrics.extend([
        ("proto.pool_hit_rate.client", plain.pool_client, "ratio"),
        ("proto.pool_hit_rate.server", plain.pool_server, "ratio"),
        ("server.service_us.small", t.service_small, "us"),
        ("server.service_us.1m", t.service_bulk, "us"),
        ("server.queue_wait_us", t.queue_wait, "us"),
        ("server.shard_pass_us", t.shard_pass, "us"),
        ("server.frames_per_pass", t.frames_per_pass, "count"),
        ("server.shard_cpu_frac", plain.shard_cpu_frac, "ratio"),
        ("client.call_us.p50", t.call_p50, "us"),
        ("client.call_us.p99", t.call_p99, "us"),
        ("client.wire_bytes.small", t.wire_malloc, "B"),
        (
            "residual_us.small",
            t.call_p50 - t.service_small - floor[0],
            "us",
        ),
        (
            "model.fixed_s.mm",
            mm_s - 3.0 * mm_bytes_mib * one_way_mib,
            "s",
        ),
        (
            "model.fixed_s.fft",
            fft_s - 2.0 * fft_bytes_mib * one_way_mib,
            "s",
        ),
        (
            "obs.overhead_pct",
            (traced.small.median() / plain.small.median() - 1.0) * 100.0,
            "%",
        ),
        ("bench.gen_late_p99_us", plain.gen_late.quantile(0.99), "us"),
        (
            "bench.slow_window_frac",
            slow / plain.windows.len().max(1) as f64,
            "ratio",
        ),
    ]);
    let (attempted, failed) = tally.counts();
    let extra = format!(
        ", \"traced_call_p50_us\": {}",
        json_num(traced.small.median())
    );
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        meta: meta(args, &plain, tally, &extra),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    util::mark_start();
    PLACEMENT.get_or_init(util::place_client);
    let inputs = Inputs::generate(args.seed);
    let tally = Tally::new();
    if args.trace {
        run_traced(args, &inputs, &tally)
    } else {
        run_untraced(args, &inputs, &tally)
    }
}

/// The metric names BENCHMARK.json declares: (end_to_end, per_layer).
fn declared_names() -> Result<(Vec<String>, Vec<String>), String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let section = |key: &str| -> Result<Vec<String>, String> {
        let start = text
            .find(&format!("\"{key}\""))
            .ok_or(format!("no {key} in BENCHMARK.json"))?;
        let body = &text[start..];
        let body = &body[..body.find(']').ok_or("unterminated list")?];
        Ok(body
            .split("\"name\"")
            .skip(1)
            .filter_map(|s| s.split('"').nth(1).map(str::to_string))
            .collect())
    };
    Ok((section("end_to_end")?, section("per_layer")?))
}

/// Run every workload briefly, traced and untraced, and check the emitted
/// metric names against BENCHMARK.json in both directions.
fn selftest() -> Result<(), String> {
    let (e2e, layers) = declared_names()?;
    let mut problems = Vec::new();
    for wl in Workload::ALL {
        for trace in [false, true] {
            let args = Args {
                workload: wl,
                seed: 1,
                seconds: 3.0,
                trace,
            };
            let out = run(&args)?;
            let declared = if trace { &layers } else { &e2e };
            let emitted: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
            let tag = format!("{} --trace {}", wl.name(), trace as u8);
            for name in declared {
                if !emitted.contains(&name.as_str()) {
                    problems.push(format!("{tag}: declared {name} not emitted"));
                }
            }
            for name in &emitted {
                if !declared.iter().any(|d| d == name) {
                    problems.push(format!("{tag}: emitted {name} not declared"));
                }
            }
            for (name, v, _) in &out.metrics {
                if !v.is_finite() {
                    problems.push(format!("{tag}: {name} is {v}"));
                }
            }
            if !out.correct() {
                problems.push(format!(
                    "{tag}: {} of {} operations failed",
                    out.failed, out.attempted
                ));
            }
            println!(
                "{tag}: {} metrics, {} operations, {} failed",
                emitted.len(),
                out.attempted,
                out.failed
            );
        }
    }
    if problems.is_empty() {
        println!("selftest: ok");
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            return match selftest() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("selftest failed:\n{e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("rcbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            println!("{}", out.meta);
            println!("{}", out.result_line());
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("rcbench: the run failed its output checks");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("rcbench: {e}");
            ExitCode::FAILURE
        }
    }
}
