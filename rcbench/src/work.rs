//! The three workloads. Each pass stands up its own daemon, measures the
//! raw loopback floor, then runs [`ROUNDS`] rounds of the workload's main
//! phase and a short tail, so that every end-to-end metric has samples,
//! spread over the whole pass, on every workload:
//!
//! | workload    | main phase of a round                            | tail of a round                    |
//! |-------------|--------------------------------------------------|------------------------------------|
//! | `chatty`    | closed small-call mix, 1 plain session           | closed 1 MiB rounds; 2 MM, 2 FFT   |
//! | `paced`     | open loop, 2 tenants on one encrypted trunk      | 1 MM, 1 FFT on the trunk           |
//! | `casestudy` | closed MM, FFT and 8 closed 1 MiB rounds, repeated | closed small-call mix            |

use std::sync::Arc;
use std::time::{Duration, Instant};

use rcuda::api::CudaRuntime;
use rcuda::obs::ObsHandle;
use rcuda::proto::CodecStats;
use rcuda::session::Session;

use crate::floor;
use crate::ops::{fft_case, mm_case, Bulk, Inputs, SmallMix, Tally, BULK};
use crate::rig::{setup_times, Rig, Wire};
use crate::tracer::{Seg, Tracer};
use crate::util::{Rng, Samples};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Chatty,
    Paced,
    Casestudy,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Chatty, Workload::Paced, Workload::Casestudy];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Chatty => "chatty",
            Workload::Paced => "paced",
            Workload::Casestudy => "casestudy",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn wire(self) -> Wire {
        match self {
            Workload::Paced => Wire::Trunk,
            _ => Wire::Plain,
        }
    }

    /// Long-lived sessions: one per generator thread.
    pub fn sessions(self) -> usize {
        match self {
            Workload::Paced => 2,
            _ => 1,
        }
    }
}

/// Small calls per window whose p50 feeds `bench.slow_window_frac`.
pub const WINDOW_CALLS: usize = 500;
/// 1 MiB rounds per window whose goodput feeds `goodput_gbps`.
pub const GOODPUT_WINDOW: usize = 8;
/// Rounds per pass.
const ROUNDS: usize = 9;
/// `casestudy`: 1 MiB rounds after each MM and FFT.
const CASE_BULK_ROUNDS: usize = 8;
/// `paced` tenant A: one malloc+free pair per this mean gap.
const SMALL_GAP: Duration = Duration::from_millis(4);
/// `paced` tenant B: one 1 MiB H2D+D2H round per this mean gap.
const BULK_GAP: Duration = Duration::from_millis(20);

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Raw loopback floor RTT, µs, at 64 B, 4 KiB, 64 KiB and 1 MiB.
    pub floor: [f64; 4],
    /// Small-call latencies, µs (from when due in `paced`).
    pub small: Samples,
    pub small_calls: u64,
    pub small_wall: Duration,
    /// 1 MiB H2D+D2H round latencies, µs (from when due in `paced`).
    pub bulk: Samples,
    /// Time spent inside each 1 MiB round, µs, in issue order (the same as
    /// `bulk` in closed loops; without the wait for the due time in
    /// `paced`).
    pub bulk_busy: Samples,
    pub mm: Samples,
    pub fft: Samples,
    /// Generator lateness, µs: start − due (open loop) or start − previous
    /// completion (closed loop).
    pub gen_late: Samples,
    /// Per-window small-call p50s, µs, in issue order.
    pub windows: Vec<f64>,
    /// Request + response bytes of one `cudaMalloc`, from the session's
    /// transport counters.
    pub wire_malloc: u64,
    pub pool_client: f64,
    pub pool_server: f64,
    pub codec: Option<CodecStats>,
    /// Set-up times, seconds.
    pub setups: Vec<f64>,
    /// CPU time of the daemon's shard thread while the small calls ran, as
    /// a share of the wall time.
    pub shard_cpu_frac: f64,
}

/// Run one pass of `wl` for about `budget`, traced when `tracer` is given.
///
/// At the start of each round the pass also times `setups` complete
/// set-ups of a separate daemon, so set-up samples spread over the pass.
pub fn run_pass(
    wl: Workload,
    inputs: &Inputs,
    budget: Duration,
    setups: usize,
    tracer: Option<&Arc<Tracer>>,
    tally: &Tally,
) -> Result<Pass, String> {
    let mut rng = Rng::new(inputs.seed).fork(7);
    let mut pass = Pass {
        floor: floor::raw_floor(&mut rng, budget / 25).map_err(|e| format!("raw floor: {e}"))?,
        ..Pass::default()
    };
    let seg = |s: Seg| {
        if let Some(t) = tracer {
            t.set_seg(s);
        }
    };
    let obs = tracer.map(|t| t.handle()).unwrap_or_else(ObsHandle::none);
    seg(Seg::Other);
    let (mut rig, _) = Rig::start(wl.wire(), wl.sessions(), obs)?;

    // Table I byte count of one small call, from the transport counters.
    {
        let sess = &mut rig.sessions[0];
        let before = sess.metrics();
        if let Some(p) = tally.check("wire malloc", sess.malloc(64)) {
            let after = sess.metrics();
            pass.wire_malloc =
                after.bytes_sent - before.bytes_sent + after.bytes_received - before.bytes_received;
            tally.check("wire free", sess.free(p));
        }
    }

    // Each pass is ROUNDS rounds of the workload's main phase and its tail,
    // so every kind of sample is spread over the whole pass.
    let round = budget.mul_f64(0.96 / ROUNDS as f64);
    let mut cpu = ShardCpu::default();
    for r in 0..ROUNDS as u64 {
        pass.setups
            .extend(setup_times(wl.wire(), wl.sessions(), setups)?);
        match wl {
            Workload::Chatty => {
                seg(Seg::Small);
                let sess = &mut rig.sessions[0];
                cpu.during(|| {
                    small_loop(sess, &mut pass, rng.fork(10 + r), round.mul_f64(0.8), tally)
                });
                seg(Seg::Bulk);
                bulk_rounds(
                    sess,
                    &mut pass,
                    inputs,
                    usize::MAX,
                    round.mul_f64(0.1),
                    tally,
                );
                seg(Seg::Case);
                for _ in 0..2 {
                    cases(&rig, &mut pass, inputs, tally)?;
                }
            }
            Workload::Paced => {
                seg(Seg::Mixed);
                let sessions = &mut rig.sessions;
                let rng = rng.fork(20 + r);
                cpu.during(|| paced(sessions, &mut pass, inputs, rng, round.mul_f64(0.85), tally));
                seg(Seg::Case);
                cases(&rig, &mut pass, inputs, tally)?;
            }
            Workload::Casestudy => {
                let t0 = Instant::now();
                while t0.elapsed() < round.mul_f64(0.7) {
                    seg(Seg::Case);
                    cases(&rig, &mut pass, inputs, tally)?;
                    seg(Seg::Bulk);
                    bulk_rounds(
                        &mut rig.sessions[0],
                        &mut pass,
                        inputs,
                        CASE_BULK_ROUNDS,
                        Duration::MAX,
                        tally,
                    );
                }
                seg(Seg::Small);
                let sess = &mut rig.sessions[0];
                cpu.during(|| {
                    small_loop(sess, &mut pass, rng.fork(40 + r), round.mul_f64(0.3), tally)
                });
            }
        }
    }
    pass.shard_cpu_frac = cpu.share();
    seg(Seg::Other);

    let sess = &rig.sessions[wl.sessions() - 1];
    pass.pool_client = sess.pool_stats().hit_rate();
    pass.codec = sess.codec_stats();
    let daemon_reports = rig.stop();
    pass.pool_server = daemon_reports
        .iter()
        .map(|r| r.pool)
        .max_by_key(|p| p.hits + p.misses)
        .map(|p| p.hit_rate())
        .unwrap_or(f64::NAN);
    Ok(pass)
}

/// CPU time of the daemon's shard thread over the phases it was asked to
/// watch: (CPU seconds, wall seconds).
#[derive(Default)]
struct ShardCpu(f64, f64);

impl ShardCpu {
    fn during<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (cpu, wall) = (crate::util::thread_cpu_secs("rcuda-shard"), Instant::now());
        let out = f();
        self.0 += crate::util::thread_cpu_secs("rcuda-shard") - cpu;
        self.1 += wall.elapsed().as_secs_f64();
        out
    }

    /// Shard CPU seconds per wall second.
    fn share(&self) -> f64 {
        self.0 / self.1
    }
}

/// Closed loop of the small-call mix on one session for `budget`.
fn small_loop(sess: &mut Session, pass: &mut Pass, rng: Rng, budget: Duration, tally: &Tally) {
    let Some(mut mix) = SmallMix::new(&mut **sess, rng, tally) else {
        return;
    };
    let mut lat = Samples::new();
    let t0 = Instant::now();
    let mut last_end = t0;
    while t0.elapsed() < budget {
        pass.small_calls += mix.step(
            &mut **sess,
            tally,
            &mut lat,
            &mut pass.gen_late,
            &mut last_end,
        );
    }
    pass.small_wall += t0.elapsed();
    pass.windows.extend(window_p50s(&lat));
    pass.small.extend(&lat);
    mix.free(&mut **sess, tally);
}

/// Closed-loop 1 MiB rounds on one buffer: `n` of them, or as many as fit
/// in `budget`, whichever ends first.
fn bulk_rounds(
    sess: &mut Session,
    pass: &mut Pass,
    inputs: &Inputs,
    n: usize,
    budget: Duration,
    tally: &Tally,
) {
    let Some(mut bulk) = Bulk::new(&mut **sess, tally) else {
        return;
    };
    let t0 = Instant::now();
    let mut last = t0;
    for _ in 0..n {
        if t0.elapsed() >= budget {
            break;
        }
        let t = Instant::now();
        pass.gen_late.push(t.saturating_duration_since(last));
        let ok = bulk.round(&mut **sess, inputs, tally);
        last = Instant::now();
        if ok {
            let took = last - t;
            pass.bulk.push(took);
            pass.bulk_busy.push(took);
        }
    }
    bulk.free(&mut **sess, tally);
}

/// One MM and one FFT case study, each on a session of its own.
fn cases(rig: &Rig, pass: &mut Pass, inputs: &Inputs, tally: &Tally) -> Result<(), String> {
    let mut sess = rig.open()?;
    if let Some(t) = mm_case(&mut *sess, inputs, tally) {
        pass.mm.push(t);
    }
    sess.finish();
    let mut sess = rig.open()?;
    if let Some(t) = fft_case(&mut *sess, inputs, tally) {
        pass.fft.push(t);
    }
    sess.finish();
    Ok(())
}

/// Wait until `due`; returns how late the generator is.
fn wait_until(due: Instant) -> Duration {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    Instant::now().saturating_duration_since(due)
}

/// Open loop of malloc+free pairs on one session, Poisson arrivals with
/// mean gap [`SMALL_GAP`], until `end`. Returns (latencies of the arriving
/// `cudaMalloc`, timed from when it was due; generator lateness; calls
/// completed).
///
/// The `cudaFree` that follows each malloc is counted but not sampled: it
/// meets a shard that has just replied, not an idle one, and half the
/// samples from each regime would put the median on the boundary between
/// them.
fn small_open_loop(
    sess: &mut Session,
    mut rng: Rng,
    start: Instant,
    end: Instant,
    tally: &Tally,
) -> (Samples, Samples, u64) {
    let (mut lat, mut late, mut calls) = (Samples::new(), Samples::new(), 0u64);
    let mut due = start + rng.exp(SMALL_GAP);
    while due < end {
        late.push(wait_until(due));
        let size = rng.range(16, 1024) as u32 * 4;
        if let Some(p) = tally.check("paced malloc", sess.malloc(size)) {
            lat.push(due.elapsed());
            calls += 1;
            if tally.check("paced free", sess.free(p)).is_some() {
                calls += 1;
            }
        }
        due += rng.exp(SMALL_GAP);
    }
    (lat, late, calls)
}

/// Open loop of 1 MiB rounds on one session, Poisson arrivals with mean gap
/// [`BULK_GAP`], until `end`. Returns (latencies from when due, generator
/// lateness, time inside each round).
fn bulk_open_loop(
    sess: &mut Session,
    mut rng: Rng,
    inputs: &Inputs,
    start: Instant,
    end: Instant,
    tally: &Tally,
) -> (Samples, Samples, Samples) {
    let (mut lat, mut late, mut busy) = (Samples::new(), Samples::new(), Samples::new());
    let Some(mut buf) = Bulk::new(&mut **sess, tally) else {
        return (lat, late, busy);
    };
    let mut due = start + rng.exp(BULK_GAP);
    while due < end {
        late.push(wait_until(due));
        let t = Instant::now();
        if buf.round(&mut **sess, inputs, tally) {
            lat.push(due.elapsed());
            busy.push(t.elapsed());
        }
        due += rng.exp(BULK_GAP);
    }
    buf.free(&mut **sess, tally);
    (lat, late, busy)
}

/// Fold an open-loop small-call stream into the pass.
fn add_small(pass: &mut Pass, (lat, late, calls): (Samples, Samples, u64), wall: Duration) {
    pass.windows.extend(window_p50s(&lat));
    pass.small.extend(&lat);
    pass.small_calls += calls;
    pass.small_wall += wall;
    pass.gen_late.extend(&late);
}

/// Payload goodput, Gb/s, of each consecutive window of
/// [`GOODPUT_WINDOW`] 1 MiB rounds: the bytes they moved over the time
/// spent inside them.
pub fn window_goodputs(busy: &Samples) -> Vec<f64> {
    busy.values()
        .chunks_exact(GOODPUT_WINDOW)
        .map(|w| (w.len() * 2 * BULK * 8) as f64 / (w.iter().sum::<f64>() * 1e3))
        .collect()
}

/// The p50 of each consecutive window of [`WINDOW_CALLS`] calls.
fn window_p50s(lat: &Samples) -> Vec<f64> {
    lat.values()
        .chunks_exact(WINDOW_CALLS)
        .map(crate::util::median)
        .collect()
}

/// The open loop of `paced`: tenant A issues malloc+free pairs and tenant
/// B 1 MiB rounds, each on its own Poisson schedule and its own sub-stream
/// of the shared trunk, from two generator threads.
fn paced(
    sessions: &mut [Session],
    pass: &mut Pass,
    inputs: &Inputs,
    rng: Rng,
    budget: Duration,
    tally: &Tally,
) {
    let (a, b) = sessions.split_at_mut(1);
    let (a, b) = (&mut a[0], &mut b[0]);
    let (rng_a, rng_b) = (rng.fork(3), rng.fork(4));
    let start = Instant::now();
    let end = start + budget;
    let (small, bulk) = std::thread::scope(|s| {
        let tenant_a = s.spawn(move || small_open_loop(a, rng_a, start, end, tally));
        let tenant_b = s.spawn(move || bulk_open_loop(b, rng_b, inputs, start, end, tally));
        (
            tenant_a.join().expect("tenant A panicked"),
            tenant_b.join().expect("tenant B panicked"),
        )
    });
    add_small(pass, small, budget);
    pass.small_calls += 2 * bulk.2.len() as u64;
    add_bulk(pass, bulk);
}

/// Fold an open-loop bulk stream into the pass.
fn add_bulk(pass: &mut Pass, (lat, late, busy): (Samples, Samples, Samples)) {
    pass.bulk.extend(&lat);
    pass.bulk_busy.extend(&busy);
    pass.gen_late.extend(&late);
}
