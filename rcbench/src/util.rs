//! Small helpers: a seeded generator, order statistics, and process facts.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// SplitMix64: a tiny seeded generator, so inputs depend only on `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// An independent stream for one purpose of the same seed.
    pub fn fork(&self, stream: u64) -> Rng {
        let mut r = Rng(self.0 ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean: Poisson inter-arrival gaps.
    pub fn exp(&mut self, mean: Duration) -> Duration {
        let u = 1.0 - self.unit();
        mean.mul_f64(-u.ln())
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let w = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
    }
}

/// Order statistics over one sample of durations (stored in microseconds).
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Samples {
        Samples(Vec::new())
    }

    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e6);
    }

    pub fn push_value(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Nearest-rank quantile `q` in `[0, 1]`; NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.0, q)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Run `f` repeatedly in batches of `batch` until `budget` is spent (at
/// least `min_batches` times) and return the median per-call time in ns.
pub fn time_per_op(budget: Duration, batch: usize, min_batches: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut per_op = Vec::new();
    while per_op.len() < min_batches || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_op.push(t.elapsed().as_secs_f64() * 1e9 / batch as f64);
    }
    median(&per_op)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(f64::NAN)
}

/// CPU seconds (user + system) used so far by this process's threads whose
/// name starts with `prefix`, from `/proc/self/task`. Threads that have
/// exited are not counted.
pub fn thread_cpu_secs(prefix: &str) -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return f64::NAN;
    };
    let mut ticks = 0u64;
    for task in tasks.flatten() {
        let path = task.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        if !comm.starts_with(prefix) {
            continue;
        }
        let stat = std::fs::read_to_string(path.join("stat")).unwrap_or_default();
        // Fields after the parenthesised name: state is field 3, utime 14,
        // stime 15.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |n: usize| {
            fields
                .get(n - 3)
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0)
        };
        ticks += field(14) + field(15);
    }
    // USER_HZ is 100 on every Linux ABI.
    ticks as f64 / 100.0
}

/// `/proc/stat` ticks of all CPUs when the run started: (steal, total).
static START_TICKS: OnceLock<(u64, u64)> = OnceLock::new();

/// Note the start of the run for the stamp's steal share.
pub fn mark_start() {
    START_TICKS.get_or_init(cpu_ticks);
}

/// (steal, total) ticks of the `cpu` line of `/proc/stat`.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Milliseconds for a fixed chain of dependent integer and float steps on
/// the calling thread, the best of three: how fast the host ran the
/// benchmark's own code at the time, apart from the program under test.
fn host_calib_ms() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0f32);
        for _ in 0..4_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.mul_add(0.999, x as u32 as f32 * 1e-9);
        }
        std::hint::black_box((x, acc));
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Facts that make a result comparable across machines and runs.
pub fn stamp() -> String {
    let nproc = allowed_cpus().len();
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let psi = std::fs::read_to_string("/proc/pressure/cpu").unwrap_or_default();
    let (steal0, total0) = START_TICKS.get().copied().unwrap_or_default();
    let (steal, total) = cpu_ticks();
    let steal_pct =
        steal.saturating_sub(steal0) as f64 * 100.0 / total.saturating_sub(total0).max(1) as f64;
    format!(
        "{{\"git_rev\": {}, \"nproc\": {nproc}, \"loadavg\": {}, \"cpu_pressure\": {}, \
         \"steal_pct\": {}, \"host_calib_ms\": {}}}",
        json_str(&git_revision()),
        json_str(loadavg.trim()),
        json_str(&psi.trim().replace('\n', "; ")),
        json_num(steal_pct),
        json_num(host_calib_ms())
    )
}

/// The checked-out revision, read from `.git` in the working directory
/// (the benchmark reads nothing outside its checkout).
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .unwrap_or("unknown")
        .to_string()
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all its digits (NaN and infinities become `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

// ------------------------------------------------------------ placement

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t` of 1024 CPUs.
type CpuSet = [u64; 16];

/// The CPUs this process may run on, read once before any pinning.
fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable buffer of exactly the size passed.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..1024)
            .filter(|&c| set[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    })
}

/// The two cores the run is split across: (client, daemon).
fn cores() -> Option<(usize, usize)> {
    match allowed_cpus() {
        [client, daemon, ..] => Some((*client, *daemon)),
        _ => None,
    }
}

fn pin(cpu: usize) {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a readable buffer of exactly the size passed; pid 0
    // is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity to an allowed core failed");
}

/// Put the calling (client) thread on the client core. Threads it spawns
/// inherit the core. Returns a description of the placement for the stamp.
pub fn place_client() -> String {
    match cores() {
        Some((client, daemon)) => {
            pin(client);
            format!("client on core {client}, daemon on core {daemon}")
        }
        None => "unpinned: fewer than two cores".into(),
    }
}

/// Run `f` on the daemon core, so the threads it spawns (reactor shard,
/// accept loop, echo servers) stay there; then return to the client core.
pub fn on_daemon_core<T>(f: impl FnOnce() -> T) -> T {
    let Some((client, daemon)) = cores() else {
        return f();
    };
    pin(daemon);
    let out = f();
    pin(client);
    out
}
