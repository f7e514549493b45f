//! The operations every workload is built from, each checking its own
//! output: the small-call mix, the 1 MiB round, and the §IV-B case studies.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rcuda::api::{run_fft_bytes, run_matmul_bytes, CudaRuntime};
use rcuda::core::{wall_clock, ArgPack, CudaResult, DevicePtr, Dim3, WallClock};
use rcuda::gpu::build_module;
use rcuda::kernels::complex::complex_to_bytes;
use rcuda::kernels::{fft_batch_512, fft_input, matrix_pair, sgemm_naive};

use crate::util::{Rng, Samples};

/// Side of the MM case study (§IV-B, `m = 512`).
pub const MM_M: u32 = 512;
/// Batch of the FFT case study (§IV-B, 2048 signals of 512 points).
pub const FFT_BATCH: u32 = 2048;
/// Bulk round payload size.
pub const BULK: usize = 1 << 20;
/// Largest small-call payload (the device buffer of the small-call mix).
pub const SMALL_MAX: usize = 4096;

/// Operations attempted and failed, with the first few failure messages.
/// Shared by the generator threads of one run.
#[derive(Debug, Default)]
pub struct Tally {
    inner: Mutex<(u64, u64, Vec<String>)>,
}

impl Tally {
    pub fn new() -> Tally {
        Tally::default()
    }

    /// Count one operation that succeeded.
    pub fn ok(&self) {
        self.inner.lock().expect("tally lock").0 += 1;
    }

    /// Count one failed operation and say what failed, loudly.
    pub fn fail(&self, what: String) {
        eprintln!("rcbench: FAILED: {what}");
        let mut t = self.inner.lock().expect("tally lock");
        t.0 += 1;
        t.1 += 1;
        if t.2.len() < 8 {
            t.2.push(what);
        }
    }

    /// Count `r` as one operation: failed if it is an error.
    pub fn check<T>(&self, what: &str, r: CudaResult<T>) -> Option<T> {
        match r {
            Ok(v) => {
                self.ok();
                Some(v)
            }
            Err(e) => {
                self.fail(format!("{what}: {e:?}"));
                None
            }
        }
    }

    /// Count a failed output check of an operation already counted.
    pub fn mismatch(&self, what: String) {
        eprintln!("rcbench: WRONG OUTPUT: {what}");
        let mut t = self.inner.lock().expect("tally lock");
        t.1 += 1;
        if t.2.len() < 8 {
            t.2.push(what);
        }
    }

    pub fn first_failures(&self) -> Vec<String> {
        self.inner.lock().expect("tally lock").2.clone()
    }

    pub fn counts(&self) -> (u64, u64) {
        let t = self.inner.lock().expect("tally lock");
        (t.0, t.1)
    }
}

/// The module every long-lived session loads: the small-call mix launches
/// the `fill` kernel.
pub fn small_module() -> Vec<u8> {
    build_module(&["fill"], 0)
}

/// Seeded inputs of one run, generated before anything is timed.
pub struct Inputs {
    pub seed: u64,
    pub mm_a: Vec<u8>,
    pub mm_b: Vec<u8>,
    /// `sgemm_naive` over the same inputs.
    pub mm_expect: Vec<f32>,
    pub fft_in: Vec<u8>,
    /// `fft_batch_512` on the host over the same inputs.
    pub fft_expect: Vec<u8>,
    /// Bulk payloads: a seeded mix of compressible and incompressible
    /// 4 KiB blocks, cycled by the bulk rounds.
    pub bulk: Vec<Vec<u8>>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let m = MM_M as usize;
        let (a, b) = matrix_pair(m, seed);
        let mut mm_expect = vec![0.0f32; m * m];
        sgemm_naive(m, m, m, a.as_slice(), b.as_slice(), &mut mm_expect);
        let fft = fft_input(FFT_BATCH as usize, seed);
        let mut transformed = fft.clone();
        fft_batch_512(&mut transformed);
        let mut rng = Rng::new(seed).fork(1);
        let bulk = (0..8).map(|_| bulk_payload(&mut rng)).collect();
        Inputs {
            seed,
            mm_a: f32_bytes(a.as_slice()),
            mm_b: f32_bytes(b.as_slice()),
            mm_expect,
            fft_in: complex_to_bytes(&fft),
            fft_expect: complex_to_bytes(&transformed),
            bulk,
        }
    }
}

fn f32_bytes(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// One 1 MiB payload. Half the payloads are incompressible throughout
/// (the codec's decline path); the other half are mostly low-entropy
/// blocks with a random block in four.
fn bulk_payload(rng: &mut Rng) -> Vec<u8> {
    let mut out = vec![0u8; BULK];
    let incompressible = rng.unit() < 0.5;
    for block in out.chunks_mut(4096) {
        if incompressible || rng.unit() < 0.25 {
            rng.fill(block);
        } else {
            // A short seeded phrase repeated with a slowly varying counter:
            // LZ4 finds long matches, but the block is not constant.
            let phrase: Vec<u8> = (0..rng.range(8, 48))
                .map(|_| b'a' + rng.range(0, 25) as u8)
                .collect();
            for (i, b) in block.iter_mut().enumerate() {
                *b = phrase[i % phrase.len()].wrapping_add((i / 512) as u8);
            }
        }
    }
    out
}

/// Compare a device MM result with the host oracle, within the tolerance
/// the kernel tests use (`k · 4e-6`).
pub fn check_mm(inputs: &Inputs, out: &[u8]) -> Result<(), String> {
    if out.len() != inputs.mm_expect.len() * 4 {
        return Err(format!("MM output is {} bytes", out.len()));
    }
    let tol = MM_M as f32 * 4e-6;
    let worst = out
        .chunks_exact(4)
        .zip(&inputs.mm_expect)
        .map(|(c, e)| (f32::from_le_bytes(c.try_into().expect("4 bytes")) - e).abs())
        .fold(0.0f32, f32::max);
    if worst <= tol {
        Ok(())
    } else {
        Err(format!("MM differs from sgemm_naive by {worst} > {tol}"))
    }
}

/// Time one MM case study on a fresh session; `None` if it failed.
pub fn mm_case(rt: &mut dyn CudaRuntime, inputs: &Inputs, tally: &Tally) -> Option<Duration> {
    let clock: Arc<WallClock> = wall_clock();
    let t = Instant::now();
    let r = run_matmul_bytes(rt, &*clock, MM_M, &inputs.mm_a, &inputs.mm_b);
    let took = t.elapsed();
    let report = tally.check("MM case", r)?;
    match check_mm(inputs, &report.output) {
        Ok(()) => Some(took),
        Err(e) => {
            tally.mismatch(e);
            None
        }
    }
}

/// Time one FFT case study on a fresh session; `None` if it failed.
pub fn fft_case(rt: &mut dyn CudaRuntime, inputs: &Inputs, tally: &Tally) -> Option<Duration> {
    let clock: Arc<WallClock> = wall_clock();
    let t = Instant::now();
    let r = run_fft_bytes(rt, &*clock, FFT_BATCH, &inputs.fft_in);
    let took = t.elapsed();
    let report = tally.check("FFT case", r)?;
    if report.output == inputs.fft_expect {
        Some(took)
    } else {
        tally.mismatch("FFT output differs from host fft_batch_512".into());
        None
    }
}

/// A long-lived device buffer for 1 MiB rounds.
pub struct Bulk {
    ptr: DevicePtr,
    back: Vec<u8>,
    next: usize,
}

impl Bulk {
    pub fn new(rt: &mut dyn CudaRuntime, tally: &Tally) -> Option<Bulk> {
        let ptr = tally.check("bulk malloc", rt.malloc(BULK as u32))?;
        Some(Bulk {
            ptr,
            back: vec![0u8; BULK],
            next: 0,
        })
    }

    /// One 1 MiB H2D followed by a D2H of the same bytes, checked byte for
    /// byte. Returns whether it succeeded.
    pub fn round(&mut self, rt: &mut dyn CudaRuntime, inputs: &Inputs, tally: &Tally) -> bool {
        let payload = &inputs.bulk[self.next % inputs.bulk.len()];
        self.next += 1;
        if tally
            .check("bulk H2D", rt.memcpy_h2d(self.ptr, payload))
            .is_none()
        {
            return false;
        }
        if tally
            .check("bulk D2H", rt.memcpy_d2h_into(self.ptr, &mut self.back))
            .is_none()
        {
            return false;
        }
        if self.back != *payload {
            tally.mismatch("bulk D2H did not return the H2D bytes".into());
            return false;
        }
        true
    }

    pub fn free(self, rt: &mut dyn CudaRuntime, tally: &Tally) {
        tally.check("bulk free", rt.free(self.ptr));
    }
}

/// The small-call mix of the `rcuda-workloads` small-calls profile:
/// malloc/free pairs, 64 B–4 KiB H2D and D2H copies and tiny `fill`
/// launches against one 4 KiB device buffer. A host-side model of the
/// buffer checks every D2H.
pub struct SmallMix {
    ptr: DevicePtr,
    model: Vec<u8>,
    buf: Vec<u8>,
    rng: Rng,
}

impl SmallMix {
    pub fn new(rt: &mut dyn CudaRuntime, rng: Rng, tally: &Tally) -> Option<SmallMix> {
        let ptr = tally.check("small malloc", rt.malloc(SMALL_MAX as u32))?;
        let model = vec![0u8; SMALL_MAX];
        tally.check("small H2D", rt.memcpy_h2d(ptr, &model))?;
        Some(SmallMix {
            ptr,
            model,
            buf: vec![0u8; SMALL_MAX],
            rng,
        })
    }

    /// A word-aligned payload length in 64 B..=4 KiB.
    fn len(&mut self) -> usize {
        self.rng.range(16, (SMALL_MAX / 4) as u64) as usize * 4
    }

    /// Issue the next step of the mix, pushing one latency sample per call
    /// and the gap between consecutive calls (the generator's turnaround).
    /// Returns the calls completed.
    pub fn step(
        &mut self,
        rt: &mut dyn CudaRuntime,
        tally: &Tally,
        lat: &mut Samples,
        gap: &mut Samples,
        last_end: &mut Instant,
    ) -> u64 {
        let kind = self.rng.range(0, 3);
        let mut calls = 0;
        let mut timed = |lat: &mut Samples, f: &mut dyn FnMut() -> bool| {
            let t = Instant::now();
            gap.push(t.saturating_duration_since(*last_end));
            let ok = f();
            *last_end = Instant::now();
            lat.push(*last_end - t);
            ok
        };
        match kind {
            0 => {
                let size = self.len() as u32;
                let mut p = None;
                if timed(lat, &mut || {
                    p = tally.check("malloc", rt.malloc(size));
                    p.is_some()
                }) {
                    calls += 1;
                    let p = p.expect("checked");
                    if timed(lat, &mut || tally.check("free", rt.free(p)).is_some()) {
                        calls += 1;
                    }
                }
            }
            1 => {
                let n = self.len();
                let pattern = self.rng.next_u64() as u8;
                for (i, b) in self.buf[..n].iter_mut().enumerate() {
                    *b = pattern.wrapping_add(i as u8);
                }
                let (ptr, data) = (self.ptr, &self.buf[..n]);
                if timed(lat, &mut || {
                    tally.check("small H2D", rt.memcpy_h2d(ptr, data)).is_some()
                }) {
                    self.model[..n].copy_from_slice(&self.buf[..n]);
                    calls += 1;
                }
            }
            2 => {
                let words = self.len() / 4;
                let value = self.rng.range(0, 250) as f32;
                let args = ArgPack::new()
                    .push_ptr(self.ptr)
                    .push_u32(words as u32)
                    .push_f32(value)
                    .into_bytes();
                if timed(lat, &mut || {
                    tally
                        .check(
                            "fill launch",
                            rt.launch("fill", Dim3::x(1), Dim3::x(64), 0, 0, &args),
                        )
                        .is_some()
                }) {
                    for slot in self.model[..words * 4].chunks_exact_mut(4) {
                        slot.copy_from_slice(&value.to_le_bytes());
                    }
                    calls += 1;
                }
            }
            _ => {
                let n = self.len();
                let (ptr, buf) = (self.ptr, &mut self.buf[..n]);
                if timed(lat, &mut || {
                    tally
                        .check("small D2H", rt.memcpy_d2h_into(ptr, buf))
                        .is_some()
                }) {
                    calls += 1;
                    if self.buf[..n] != self.model[..n] {
                        tally.mismatch("small D2H did not match the host model".into());
                    }
                }
            }
        }
        calls
    }

    pub fn free(self, rt: &mut dyn CudaRuntime, tally: &Tally) {
        tally.check("small free", rt.free(self.ptr));
    }
}
