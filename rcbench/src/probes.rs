//! Layer probes: each calls one layer's public functions directly, with
//! the inputs the workloads generate, and checks what comes back.

use std::time::{Duration, Instant};

use rcuda::api::CudaRuntime;
use rcuda::core::MIB;
use rcuda::kernels::{fft_batch_512, sgemm_tiled_gpu};
use rcuda::proto::ids::MemcpyKind;
use rcuda::proto::secure::{ChaCha20, CipherSuite};
use rcuda::proto::{BufferPool, Codec, CodecMode, Frame, Payload, Request, StreamDecoder};
use rcuda::session::{local_functional, Endpoint, Session};

use crate::floor;
use crate::ops::{small_module, Bulk, Inputs, SmallMix, Tally, BULK, FFT_BATCH, MM_M};
use crate::util::{median, time_per_op, Rng, Samples};

/// Named per-layer values, in the order they were measured.
pub type Values = Vec<(&'static str, f64)>;

/// Run every layer probe within about `budget`.
pub fn run(inputs: &Inputs, budget: Duration, tally: &Tally) -> Result<Values, String> {
    let slice = budget / 12;
    let mut rng = Rng::new(inputs.seed).fork(11);
    let mut out = Values::new();

    let (tcp64, tcp1m) =
        floor::tcp_transport_rtt(&mut rng, slice).map_err(|e| format!("TcpTransport echo: {e}"))?;
    out.push(("transport.tcp_rtt_us.64", tcp64));
    out.push(("transport.tcp_rtt_us.1m", tcp1m));
    let (mux64, mux_gbps) =
        floor::mux_rtt(&mut rng, slice).map_err(|e| format!("MuxPeer echo: {e}"))?;
    out.push(("transport.mux_rtt_us.64", mux64));
    out.push(("transport.mux_gbps.1m", mux_gbps));

    proto(inputs, &mut rng, slice, tally, &mut out);
    codec(inputs, slice, tally, &mut out);
    cipher(inputs, slice, tally, &mut out);

    // The small-call mix and 1 MiB rounds on the local runtime: no network.
    let mut local = local_functional();
    tally.check("local initialize", local.initialize(&small_module()));
    out.push((
        "gpu.local_call_us.small",
        small_mix_p50(&mut local, &mut rng, slice, tally),
    ));
    out.push((
        "gpu.local_memcpy_gbps.1m",
        bulk_gbps(&mut local, inputs, slice, tally),
    ));

    kernels(inputs, slice, tally, &mut out);

    // The same small-call mix over an in-process channel: the server's
    // session engine with no socket and no reactor.
    let mut chan = crate::util::on_daemon_core(|| Session::builder().connect(Endpoint::Channel))
        .map_err(|e| format!("channel session: {e:?}"))?;
    tally.check("channel initialize", chan.initialize(&small_module()));
    out.push((
        "server.channel_call_us.small",
        small_mix_p50(&mut *chan, &mut rng, slice, tally),
    ));
    let _ = chan.finalize();
    chan.finish();
    Ok(out)
}

fn small_mix_p50(rt: &mut dyn CudaRuntime, rng: &mut Rng, budget: Duration, tally: &Tally) -> f64 {
    let Some(mut mix) = SmallMix::new(rt, rng.fork(2), tally) else {
        return f64::NAN;
    };
    let (mut lat, mut gap) = (Samples::new(), Samples::new());
    let t0 = Instant::now();
    let mut last = t0;
    while t0.elapsed() < budget {
        mix.step(rt, tally, &mut lat, &mut gap, &mut last);
    }
    mix.free(rt, tally);
    lat.median()
}

fn bulk_gbps(rt: &mut dyn CudaRuntime, inputs: &Inputs, budget: Duration, tally: &Tally) -> f64 {
    let Some(mut bulk) = Bulk::new(rt, tally) else {
        return f64::NAN;
    };
    let mut rounds = Vec::new();
    let t0 = Instant::now();
    while rounds.len() < 5 || t0.elapsed() < budget {
        let t = Instant::now();
        if bulk.round(rt, inputs, tally) {
            rounds.push(t.elapsed().as_secs_f64());
        }
        if rounds.is_empty() && t0.elapsed() > budget {
            break;
        }
    }
    bulk.free(rt, tally);
    2.0 * BULK as f64 * 8.0 / median(&rounds) / 1e9
}

fn h2d(size: usize, data: Vec<u8>) -> Request {
    Request::Memcpy {
        dst: 0x1000,
        src: 0,
        size: size as u32,
        kind: MemcpyKind::HostToDevice,
        data: Some(Payload::from(data)),
    }
}

/// `Request` encode and `StreamDecoder` decode of one small H2D (sizes
/// drawn like the small-call mix) and one 1 MiB H2D.
fn proto(inputs: &Inputs, rng: &mut Rng, budget: Duration, tally: &Tally, out: &mut Values) {
    let small_size = rng.range(16, 1024) as usize * 4;
    let mut small = vec![0u8; small_size];
    rng.fill(&mut small);
    let pool = BufferPool::default();
    for (label, req, payload) in [
        ("small", h2d(small_size, small.clone()), small),
        (
            "1m",
            h2d(BULK, inputs.bulk[0].clone()),
            inputs.bulk[0].clone(),
        ),
    ] {
        let mut wire = Vec::new();
        let encode = time_per_op(
            budget / 4,
            if label == "small" { 256 } else { 4 },
            5,
            || {
                wire.clear();
                req.write(&mut wire).expect("encode into a Vec");
            },
        );
        let mut decoder = StreamDecoder::new();
        let mut decode_once = || {
            decoder.feed(&wire);
            decoder.poll_frame(Some(&pool))
        };
        match decode_once() {
            Ok(Some(Frame::Single(Request::Memcpy { data: Some(d), .. })))
                if d.as_slice() == payload.as_slice() =>
            {
                tally.ok()
            }
            other => tally.fail(format!(
                "decode of the {label} H2D: {:?}",
                other.map(|f| f.is_some())
            )),
        }
        let decode = time_per_op(
            budget / 4,
            if label == "small" { 256 } else { 4 },
            5,
            || {
                std::hint::black_box(decode_once().expect("decodes").expect("complete frame"));
            },
        );
        out.push((
            if label == "small" {
                "proto.encode_ns.small"
            } else {
                "proto.encode_ns.1m"
            },
            encode,
        ));
        out.push((
            if label == "small" {
                "proto.decode_ns.small"
            } else {
                "proto.decode_ns.1m"
            },
            decode,
        ));
    }
}

/// LZ4 codec: encode and decode throughput on a compressible bulk payload,
/// the adaptive decline cost on an incompressible one, and the decision
/// counts over every bulk payload of the run.
fn codec(inputs: &Inputs, budget: Duration, tally: &Tally, out: &mut Values) {
    let pool = BufferPool::default();
    let always = Codec::with_mode(pool.clone(), CodecMode::Always);
    let by_ratio = |p: &&Vec<u8>| always.encode(p).map(|e| e.len()).unwrap_or(usize::MAX);
    let compressible = inputs
        .bulk
        .iter()
        .min_by_key(by_ratio)
        .expect("bulk payloads");
    let incompressible = inputs
        .bulk
        .iter()
        .max_by_key(by_ratio)
        .expect("bulk payloads");

    let mut block = Vec::new();
    always
        .write_block(&mut block, compressible)
        .expect("encode into a Vec");
    match always.read_block(&mut block.as_slice(), BULK) {
        Ok(back) if back.as_slice() == compressible.as_slice() => tally.ok(),
        _ => tally.fail("codec round trip changed the payload".into()),
    }
    let mbps = |ns: f64| BULK as f64 / (ns * 1e-9) / MIB as f64;
    let enc = time_per_op(budget / 3, 2, 5, || {
        std::hint::black_box(always.encode(compressible));
    });
    let dec = time_per_op(budget / 3, 2, 5, || {
        std::hint::black_box(
            always
                .read_block(&mut block.as_slice(), BULK)
                .expect("decodes"),
        );
    });
    let adaptive = Codec::new(pool.clone());
    let decline = time_per_op(budget / 3, 16, 5, || {
        std::hint::black_box(adaptive.encode(incompressible));
    });
    out.push(("proto.codec_encode_mbps", mbps(enc)));
    out.push(("proto.codec_decode_mbps", mbps(dec)));
    out.push(("proto.codec_decline_ns", decline));
    let fresh = Codec::new(pool);
    for p in &inputs.bulk {
        fresh.encode(p);
    }
    let stats = fresh.stats();
    out.push(("proto.codec_ratio", stats.ratio()));
    out.push((
        "proto.codec_compressed_frac",
        stats.compressed as f64 / stats.decisions() as f64,
    ));
}

/// ChaCha20 keystream throughput over a 1 MiB payload, with a round trip.
fn cipher(inputs: &Inputs, budget: Duration, tally: &Tally, out: &mut Values) {
    let key = [7u8; 32];
    let nonce = [1u8; 12];
    let mut data = inputs.bulk[1].clone();
    ChaCha20::new(&key, &nonce).apply(&mut data);
    ChaCha20::new(&key, &nonce).apply(&mut data);
    if data == inputs.bulk[1] {
        tally.ok();
    } else {
        tally.fail("ChaCha20 round trip changed the payload".into());
    }
    let mut c = ChaCha20::new(&key, &nonce);
    let ns = time_per_op(budget, 1, 5, || c.apply(&mut data));
    out.push((
        "proto.chacha20_mbps",
        BULK as f64 / (ns * 1e-9) / MIB as f64,
    ));
}

/// The two case-study kernels on the host, checked against the oracles.
fn kernels(inputs: &Inputs, budget: Duration, tally: &Tally, out: &mut Values) {
    let m = MM_M as usize;
    let f32s = |b: &[u8]| -> Vec<f32> {
        b.chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect()
    };
    let (a, b) = (f32s(&inputs.mm_a), f32s(&inputs.mm_b));
    let mut c = vec![0.0f32; m * m];
    let sgemm_ns = time_per_op(budget / 2, 1, 3, || {
        sgemm_tiled_gpu(m, m, m, &a, &b, &mut c)
    });
    let c_bytes: Vec<u8> = c.iter().flat_map(|x| x.to_le_bytes()).collect();
    match crate::ops::check_mm(inputs, &c_bytes) {
        Ok(()) => tally.ok(),
        Err(e) => tally.fail(format!("host sgemm_tiled_gpu: {e}")),
    }
    out.push((
        "kernels.sgemm_gflops.512",
        2.0 * (m * m * m) as f64 / sgemm_ns,
    ));

    let signals =
        rcuda::kernels::complex::bytes_to_complex(&inputs.fft_in).expect("whole complex values");
    let mut work = signals.clone();
    let fft_ns = time_per_op(budget / 2, 1, 3, || {
        work.copy_from_slice(&signals);
        fft_batch_512(&mut work);
    });
    if rcuda::kernels::complex::complex_to_bytes(&work) == inputs.fft_expect {
        tally.ok();
    } else {
        tally.fail("host fft_batch_512 is not deterministic".into());
    }
    out.push(("kernels.fft_ms.2048", fft_ns / 1e6));
    debug_assert_eq!(signals.len(), FFT_BATCH as usize * 512);
}
