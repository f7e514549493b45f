//! The middleware's core promise (§III): an application using a remote GPU
//! gets exactly what it would get from a local one. These tests run the
//! full case studies through the real TCP daemon and through simulated
//! links, comparing against local execution bit-for-bit.

use rcuda::api::{run_fft_bytes, run_matmul_bytes};
use rcuda::core::time::wall_clock;
use rcuda::gpu::GpuDevice;
use rcuda::kernels::complex::complex_to_bytes;
use rcuda::kernels::workload::{fft_input, matrix_pair};
use rcuda::netsim::NetworkId;
use rcuda::obs::Recorder;
use rcuda::server::RcudaDaemon;
use rcuda::session;
use rcuda::session::Endpoint;

fn f32s(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

#[test]
fn matmul_over_tcp_equals_local() {
    let m = 48u32;
    let (a, b) = matrix_pair(m as usize, 11);
    let (a, b) = (f32s(a.as_slice()), f32s(b.as_slice()));

    // Local baseline.
    let clock = wall_clock();
    let mut local = session::local_functional();
    let local_out = run_matmul_bytes(&mut local, &*clock, m, &a, &b)
        .unwrap()
        .output;

    // Remote over loopback TCP.
    let mut daemon = RcudaDaemon::builder()
        .device(GpuDevice::tesla_c1060_functional())
        .bind("127.0.0.1:0")
        .unwrap();
    let mut remote = session::Session::builder()
        .connect(Endpoint::Tcp(daemon.local_addr()))
        .unwrap();
    let remote_out = run_matmul_bytes(&mut *remote, &*clock, m, &a, &b)
        .unwrap()
        .output;

    assert_eq!(remote_out, local_out, "remote result must be bit-identical");
    assert!(daemon.wait_for_sessions(1, std::time::Duration::from_secs(5)));
    daemon.shutdown();
    assert_eq!(daemon.sessions_served(), 1);
    let reports = daemon.session_reports();
    assert!(reports[0].orderly_shutdown);
    assert_eq!(reports[0].leaked_allocations, 0);
}

#[test]
fn fft_over_tcp_equals_local() {
    let batch = 4u32;
    let input = complex_to_bytes(&fft_input(batch as usize, 23));

    let clock = wall_clock();
    let mut local = session::local_functional();
    let local_out = run_fft_bytes(&mut local, &*clock, batch, &input)
        .unwrap()
        .output;

    let mut daemon = RcudaDaemon::builder()
        .device(GpuDevice::tesla_c1060_functional())
        .bind("127.0.0.1:0")
        .unwrap();
    let mut remote = session::Session::builder()
        .connect(Endpoint::Tcp(daemon.local_addr()))
        .unwrap();
    let remote_out = run_fft_bytes(&mut *remote, &*clock, batch, &input)
        .unwrap()
        .output;

    assert_eq!(remote_out, local_out);
    daemon.shutdown();
}

#[test]
fn matmul_over_simulated_network_equals_local() {
    let m = 32u32;
    let (a, b) = matrix_pair(m as usize, 5);
    let (a, b) = (f32s(a.as_slice()), f32s(b.as_slice()));

    let clock = wall_clock();
    let mut local = session::local_functional();
    let local_out = run_matmul_bytes(&mut local, &*clock, m, &a, &b)
        .unwrap()
        .output;

    for net in [NetworkId::GigaE, NetworkId::Ib40G, NetworkId::AsicHt] {
        let mut sess = session::Session::builder()
            .connect(Endpoint::Simulated(net))
            .unwrap();
        let out = run_matmul_bytes(&mut *sess, &*clock, m, &a, &b)
            .unwrap()
            .output;
        assert_eq!(out, local_out, "{net}");
        let report = sess.finish_report();
        assert!(report.orderly_shutdown);
        assert_eq!(report.leaked_allocations, 0);
    }
}

#[test]
fn trace_byte_accounting_matches_table1() {
    // Run the MM phases remotely and verify the recorded trace carries
    // exactly the Table I / Table II message sizes.
    let m = 16u32;
    let (a, b) = matrix_pair(m as usize, 2);
    let (a, b) = (f32s(a.as_slice()), f32s(b.as_slice()));
    let clock = wall_clock();
    let recorder = Recorder::new();
    let mut sess = session::Session::builder()
        .observer(recorder.handle())
        .connect(Endpoint::Simulated(NetworkId::Ib40G))
        .unwrap();
    run_matmul_bytes(&mut *sess, &*clock, m, &a, &b).unwrap();

    let trace = recorder.report();
    let by_op = |op: &str| -> Vec<(u64, u64)> {
        trace
            .spans
            .iter()
            .filter(|e| e.op == op)
            .map(|e| (e.bytes_sent, e.bytes_received))
            .collect()
    };

    // Initialization: x + 4 sent (x = 21486), 12 received.
    assert_eq!(by_op("initialization"), vec![(21_490, 12)]);
    // Three mallocs at 8/8.
    assert_eq!(by_op("cudaMalloc"), vec![(8, 8); 3]);
    // Two H2D copies at 4m² + 20 / 4.
    let payload = (4 * m * m) as u64;
    assert_eq!(by_op("cudaMemcpyH2D"), vec![(payload + 20, 4); 2]);
    // One D2H at 20 / 4m² + 4.
    assert_eq!(by_op("cudaMemcpyD2H"), vec![(20, payload + 4)]);
    // Three frees at 8/4.
    assert_eq!(by_op("cudaFree"), vec![(8, 4); 3]);
    // Total bulk payload: 3 copies of 4m².
    assert_eq!(trace.bulk_payload(), 3 * payload);
    sess.finish();
}

#[test]
fn two_sequential_sessions_reuse_the_daemon() {
    let mut daemon = RcudaDaemon::builder()
        .device(GpuDevice::tesla_c1060_functional())
        .bind("127.0.0.1:0")
        .unwrap();
    let clock = wall_clock();
    for seed in 0..2u64 {
        let (a, b) = matrix_pair(16, seed);
        let mut rt = session::Session::builder()
            .connect(Endpoint::Tcp(daemon.local_addr()))
            .unwrap();
        run_matmul_bytes(
            &mut *rt,
            &*clock,
            16,
            &f32s(a.as_slice()),
            &f32s(b.as_slice()),
        )
        .unwrap();
    }
    assert!(daemon.wait_for_sessions(2, std::time::Duration::from_secs(5)));
    daemon.shutdown();
    assert_eq!(daemon.sessions_served(), 2);
}
