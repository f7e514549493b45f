//! With no observer installed, the per-call hot path performs no heap
//! allocation.
//!
//! A counting `#[global_allocator]` wraps the system allocator while a
//! `RemoteRuntime<TcpTransport>` drives real sockets on loopback. The
//! server pre-writes the measured window's acknowledgements in one burst
//! and then sits blocked in `read`, so the only thread doing work during
//! the window is the client's — and its 8 synchronous calls must leave the
//! allocation counter untouched. (`Op` labels, span payloads, and the
//! disarmed `ObsHandle` are all `Copy`.)

use rcuda_api::CudaRuntime;
use rcuda_client::RemoteRuntime;
use rcuda_core::time::wall_clock;
use rcuda_proto::{Frame, Request, Response, SessionHello};
use rcuda_transport::TcpTransport;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Warmup calls: enough to grow the transport buffers to capacity.
const WARMUP: usize = 32;
/// Calls inside the counted window.
const MEASURED: usize = 8;

#[test]
fn unobserved_calls_do_not_allocate() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (ready_tx, ready_rx) = mpsc::channel::<()>();

    let server = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_nodelay(true).unwrap();
        // CC push (compute capability 1.3), then the init handshake.
        let mut cc = [0u8; 8];
        cc[..4].copy_from_slice(&1u32.to_le_bytes());
        cc[4..].copy_from_slice(&3u32.to_le_bytes());
        stream.write_all(&cc).unwrap();
        match SessionHello::read(&mut stream).unwrap() {
            SessionHello::Fresh { .. } => {}
            other => panic!("unexpected hello: {other:?}"),
        }
        Response::Ack(Ok(())).write(&mut stream).unwrap();

        // Warmup: serve each call normally.
        for _ in 0..WARMUP {
            match Frame::read(&mut stream).unwrap() {
                Frame::Single(Request::ThreadSynchronize) => {}
                other => panic!("unexpected frame: {other:?}"),
            }
            Response::Ack(Ok(())).write(&mut stream).unwrap();
        }

        // Pre-write the measured window's acks in one burst, allocate the
        // drain buffer, and only then release the client: from here on this
        // thread allocates nothing until the connection closes.
        for _ in 0..MEASURED {
            Response::Ack(Ok(())).write(&mut stream).unwrap();
        }
        stream.flush().unwrap();
        let mut sink = [0u8; 4096];
        ready_tx.send(()).unwrap();
        loop {
            match stream.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    });

    let transport = TcpTransport::connect(addr).unwrap();
    let mut rt = RemoteRuntime::new(transport, wall_clock());
    rt.initialize(&[]).unwrap();
    for _ in 0..WARMUP {
        rt.thread_synchronize().unwrap();
    }

    ready_rx.recv().unwrap();
    let before = allocations();
    for _ in 0..MEASURED {
        rt.thread_synchronize().unwrap();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "the unobserved per-call hot path allocated"
    );

    assert_eq!(rt.metrics().calls, 1 + (WARMUP + MEASURED) as u64);
    drop(rt);
    server.join().unwrap();
}
