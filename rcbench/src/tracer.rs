//! The traced run's observer: it keeps every `CallSpan`, `ServerSpan`,
//! `ShardSpan` and `StreamFrameEvent` in memory, stamped with the
//! benchmark's own clock at receipt, and writes them out when the run ends.
//!
//! The program's components each run their own clock, so spans from
//! different layers are placed on one timeline by the receipt stamp: an
//! observer is called on the emitting thread right after the span ends.

use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rcuda::obs::{CallSpan, Dir, ObsHandle, Observer, ServerSpan, ShardSpan, StreamFrameEvent};

/// Which part of the workload was running when an event arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Seg {
    /// Set-up and anything not classified.
    Other = 0,
    /// Only small calls are in flight.
    Small = 1,
    /// Only 1 MiB rounds are in flight.
    Bulk = 2,
    /// Small calls and 1 MiB rounds interleave: classify by operation.
    Mixed = 3,
    /// Case studies.
    Case = 4,
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Call {
        op: &'static str,
        sent: u64,
        received: u64,
        dur_ns: u64,
    },
    Server {
        op: &'static str,
        service_ns: u64,
        queue_ns: u64,
    },
    Shard {
        frames: u32,
        dur_ns: u64,
    },
    Frame {
        stream: u32,
        sent: bool,
        bytes: u64,
    },
}

#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Receipt time, ns since the tracer started.
    pub at_ns: u64,
    pub seg: Seg,
    pub kind: Kind,
}

pub struct Tracer {
    epoch: Instant,
    seg: AtomicU8,
    events: Mutex<Vec<Event>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            seg: AtomicU8::new(Seg::Other as u8),
            events: Mutex::new(Vec::with_capacity(1 << 20)),
        })
    }

    pub fn handle(self: &Arc<Self>) -> ObsHandle {
        ObsHandle::new(Arc::clone(self) as Arc<dyn Observer>)
    }

    pub fn set_seg(&self, seg: Seg) {
        self.seg.store(seg as u8, Ordering::SeqCst);
    }

    fn seg(&self) -> Seg {
        match self.seg.load(Ordering::SeqCst) {
            1 => Seg::Small,
            2 => Seg::Bulk,
            3 => Seg::Mixed,
            4 => Seg::Case,
            _ => Seg::Other,
        }
    }

    fn push(&self, kind: Kind) {
        let at_ns = self.epoch.elapsed().as_nanos() as u64;
        let seg = self.seg();
        self.events
            .lock()
            .expect("tracer lock")
            .push(Event { at_ns, seg, kind });
    }

    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("tracer lock").clone()
    }

    /// Write every event as one CSV row.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "at_ns,seg,kind,op,a,b,c")?;
        for e in self.events.lock().expect("tracer lock").iter() {
            let seg = e.seg as u8;
            match e.kind {
                Kind::Call {
                    op,
                    sent,
                    received,
                    dur_ns,
                } => writeln!(w, "{},{seg},call,{op},{sent},{received},{dur_ns}", e.at_ns)?,
                Kind::Server {
                    op,
                    service_ns,
                    queue_ns,
                } => writeln!(w, "{},{seg},server,{op},{service_ns},{queue_ns},", e.at_ns)?,
                Kind::Shard { frames, dur_ns } => {
                    writeln!(w, "{},{seg},shard,,{frames},{dur_ns},", e.at_ns)?
                }
                Kind::Frame {
                    stream,
                    sent,
                    bytes,
                } => writeln!(
                    w,
                    "{},{seg},frame,{stream},{},{bytes},",
                    e.at_ns, sent as u8
                )?,
            }
        }
        w.flush()
    }
}

fn op_name(op: rcuda::obs::Op) -> &'static str {
    match op {
        rcuda::obs::Op::Named(n) | rcuda::obs::Op::Phase(n) => n,
        rcuda::obs::Op::Batch(_) => "batch",
    }
}

impl Observer for Tracer {
    fn call_span(&self, span: &CallSpan) {
        self.push(Kind::Call {
            op: op_name(span.op),
            sent: span.bytes_sent,
            received: span.bytes_received,
            dur_ns: span.duration().as_nanos(),
        });
    }

    fn server_span(&self, span: &ServerSpan) {
        self.push(Kind::Server {
            op: op_name(span.op),
            service_ns: span.service().as_nanos(),
            queue_ns: span.queue_wait.as_nanos(),
        });
    }

    fn shard_span(&self, span: &ShardSpan) {
        self.push(Kind::Shard {
            frames: span.frames,
            dur_ns: span.duration().as_nanos(),
        });
    }

    fn stream_frame(&self, event: &StreamFrameEvent) {
        self.push(Kind::Frame {
            stream: event.stream,
            sent: event.dir == Dir::Sent,
            bytes: event.bytes,
        });
    }
}

/// Whether a span belongs to the small-call class: everything in a small
/// segment; the non-memcpy calls of a mixed segment.
pub fn is_small(seg: Seg, op: &str) -> bool {
    match seg {
        Seg::Small => true,
        Seg::Mixed => !op.contains("Memcpy"),
        _ => false,
    }
}

/// Whether a span is a 1 MiB memcpy.
pub fn is_bulk(seg: Seg, op: &str) -> bool {
    matches!(seg, Seg::Bulk | Seg::Mixed) && op.contains("Memcpy")
}
