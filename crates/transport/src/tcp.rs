//! Real TCP transport, configured as the paper configures it.
//!
//! §IV-A: "we disabled the TCP-layer congestion control algorithm ... in
//! order to avoid unnecessary delays introduced by the default congestion
//! control algorithm in this protocol (Nagle's algorithm)". We set
//! `TCP_NODELAY` on every stream and additionally buffer writes so each
//! protocol message leaves in as few segments as possible.

use rcuda_obs::{Dir, ObsHandle};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::stats::TransportStats;
use crate::{Progress, Transport};

/// Buffer capacity for both directions of the socket, shared by `connect`
/// and `reconnect` so the two paths cannot drift.
const STREAM_BUF_CAPACITY: usize = 256 * 1024;

/// Messages at or above this size bypass the `BufWriter` with one vectored
/// write straight to the socket. Below it, copying into the write buffer is
/// cheaper than an extra syscall and keeps small messages packed into as
/// few segments as possible.
const VECTORED_WRITE_MIN: usize = 64 * 1024;

/// A TCP-backed transport endpoint.
pub struct TcpTransport {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    stats: TransportStats,
    /// Whether any bytes were written since the last flush.
    dirty: bool,
    /// Bytes written since the last flush (the size of the message a flush
    /// will put on the wire).
    pending_out: u64,
    obs: ObsHandle,
    /// The address `connect` dialed — `Some` makes [`Transport::reconnect`]
    /// possible; accepted streams (`from_stream`) cannot re-dial.
    dial_addr: Option<SocketAddr>,
    /// Last deadline set, re-applied to the fresh socket after a reconnect.
    read_timeout: Option<Duration>,
    /// Set by flush, cleared by the next successful read: counts one
    /// received message per request/response exchange (TCP itself has no
    /// message boundaries to count exactly).
    awaiting_response: bool,
}

impl TcpTransport {
    /// Connect to a server (sets `TCP_NODELAY`).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let dial_addr = stream.peer_addr().ok();
        let mut t = Self::from_stream(stream)?;
        t.dial_addr = dial_addr;
        Ok(t)
    }

    /// Wrap an accepted stream (sets `TCP_NODELAY`).
    pub fn from_stream(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        let reader = BufReader::with_capacity(STREAM_BUF_CAPACITY, stream.try_clone()?);
        let writer = BufWriter::with_capacity(STREAM_BUF_CAPACITY, stream);
        Ok(TcpTransport {
            reader,
            writer,
            stats: TransportStats::default(),
            dirty: false,
            pending_out: 0,
            obs: ObsHandle::none(),
            dial_addr: None,
            read_timeout: None,
            awaiting_response: false,
        })
    }

    /// The peer's address.
    pub fn peer_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.reader.get_ref().peer_addr()
    }

    /// A cloned handle to the underlying socket. Lets a supervisor shut the
    /// connection down from outside (e.g. to unblock a demultiplexer thread
    /// parked in a read on the split read half).
    pub fn raw_stream(&self) -> io::Result<TcpStream> {
        self.reader.get_ref().try_clone()
    }

    /// Shut down both directions (finalization stage).
    pub fn shutdown(&mut self) -> io::Result<()> {
        let _ = self.writer.flush();
        self.reader.get_ref().shutdown(std::net::Shutdown::Both)
    }
}

impl Read for TcpTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.reader.read(buf)?;
        self.stats.record_recv(n as u64);
        if n > 0 {
            // TCP has no message boundaries: receive events are per read
            // chunk, not per protocol message (byte totals still match).
            self.obs.emit_message(Dir::Received, n as u64);
        }
        if n > 0 && self.awaiting_response {
            self.stats.record_message_received();
            self.awaiting_response = false;
        }
        Ok(n)
    }
}

impl Write for TcpTransport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.writer.write(buf)?;
        self.stats.record_send(n as u64);
        if n > 0 {
            self.dirty = true;
            self.pending_out += n as u64;
        }
        Ok(n)
    }

    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        let total: usize = bufs.iter().map(|b| b.len()).sum();
        if total == 0 {
            return Ok(0);
        }
        if total < VECTORED_WRITE_MIN {
            // Small message: stage in the BufWriter like plain writes, so
            // it still leaves in as few segments as possible.
            for b in bufs {
                self.writer.write_all(b)?;
            }
            self.stats.record_send(total as u64);
            self.dirty = true;
            self.pending_out += total as u64;
            return Ok(total);
        }
        // Large message: drain the staging buffer, then hand the kernel all
        // the pieces in one writev — the payload is never coalesced into an
        // owned buffer. Only the BufWriter is flushed here; the message
        // boundary (dirty/pending_out) is still marked by `flush`.
        self.writer.flush()?;
        let n = self.writer.get_mut().write_vectored(bufs)?;
        self.stats.record_send(n as u64);
        if n > 0 {
            self.dirty = true;
            self.pending_out += n as u64;
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.dirty {
            self.stats.record_message();
            self.obs.emit_message(Dir::Sent, self.pending_out);
            self.dirty = false;
            self.pending_out = 0;
            self.awaiting_response = true;
        }
        self.writer.flush()
    }
}

impl Transport for TcpTransport {
    fn stats(&self) -> TransportStats {
        self.stats
    }

    fn set_read_deadline(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        // A socket read timeout bounds each read syscall, not the whole
        // message; for the protocol's small fixed-size reads that is the
        // same bound in practice.
        self.reader.get_ref().set_read_timeout(timeout)?;
        self.read_timeout = timeout;
        Ok(())
    }

    fn reconnect(&mut self) -> io::Result<()> {
        let addr = self.dial_addr.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::Unsupported,
                "accepted stream has no dial address to reconnect to",
            )
        })?;
        // Drop the dead socket before dialing so the server sees the EOF
        // promptly and can park the session for resume.
        let _ = self.reader.get_ref().shutdown(std::net::Shutdown::Both);
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.read_timeout)?;
        self.reader = BufReader::with_capacity(STREAM_BUF_CAPACITY, stream.try_clone()?);
        self.writer = BufWriter::with_capacity(STREAM_BUF_CAPACITY, stream);
        self.dirty = false;
        self.pending_out = 0;
        self.awaiting_response = false;
        self.stats.record_reconnect();
        self.obs.emit_reconnect();
        Ok(())
    }

    fn set_observer(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    fn set_nonblocking(&mut self, nonblocking: bool) -> io::Result<()> {
        // Reader and writer are clones of one socket, so O_NONBLOCK set on
        // either applies to both directions.
        self.reader.get_ref().set_nonblocking(nonblocking)
    }

    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<Progress> {
        // Route through `Read::read` so stats and message accounting stay
        // identical between the blocking and nonblocking paths.
        match Read::read(self, buf) {
            Ok(n) => Ok(Progress::Ready(n)),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(Progress::Pending)
            }
            Err(e) => Err(e),
        }
    }

    fn try_write(&mut self, buf: &[u8]) -> io::Result<Progress> {
        // Drain any bytes a blocking-path write staged in the BufWriter
        // first, so ordering is preserved; `flush` on WouldBlock keeps the
        // unwritten remainder buffered, making the retry safe.
        if !self.writer.buffer().is_empty() {
            match self.writer.flush() {
                Ok(()) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) =>
                {
                    return Ok(Progress::Pending)
                }
                Err(e) => return Err(e),
            }
        }
        // Then write straight to the socket: the caller already batches a
        // whole message, so BufWriter staging would only add a copy.
        match self.writer.get_mut().write(buf) {
            Ok(n) => {
                self.stats.record_send(n as u64);
                Ok(Progress::Ready(n))
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(Progress::Pending)
            }
            Err(e) => Err(e),
        }
    }

    fn into_split(self: Box<Self>) -> io::Result<(crate::ReadHalf, crate::WriteHalf)> {
        // The halves are used by a blocking demultiplexer: undo any
        // nonblocking mode or read deadline left over from reactor use.
        self.reader.get_ref().set_nonblocking(false)?;
        self.reader.get_ref().set_read_timeout(None)?;
        let this = *self;
        Ok((Box::new(this.reader), Box::new(this.writer)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    /// Loopback echo round trip through real sockets.
    #[test]
    fn loopback_echo() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::from_stream(stream).unwrap();
            let mut buf = [0u8; 12];
            t.read_exact(&mut buf).unwrap();
            t.write_all(&buf).unwrap();
            t.flush().unwrap();
        });

        let mut client = TcpTransport::connect(addr).unwrap();
        client.write_all(b"ping-payload").unwrap();
        client.flush().unwrap();
        let mut echo = [0u8; 12];
        client.read_exact(&mut echo).unwrap();
        assert_eq!(&echo, b"ping-payload");
        assert_eq!(client.stats().bytes_sent, 12);
        assert_eq!(client.stats().bytes_received, 12);
        assert_eq!(client.stats().messages_sent, 1);
        server.join().unwrap();
    }

    #[test]
    fn nodelay_is_set() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            TcpTransport::from_stream(stream).unwrap()
        });
        let client = TcpTransport::connect(addr).unwrap();
        assert!(
            client.reader.get_ref().nodelay().unwrap(),
            "Nagle must be off"
        );
        let srv = server.join().unwrap();
        assert!(srv.reader.get_ref().nodelay().unwrap());
    }

    #[test]
    fn large_payload_crosses_loopback() {
        // A payload far larger than socket buffers, to exercise chunked
        // reads/writes (an 8 MiB FFT-batch-sized message).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let payload: Vec<u8> = (0..8 << 20).map(|i| (i % 251) as u8).collect();
        let expect = payload.clone();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::from_stream(stream).unwrap();
            let mut buf = vec![0u8; expect.len()];
            t.read_exact(&mut buf).unwrap();
            assert_eq!(buf, expect);
            t.write_all(&[1]).unwrap();
            t.flush().unwrap();
        });
        let mut client = TcpTransport::connect(addr).unwrap();
        client.write_all(&payload).unwrap();
        client.flush().unwrap();
        let mut ack = [0u8; 1];
        client.read_exact(&mut ack).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn vectored_write_preserves_bytes_and_message_accounting() {
        // One small (buffered) and one large (writev bypass) vectored
        // message; both must arrive intact and count as exactly one message
        // each, with byte totals matching the slices.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let small_body = vec![7u8; 100];
        let large_body: Vec<u8> = (0..VECTORED_WRITE_MIN + 4096)
            .map(|i| (i % 251) as u8)
            .collect();
        let expect_small = small_body.clone();
        let expect_large = large_body.clone();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::from_stream(stream).unwrap();
            let mut head = [0u8; 20];
            let mut body = vec![0u8; expect_small.len()];
            t.read_exact(&mut head).unwrap();
            t.read_exact(&mut body).unwrap();
            assert_eq!(head, [1u8; 20]);
            assert_eq!(body, expect_small);
            let mut body = vec![0u8; expect_large.len()];
            t.read_exact(&mut head).unwrap();
            t.read_exact(&mut body).unwrap();
            assert_eq!(head, [2u8; 20]);
            assert_eq!(body, expect_large);
            t.write_all(&[0]).unwrap();
            t.flush().unwrap();
        });

        let mut client = TcpTransport::connect(addr).unwrap();
        rcuda_proto::wire::write_all_vectored(&mut client, &[1u8; 20], &small_body).unwrap();
        client.flush().unwrap();
        rcuda_proto::wire::write_all_vectored(&mut client, &[2u8; 20], &large_body).unwrap();
        client.flush().unwrap();
        let mut ack = [0u8; 1];
        client.read_exact(&mut ack).unwrap();
        let stats = client.stats();
        assert_eq!(
            stats.bytes_sent,
            (20 + small_body.len() + 20 + large_body.len()) as u64
        );
        assert_eq!(stats.messages_sent, 2, "one flush per message");
        server.join().unwrap();
    }

    #[test]
    fn reconnect_redials_the_original_address() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            // First connection: echo one byte, then close.
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::from_stream(stream).unwrap();
            let mut buf = [0u8; 1];
            t.read_exact(&mut buf).unwrap();
            t.write_all(&buf).unwrap();
            t.flush().unwrap();
            drop(t);
            // Second connection after the client reconnects.
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::from_stream(stream).unwrap();
            let mut buf = [0u8; 1];
            t.read_exact(&mut buf).unwrap();
            t.write_all(&[buf[0] + 1]).unwrap();
            t.flush().unwrap();
        });

        let mut client = TcpTransport::connect(addr).unwrap();
        client.write_all(&[5]).unwrap();
        client.flush().unwrap();
        let mut echo = [0u8; 1];
        client.read_exact(&mut echo).unwrap();
        assert_eq!(echo, [5]);

        client.reconnect().unwrap();
        client.write_all(&[6]).unwrap();
        client.flush().unwrap();
        client.read_exact(&mut echo).unwrap();
        assert_eq!(echo, [7]);
        let stats = client.stats();
        assert_eq!(stats.reconnects, 1);
        assert_eq!(stats.messages_sent, 2, "counters span the reconnect");
        assert_eq!(stats.messages_received, 2);
        server.join().unwrap();
    }

    #[test]
    fn accepted_stream_cannot_reconnect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            TcpTransport::from_stream(stream).unwrap()
        });
        let _client = TcpTransport::connect(addr).unwrap();
        let mut srv = server.join().unwrap();
        assert_eq!(
            srv.reconnect().unwrap_err().kind(),
            io::ErrorKind::Unsupported
        );
    }

    #[test]
    fn read_deadline_bounds_a_silent_peer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            // Hold the connection open without ever writing.
            thread::sleep(std::time::Duration::from_millis(300));
            drop(stream);
        });
        let mut client = TcpTransport::connect(addr).unwrap();
        client
            .set_read_deadline(Some(std::time::Duration::from_millis(30)))
            .unwrap();
        let start = std::time::Instant::now();
        let mut buf = [0u8; 1];
        let err = client.read_exact(&mut buf).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ),
            "got {err:?}"
        );
        assert!(start.elapsed() < std::time::Duration::from_millis(250));
        server.join().unwrap();
    }

    #[test]
    fn nonblocking_try_read_pending_then_ready_then_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (sync_tx, sync_rx) = std::sync::mpsc::channel();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::from_stream(stream).unwrap();
            sync_rx.recv().unwrap(); // wait until the client saw Pending
            t.write_all(b"pong").unwrap();
            t.flush().unwrap();
            sync_rx.recv().unwrap(); // wait until the client read it
        });

        let mut client = TcpTransport::connect(addr).unwrap();
        client.set_nonblocking(true).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(client.try_read(&mut buf).unwrap(), Progress::Pending);
        sync_tx.send(()).unwrap();
        // Spin until the 4 bytes arrive — never blocking, only re-polling.
        let mut got = 0;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while got < 4 {
            assert!(std::time::Instant::now() < deadline, "data never arrived");
            match client.try_read(&mut buf[got..]).unwrap() {
                Progress::Ready(n) => got += n,
                Progress::Pending => std::thread::yield_now(),
            }
        }
        assert_eq!(&buf[..4], b"pong");
        sync_tx.send(()).unwrap();
        server.join().unwrap();
        // Server side gone: the next progress report is EOF, not Pending.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            assert!(std::time::Instant::now() < deadline, "EOF never surfaced");
            match client.try_read(&mut buf).unwrap() {
                Progress::Ready(0) => break,
                Progress::Ready(_) => panic!("no more data was sent"),
                Progress::Pending => std::thread::yield_now(),
            }
        }
    }

    #[test]
    fn nonblocking_try_write_round_trips_a_message() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::from_stream(stream).unwrap();
            let mut buf = [0u8; 8];
            t.read_exact(&mut buf).unwrap();
            buf
        });
        let mut client = TcpTransport::connect(addr).unwrap();
        // Stage two bytes through the blocking half first: try_write must
        // preserve ordering by draining the BufWriter before its own bytes.
        client.write_all(b"ab").unwrap();
        client.set_nonblocking(true).unwrap();
        let mut sent = 0;
        let payload = b"cdefgh";
        while sent < payload.len() {
            match client.try_write(&payload[sent..]).unwrap() {
                Progress::Ready(n) => sent += n,
                Progress::Pending => std::thread::yield_now(),
            }
        }
        assert_eq!(&server.join().unwrap(), b"abcdefgh");
        assert_eq!(client.stats().bytes_sent, 8);
    }

    #[test]
    fn closed_peer_surfaces_as_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            drop(stream); // immediate close
        });
        let mut client = TcpTransport::connect(addr).unwrap();
        server.join().unwrap();
        let mut buf = [0u8; 1];
        assert!(client.read_exact(&mut buf).is_err());
    }
}
