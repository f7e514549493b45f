//! Session-establishment messages: the server's 8-byte hello push and the
//! first client → server message that follows it.
//!
//! The paper's protocol identifies the initialization message *positionally*
//! (no selector — the first word is the module length). The fault-tolerance
//! extension adds two selector-carrying handshakes that a server can
//! distinguish from a module length because their values
//! ([`FunctionId::Hello`], [`FunctionId::Reconnect`]) are impossible module
//! sizes (≥ 4 GiB − 3):
//!
//! * **Hello** — a fresh session that wants to be resumable announces a
//!   64-bit session token before its module upload. If the connection later
//!   dies without an orderly Quit, the server parks the session's GPU
//!   context under that token.
//! * **Reconnect** — a returning client presents its token. The server
//!   either resumes the parked context (reply code 0) or cleanly rejects
//!   the resume (`cudaErrorInitializationError`) when nothing is parked —
//!   never a hang, never a protocol desync.
//!
//! The server's reply to either handshake is a single 4-byte result code,
//! exactly like the paper's initialization acknowledgement, so the exchange
//! costs one round trip.

//!
//! The overload extension reuses the same trick in the *server → client*
//! direction: the daemon's very first message has always been the fixed
//! 8-byte compute-capability push, and [`ServerHello`] overlays it. An
//! admitted connection receives the two capability words unchanged (legacy
//! clients parse the bytes exactly as before); a shed connection receives
//! the [`FunctionId::Busy`] selector — an impossible capability major —
//! followed by a retry hint in milliseconds, then the server closes the
//! connection. A legacy client still consumes a well-formed 8-byte frame
//! and then observes a clean EOF instead of a protocol desync.

use std::io::{self, Read, Write};

use rcuda_core::{CudaError, CudaResult};

use crate::ids::FunctionId;
use crate::wire::{get_bytes, get_u32, get_u64, put_u32, put_u64};

/// The server's first message on every connection: 8 bytes, either the
/// device's compute capability (the paper's Fig. 2 push, connection
/// admitted) or a `Busy` load-shed marker with a retry hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerHello {
    /// Admitted: the device's compute capability `(major, minor)`.
    Ready { major: u32, minor: u32 },
    /// Shed: the daemon is over its admission limits; try again after
    /// `retry_after_ms` milliseconds. The server closes the connection
    /// right after pushing this frame.
    Busy { retry_after_ms: u32 },
}

impl ServerHello {
    /// Byte count of the frame on the wire (always 8).
    pub const WIRE_BYTES: usize = 8;

    /// Encode as the 8-byte wire frame (two LE u32 words).
    pub fn to_wire(self) -> [u8; Self::WIRE_BYTES] {
        let (a, b) = match self {
            ServerHello::Ready { major, minor } => (major, minor),
            ServerHello::Busy { retry_after_ms } => (FunctionId::Busy.as_u32(), retry_after_ms),
        };
        let mut buf = [0u8; Self::WIRE_BYTES];
        buf[..4].copy_from_slice(&a.to_le_bytes());
        buf[4..].copy_from_slice(&b.to_le_bytes());
        buf
    }

    /// Decode the 8-byte wire frame. A first word equal to the `Busy`
    /// selector — impossible as a compute-capability major — marks a shed
    /// connection; anything else is the capability push.
    pub fn from_wire(buf: [u8; Self::WIRE_BYTES]) -> ServerHello {
        let a = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes"));
        let b = u32::from_le_bytes(buf[4..].try_into().expect("4 bytes"));
        if a == FunctionId::Busy.as_u32() {
            ServerHello::Busy { retry_after_ms: b }
        } else {
            ServerHello::Ready { major: a, minor: b }
        }
    }

    /// Write the frame.
    pub fn write<W: Write>(self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.to_wire())
    }

    /// Read the frame.
    pub fn read<R: Read>(r: &mut R) -> io::Result<ServerHello> {
        let mut buf = [0u8; Self::WIRE_BYTES];
        r.read_exact(&mut buf)?;
        Ok(ServerHello::from_wire(buf))
    }
}

/// Extra bytes a [`SessionHello::Resumable`] handshake sends compared to the
/// paper's bare module upload: the 4-byte `Hello` selector + 8-byte token.
pub const HELLO_OVERHEAD_BYTES: u64 = 12;

/// The first client → server message of a session, in all three forms the
/// server accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionHello {
    /// The paper's positional initialization: module length + module image.
    Fresh { module: Vec<u8> },
    /// A resumable initialization: `Hello` selector, session token, then the
    /// module exactly as in `Fresh`.
    Resumable { session: u64, module: Vec<u8> },
    /// A returning session: `Reconnect` selector + session token. No module
    /// travels — the parked server context already holds it.
    Reconnect { session: u64 },
    /// Daemon → daemon live migration: `Migrate` selector, session token,
    /// and an opaque context-snapshot blob (encoded by `rcuda-gpu`; the
    /// protocol layer does not interpret it). The receiving daemon restores
    /// the context and parks it under the token, so the client's next
    /// `Reconnect` lands transparently.
    Migrate { session: u64, snapshot: Vec<u8> },
}

impl SessionHello {
    /// Exact number of bytes [`SessionHello::write`] puts on the wire.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            SessionHello::Fresh { module } => 4 + module.len() as u64,
            SessionHello::Resumable { module, .. } => {
                HELLO_OVERHEAD_BYTES + 4 + module.len() as u64
            }
            SessionHello::Reconnect { .. } => 12,
            SessionHello::Migrate { snapshot, .. } => {
                HELLO_OVERHEAD_BYTES + 4 + snapshot.len() as u64
            }
        }
    }

    /// Serialize onto the wire.
    pub fn write<W: Write>(&self, w: &mut W) -> io::Result<()> {
        match self {
            SessionHello::Fresh { module } => {
                put_u32(w, module.len() as u32)?;
                w.write_all(module)
            }
            SessionHello::Resumable { session, module } => {
                put_u32(w, FunctionId::Hello.as_u32())?;
                put_u64(w, *session)?;
                put_u32(w, module.len() as u32)?;
                w.write_all(module)
            }
            SessionHello::Reconnect { session } => {
                put_u32(w, FunctionId::Reconnect.as_u32())?;
                put_u64(w, *session)
            }
            SessionHello::Migrate { session, snapshot } => {
                put_u32(w, FunctionId::Migrate.as_u32())?;
                put_u64(w, *session)?;
                put_u32(w, snapshot.len() as u32)?;
                w.write_all(snapshot)
            }
        }
    }

    /// Read the handshake message. The first word disambiguates: a `Hello`
    /// or `Reconnect` selector routes to the extended forms, anything else
    /// *is* the module length of the paper's positional initialization.
    pub fn read<R: Read>(r: &mut R) -> io::Result<SessionHello> {
        let first = get_u32(r)?;
        match FunctionId::from_u32(first) {
            Ok(FunctionId::Hello) => {
                let session = get_u64(r)?;
                let len = get_u32(r)? as usize;
                let module = get_bytes(r, len)?;
                Ok(SessionHello::Resumable { session, module })
            }
            Ok(FunctionId::Reconnect) => Ok(SessionHello::Reconnect {
                session: get_u64(r)?,
            }),
            Ok(FunctionId::Migrate) => {
                let session = get_u64(r)?;
                let len = get_u32(r)? as usize;
                let snapshot = get_bytes(r, len)?;
                Ok(SessionHello::Migrate { session, snapshot })
            }
            _ => Ok(SessionHello::Fresh {
                module: get_bytes(r, first as usize)?,
            }),
        }
    }

    /// The module image carried by this handshake, if any.
    pub fn module(&self) -> Option<&[u8]> {
        match self {
            SessionHello::Fresh { module } | SessionHello::Resumable { module, .. } => Some(module),
            SessionHello::Reconnect { .. } | SessionHello::Migrate { .. } => None,
        }
    }

    /// The session token carried by this handshake, if any.
    pub fn session(&self) -> Option<u64> {
        match self {
            SessionHello::Fresh { .. } => None,
            SessionHello::Resumable { session, .. }
            | SessionHello::Reconnect { session }
            | SessionHello::Migrate { session, .. } => Some(*session),
        }
    }
}

/// Write the server's 4-byte reply to a handshake (`0` = accepted/resumed).
pub fn write_hello_reply<W: Write>(w: &mut W, result: &CudaResult<()>) -> io::Result<()> {
    put_u32(w, rcuda_core::error::result_code(result))
}

/// Read the server's 4-byte reply to a handshake.
pub fn read_hello_reply<R: Read>(r: &mut R) -> io::Result<CudaResult<()>> {
    Ok(CudaError::from_code(get_u32(r)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn round_trip(h: &SessionHello) -> SessionHello {
        let mut buf = Vec::new();
        h.write(&mut buf).unwrap();
        assert_eq!(buf.len() as u64, h.wire_bytes(), "{h:?}");
        SessionHello::read(&mut Cursor::new(&buf)).unwrap()
    }

    #[test]
    fn all_three_forms_round_trip() {
        for h in [
            SessionHello::Fresh {
                module: vec![1, 2, 3],
            },
            SessionHello::Resumable {
                session: 0xAB_CDEF,
                module: vec![9; 64],
            },
            SessionHello::Reconnect {
                session: u64::MAX - 7,
            },
            SessionHello::Migrate {
                session: 0xFEED,
                snapshot: vec![0xAB; 100],
            },
        ] {
            assert_eq!(round_trip(&h), h);
        }
    }

    #[test]
    fn fresh_form_is_bitwise_the_paper_init() {
        // The paper's positional init (len + blob) must read back as Fresh:
        // legacy clients keep working against a handshake-aware server.
        let mut buf = Vec::new();
        put_u32(&mut buf, 3).unwrap();
        buf.extend_from_slice(&[7, 8, 9]);
        assert_eq!(
            SessionHello::read(&mut Cursor::new(&buf)).unwrap(),
            SessionHello::Fresh {
                module: vec![7, 8, 9]
            }
        );
    }

    #[test]
    fn selectors_cannot_be_module_lengths() {
        // Hello/Reconnect/Busy occupy the top of the u32 range, where a
        // module length is physically impossible (a 4 GiB module).
        assert!(FunctionId::Hello.as_u32() > u32::MAX - 6);
        assert!(FunctionId::Reconnect.as_u32() > u32::MAX - 6);
        assert!(FunctionId::Busy.as_u32() > u32::MAX - 6);
        assert!(FunctionId::Migrate.as_u32() > u32::MAX - 6);
        assert!(FunctionId::Codec.as_u32() > u32::MAX - 6);
    }

    #[test]
    fn server_hello_round_trips_both_forms() {
        for h in [
            ServerHello::Ready { major: 1, minor: 3 },
            ServerHello::Ready { major: 9, minor: 0 },
            ServerHello::Busy {
                retry_after_ms: 250,
            },
            ServerHello::Busy { retry_after_ms: 0 },
        ] {
            let mut buf = Vec::new();
            h.write(&mut buf).unwrap();
            assert_eq!(buf.len(), ServerHello::WIRE_BYTES);
            assert_eq!(ServerHello::read(&mut Cursor::new(&buf)).unwrap(), h);
        }
    }

    #[test]
    fn server_hello_ready_is_bitwise_the_legacy_cc_push() {
        // The admitted form must be byte-identical to the raw (major, minor)
        // LE pair the server has always pushed: legacy clients parse it
        // positionally without knowing ServerHello exists.
        let wire = ServerHello::Ready { major: 1, minor: 3 }.to_wire();
        let mut legacy = Vec::new();
        legacy.extend_from_slice(&1u32.to_le_bytes());
        legacy.extend_from_slice(&3u32.to_le_bytes());
        assert_eq!(&wire[..], &legacy[..]);
    }

    #[test]
    fn busy_selector_is_an_impossible_capability_major() {
        // A legacy client decoding a Busy frame positionally sees a
        // nonsense capability, not a crash; a ServerHello-aware client
        // distinguishes the forms by the first word alone.
        let wire = ServerHello::Busy { retry_after_ms: 7 }.to_wire();
        let first = u32::from_le_bytes(wire[..4].try_into().unwrap());
        assert_eq!(first, FunctionId::Busy.as_u32());
        assert!(first > 100, "no real device has this capability major");
        assert_eq!(
            ServerHello::from_wire(wire),
            ServerHello::Busy { retry_after_ms: 7 }
        );
    }

    #[test]
    fn accessors_expose_module_and_session() {
        let h = SessionHello::Resumable {
            session: 42,
            module: vec![1],
        };
        assert_eq!(h.module(), Some(&[1u8][..]));
        assert_eq!(h.session(), Some(42));
        assert_eq!(
            SessionHello::Reconnect { session: 1 }.module(),
            None,
            "reconnect ships no module"
        );
        assert_eq!(SessionHello::Fresh { module: vec![] }.session(), None);
    }

    #[test]
    fn reply_round_trips_success_and_rejection() {
        for r in [Ok(()), Err(CudaError::InitializationError)] {
            let mut buf = Vec::new();
            write_hello_reply(&mut buf, &r).unwrap();
            assert_eq!(buf.len(), 4);
            assert_eq!(read_hello_reply(&mut Cursor::new(&buf)).unwrap(), r);
        }
    }

    #[test]
    fn truncated_handshake_is_an_error_not_a_panic() {
        // A Reconnect selector followed by nothing.
        let mut buf = Vec::new();
        put_u32(&mut buf, FunctionId::Reconnect.as_u32()).unwrap();
        assert!(SessionHello::read(&mut Cursor::new(&buf)).is_err());
    }
}
