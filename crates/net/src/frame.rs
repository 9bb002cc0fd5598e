//! The on-wire frame: header + opaque payload.
//!
//! Layout (all integers little-endian):
//!
//! | offset | size | field       | value                                |
//! |--------|------|-------------|--------------------------------------|
//! | 0      | 4    | magic       | `b"DNET"`                            |
//! | 4      | 2    | version     | [`VERSION`] (currently 2)            |
//! | 6      | 2    | msg_type    | message discriminant (protocol layer)|
//! | 8      | 4    | payload_len | bytes of payload that follow         |
//! | 12     | 8    | checksum    | FNV-1a-64 of the payload             |
//! | 20     | n    | payload     | opaque bytes ([`crate::wire`] body)  |
//!
//! The checksum guards against torn writes and transport corruption,
//! not adversaries. A reader positioned at a frame boundary that sees
//! EOF reports [`FrameError::Closed`] (clean hangup); EOF anywhere
//! inside a frame is [`FrameError::Truncated`].

use std::fmt;
use std::io::{self, Read, Write};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"DNET";
/// Protocol version stamped into every header; decoders reject skew.
pub const VERSION: u16 = 2;
/// Header size in bytes (magic + version + msg_type + len + checksum).
pub const HEADER_LEN: usize = 20;
/// Maximum accepted payload length (256 MiB) — a cap against corrupted
/// or hostile length fields allocating unbounded memory.
pub const MAX_FRAME_LEN: u32 = 1 << 28;

/// One decoded frame: message discriminant plus payload bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Message discriminant, interpreted by the protocol layer.
    pub msg_type: u16,
    /// Opaque payload (typically a [`crate::wire`]-encoded body).
    pub payload: Vec<u8>,
}

/// Everything that can go wrong reading a frame off a stream.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying transport error (includes read timeouts, which
    /// surface as `WouldBlock`/`TimedOut` io errors).
    Io(io::Error),
    /// Clean EOF at a frame boundary: the peer hung up between frames.
    Closed,
    /// EOF in the middle of a header or payload.
    Truncated,
    /// First four bytes were not [`MAGIC`].
    BadMagic,
    /// Header carried this version instead of [`VERSION`].
    BadVersion(u16),
    /// Header declared this payload length, above [`MAX_FRAME_LEN`].
    TooLarge(u32),
    /// Payload arrived but its FNV-1a checksum did not match.
    BadChecksum,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::TooLarge(n) => write!(f, "frame payload of {n} bytes exceeds cap"),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl FrameError {
    /// True when the error is a read timeout rather than a dead peer —
    /// callers in idle-poll loops retry on this.
    pub fn is_timeout(&self) -> bool {
        matches!(self, FrameError::Io(e)
            if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut)
    }
}

/// FNV-1a 64-bit over `bytes` — the same hash family the shuffle
/// partitioner uses; cheap, dependency-free, good torn-write detection.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encode a frame into a fresh buffer (header + payload).
pub fn encode_frame(msg_type: u16, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&msg_type.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Write one frame; returns the bytes put on the wire. Bumps the
/// `dasc_net_frames_sent_total` / `dasc_net_bytes_sent_total` counters.
pub fn write_frame(w: &mut impl Write, msg_type: u16, payload: &[u8]) -> io::Result<usize> {
    assert!(
        payload.len() as u64 <= u64::from(MAX_FRAME_LEN),
        "frame payload exceeds MAX_FRAME_LEN"
    );
    let buf = encode_frame(msg_type, payload);
    w.write_all(&buf)?;
    w.flush()?;
    let reg = dasc_obs::global();
    reg.inc("dasc_net_frames_sent_total", 1);
    reg.inc("dasc_net_bytes_sent_total", buf.len() as u64);
    Ok(buf.len())
}

/// Read one frame. Distinguishes a clean hangup at a frame boundary
/// ([`FrameError::Closed`]) from mid-frame truncation by probing the
/// first header byte separately. Decode failures bump
/// `dasc_net_decode_errors_total`.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let result = read_frame_inner(r);
    let reg = dasc_obs::global();
    match &result {
        Ok(f) => {
            reg.inc("dasc_net_frames_received_total", 1);
            reg.inc(
                "dasc_net_bytes_received_total",
                (HEADER_LEN + f.payload.len()) as u64,
            );
        }
        Err(FrameError::Closed) | Err(FrameError::Io(_)) => {}
        Err(_) => reg.inc("dasc_net_decode_errors_total", 1),
    }
    result
}

fn read_frame_inner(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    // Probe the first byte on its own: EOF here is a clean hangup, EOF
    // after it is a torn frame.
    loop {
        match r.read(&mut header[..1]) {
            Ok(0) => return Err(FrameError::Closed),
            Ok(1) => break,
            Ok(_) => unreachable!("read of 1 byte returned more"),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    read_exact_or_truncated(r, &mut header[1..])?;

    if header[..4] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let msg_type = u16::from_le_bytes([header[6], header[7]]);
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(len));
    }
    let checksum = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));

    let mut payload = vec![0u8; len as usize];
    read_exact_or_truncated(r, &mut payload)?;
    if fnv1a64(&payload) != checksum {
        return Err(FrameError::BadChecksum);
    }
    Ok(Frame { msg_type, payload })
}

/// `read_exact` that maps EOF to [`FrameError::Truncated`] — once the
/// first header byte has arrived, anything short is a torn frame.
fn read_exact_or_truncated(r: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameError> {
    match r.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(FrameError::Truncated),
        Err(e) => Err(FrameError::Io(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_basic() {
        let bytes = encode_frame(7, b"hello");
        let f = read_frame(&mut Cursor::new(&bytes)).expect("decode");
        assert_eq!(f.msg_type, 7);
        assert_eq!(f.payload, b"hello");
    }

    #[test]
    fn roundtrip_empty_payload() {
        let bytes = encode_frame(0, b"");
        let f = read_frame(&mut Cursor::new(&bytes)).expect("decode");
        assert_eq!(f.msg_type, 0);
        assert!(f.payload.is_empty());
    }

    #[test]
    fn eof_at_boundary_is_closed() {
        let empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut Cursor::new(empty)),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn eof_mid_header_is_truncated() {
        let bytes = encode_frame(3, b"abc");
        for cut in 1..HEADER_LEN {
            let err = read_frame(&mut Cursor::new(&bytes[..cut])).unwrap_err();
            assert!(matches!(err, FrameError::Truncated), "cut={cut}: {err}");
        }
    }

    #[test]
    fn eof_mid_payload_is_truncated() {
        let bytes = encode_frame(3, b"abcdef");
        for cut in HEADER_LEN..bytes.len() {
            let err = read_frame(&mut Cursor::new(&bytes[..cut])).unwrap_err();
            assert!(matches!(err, FrameError::Truncated), "cut={cut}: {err}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_frame(3, b"abc");
        bytes[0] = b'X';
        assert!(matches!(
            read_frame(&mut Cursor::new(&bytes)),
            Err(FrameError::BadMagic)
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = encode_frame(3, b"abc");
        bytes[4] = 9;
        assert!(matches!(
            read_frame(&mut Cursor::new(&bytes)),
            Err(FrameError::BadVersion(9))
        ));
    }

    #[test]
    fn oversized_length_rejected_without_allocating() {
        let mut bytes = encode_frame(3, b"");
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(&bytes)),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut bytes = encode_frame(3, b"abcdef");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(matches!(
            read_frame(&mut Cursor::new(&bytes)),
            Err(FrameError::BadChecksum)
        ));
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn back_to_back_frames_stream() {
        let mut bytes = encode_frame(1, b"one");
        bytes.extend_from_slice(&encode_frame(2, b"two"));
        let mut cur = Cursor::new(&bytes);
        assert_eq!(read_frame(&mut cur).unwrap().payload, b"one");
        assert_eq!(read_frame(&mut cur).unwrap().payload, b"two");
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Closed)));
    }
}
