//! [`Wire`]: little-endian binary encode/decode for message bodies.
//!
//! Follows the conventions of `dasc-serve`'s model-artifact codec:
//! every integer little-endian, every sequence prefixed by an explicit
//! length, every length capped before allocation, and a decode is only
//! valid if it consumes the payload exactly (no trailing bytes). Unlike
//! the artifact codec this one works on in-memory buffers — frames are
//! read whole off the socket by [`crate::frame`], so decoding never
//! touches I/O.

use std::fmt;

/// Cap on a single string/byte field (1 MiB).
const MAX_STR_LEN: u32 = 1 << 20;
/// Cap on a single sequence's element count (64 Mi elements).
const MAX_SEQ_LEN: u32 = 1 << 26;
/// Cap on a single blob field (64 MiB) — bulk data transfers such as
/// dataset-shard replies, which legitimately exceed [`MAX_STR_LEN`].
const MAX_BLOB_LEN: u32 = 1 << 26;

/// Decode failures. All are terminal for the message — the transport
/// layer discards the frame and reports a protocol error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of payload mid-field.
    Truncated,
    /// Payload bytes left over after the message decoded.
    Trailing(usize),
    /// A length prefix exceeded its cap.
    TooLong(u32),
    /// A field held an out-of-domain value (bad enum tag, bad bool,
    /// invalid UTF-8, …).
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after message"),
            WireError::TooLong(n) => write!(f, "length {n} exceeds cap"),
            WireError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Growable little-endian output buffer.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` travels as u64 so 32- and 64-bit peers agree.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        assert!(s.len() as u64 <= u64::from(MAX_STR_LEN), "string too long");
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Length-prefixed bulk payload, capped at 64 MiB instead of the
    /// 1 MiB field cap (shard bytes and similar data-plane transfers).
    pub fn put_blob(&mut self, b: &[u8]) {
        assert!(b.len() as u64 <= u64::from(MAX_BLOB_LEN), "blob too long");
        self.put_u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }
}

/// Slice cursor over a payload; every read is bounds-checked.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Start reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// `usize` travels as u64; rejects values the host can't represent.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::Invalid("usize overflow"))
    }

    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("bool")),
        }
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()?;
        if len > MAX_STR_LEN {
            return Err(WireError::TooLong(len));
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid("utf-8"))
    }

    /// Length-prefixed bulk payload (64 MiB cap; see
    /// [`WireWriter::put_blob`]).
    pub fn blob(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u32()?;
        if len > MAX_BLOB_LEN {
            return Err(WireError::TooLong(len));
        }
        Ok(self.take(len as usize)?.to_vec())
    }

    /// Sequence length prefix, validated against the element cap.
    pub fn seq_len(&mut self) -> Result<usize, WireError> {
        let len = self.u32()?;
        if len > MAX_SEQ_LEN {
            return Err(WireError::TooLong(len));
        }
        Ok(len as usize)
    }

    /// Fail unless the payload was consumed exactly.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Trailing(self.remaining()))
        }
    }
}

/// A type with a canonical binary wire form.
pub trait Wire: Sized {
    /// Append this value's encoding to `w`.
    fn encode(&self, w: &mut WireWriter);
    /// Decode one value, advancing `r` past exactly its bytes.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

/// Encode a value into a fresh payload buffer.
pub fn encode_to_vec<T: Wire>(value: &T) -> Vec<u8> {
    let mut w = WireWriter::new();
    value.encode(&mut w);
    w.into_vec()
}

/// Decode a value from a full payload, rejecting trailing bytes.
pub fn decode_from_slice<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

macro_rules! impl_wire_scalar {
    ($($ty:ty => $put:ident / $get:ident),* $(,)?) => {$(
        impl Wire for $ty {
            fn encode(&self, w: &mut WireWriter) {
                w.$put(*self);
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                r.$get()
            }
        }
    )*};
}

impl_wire_scalar! {
    u8 => put_u8 / u8,
    u16 => put_u16 / u16,
    u32 => put_u32 / u32,
    u64 => put_u64 / u64,
    usize => put_usize / usize,
    f64 => put_f64 / f64,
    bool => put_bool / bool,
}

impl Wire for String {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.str()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        assert!(
            self.len() as u64 <= u64::from(MAX_SEQ_LEN),
            "sequence too long"
        );
        w.put_u32(self.len() as u32);
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.seq_len()?;
        // Reserve against what could actually be present, not the
        // declared length — a lying prefix must not allocate 64 Mi slots
        // before Truncated surfaces.
        let mut out = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        assert_eq!(decode_from_slice::<T>(&bytes).expect("decode"), v);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xbeefu16);
        roundtrip(0xdead_beefu32);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(-0.0f64);
        roundtrip(f64::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(String::from("héllo wörld"));
        roundtrip(String::new());
    }

    #[test]
    fn nested_sequences_roundtrip() {
        roundtrip(vec![vec![1u32, 2, 3], vec![], vec![9]]);
        roundtrip(vec![(1usize, String::from("a")), (2, String::from("b"))]);
        roundtrip(vec![(1u64, 2usize, vec![0.5f64, -1.0])]);
    }

    #[test]
    fn nan_payload_survives_bitwise() {
        let bytes = encode_to_vec(&f64::NAN);
        let back: f64 = decode_from_slice(&bytes).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_to_vec(&7u32);
        bytes.push(0);
        assert_eq!(
            decode_from_slice::<u32>(&bytes),
            Err(WireError::Trailing(1))
        );
    }

    #[test]
    fn truncation_rejected_at_every_cut() {
        let bytes = encode_to_vec(&vec![(1u64, String::from("abc")), (2, String::from("d"))]);
        for cut in 0..bytes.len() {
            let err = decode_from_slice::<Vec<(u64, String)>>(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated),
                "cut={cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn lying_length_prefix_does_not_overallocate() {
        // Sequence claiming u32::MAX-ish elements with a 4-byte body.
        let mut bytes = (MAX_SEQ_LEN).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2, 3, 4]);
        let err = decode_from_slice::<Vec<u64>>(&bytes).unwrap_err();
        assert_eq!(err, WireError::Truncated);

        let bytes = (MAX_SEQ_LEN + 1).to_le_bytes().to_vec();
        let err = decode_from_slice::<Vec<u64>>(&bytes).unwrap_err();
        assert_eq!(err, WireError::TooLong(MAX_SEQ_LEN + 1));
    }

    #[test]
    fn blobs_roundtrip_past_the_field_cap() {
        // Larger than MAX_STR_LEN, so put_str would assert — the blob
        // codec is the only legal path for payloads this size.
        let payload = vec![0xA5u8; (MAX_STR_LEN as usize) + 17];
        let mut w = WireWriter::new();
        w.put_blob(&payload);
        let bytes = w.into_vec();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.blob().expect("blob"), payload);
        r.finish().expect("consumed exactly");
    }

    #[test]
    fn blob_cap_and_truncation_enforced() {
        let mut bytes = (MAX_BLOB_LEN + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 4]);
        assert_eq!(
            WireReader::new(&bytes).blob(),
            Err(WireError::TooLong(MAX_BLOB_LEN + 1))
        );

        let mut w = WireWriter::new();
        w.put_blob(&[1, 2, 3, 4, 5]);
        let bytes = w.into_vec();
        for cut in 0..bytes.len() {
            assert_eq!(
                WireReader::new(&bytes[..cut]).blob(),
                Err(WireError::Truncated),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn bad_bool_and_bad_utf8_rejected() {
        assert_eq!(
            decode_from_slice::<bool>(&[2]),
            Err(WireError::Invalid("bool"))
        );
        let mut bytes = 2u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(
            decode_from_slice::<String>(&bytes),
            Err(WireError::Invalid("utf-8"))
        );
    }
}
