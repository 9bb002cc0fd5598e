//! Binary layout of the `.dstr` dataset store.
//!
//! A store is a *directory* holding one manifest plus fixed-size
//! shards (HDFS-block style — the unit of distribution, caching, and
//! checksumming):
//!
//! ```text
//! data.dstr/
//!   manifest.dstr          DSTR | ver u16 | flags u16 | n u64 | d u64
//!                          | shard_rows u64 | num_shards u32
//!                          | num_shards × (rows u64, byte_len u64, checksum u64)
//!                          | content_hash u64            (FNV-1a-64 of all prior bytes)
//!   shard-00000.dsh        DSHD | ver u16 | flags u16 | index u32 | rows u32
//!                          | d u64 | zero padding to 64 B
//!                          | rows×d f64 LE payload
//!                          | rows × u64 LE labels        (iff flags bit 0)
//!                          | checksum u64                (FNV-1a-64 of header+payload+labels)
//! ```
//!
//! All integers and floats are little-endian. The 64-byte shard header
//! keeps the f64 payload 8-byte aligned relative to the file start, so
//! an mmap'd shard (page-aligned base) can expose the payload as a
//! borrowed `&[f64]` with no copy. The manifest's per-shard checksum
//! equals the shard's own trailer, so a shard fetched over the network
//! is verifiable against the manifest alone; the content hash covers
//! the manifest bytes — and through the embedded checksums,
//! transitively, every data byte in the store.

use crate::error::StoreError;

/// Magic bytes opening the manifest file.
pub const MANIFEST_MAGIC: [u8; 4] = *b"DSTR";
/// Magic bytes opening each shard file.
pub const SHARD_MAGIC: [u8; 4] = *b"DSHD";
/// Current (only) format version.
pub const FORMAT_VERSION: u16 = 1;
/// Flags bit 0: shards carry a per-row label column.
pub const FLAG_LABELS: u16 = 1;
/// Fixed shard header length; a multiple of 8 so the payload stays
/// f64-aligned in a page-aligned mapping.
pub const SHARD_HEADER_LEN: usize = 64;
/// Manifest file name inside the store directory.
pub const MANIFEST_FILE: &str = "manifest.dstr";
/// Default rows per shard when the packer isn't told otherwise.
pub const DEFAULT_SHARD_ROWS: usize = 4096;

/// FNV-1a 64-bit — same parameters as `dasc-net`'s frame checksum
/// (reimplemented here so the store stays independent of the
/// transport crate).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// File name of shard `index` inside the store directory.
pub fn shard_file_name(index: u32) -> String {
    format!("shard-{index:05}.dsh")
}

/// Manifest entry for one shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMeta {
    /// Rows stored in this shard.
    pub rows: u64,
    /// Total shard file length in bytes (header + payload + labels +
    /// trailing checksum).
    pub byte_len: u64,
    /// FNV-1a-64 over the shard file minus its 8-byte trailer; equal
    /// to the trailer itself.
    pub checksum: u64,
}

/// Decoded manifest: the complete shape of a stored dataset plus the
/// shard table. This is what the coordinator ships to workers instead
/// of inline points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DatasetManifest {
    /// FNV-1a-64 over the manifest bytes preceding the hash field —
    /// the dataset's identity for cache keying and ref submission.
    pub content_hash: u64,
    /// Total number of points.
    pub n: u64,
    /// Dimension of each point.
    pub dim: u64,
    /// Whether shards carry a label column.
    pub has_labels: bool,
    /// Nominal rows per shard (every shard but the last holds exactly
    /// this many).
    pub shard_rows: u64,
    /// Per-shard table, in shard order.
    pub shards: Vec<ShardMeta>,
}

impl DatasetManifest {
    /// `(shard index, row within shard)` of global row `i`.
    ///
    /// # Panics
    /// Panics if the store is empty (`shard_rows == 0`).
    #[inline]
    pub fn locate(&self, i: usize) -> (usize, usize) {
        let sr = self.shard_rows as usize;
        (i / sr, i % sr)
    }
}

/// Total file length of a shard holding `rows` rows of dimension `dim`.
pub fn shard_byte_len(rows: u64, dim: u64, has_labels: bool) -> u64 {
    let labels = if has_labels { rows * 8 } else { 0 };
    SHARD_HEADER_LEN as u64 + rows * dim * 8 + labels + 8
}

fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian reader over a byte slice; every read
/// past the end is [`StoreError::Truncated`], never a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).ok_or(StoreError::Truncated)?;
        if end > self.buf.len() {
            return Err(StoreError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Encode a manifest; returns the file bytes and the content hash.
pub fn encode_manifest(
    n: u64,
    dim: u64,
    has_labels: bool,
    shard_rows: u64,
    shards: &[ShardMeta],
) -> (Vec<u8>, u64) {
    let mut out = Vec::with_capacity(40 + shards.len() * 24);
    out.extend_from_slice(&MANIFEST_MAGIC);
    push_u16(&mut out, FORMAT_VERSION);
    push_u16(&mut out, if has_labels { FLAG_LABELS } else { 0 });
    push_u64(&mut out, n);
    push_u64(&mut out, dim);
    push_u64(&mut out, shard_rows);
    push_u32(&mut out, shards.len() as u32);
    for s in shards {
        push_u64(&mut out, s.rows);
        push_u64(&mut out, s.byte_len);
        push_u64(&mut out, s.checksum);
    }
    let hash = fnv1a64(&out);
    push_u64(&mut out, hash);
    (out, hash)
}

/// Decode and validate a manifest file: magic, version, content hash,
/// and internal shape consistency (row totals, shard sizing, byte
/// lengths).
pub fn decode_manifest(bytes: &[u8]) -> Result<DatasetManifest, StoreError> {
    let mut c = Cursor::new(bytes);
    if c.take(4)? != MANIFEST_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = c.u16()?;
    if version != FORMAT_VERSION {
        return Err(StoreError::BadVersion(version));
    }
    let flags = c.u16()?;
    let has_labels = flags & FLAG_LABELS != 0;
    let n = c.u64()?;
    let dim = c.u64()?;
    let shard_rows = c.u64()?;
    let num_shards = c.u32()? as usize;
    // Guard the allocation before trusting the count: each entry needs
    // 24 bytes of body, so an absurd count on a short file is Truncated.
    if num_shards > bytes.len() / 24 + 1 {
        return Err(StoreError::Truncated);
    }
    let mut shards = Vec::with_capacity(num_shards);
    for _ in 0..num_shards {
        shards.push(ShardMeta {
            rows: c.u64()?,
            byte_len: c.u64()?,
            checksum: c.u64()?,
        });
    }
    let hashed_len = c.pos;
    let content_hash = c.u64()?;
    if c.pos != bytes.len() {
        return Err(StoreError::Shape("trailing bytes after manifest"));
    }
    if fnv1a64(&bytes[..hashed_len]) != content_hash {
        return Err(StoreError::ChecksumMismatch { shard: None });
    }

    if n > 0 && shard_rows == 0 {
        return Err(StoreError::Shape("zero shard_rows with data"));
    }
    let total: u64 = shards.iter().map(|s| s.rows).sum();
    if total != n {
        return Err(StoreError::Shape("shard rows do not sum to n"));
    }
    for (i, s) in shards.iter().enumerate() {
        let last = i + 1 == shards.len();
        if s.rows == 0 || s.rows > shard_rows || (!last && s.rows != shard_rows) {
            return Err(StoreError::Shape("shard row count out of range"));
        }
        if s.byte_len != shard_byte_len(s.rows, dim, has_labels) {
            return Err(StoreError::Shape("shard byte length inconsistent"));
        }
    }

    Ok(DatasetManifest {
        content_hash,
        n,
        dim,
        has_labels,
        shard_rows,
        shards,
    })
}

/// Encode one shard file; returns the file bytes and its manifest
/// entry.
///
/// # Panics
/// Panics if the buffer shapes disagree with `rows`/`dim` (writer
/// bug, not a data error).
pub fn encode_shard(
    index: u32,
    dim: u64,
    points: &[f64],
    labels: Option<&[usize]>,
) -> (Vec<u8>, ShardMeta) {
    let rows = if dim == 0 {
        0
    } else {
        assert_eq!(points.len() as u64 % dim, 0, "shard payload shape");
        points.len() as u64 / dim
    };
    if let Some(ls) = labels {
        assert_eq!(ls.len() as u64, rows, "shard label count");
    }
    let byte_len = shard_byte_len(rows, dim, labels.is_some());
    let mut out = Vec::with_capacity(byte_len as usize);
    out.extend_from_slice(&SHARD_MAGIC);
    push_u16(&mut out, FORMAT_VERSION);
    push_u16(&mut out, if labels.is_some() { FLAG_LABELS } else { 0 });
    push_u32(&mut out, index);
    push_u32(&mut out, rows as u32);
    push_u64(&mut out, dim);
    out.resize(SHARD_HEADER_LEN, 0);
    for &v in points {
        push_u64(&mut out, v.to_bits());
    }
    if let Some(ls) = labels {
        for &l in ls {
            push_u64(&mut out, l as u64);
        }
    }
    let checksum = fnv1a64(&out);
    push_u64(&mut out, checksum);
    (
        out,
        ShardMeta {
            rows,
            byte_len,
            checksum,
        },
    )
}

/// Validate a raw shard file against its manifest entry: length,
/// magic/version, header fields, and the FNV trailer. Returns the
/// payload offset (always [`SHARD_HEADER_LEN`]) on success.
pub fn validate_shard(
    bytes: &[u8],
    index: u32,
    dim: u64,
    has_labels: bool,
    expected: &ShardMeta,
) -> Result<(), StoreError> {
    if (bytes.len() as u64) < expected.byte_len {
        return Err(StoreError::Truncated);
    }
    if bytes.len() as u64 != expected.byte_len {
        return Err(StoreError::Shape("shard file longer than manifest entry"));
    }
    let body = &bytes[..bytes.len() - 8];
    let trailer = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    if trailer != expected.checksum || fnv1a64(body) != trailer {
        return Err(StoreError::ChecksumMismatch { shard: Some(index) });
    }
    let mut c = Cursor::new(body);
    if c.take(4)? != SHARD_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = c.u16()?;
    if version != FORMAT_VERSION {
        return Err(StoreError::BadVersion(version));
    }
    let flags = c.u16()?;
    if (flags & FLAG_LABELS != 0) != has_labels {
        return Err(StoreError::Shape(
            "shard label flag disagrees with manifest",
        ));
    }
    if c.u32()? != index {
        return Err(StoreError::Shape("shard index disagrees with file name"));
    }
    if u64::from(c.u32()?) != expected.rows {
        return Err(StoreError::Shape("shard row count disagrees with manifest"));
    }
    if c.u64()? != dim {
        return Err(StoreError::Shape("shard dimension disagrees with manifest"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a-64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn manifest_roundtrip() {
        let shards = vec![
            ShardMeta {
                rows: 4,
                byte_len: shard_byte_len(4, 3, true),
                checksum: 7,
            },
            ShardMeta {
                rows: 2,
                byte_len: shard_byte_len(2, 3, true),
                checksum: 9,
            },
        ];
        let (bytes, hash) = encode_manifest(6, 3, true, 4, &shards);
        let m = decode_manifest(&bytes).expect("decode");
        assert_eq!(m.content_hash, hash);
        assert_eq!(m.n, 6);
        assert_eq!(m.dim, 3);
        assert!(m.has_labels);
        assert_eq!(m.shard_rows, 4);
        assert_eq!(m.shards, shards);
        assert_eq!(m.locate(5), (1, 1));
    }

    #[test]
    fn manifest_truncation_at_every_offset_errors() {
        let shards = vec![ShardMeta {
            rows: 2,
            byte_len: shard_byte_len(2, 2, false),
            checksum: 1,
        }];
        let (bytes, _) = encode_manifest(2, 2, false, 2, &shards);
        for cut in 0..bytes.len() {
            let err = decode_manifest(&bytes[..cut]).expect_err("truncated must fail");
            assert!(
                matches!(err, StoreError::Truncated | StoreError::BadMagic),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn manifest_corruption_is_checksum_class() {
        let (mut bytes, _) = encode_manifest(0, 2, false, 4, &[]);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = decode_manifest(&bytes).expect_err("corrupt must fail");
        // Flipping a bit mid-file lands in a length/count field or the
        // hashed region; either way it must be a typed error.
        assert!(
            matches!(
                err,
                StoreError::ChecksumMismatch { shard: None }
                    | StoreError::Truncated
                    | StoreError::Shape(_)
                    | StoreError::BadVersion(_)
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn shard_roundtrip_and_validate() {
        let pts = [1.0, 2.0, 3.0, 4.0];
        let labels = [5usize, 6];
        let (bytes, meta) = encode_shard(3, 2, &pts, Some(&labels));
        assert_eq!(meta.rows, 2);
        assert_eq!(meta.byte_len as usize, bytes.len());
        validate_shard(&bytes, 3, 2, true, &meta).expect("valid shard");
    }

    #[test]
    fn shard_bitflip_is_checksum_mismatch() {
        let (mut bytes, meta) = encode_shard(0, 2, &[1.0, 2.0], None);
        // Flip one payload bit (first f64, past the 64-byte header).
        bytes[SHARD_HEADER_LEN] ^= 1;
        assert_eq!(
            validate_shard(&bytes, 0, 2, false, &meta),
            Err(StoreError::ChecksumMismatch { shard: Some(0) })
        );
    }

    #[test]
    fn shard_truncation_at_every_offset_errors() {
        let (bytes, meta) = encode_shard(1, 1, &[9.0, 8.0], None);
        for cut in 0..bytes.len() {
            let err = validate_shard(&bytes[..cut], 1, 1, false, &meta)
                .expect_err("truncated shard must fail");
            assert_eq!(err, StoreError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn wrong_index_and_flags_are_shape_errors() {
        let (bytes, meta) = encode_shard(2, 1, &[1.0], None);
        assert!(matches!(
            validate_shard(&bytes, 3, 1, false, &meta),
            Err(StoreError::ChecksumMismatch { .. }) | Err(StoreError::Shape(_))
        ));
        assert!(matches!(
            validate_shard(&bytes, 2, 1, true, &meta),
            Err(StoreError::Shape(_))
        ));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn shard_and_manifest_match_golden_bytes() {
        // Shard 1: two labeled rows of dimension 2.
        let (shard, meta) = encode_shard(1, 2, &[1.0, -0.5, 0.25, 2.0], Some(&[3, 0]));
        let header = format!(
            "44534844 0100 0100 01000000 02000000 0200000000000000 {}",
            "00".repeat(SHARD_HEADER_LEN - 24)
        );
        let body = "000000000000f03f 000000000000e0bf 000000000000d03f 0000000000000040 \
                    0300000000000000 0000000000000000 9393f37eb724ab0d";
        assert_eq!(hex(&shard), format!("{header}{body}").replace(' ', ""));
        let first = ShardMeta {
            rows: 2,
            byte_len: shard_byte_len(2, 2, true),
            checksum: 0x0102_0304_0506_0708,
        };
        let (manifest, hash) = encode_manifest(4, 2, true, 2, &[first, meta]);
        let want = "44535452 0100 0100 0400000000000000 0200000000000000 \
                    0200000000000000 02000000 \
                    0200000000000000 7800000000000000 0807060504030201 \
                    0200000000000000 7800000000000000 9393f37eb724ab0d \
                    d8253080f31beb94";
        assert_eq!(hex(&manifest), want.replace(' ', ""));
        assert_eq!(hash, 0x94eb_1bf3_8030_25d8);
    }
}
