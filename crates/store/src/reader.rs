//! Zero-copy store reader.
//!
//! [`StoreReader`] opens a `.dstr` directory by validating the
//! manifest, then loads shards lazily on first touch — each shard is
//! mmap'd (buffered-read fallback), checksum-verified once, and cached
//! in an `Arc` for the reader's lifetime. On little-endian targets
//! with an 8-aligned payload (always true for a page-aligned mapping,
//! since the shard header is 64 bytes) the f64 payload is exposed as a
//! borrowed [`FlatPointsView`] straight over the mapping — no
//! `Vec<Vec<f64>>` round-trip, no copy. Otherwise the payload decodes
//! once into an owned buffer and the same view type points there.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use dasc_linalg::{FlatPointsView, PointsView};

use crate::error::StoreError;
use crate::format::{
    shard_file_name, validate_shard, DatasetManifest, ShardMeta, MANIFEST_FILE, SHARD_HEADER_LEN,
};
use crate::mmap::{read_file, FileBytes, ReadMode};

/// One loaded, checksum-verified shard.
#[derive(Debug)]
pub struct Shard {
    bytes: FileBytes,
    /// Owned f64 payload when zero-copy is unavailable (big-endian
    /// target or a misaligned owned buffer).
    decoded: Option<Vec<f64>>,
    labels: Option<Vec<usize>>,
    rows: usize,
    dim: usize,
}

impl Shard {
    /// Validate raw shard-file bytes against the manifest entry and
    /// wrap them. This is the single entry point for disk loads *and*
    /// network fetches — both paths get the same verification.
    pub fn from_bytes(
        bytes: FileBytes,
        index: u32,
        dim: u64,
        has_labels: bool,
        expected: &ShardMeta,
    ) -> Result<Self, StoreError> {
        validate_shard(&bytes, index, dim, has_labels, expected)?;
        let rows = expected.rows as usize;
        let d = dim as usize;
        let payload = &bytes[SHARD_HEADER_LEN..SHARD_HEADER_LEN + rows * d * 8];
        let zero_copy =
            cfg!(target_endian = "little") && (payload.as_ptr() as usize).is_multiple_of(8);
        let decoded = if zero_copy {
            None
        } else {
            Some(
                payload
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            )
        };
        let labels = has_labels.then(|| {
            bytes[SHARD_HEADER_LEN + rows * d * 8..]
                .chunks_exact(8)
                .take(rows)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()) as usize)
                .collect()
        });
        Ok(Self {
            bytes,
            decoded,
            labels,
            rows,
            dim: d,
        })
    }

    /// Rows in this shard.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Point dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether the points are served straight from the file bytes
    /// (observability/tests — false on the decode fallback).
    pub fn is_zero_copy(&self) -> bool {
        self.decoded.is_none()
    }

    /// The shard's points as a borrowed flat view.
    #[inline]
    pub fn points(&self) -> FlatPointsView<'_> {
        if let Some(v) = &self.decoded {
            return FlatPointsView::new(v, self.dim, self.rows);
        }
        let payload = &self.bytes[SHARD_HEADER_LEN..SHARD_HEADER_LEN + self.rows * self.dim * 8];
        // Alignment and endianness were checked at construction; the
        // backing bytes live as long as `self`.
        let floats = unsafe {
            std::slice::from_raw_parts(payload.as_ptr() as *const f64, self.rows * self.dim)
        };
        FlatPointsView::new(floats, self.dim, self.rows)
    }

    /// Row `r` of this shard.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        self.points().row(r)
    }

    /// Per-row labels, if the store carries them.
    pub fn labels(&self) -> Option<&[usize]> {
        self.labels.as_deref()
    }

    /// Resident cost for cache accounting: file bytes plus any decode
    /// buffers.
    pub fn cost_bytes(&self) -> usize {
        self.bytes.len()
            + self.decoded.as_ref().map_or(0, |v| v.len() * 8)
            + self.labels.as_ref().map_or(0, |v| v.len() * 8)
    }
}

/// Lazily-loading reader over a `.dstr` store directory.
pub struct StoreReader {
    dir: PathBuf,
    mode: ReadMode,
    manifest: DatasetManifest,
    shards: Vec<OnceLock<Arc<Shard>>>,
}

impl StoreReader {
    /// Open and validate the manifest; shards load lazily. Read mode
    /// comes from `DASC_STORE_NO_MMAP`.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        Self::open_with(dir, ReadMode::from_env())
    }

    /// Open with an explicit read mode (tests exercise both paths).
    pub fn open_with(dir: &Path, mode: ReadMode) -> Result<Self, StoreError> {
        let bytes = std::fs::read(dir.join(MANIFEST_FILE))?;
        let manifest = crate::format::decode_manifest(&bytes)?;
        let shards = (0..manifest.shards.len())
            .map(|_| OnceLock::new())
            .collect();
        Ok(Self {
            dir: dir.to_path_buf(),
            mode,
            manifest,
            shards,
        })
    }

    /// The validated manifest.
    pub fn manifest(&self) -> &DatasetManifest {
        &self.manifest
    }

    /// Store directory on disk.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Number of points.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.manifest.n as usize
    }

    /// Point dimension.
    pub fn dim(&self) -> usize {
        self.manifest.dim as usize
    }

    /// Whether the store carries labels.
    pub fn has_labels(&self) -> bool {
        self.manifest.has_labels
    }

    /// Shard `idx`, loading and checksum-verifying it on first touch.
    pub fn shard(&self, idx: usize) -> Result<&Arc<Shard>, StoreError> {
        if let Some(s) = self.shards[idx].get() {
            return Ok(s);
        }
        let meta = self
            .manifest
            .shards
            .get(idx)
            .ok_or(StoreError::Shape("shard index out of range"))?;
        let bytes = read_file(&self.dir.join(shard_file_name(idx as u32)), self.mode)?;
        let shard = Arc::new(Shard::from_bytes(
            bytes,
            idx as u32,
            self.manifest.dim,
            self.manifest.has_labels,
            meta,
        )?);
        // A racing loader may have won; either Arc is equally valid.
        Ok(self.shards[idx].get_or_init(|| shard))
    }

    /// Raw shard-file bytes (for serving `ShardRequest`s — the bytes
    /// a worker needs to rebuild and verify the shard remotely).
    pub fn shard_file_bytes(&self, idx: usize) -> Result<Vec<u8>, StoreError> {
        if idx >= self.manifest.shards.len() {
            return Err(StoreError::Shape("shard index out of range"));
        }
        Ok(std::fs::read(self.dir.join(shard_file_name(idx as u32)))?)
    }

    /// Load and verify every shard. Call once before treating the
    /// reader as infallible (the [`PointsView`] impl panics on a
    /// shard that fails to load).
    pub fn verify_all(&self) -> Result<(), StoreError> {
        for i in 0..self.manifest.shards.len() {
            self.shard(i)?;
        }
        Ok(())
    }

    /// Gather the label column across all shards, if present.
    pub fn labels(&self) -> Result<Option<Vec<usize>>, StoreError> {
        if !self.manifest.has_labels {
            return Ok(None);
        }
        let mut out = Vec::with_capacity(self.len());
        for i in 0..self.manifest.shards.len() {
            out.extend_from_slice(self.shard(i)?.labels().expect("labeled store"));
        }
        Ok(Some(out))
    }
}

impl PointsView for StoreReader {
    #[inline]
    fn len(&self) -> usize {
        StoreReader::len(self)
    }

    #[inline]
    fn dim(&self) -> usize {
        StoreReader::dim(self)
    }

    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        let (s, r) = self.manifest.locate(i);
        let shard = self
            .shard(s)
            .expect("shard load failed (verify_all surfaces this as an Err)");
        shard.row(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FLAG_LABELS;
    use crate::writer::StoreWriter;

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "dasc-store-{}-{tag}-{seq}.dstr",
            std::process::id()
        ))
    }

    fn sample_rows(n: usize, d: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| (0..d).map(|j| (i * d + j) as f64 * 0.5 - 3.0).collect())
            .collect()
    }

    fn pack(dir: &Path, rows: &[Vec<f64>], labels: Option<&[usize]>, shard_rows: usize) {
        let d = rows.first().map_or(0, Vec::len);
        let mut w = StoreWriter::create(dir, d, labels.is_some(), shard_rows).expect("create");
        for (i, r) in rows.iter().enumerate() {
            w.push_row(r, labels.map(|ls| ls[i])).expect("push");
        }
        w.finish().expect("finish");
    }

    #[test]
    fn roundtrip_bit_identical_in_both_read_modes() {
        let rows = sample_rows(10, 3);
        let dir = temp_dir("roundtrip");
        pack(&dir, &rows, None, 4);

        for mode in [ReadMode::Auto, ReadMode::Buffered] {
            let r = StoreReader::open_with(&dir, mode).expect("open");
            assert_eq!(r.len(), 10);
            assert_eq!(r.dim(), 3);
            assert_eq!(r.manifest().shards.len(), 3);
            r.verify_all().expect("verify");
            for (i, row) in rows.iter().enumerate() {
                let got = PointsView::row(&r, i);
                assert_eq!(got.len(), row.len());
                for (a, b) in got.iter().zip(row) {
                    assert_eq!(a.to_bits(), b.to_bits(), "row {i} mode {mode:?}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn labels_roundtrip() {
        let rows = sample_rows(5, 2);
        let labels: Vec<usize> = vec![3, 1, 4, 1, 5];
        let dir = temp_dir("labels");
        pack(&dir, &rows, Some(&labels), 2);

        let r = StoreReader::open(&dir).expect("open");
        assert!(r.has_labels());
        assert_eq!(r.labels().expect("labels"), Some(labels));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mmap_path_is_zero_copy_on_little_endian_unix() {
        let rows = sample_rows(6, 2);
        let dir = temp_dir("zerocopy");
        pack(&dir, &rows, None, 6);
        let r = StoreReader::open_with(&dir, ReadMode::Auto).expect("open");
        let shard = r.shard(0).expect("shard");
        if cfg!(all(unix, target_endian = "little")) {
            assert!(shard.is_zero_copy(), "mmap'd LE shard should not decode");
        }
        assert_eq!(shard.row(3), rows[3].as_slice());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_shard_payload_is_checksum_mismatch() {
        let rows = sample_rows(4, 2);
        let dir = temp_dir("corrupt");
        pack(&dir, &rows, None, 4);

        let shard_path = dir.join(shard_file_name(0));
        let mut bytes = std::fs::read(&shard_path).expect("read shard");
        bytes[SHARD_HEADER_LEN + 3] ^= 0x10;
        std::fs::write(&shard_path, &bytes).expect("rewrite shard");

        let r = StoreReader::open(&dir).expect("open");
        assert_eq!(
            r.shard(0).err(),
            Some(StoreError::ChecksumMismatch { shard: Some(0) })
        );
        assert!(r.verify_all().is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_shard_file_is_truncated_error() {
        let rows = sample_rows(4, 2);
        let dir = temp_dir("trunc");
        pack(&dir, &rows, None, 4);

        let shard_path = dir.join(shard_file_name(0));
        let bytes = std::fs::read(&shard_path).expect("read shard");
        for cut in [
            0,
            1,
            SHARD_HEADER_LEN - 1,
            SHARD_HEADER_LEN,
            bytes.len() - 1,
        ] {
            std::fs::write(&shard_path, &bytes[..cut]).expect("truncate shard");
            let r = StoreReader::open(&dir).expect("open");
            assert_eq!(r.shard(0).err(), Some(StoreError::Truncated), "cut {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_manifest_is_io_error() {
        let dir = temp_dir("nomanifest");
        std::fs::create_dir_all(&dir).expect("mkdir");
        assert!(matches!(StoreReader::open(&dir), Err(StoreError::Io(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_flag_mismatch_with_shard_is_shape_error() {
        // Pack with labels, then doctor the manifest to claim none:
        // the per-shard flag check must refuse the mismatch.
        let rows = sample_rows(3, 2);
        let dir = temp_dir("flagswap");
        pack(&dir, &rows, Some(&[1, 2, 3]), 3);

        let mpath = dir.join(MANIFEST_FILE);
        let bytes = std::fs::read(&mpath).expect("read manifest");
        let m = crate::format::decode_manifest(&bytes).expect("decode");
        assert!(m.has_labels);
        // Re-encode without the label flag but with shard metas whose
        // byte_len matches the labeled layout — decode_manifest itself
        // rejects that shape inconsistency.
        let (doctored, _) =
            crate::format::encode_manifest(m.n, m.dim, false, m.shard_rows, &m.shards);
        assert!(crate::format::decode_manifest(&doctored).is_err());
        let _ = FLAG_LABELS;
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_rejects_shape_violations() {
        let dir = temp_dir("shapes");
        assert!(StoreWriter::create(&dir, 2, false, 0).is_err());
        let mut w = StoreWriter::create(&dir, 2, false, 4).expect("create");
        assert!(w.push_row(&[1.0], None).is_err());
        assert!(w.push_row(&[1.0, 2.0], Some(1)).is_err());
        assert!(w.push_row(&[1.0, 2.0], None).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_store_roundtrips() {
        let dir = temp_dir("empty");
        let w = StoreWriter::create(&dir, 3, false, 8).expect("create");
        let m = w.finish().expect("finish");
        assert_eq!(m.n, 0);
        let r = StoreReader::open(&dir).expect("open");
        assert_eq!(r.len(), 0);
        r.verify_all().expect("verify empty");
        std::fs::remove_dir_all(&dir).ok();
    }
}
