//! Streaming store writer: rows in, sharded files out.
//!
//! [`StoreWriter`] buffers at most one shard of rows at a time, so a
//! CSV→store pack runs in `O(shard)` memory regardless of dataset
//! size. Shard files are written as they fill; the manifest is written
//! last, by [`StoreWriter::finish`] — a crashed pack leaves a
//! directory without a manifest, which the reader refuses, so partial
//! packs can never be mistaken for complete ones.

use std::fs;
use std::path::{Path, PathBuf};

use crate::error::StoreError;
use crate::format::{encode_manifest, encode_shard, shard_file_name, DatasetManifest, ShardMeta};

/// Writes a `.dstr` store directory one row at a time.
pub struct StoreWriter {
    dir: PathBuf,
    dim: usize,
    has_labels: bool,
    shard_rows: usize,
    buf_points: Vec<f64>,
    buf_labels: Vec<usize>,
    buf_rows: usize,
    shards: Vec<ShardMeta>,
    n: u64,
}

impl StoreWriter {
    /// Create (or re-create) a store directory. An existing manifest
    /// is removed up front so a half-finished overwrite is never
    /// readable as the *old* dataset.
    pub fn create(
        dir: &Path,
        dim: usize,
        has_labels: bool,
        shard_rows: usize,
    ) -> Result<Self, StoreError> {
        if shard_rows == 0 {
            return Err(StoreError::Shape("shard_rows must be positive"));
        }
        if shard_rows > u32::MAX as usize {
            return Err(StoreError::Shape("shard_rows exceeds u32"));
        }
        fs::create_dir_all(dir)?;
        let manifest = dir.join(crate::format::MANIFEST_FILE);
        if manifest.exists() {
            fs::remove_file(&manifest)?;
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            dim,
            has_labels,
            shard_rows,
            buf_points: Vec::with_capacity(shard_rows * dim),
            buf_labels: Vec::new(),
            buf_rows: 0,
            shards: Vec::new(),
            n: 0,
        })
    }

    /// Append one row (and its label, iff the store was created with
    /// labels).
    pub fn push_row(&mut self, point: &[f64], label: Option<usize>) -> Result<(), StoreError> {
        if point.len() != self.dim {
            return Err(StoreError::Shape("row dimension mismatch"));
        }
        if label.is_some() != self.has_labels {
            return Err(StoreError::Shape("label presence mismatch"));
        }
        self.buf_points.extend_from_slice(point);
        if let Some(l) = label {
            self.buf_labels.push(l);
        }
        self.buf_rows += 1;
        if self.buf_rows == self.shard_rows {
            self.flush_shard()?;
        }
        Ok(())
    }

    fn flush_shard(&mut self) -> Result<(), StoreError> {
        if self.buf_rows == 0 {
            return Ok(());
        }
        let index = self.shards.len() as u32;
        let labels = self.has_labels.then_some(self.buf_labels.as_slice());
        let (bytes, meta) = encode_shard(index, self.dim as u64, &self.buf_points, labels);
        fs::write(self.dir.join(shard_file_name(index)), &bytes)?;
        self.n += meta.rows;
        self.shards.push(meta);
        self.buf_points.clear();
        self.buf_labels.clear();
        self.buf_rows = 0;
        Ok(())
    }

    /// Flush the final partial shard and write the manifest. Returns
    /// the decoded manifest of the finished store.
    pub fn finish(mut self) -> Result<DatasetManifest, StoreError> {
        self.flush_shard()?;
        let (bytes, content_hash) = encode_manifest(
            self.n,
            self.dim as u64,
            self.has_labels,
            self.shard_rows as u64,
            &self.shards,
        );
        fs::write(self.dir.join(crate::format::MANIFEST_FILE), &bytes)?;
        Ok(DatasetManifest {
            content_hash,
            n: self.n,
            dim: self.dim as u64,
            has_labels: self.has_labels,
            shard_rows: self.shard_rows as u64,
            shards: self.shards,
        })
    }
}
