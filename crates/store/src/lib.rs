//! # dasc-store — out-of-core dataset store
//!
//! The HPDC'12 system keeps its points in HDFS: map and reduce tasks
//! read their own splits locally and the jobflow moves *references*,
//! not data. This crate reproduces that layer for the Rust runtime:
//!
//! * a versioned binary on-disk format ([`format`](mod@format)) — a
//!   `.dstr` directory of fixed-size shards plus a manifest, every
//!   byte covered by FNV-1a-64 checksums;
//! * a streaming writer ([`StoreWriter`]) that packs datasets in
//!   `O(shard)` memory;
//! * a zero-copy reader ([`StoreReader`]) that mmaps shards (vendored
//!   `libc` FFI shim, buffered-read fallback) and exposes them as
//!   borrowed [`dasc_linalg::FlatPointsView`]s — no `Vec<Vec<f64>>`
//!   round-trip;
//! * a worker-side LRU [`ShardCache`] keyed by content hash, bounded
//!   by `DASC_SHARD_CACHE_BYTES`, feeding the shard-addressed
//!   distributed runtime in `dasc-dist`.

pub mod cache;
pub mod error;
pub mod format;
pub mod mmap;
pub mod reader;
pub mod writer;

pub use cache::{ShardCache, DEFAULT_CACHE_BYTES};
pub use error::StoreError;
pub use format::{
    fnv1a64, shard_file_name, DatasetManifest, ShardMeta, DEFAULT_SHARD_ROWS, FORMAT_VERSION,
    MANIFEST_FILE,
};
pub use mmap::{FileBytes, ReadMode};
pub use reader::{Shard, StoreReader};
pub use writer::StoreWriter;
