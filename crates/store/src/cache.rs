//! Worker-side shard cache.
//!
//! Workers executing shard-addressed tasks resolve shards through a
//! [`ShardCache`]: a byte-bounded LRU keyed by `(content_hash, shard)`
//! so shards of different datasets never collide. On a miss the
//! caller-supplied fetch closure pulls the raw shard file (over
//! `dasc-net` in the distributed runtime, from disk in tests), the
//! bytes are checksum-verified against the manifest entry, and the
//! decoded shard is retained until evicted by size pressure.
//!
//! Capacity defaults to 256 MiB and is overridable with
//! `DASC_SHARD_CACHE_BYTES`. Every touch is counted in the global
//! metrics registry (`dasc_store_shard_cache_{hits,misses,evictions}_total`,
//! `dasc_store_shard_fetch_us`), so the federated coordinator
//! `/metrics` view shows per-worker cache behaviour with no extra
//! plumbing.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::error::StoreError;
use crate::format::ShardMeta;
use crate::mmap::FileBytes;
use crate::reader::Shard;

/// Default cache capacity when `DASC_SHARD_CACHE_BYTES` is unset.
pub const DEFAULT_CACHE_BYTES: usize = 256 << 20;

struct Entry {
    shard: Arc<Shard>,
    cost: usize,
    last_used: u64,
}

struct Inner {
    entries: HashMap<(u64, u32), Entry>,
    bytes: usize,
    tick: u64,
}

/// Byte-bounded LRU over verified shards.
pub struct ShardCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl ShardCache {
    /// Cache with an explicit byte capacity.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                bytes: 0,
                tick: 0,
            }),
            capacity: capacity_bytes,
        }
    }

    /// Cache sized from `DASC_SHARD_CACHE_BYTES` (bytes; default
    /// 256 MiB, invalid values fall back to the default).
    pub fn from_env() -> Self {
        let capacity = std::env::var("DASC_SHARD_CACHE_BYTES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_CACHE_BYTES);
        Self::new(capacity)
    }

    /// Configured capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity
    }

    /// Currently resident bytes.
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().expect("shard cache lock").bytes
    }

    /// Resolve `(content_hash, shard)` — from cache on a hit, else via
    /// `fetch` (raw shard-file bytes), verified against `meta` before
    /// anything enters the cache. A shard larger than the whole cache
    /// is returned but not retained.
    pub fn get_or_fetch(
        &self,
        content_hash: u64,
        shard: u32,
        dim: u64,
        has_labels: bool,
        meta: &ShardMeta,
        fetch: impl FnOnce() -> Result<Vec<u8>, StoreError>,
    ) -> Result<Arc<Shard>, StoreError> {
        let key = (content_hash, shard);
        {
            let mut inner = self.inner.lock().expect("shard cache lock");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(e) = inner.entries.get_mut(&key) {
                e.last_used = tick;
                dasc_obs::global().inc("dasc_store_shard_cache_hits_total", 1);
                return Ok(Arc::clone(&e.shard));
            }
        }

        dasc_obs::global().inc("dasc_store_shard_cache_misses_total", 1);
        let t0 = Instant::now();
        let bytes = fetch()?;
        let loaded = Arc::new(Shard::from_bytes(
            FileBytes::Owned(bytes),
            shard,
            dim,
            has_labels,
            meta,
        )?);
        dasc_obs::global().observe("dasc_store_shard_fetch_us", t0.elapsed().as_micros() as u64);

        let cost = loaded.cost_bytes();
        let mut inner = self.inner.lock().expect("shard cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(e) = inner.entries.get_mut(&key) {
            // A racing fetch beat us; keep the resident copy.
            e.last_used = tick;
            return Ok(Arc::clone(&e.shard));
        }
        if cost <= self.capacity {
            while inner.bytes + cost > self.capacity {
                let Some((&victim, _)) = inner.entries.iter().min_by_key(|(_, e)| e.last_used)
                else {
                    break;
                };
                let evicted = inner.entries.remove(&victim).expect("victim present");
                inner.bytes -= evicted.cost;
                dasc_obs::global().inc("dasc_store_shard_cache_evictions_total", 1);
            }
            inner.bytes += cost;
            inner.entries.insert(
                key,
                Entry {
                    shard: Arc::clone(&loaded),
                    cost,
                    last_used: tick,
                },
            );
        }
        Ok(loaded)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::MutexGuard;

    use super::*;
    use crate::format::encode_shard;

    /// Every `get_or_fetch` moves the process-global
    /// `dasc_store_shard_cache_*` counters, and the lifecycle test
    /// asserts their exact deltas, so the tests of this module run one
    /// at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn shard_bytes(index: u32, rows: usize, dim: usize, fill: f64) -> (Vec<u8>, ShardMeta) {
        let pts: Vec<f64> = (0..rows * dim).map(|i| fill + i as f64).collect();
        encode_shard(index, dim as u64, &pts, None)
    }

    #[test]
    fn hit_miss_eviction_lifecycle_with_counters() {
        let _serial = serial();
        let reg = dasc_obs::global();
        let hits0 = reg.counter_value("dasc_store_shard_cache_hits_total");
        let miss0 = reg.counter_value("dasc_store_shard_cache_misses_total");
        let evict0 = reg.counter_value("dasc_store_shard_cache_evictions_total");

        let (b0, m0) = shard_bytes(0, 8, 4, 0.0);
        let (b1, m1) = shard_bytes(1, 8, 4, 100.0);
        // Capacity fits exactly one shard's resident cost.
        let cache = ShardCache::new(m0.byte_len as usize + 64);

        // Miss, then hit.
        let s = cache
            .get_or_fetch(7, 0, 4, false, &m0, || Ok(b0.clone()))
            .expect("first fetch");
        assert_eq!(s.rows(), 8);
        cache
            .get_or_fetch(7, 0, 4, false, &m0, || panic!("must be cached"))
            .expect("hit");

        // A second shard displaces the first.
        cache
            .get_or_fetch(7, 1, 4, false, &m1, || Ok(b1.clone()))
            .expect("second fetch");
        assert!(cache.resident_bytes() <= cache.capacity_bytes());
        cache
            .get_or_fetch(7, 0, 4, false, &m0, || Ok(b0.clone()))
            .expect("refetch after eviction");

        assert_eq!(
            reg.counter_value("dasc_store_shard_cache_hits_total") - hits0,
            1
        );
        assert_eq!(
            reg.counter_value("dasc_store_shard_cache_misses_total") - miss0,
            3
        );
        assert!(reg.counter_value("dasc_store_shard_cache_evictions_total") - evict0 >= 2);
    }

    #[test]
    fn corrupt_fetch_never_enters_cache() {
        let _serial = serial();
        let (mut bytes, meta) = shard_bytes(0, 4, 2, 1.0);
        bytes[crate::format::SHARD_HEADER_LEN] ^= 0xFF;
        let cache = ShardCache::new(1 << 20);
        let err = cache
            .get_or_fetch(1, 0, 2, false, &meta, || Ok(bytes.clone()))
            .expect_err("corrupt shard must fail");
        assert_eq!(err, StoreError::ChecksumMismatch { shard: Some(0) });
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn fetch_error_propagates() {
        let _serial = serial();
        let (_, meta) = shard_bytes(0, 2, 2, 0.0);
        let cache = ShardCache::new(1 << 20);
        let err = cache
            .get_or_fetch(1, 0, 2, false, &meta, || {
                Err(StoreError::Fetch("worker offline".into()))
            })
            .expect_err("fetch error");
        assert_eq!(err, StoreError::Fetch("worker offline".into()));
    }

    #[test]
    fn oversized_shard_served_but_not_retained() {
        let _serial = serial();
        let (b, m) = shard_bytes(0, 64, 8, 0.0);
        let cache = ShardCache::new(16); // smaller than any shard
        let s = cache
            .get_or_fetch(2, 0, 8, false, &m, || Ok(b.clone()))
            .expect("oversized fetch");
        assert_eq!(s.rows(), 64);
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn different_datasets_do_not_collide() {
        let _serial = serial();
        let (b, m) = shard_bytes(0, 4, 2, 1.0);
        let cache = ShardCache::new(1 << 20);
        cache
            .get_or_fetch(10, 0, 2, false, &m, || Ok(b.clone()))
            .expect("dataset 10");
        // Same shard index, different content hash: must re-fetch.
        let mut fetched = false;
        cache
            .get_or_fetch(11, 0, 2, false, &m, || {
                fetched = true;
                Ok(b.clone())
            })
            .expect("dataset 11");
        assert!(fetched, "distinct datasets must not share cache entries");
    }
}
