//! Worker-side shard cache integration: a [`ShardSource`] resolving
//! shards from a live coordinator exercises the full
//! miss → fetch → verify → hit → evict lifecycle over real RPCs.
//!
//! This test lives in its own binary because it pins the cache
//! capacity through `DASC_SHARD_CACHE_BYTES`, which every
//! `ShardSource` in the process reads at construction.

use std::time::Duration;

use dasc_core::DascConfig;
use dasc_data::{dataset_to_store, Dataset, SyntheticConfig};
use dasc_dist::{worker, Coordinator, JobClient, JobData, JobSpec, ShardSource, WorkerOptions};
use dasc_mapreduce::ClusterConfig;

fn test_cluster() -> ClusterConfig {
    let mut c = ClusterConfig::emr(2);
    c.records_per_split = 64;
    c.heartbeat_interval = Duration::from_millis(50);
    c
}

#[test]
fn shard_source_miss_hit_eviction_against_live_coordinator() {
    let points = SyntheticConfig::blobs(96, 8, 3).seed(23).generate().points;
    let dir = std::env::temp_dir().join(format!("dasc-shardsource-{}.dstr", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let manifest =
        dataset_to_store(&Dataset::new(points.clone(), None, "cache"), &dir, 16).expect("pack");
    assert!(manifest.shards.len() >= 4, "want several shards to evict");

    // Capacity for at most two resident shards. A shard's resident
    // cost is at least its raw file bytes (plus a decoded copy when
    // the fetched buffer lands unaligned), so with 2×raw + slack the
    // third distinct shard must displace the least-recently-used one
    // whichever way the allocator aligned the buffers.
    let per_shard = manifest.shards[0].byte_len as usize;
    std::env::set_var("DASC_SHARD_CACHE_BYTES", (2 * per_shard + 64).to_string());

    let cluster = test_cluster();
    let coordinator = Coordinator::start("127.0.0.1:0", cluster.clone()).expect("coordinator");
    let addr = coordinator.addr().to_string();
    let w = worker::spawn(&addr, WorkerOptions::named("cache-w"));

    // A ref job registers the dataset with the coordinator's name-node
    // table (and proves the tiny cache still completes a real job).
    let config = DascConfig::for_dataset(points.len(), 3);
    let mut client = JobClient::connect(&addr, &cluster);
    let outcome = client
        .run(
            JobSpec {
                data: JobData::Ref {
                    path: dir.to_string_lossy().into_owned(),
                    content_hash: manifest.content_hash,
                },
                k: config.k,
                kernel: config.kernel,
                num_bits: 0,
                seed: config.seed,
                consolidate: config.consolidate,
                collect_trace: false,
            },
            |_, _, _| {},
        )
        .expect("ref job");
    assert_eq!(outcome.assignments.len(), points.len());

    // Now drive a fresh ShardSource by hand and watch the counters.
    let reg = dasc_obs::global();
    let hits0 = reg.counter_value("dasc_store_shard_cache_hits_total");
    let miss0 = reg.counter_value("dasc_store_shard_cache_misses_total");
    let evict0 = reg.counter_value("dasc_store_shard_cache_evictions_total");
    let served0 = reg.counter_value("dasc_store_shards_served_total");

    let source = ShardSource::new(addr.clone());
    let s0 = source.shard(&manifest, 0).expect("shard 0 fetch");
    assert_eq!(s0.rows(), 16);
    assert_eq!(s0.row(0), &points[0][..]);
    source.shard(&manifest, 0).expect("shard 0 hit");
    source.shard(&manifest, 1).expect("shard 1 fetch");
    // Third distinct shard exceeds capacity: the LRU (shard 0) goes.
    source.shard(&manifest, 2).expect("shard 2 fetch");
    assert!(source.cache().resident_bytes() <= source.cache().capacity_bytes());
    source.shard(&manifest, 0).expect("shard 0 refetch");

    assert_eq!(
        reg.counter_value("dasc_store_shard_cache_hits_total") - hits0,
        1
    );
    assert_eq!(
        reg.counter_value("dasc_store_shard_cache_misses_total") - miss0,
        4
    );
    assert!(reg.counter_value("dasc_store_shard_cache_evictions_total") - evict0 >= 1);
    assert_eq!(
        reg.counter_value("dasc_store_shards_served_total") - served0,
        4,
        "every miss is a coordinator-served fetch"
    );

    // Failure paths surface as errors, not panics: an index past the
    // table, and a dataset the coordinator has never opened.
    let err = source
        .shard(&manifest, manifest.shards.len())
        .expect_err("out of range");
    assert!(err.contains("out of range"), "{err}");
    let mut stale = manifest.clone();
    stale.content_hash ^= 0xDEAD;
    let err = source.shard(&stale, 0).expect_err("unknown dataset");
    assert!(err.contains("unknown dataset"), "{err}");

    w.shutdown().expect("w");
    coordinator.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
