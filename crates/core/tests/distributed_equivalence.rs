//! `Dasc::run_distributed` must label every point exactly as the serial
//! `Dasc::run` does: the two stages re-express the same computation, so
//! any difference is a numerics change in the stage bodies.
//!
//! The fixtures cover both per-bucket eigensolver routes — dense-k
//! buckets and buckets past the Lanczos threshold — each with
//! consolidation on and off.

use dasc_core::{Dasc, DascConfig, LANCZOS_THRESHOLD};
use dasc_data::SyntheticConfig;
use dasc_mapreduce::ClusterConfig;

/// Which eigensolver route the fixture's buckets must reach.
#[derive(Debug, PartialEq)]
enum Route {
    /// Every bucket at or under the Lanczos threshold.
    DenseK,
    /// At least one bucket past the Lanczos threshold.
    Lanczos,
}

fn assert_distributed_matches_serial(
    name: &str,
    synthetic: SyntheticConfig,
    k: usize,
    route: Route,
) {
    let ds = synthetic.generate();
    let n = ds.points.len();
    for consolidate in [true, false] {
        let dasc = Dasc::new(DascConfig::for_dataset(n, k).consolidate(consolidate));
        let serial = dasc.run(&ds.points);
        let largest = serial.buckets.sizes().into_iter().max().unwrap_or(0);
        let reached = if largest > LANCZOS_THRESHOLD {
            Route::Lanczos
        } else {
            Route::DenseK
        };
        assert_eq!(
            reached, route,
            "{name}: largest bucket has {largest} points"
        );

        let dist = dasc.run_distributed(&ds.points, &ClusterConfig::emr_default());
        assert_eq!(
            dist.clustering, serial.clustering,
            "{name} (consolidate={consolidate}): distributed labels differ from serial"
        );
        assert_eq!(dist.num_buckets, serial.buckets.len(), "{name}");
        assert_eq!(dist.approx_gram_bytes, serial.approx_gram_bytes, "{name}");
    }
}

#[test]
fn small_blobs() {
    assert_distributed_matches_serial(
        "blobs(2000, 16, 8)",
        SyntheticConfig::blobs(2000, 16, 8),
        8,
        Route::Lanczos,
    );
}

#[test]
fn grid_on_dense_k_buckets() {
    assert_distributed_matches_serial(
        "grid(4096, 64, 6)",
        SyntheticConfig::grid(4096, 64, 6),
        64,
        Route::DenseK,
    );
}

#[test]
fn large_blobs() {
    assert_distributed_matches_serial(
        "blobs(6000, 32, 12)",
        SyntheticConfig::blobs(6000, 32, 12),
        12,
        Route::Lanczos,
    );
}
