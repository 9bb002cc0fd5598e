//! Every DASC entry point must label every point exactly as the serial
//! composition of the algorithm's public steps does: LSH signatures,
//! P-similar bucket merging, the block-diagonal approximate Gram, one
//! spectral clustering per block, stitching, consolidation. `Dasc::run`
//! and `Dasc::run_distributed` share one executor, so comparing them
//! with each other alone would check nothing; the reference below is
//! built without it.
//!
//! The fixtures cover both per-bucket eigensolver routes — dense-k
//! buckets, Lanczos buckets in the mid-size band just past the dense
//! floor, and large Lanczos buckets — each with consolidation on and
//! off.

use dasc_core::{
    bucket_cluster_count, consolidate, resolve_eigen_path, Clustering, Dasc, DascConfig, EigenPath,
    SpectralClustering, SpectralConfig,
};
use dasc_data::SyntheticConfig;
use dasc_kernel::ApproximateGram;
use dasc_lsh::{BucketSet, SignatureModel};
use dasc_mapreduce::ClusterConfig;

/// DASC as a serial composition of public calls: the whole approximate
/// Gram first, then each block clustered with its bucket's seed.
fn reference(points: &[Vec<f64>], cfg: &DascConfig) -> (BucketSet, Clustering) {
    let n = points.len();
    let model = SignatureModel::fit(points, &cfg.lsh);
    let buckets = BucketSet::from_signatures(&model.hash_all(points))
        .merge_with(cfg.lsh.merge_strategy, cfg.lsh.merge_p);
    let gram = ApproximateGram::from_buckets(points, &buckets, &cfg.kernel);
    let mut assignments = vec![0usize; n];
    let mut offset = 0usize;
    for (b, block) in gram.blocks().iter().enumerate() {
        let ki = bucket_cluster_count(cfg.k, block.members.len(), n);
        let mut spectral = SpectralConfig::new(ki)
            .kernel(cfg.kernel)
            .seed(cfg.seed ^ (b as u64).wrapping_mul(0x9E37_79B9));
        spectral.lanczos_threshold = cfg.lanczos_threshold;
        let (c, _) =
            SpectralClustering::new(spectral).run_on_similarity_owned(block.matrix.clone());
        for (&point, &local) in block.members.iter().zip(&c.assignments) {
            assignments[point] = offset + local;
        }
        offset += c.num_clusters;
    }
    let stitched = Clustering::new(assignments, offset.max(1));
    let clustering = if cfg.consolidate {
        consolidate(points, &stitched, cfg.k, cfg.seed)
    } else {
        stitched
    };
    (buckets, clustering)
}

fn assert_every_entry_point_matches_reference(
    name: &str,
    synthetic: SyntheticConfig,
    k: usize,
    route: EigenPath,
) {
    let ds = synthetic.generate();
    let n = ds.points.len();
    for consolidate in [true, false] {
        let cfg = DascConfig::for_dataset(n, k).consolidate(consolidate);
        let (buckets, expected) = reference(&ds.points, &cfg);
        // The route the largest bucket takes.
        let largest = buckets.sizes().into_iter().max().unwrap_or(0);
        let ki = bucket_cluster_count(k, largest, n);
        let reached = resolve_eigen_path(largest, ki, cfg.lanczos_threshold);
        assert_eq!(
            reached, route,
            "{name}: largest bucket has {largest} points and {ki} clusters"
        );

        let dasc = Dasc::new(cfg);
        let runs = [
            ("run", dasc.run(&ds.points)),
            (
                "run_distributed(emr_default)",
                dasc.run_distributed(&ds.points, &ClusterConfig::emr_default()),
            ),
            (
                "run_distributed(single_node)",
                dasc.run_distributed(&ds.points, &ClusterConfig::single_node()),
            ),
        ];
        for (entry, res) in runs {
            assert_eq!(
                res.clustering, expected,
                "{name} (consolidate={consolidate}): {entry} labels differ from the reference"
            );
            assert_eq!(res.buckets.sizes(), buckets.sizes(), "{name}: {entry}");
            assert_eq!(
                res.approx_gram_bytes,
                4 * buckets.approx_gram_entries(),
                "{name}: {entry}"
            );
        }
    }
}

#[test]
fn small_blobs() {
    assert_every_entry_point_matches_reference(
        "blobs(2000, 16, 8)",
        SyntheticConfig::blobs(2000, 16, 8),
        8,
        EigenPath::Lanczos,
    );
}

#[test]
fn grid_on_dense_k_buckets() {
    assert_every_entry_point_matches_reference(
        "grid(1024, 64, 6)",
        SyntheticConfig::grid(1024, 64, 6),
        64,
        EigenPath::DenseK,
    );
}

#[test]
fn grid_on_mid_size_lanczos_buckets() {
    // Largest bucket 256 points: in the band just past the dense floor
    // that Lanczos took over from dense-k.
    assert_every_entry_point_matches_reference(
        "grid(4096, 64, 6)",
        SyntheticConfig::grid(4096, 64, 6),
        64,
        EigenPath::Lanczos,
    );
}

#[test]
fn large_blobs() {
    assert_every_entry_point_matches_reference(
        "blobs(6000, 32, 12)",
        SyntheticConfig::blobs(6000, 32, 12),
        12,
        EigenPath::Lanczos,
    );
}
