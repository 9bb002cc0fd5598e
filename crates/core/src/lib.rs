//! DASC — Distributed Approximate Spectral Clustering — and the three
//! baselines it is evaluated against.
//!
//! The algorithm (Section 3 of the paper) has four steps:
//!
//! 1. LSH signatures for all points (`dasc-lsh`);
//! 2. grouping by signature with P-similar bucket merging;
//! 3. per-bucket similarity (sub-Gram) matrices (`dasc-kernel`);
//! 4. spectral clustering on each bucket's matrix.
//!
//! This crate provides:
//!
//! * [`KMeans`] — K-means with k-means++ seeding (the final step of
//!   every spectral method here);
//! * [`SpectralClustering`] — the exact Ng–Jordan–Weiss algorithm on the
//!   full kernel matrix (the paper's SC baseline, Mahout in the
//!   original);
//! * [`Dasc`] — the paper's contribution, run as the paper's two
//!   MapReduce stages, whose bodies ([`stages`]) the `dasc-dist`
//!   runtime shares;
//! * [`ParallelSpectral`] — the PSC baseline (Chen et al.): sparse t-NN
//!   similarity + Lanczos;
//! * [`Nystrom`] — the NYST baseline (Nyström-extension spectral
//!   clustering, Fowlkes-style normalization).

pub mod dasc;
pub mod embedding;
pub mod kmeans;
pub mod local_scaling;
pub mod nystrom_sc;
pub mod psc;
pub mod spectral;
pub mod stages;

pub use dasc::{bucket_cluster_count, consolidate, Dasc, DascConfig, DascResult, DascTrained};
pub use dasc_linalg::KernelBackend;
pub use embedding::{
    normalized_laplacian_inplace, resolve_eigen_path, row_normalize, top_eigenvectors_with,
    EigenPath, LANCZOS_THRESHOLD,
};
pub use kmeans::{KMeans, KMeansConfig, KMeansResult};
pub use local_scaling::{local_scales, local_scaling_similarity};
pub use nystrom_sc::{Nystrom, NystromConfig, NystromResult};
pub use psc::{ParallelSpectral, PscConfig, PscResult};
pub use spectral::{SpectralBreakdown, SpectralClustering, SpectralConfig, SpectralResult};
pub use stages::{
    check_reduce_records, map_signatures, merge_signature_groups, reduce_bucket, reduce_order,
    stitch_distributed, CoverageError,
};

/// A cluster assignment over `n` points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Clustering {
    /// Cluster id per point.
    pub assignments: Vec<usize>,
    /// Number of clusters referenced by `assignments`.
    pub num_clusters: usize,
}

impl Clustering {
    /// Validate and build.
    ///
    /// # Panics
    /// Panics if any assignment is `>= num_clusters`.
    pub fn new(assignments: Vec<usize>, num_clusters: usize) -> Self {
        assert!(
            assignments.iter().all(|&a| a < num_clusters.max(1)),
            "Clustering: assignment out of range"
        );
        Self {
            assignments,
            num_clusters,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True for an empty assignment.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Cluster sizes, indexed by cluster id.
    pub fn sizes(&self) -> Vec<usize> {
        let mut s = vec![0usize; self.num_clusters];
        for &a in &self.assignments {
            s[a] += 1;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustering_sizes() {
        let c = Clustering::new(vec![0, 1, 1, 2], 3);
        assert_eq!(c.sizes(), vec![1, 2, 1]);
        assert_eq!(c.len(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_assignment_panics() {
        Clustering::new(vec![0, 3], 2);
    }
}
