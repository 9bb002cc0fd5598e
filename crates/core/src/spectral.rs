//! Exact spectral clustering (the SC baseline; Ng–Jordan–Weiss on the
//! full kernel matrix, as Mahout implements it).

use std::time::Duration;

use dasc_kernel::{full_gram_flat, gram_memory_bytes, Kernel};
use dasc_linalg::{FlatPoints, Matrix};
use dasc_obs::span;

use crate::embedding::{
    cluster_embedding, normalized_laplacian_inplace, resolve_eigen_path, top_eigenvectors_with,
    EigenPath, LANCZOS_THRESHOLD,
};
use crate::Clustering;

/// Spectral clustering configuration.
#[derive(Clone, Debug)]
pub struct SpectralConfig {
    /// Number of clusters `K`.
    pub k: usize,
    /// Kernel for the similarity matrix (paper: Gaussian, Eq. 1).
    pub kernel: Kernel,
    /// Dense floor handed to [`resolve_eigen_path`]: orders at or
    /// under it stay on dense-k.
    pub lanczos_threshold: usize,
    /// RNG seed (K-means seeding, Lanczos start vector).
    pub seed: u64,
}

impl SpectralConfig {
    /// Defaults: Gaussian kernel σ = 0.2 (unit-normalized data), the
    /// [`LANCZOS_THRESHOLD`] dense floor.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "spectral clustering needs k >= 1");
        Self {
            k,
            kernel: Kernel::gaussian(0.2),
            lanczos_threshold: LANCZOS_THRESHOLD,
            seed: 0x5BEC,
        }
    }

    /// Builder: kernel.
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Builder: seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The SC baseline.
#[derive(Clone, Debug)]
pub struct SpectralClustering {
    config: SpectralConfig,
}

/// Result of an SC run with cost accounting.
#[derive(Clone, Debug)]
pub struct SpectralResult {
    /// The clustering.
    pub clustering: Clustering,
    /// Bytes the full Gram matrix occupies (4-byte convention, Eq. 12).
    pub gram_memory_bytes: usize,
}

/// Per-substage breakdown of one spectral run — filled from the
/// `dasc.cluster.{laplacian,eigen,kmeans}` span guards, so a trace of
/// the run and this struct cannot disagree.
#[derive(Clone, Copy, Debug)]
pub struct SpectralBreakdown {
    /// Scaling the similarity matrix into the normalized Laplacian.
    pub laplacian: Duration,
    /// The eigensolve (whichever path ran).
    pub eigen: Duration,
    /// Row normalization + K-means on the embedding.
    pub kmeans: Duration,
    /// The eigensolver route that actually ran.
    pub path: EigenPath,
}

impl Default for SpectralBreakdown {
    fn default() -> Self {
        Self {
            laplacian: Duration::ZERO,
            eigen: Duration::ZERO,
            kmeans: Duration::ZERO,
            path: EigenPath::DenseFull,
        }
    }
}

impl SpectralClustering {
    /// Create from a configuration.
    pub fn new(config: SpectralConfig) -> Self {
        Self { config }
    }

    /// Cluster raw points: full Gram → Laplacian → embedding → K-means.
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn run(&self, points: &[Vec<f64>]) -> SpectralResult {
        self.run_flat(&FlatPoints::from_rows(points))
    }

    /// [`Self::run`] over a flat row-major buffer — the layout mmap'd
    /// store shards and the distributed reduce path already hold, so
    /// neither needs a `Vec<Vec<f64>>` round-trip. `run` delegates
    /// here, which keeps both entry points bit-identical.
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn run_flat(&self, points: &FlatPoints) -> SpectralResult {
        assert!(!points.is_empty(), "spectral clustering: empty dataset");
        let gram = full_gram_flat(points, &self.config.kernel);
        let (clustering, _) = self.run_on_similarity_owned(gram);
        SpectralResult {
            clustering,
            gram_memory_bytes: gram_memory_bytes(points.len()),
        }
    }

    /// Cluster a pre-computed similarity matrix (used per bucket by
    /// DASC), consuming it: the buffer is scaled into the Laplacian in
    /// place, so the whole pipeline tail allocates only the `n×k`
    /// embedding. Returns the clustering plus the substage breakdown.
    ///
    /// # Panics
    /// Panics if `similarity` is not square.
    pub fn run_on_similarity_owned(&self, similarity: Matrix) -> (Clustering, SpectralBreakdown) {
        assert!(similarity.is_square(), "similarity must be square");
        let n = similarity.nrows();
        let k = self.config.k.min(n).max(1);
        let mut breakdown = SpectralBreakdown::default();
        if n == 0 {
            return (Clustering::new(Vec::new(), 0), breakdown);
        }
        if k == 1 || n == 1 {
            return (Clustering::new(vec![0; n], 1), breakdown);
        }

        let lap_span = span!("dasc.cluster.laplacian");
        let mut l = similarity;
        normalized_laplacian_inplace(&mut l);
        breakdown.laplacian = lap_span.finish();

        let path = resolve_eigen_path(n, k, self.config.lanczos_threshold);
        breakdown.path = path;
        let eigen_span = span!("dasc.cluster.eigen");
        let v = top_eigenvectors_with(&l, k, path, self.config.seed);
        drop(l);
        breakdown.eigen = eigen_span.finish();

        let km_span = span!("dasc.cluster.kmeans");
        let labels = cluster_embedding(v, self.config.seed);
        breakdown.kmeans = km_span.finish();
        (Clustering::new(labels, k), breakdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_rings_free() -> (Vec<Vec<f64>>, Vec<usize>) {
        // Two concentric rings — the classic case where K-means fails and
        // spectral clustering succeeds ("performs well with non-Gaussian
        // clusters").
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let t = i as f64 / 40.0 * std::f64::consts::TAU;
            pts.push(vec![0.1 * t.cos() + 0.5, 0.1 * t.sin() + 0.5]);
            labels.push(0);
            pts.push(vec![0.45 * t.cos() + 0.5, 0.45 * t.sin() + 0.5]);
            labels.push(1);
        }
        (pts, labels)
    }

    fn agreement(a: &[usize], b: &[usize]) -> f64 {
        // Two-cluster label agreement up to permutation.
        let same: usize = a.iter().zip(b).filter(|(x, y)| x == y).count();
        let frac = same as f64 / a.len() as f64;
        frac.max(1.0 - frac)
    }

    #[test]
    fn separates_two_blobs() {
        let mut pts = Vec::new();
        let mut truth = Vec::new();
        for i in 0..30 {
            pts.push(vec![0.1 + 0.001 * i as f64, 0.1]);
            truth.push(0);
            pts.push(vec![0.9 - 0.001 * i as f64, 0.9]);
            truth.push(1);
        }
        let res = SpectralClustering::new(SpectralConfig::new(2)).run(&pts);
        assert_eq!(agreement(&res.clustering.assignments, &truth), 1.0);
        assert_eq!(res.gram_memory_bytes, 4 * 60 * 60);
    }

    #[test]
    fn handles_nonconvex_rings() {
        let (pts, truth) = two_rings_free();
        let cfg = SpectralConfig::new(2).kernel(Kernel::gaussian(0.05));
        let res = SpectralClustering::new(cfg).run(&pts);
        assert!(
            agreement(&res.clustering.assignments, &truth) > 0.95,
            "rings not separated"
        );
    }

    #[test]
    fn k1_trivial() {
        let pts = vec![vec![0.0], vec![1.0], vec![2.0]];
        let res = SpectralClustering::new(SpectralConfig::new(1)).run(&pts);
        assert_eq!(res.clustering.assignments, vec![0, 0, 0]);
    }

    #[test]
    fn k_clamped_to_n() {
        let pts = vec![vec![0.0], vec![1.0]];
        let res = SpectralClustering::new(SpectralConfig::new(5)).run(&pts);
        assert_eq!(res.clustering.assignments.len(), 2);
        assert!(res.clustering.num_clusters <= 2);
    }

    /// Labels from the spectral tail with the eigen route forced.
    fn labels_on_path(pts: &[Vec<f64>], k: usize, path: EigenPath) -> Vec<usize> {
        let cfg = SpectralConfig::new(k);
        let mut l = full_gram_flat(&FlatPoints::from_rows(pts), &cfg.kernel);
        normalized_laplacian_inplace(&mut l);
        cluster_embedding(top_eigenvectors_with(&l, k, path, cfg.seed), cfg.seed)
    }

    #[test]
    fn dense_and_lanczos_backends_agree() {
        let mut pts = Vec::new();
        for i in 0..25 {
            pts.push(vec![0.1 + 0.002 * i as f64, 0.2]);
            pts.push(vec![0.8 + 0.002 * i as f64, 0.9]);
        }
        let dense = labels_on_path(&pts, 2, EigenPath::DenseFull);
        for path in [EigenPath::DenseK, EigenPath::Lanczos] {
            let other = labels_on_path(&pts, 2, path);
            assert_eq!(agreement(&dense, &other), 1.0, "{path:?}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (pts, _) = two_rings_free();
        let cfg = SpectralConfig::new(2)
            .kernel(Kernel::gaussian(0.05))
            .seed(3);
        let a = SpectralClustering::new(cfg.clone()).run(&pts);
        let b = SpectralClustering::new(cfg).run(&pts);
        assert_eq!(a.clustering.assignments, b.clustering.assignments);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_panics() {
        SpectralClustering::new(SpectralConfig::new(2)).run(&[]);
    }
}
