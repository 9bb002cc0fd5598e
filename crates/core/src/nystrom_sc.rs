//! NYST — spectral clustering via the Nyström extension (Schuetter &
//! Shi 2011 / Fowlkes et al. 2004), the paper's third baseline.
//!
//! `m` landmarks are sampled; approximate degrees are computed through
//! the Nyström-reconstructed kernel `K̃ = C W⁺ Cᵀ`; the normalized
//! Laplacian's landmark block is eigendecomposed and extended to all
//! points, and the extension is orthonormalized. That approximate
//! embedding is NYST's own; its row normalization and K-means are the
//! shared spectral tail's ([`crate::embedding`]).

use dasc_kernel::Kernel;
use dasc_linalg::{qr, symmetric_eigen, Matrix};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::embedding::cluster_embedding;
use crate::Clustering;

/// NYST configuration.
#[derive(Clone, Debug)]
pub struct NystromConfig {
    /// Number of clusters `K`.
    pub k: usize,
    /// Kernel for similarities.
    pub kernel: Kernel,
    /// Number of landmark samples `m`; `None` picks
    /// `max(8K, ⌈√N⌉)` clamped to `N`.
    pub landmarks: Option<usize>,
    /// RNG seed.
    pub seed: u64,
}

impl NystromConfig {
    /// Defaults: Gaussian σ = 0.2, automatic landmark count.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "NYST needs k >= 1");
        Self {
            k,
            kernel: Kernel::gaussian(0.2),
            landmarks: None,
            seed: 0x2757,
        }
    }

    /// Builder: kernel.
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Builder: landmark count.
    pub fn landmarks(mut self, m: usize) -> Self {
        assert!(m >= 1, "need at least one landmark");
        self.landmarks = Some(m);
        self
    }

    /// Builder: seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn effective_landmarks(&self, n: usize) -> usize {
        let auto = (8 * self.k).max((n as f64).sqrt().ceil() as usize);
        self.landmarks
            .unwrap_or(auto)
            .clamp(self.k.min(n).max(1), n)
    }
}

/// Result of a NYST run with memory accounting.
#[derive(Clone, Debug)]
pub struct NystromResult {
    /// The clustering.
    pub clustering: Clustering,
    /// Landmark count used.
    pub landmarks: usize,
    /// Bytes held by `W` and `C` at the 4-byte convention
    /// (`4(m² + Nm)`) — NYST's memory footprint.
    pub memory_bytes: usize,
}

/// The NYST baseline.
#[derive(Clone, Debug)]
pub struct Nystrom {
    config: NystromConfig,
}

impl Nystrom {
    /// Create from a configuration.
    pub fn new(config: NystromConfig) -> Self {
        Self { config }
    }

    /// Run NYST on raw points.
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn run(&self, points: &[Vec<f64>]) -> NystromResult {
        assert!(!points.is_empty(), "NYST: empty dataset");
        let n = points.len();
        let k = self.config.k.min(n).max(1);
        let m = self.config.effective_landmarks(n);
        let memory_bytes = 4 * (m * m + n * m);

        if k == 1 || n == 1 {
            return NystromResult {
                clustering: Clustering::new(vec![0; n], 1),
                landmarks: m,
                memory_bytes,
            };
        }

        // Landmark sample (uniform, deterministic).
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(&mut rng);
        let mut landmarks: Vec<usize> = idx.into_iter().take(m).collect();
        landmarks.sort_unstable();

        // C (n×m), and W (m×m): C's landmark rows (every kernel is
        // symmetric).
        let kernel = &self.config.kernel;
        let c = Matrix::from_fn(n, m, |i, b| kernel.eval(&points[i], &points[landmarks[b]]));
        let w = Matrix::from_fn(m, m, |a, b| c[(landmarks[a], b)]);

        // Approximate degrees d ≈ K̃·1 = C W⁺ (Cᵀ·1).
        let eig_w = symmetric_eigen(&w);
        let cutoff = eig_w.eigenvalues.last().map(|v| v.abs()).unwrap_or(0.0) * 1e-12;
        let ct1: Vec<f64> = (0..m).map(|b| c.col(b).iter().sum()).collect();
        // W⁺ ct1 = U diag(1/λ) Uᵀ ct1 with small-λ cutoff.
        let mut ut_ct1 = vec![0.0; m];
        #[allow(clippy::needless_range_loop)] // j pairs eigenvector cols with ut_ct1
        for j in 0..m {
            let col = eig_w.eigenvector(j);
            ut_ct1[j] = col.iter().zip(&ct1).map(|(a, b)| a * b).sum();
        }
        let mut wp_ct1 = vec![0.0; m];
        #[allow(clippy::needless_range_loop)] // j pairs eigenvalues with ut_ct1
        for j in 0..m {
            let lam = eig_w.eigenvalues[j];
            if lam.abs() > cutoff {
                let scale = ut_ct1[j] / lam;
                let col = eig_w.eigenvector(j);
                for (a, &u) in col.iter().enumerate() {
                    wp_ct1[a] += scale * u;
                }
            }
        }
        let mut d = vec![0.0; n];
        for i in 0..n {
            d[i] = (0..m)
                .map(|b| c[(i, b)] * wp_ct1[b])
                .sum::<f64>()
                .max(1e-12);
        }
        let dm: Vec<f64> = landmarks.iter().map(|&i| d[i]).collect();

        // Normalized Laplacian blocks: Ŵ and Ĉ.
        let w_hat = Matrix::from_fn(m, m, |a, b| w[(a, b)] / (dm[a] * dm[b]).sqrt());
        let c_hat = Matrix::from_fn(n, m, |i, b| c[(i, b)] / (d[i] * dm[b]).sqrt());

        // Nyström extension of the top-k eigenvectors of L̂.
        let eig = symmetric_eigen(&w_hat);
        let (vals, vecs) = eig.top_k(k);
        let val_cutoff = vals.first().map(|v| v.abs()).unwrap_or(0.0) * 1e-10;
        let v = Matrix::from_fn(n, k, |i, col| {
            let lam = vals[col];
            if lam.abs() <= val_cutoff {
                return 0.0;
            }
            (0..m).fold(0.0, |acc, b| acc + c_hat[(i, b)] * vecs[(b, col)]) / lam
        });
        // `k = min(K, n)`, so the thin QR (it needs `n ≥ k`) always applies.
        let labels = cluster_embedding(qr(&v).q, self.config.seed);
        NystromResult {
            clustering: Clustering::new(labels, k),
            landmarks: m,
            memory_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs(per: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        for i in 0..per {
            pts.push(vec![0.1 + 0.002 * i as f64, 0.15]);
            labels.push(0);
            pts.push(vec![0.85 - 0.002 * i as f64, 0.9]);
            labels.push(1);
        }
        (pts, labels)
    }

    #[test]
    fn separates_two_blobs() {
        let (pts, truth) = two_blobs(40);
        let res = Nystrom::new(NystromConfig::new(2).landmarks(20)).run(&pts);
        let acc = dasc_metrics::accuracy(&res.clustering.assignments, &truth);
        assert!(acc > 0.9, "accuracy {acc}");
        assert_eq!(res.landmarks, 20);
    }

    #[test]
    fn memory_is_subquadratic() {
        let (pts, _) = two_blobs(50);
        let res = Nystrom::new(NystromConfig::new(2).landmarks(10)).run(&pts);
        assert_eq!(res.memory_bytes, 4 * (100 + 100 * 10));
        assert!(res.memory_bytes < 4 * 100 * 100);
    }

    #[test]
    fn auto_landmarks_reasonable() {
        let cfg = NystromConfig::new(3);
        assert_eq!(cfg.effective_landmarks(10_000), 100);
        // Clamped to n.
        assert_eq!(cfg.effective_landmarks(5), 5);
    }

    #[test]
    fn k1_trivial() {
        let (pts, _) = two_blobs(5);
        let res = Nystrom::new(NystromConfig::new(1)).run(&pts);
        assert!(res.clustering.assignments.iter().all(|&a| a == 0));
    }

    #[test]
    fn deterministic_per_seed() {
        let (pts, _) = two_blobs(25);
        let a = Nystrom::new(NystromConfig::new(2).seed(9)).run(&pts);
        let b = Nystrom::new(NystromConfig::new(2).seed(9)).run(&pts);
        assert_eq!(a.clustering.assignments, b.clustering.assignments);
    }

    #[test]
    fn all_points_as_landmarks_matches_exact_sc_quality() {
        let (pts, truth) = two_blobs(25);
        let res = Nystrom::new(NystromConfig::new(2).landmarks(50)).run(&pts);
        let acc = dasc_metrics::accuracy(&res.clustering.assignments, &truth);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_panics() {
        Nystrom::new(NystromConfig::new(2)).run(&[]);
    }
}
