//! Kernel functions.
//!
//! Eq. 1 of the paper is the Gaussian (RBF) kernel; the others make the
//! approximation layer generic over the downstream algorithm.

use dasc_linalg::vector;

/// A positive-semidefinite kernel function.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kernel {
    /// Gaussian RBF `exp(−‖x−y‖² / 2σ²)` (Eq. 1). `sigma` is the kernel
    /// bandwidth controlling how rapidly similarity decays.
    Gaussian {
        /// Kernel bandwidth σ.
        sigma: f64,
    },
    /// Linear kernel `⟨x, y⟩`.
    Linear,
    /// Polynomial kernel `(⟨x, y⟩ + c)^degree`.
    Polynomial {
        /// Polynomial degree.
        degree: u32,
        /// Additive constant.
        c: f64,
    },
    /// Laplacian kernel `exp(−γ ‖x−y‖₁)`.
    Laplacian {
        /// Decay rate γ.
        gamma: f64,
    },
}

/// The pairwise "raw" quantity a kernel is a pointwise function of.
///
/// This is what lets the Gram layer batch kernel evaluation: a whole
/// tile of raw values is produced first (by a micro-kernel where the
/// basis allows it), then [`Kernel::map_raw`] finishes the tile in one
/// pass — instead of a full `Kernel::eval` (with its per-pair dimension
/// branch) per entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TileBasis {
    /// Squared Euclidean distance `‖x−y‖²` — expressible as
    /// `‖x‖² + ‖y‖² − 2⟨x,y⟩`, so tiles reduce to a dense matmul
    /// (Gaussian).
    SqDist,
    /// Inner product `⟨x,y⟩` — tiles are a dense matmul directly
    /// (linear, polynomial).
    Dot,
    /// L1 distance `‖x−y‖₁` — no bilinear form exists, so tiles must be
    /// filled per entry; only the final map batches (Laplacian).
    L1,
}

impl Kernel {
    /// The paper's default kernel: Gaussian with bandwidth σ.
    ///
    /// # Panics
    /// Panics if `sigma <= 0`.
    pub fn gaussian(sigma: f64) -> Self {
        assert!(sigma > 0.0, "Gaussian kernel needs sigma > 0");
        Kernel::Gaussian { sigma }
    }

    /// Evaluate the kernel on two points.
    ///
    /// # Panics
    /// Panics if the points differ in dimension.
    #[inline]
    pub fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "kernel eval: dimension mismatch");
        self.eval_prevalidated(x, y)
    }

    /// [`Kernel::eval`] without the per-pair dimension check — the batch
    /// entry point for Gram/tile loops that have already validated the
    /// whole matrix once (e.g. via `FlatPoints`' uniform stride).
    ///
    /// Release builds skip the length branch entirely; debug builds keep
    /// it as a `debug_assert!`.
    #[inline]
    pub fn eval_prevalidated(&self, x: &[f64], y: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), y.len(), "kernel eval: dimension mismatch");
        let mut raw = [self.raw(x, y)];
        self.map_raw(&mut raw);
        raw[0]
    }

    /// The raw basis value for a pair (see [`TileBasis`]): squared L2
    /// distance, inner product, or L1 distance.
    ///
    /// Dimensions must have been validated by the caller.
    #[inline]
    pub fn raw(&self, x: &[f64], y: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), y.len(), "kernel raw: dimension mismatch");
        match self.tile_basis() {
            TileBasis::SqDist => vector::sq_dist(x, y),
            TileBasis::Dot => vector::dot(x, y),
            TileBasis::L1 => x.iter().zip(y).map(|(a, b)| (a - b).abs()).sum(),
        }
    }

    /// Which raw quantity this kernel maps (and therefore whether a
    /// tile of it can be produced by the GEMM micro-kernel).
    #[inline]
    pub fn tile_basis(&self) -> TileBasis {
        match self {
            Kernel::Gaussian { .. } => TileBasis::SqDist,
            Kernel::Linear | Kernel::Polynomial { .. } => TileBasis::Dot,
            Kernel::Laplacian { .. } => TileBasis::L1,
        }
    }

    /// Finish a tile: map raw basis values (per [`Kernel::tile_basis`])
    /// to kernel values in place, one batched pass with no per-entry
    /// branching. Applying this to a value produced by [`Kernel::raw`]
    /// is bitwise identical to [`Kernel::eval`] on the same pair.
    #[inline]
    pub fn map_raw(&self, tile: &mut [f64]) {
        match *self {
            Kernel::Gaussian { sigma } => {
                for v in tile.iter_mut() {
                    *v = (-*v / (2.0 * sigma * sigma)).exp();
                }
            }
            Kernel::Linear => {}
            Kernel::Polynomial { degree, c } => {
                for v in tile.iter_mut() {
                    *v = (*v + c).powi(degree as i32);
                }
            }
            Kernel::Laplacian { gamma } => {
                for v in tile.iter_mut() {
                    *v = (-gamma * *v).exp();
                }
            }
        }
    }

    /// A data-driven bandwidth heuristic: the median pairwise distance
    /// over a deterministic subsample. Useful when σ is not given.
    ///
    /// The subsample is capped at [`MEDIAN_HEURISTIC_MAX_SAMPLE`]
    /// points, so the cost is bounded regardless of `n`: the pairwise
    /// pass is quadratic in the sample size.
    pub fn gaussian_median_heuristic(points: &[Vec<f64>]) -> Self {
        Kernel::gaussian(Self::median_sigma(points))
    }

    /// The bandwidth [`Kernel::gaussian_median_heuristic`] would pick:
    /// the median pairwise distance over an evenly-strided subsample of
    /// at most [`MEDIAN_HEURISTIC_MAX_SAMPLE`] points (1.0 if the
    /// sample is degenerate).
    ///
    /// The pairwise pass is O(s²) in the sample size, so without a cap
    /// it would be O(n²) — quadratic in the dataset just to pick a
    /// scalar. Capping at `s` points bounds it at `s(s-1)/2` distance
    /// evaluations while the evenly-spaced stride keeps the sample
    /// representative and deterministic. Datasets at or below the cap
    /// are used in full, so small-`n` results are exact.
    ///
    /// # Panics
    /// Panics with fewer than two points.
    fn median_sigma(points: &[Vec<f64>]) -> f64 {
        let n = points.len();
        assert!(n >= 2, "median heuristic needs at least two points");
        let stride = n.div_ceil(MEDIAN_HEURISTIC_MAX_SAMPLE).max(1);
        let sample: Vec<&Vec<f64>> = points.iter().step_by(stride).collect();
        let mut dists = Vec::with_capacity(sample.len() * (sample.len() - 1) / 2);
        for i in 0..sample.len() {
            for j in (i + 1)..sample.len() {
                dists.push(vector::dist(sample[i], sample[j]));
            }
        }
        dists.sort_by(|a, b| a.partial_cmp(b).expect("NaN distance"));
        let median = dists[dists.len() / 2];
        if median > 0.0 {
            median
        } else {
            1.0
        }
    }
}

/// Largest subsample the median bandwidth heuristic will look at.
///
/// 256 points give 32 640 pairwise distances — microseconds of work —
/// while the median of an evenly-strided sample of this size is a
/// stable estimate of the population median for any realistic dataset.
pub const MEDIAN_HEURISTIC_MAX_SAMPLE: usize = 256;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_unit_at_identity() {
        let k = Kernel::gaussian(0.5);
        let x = vec![0.3, 0.7];
        assert_eq!(k.eval(&x, &x), 1.0);
    }

    #[test]
    fn gaussian_decays_with_distance() {
        let k = Kernel::gaussian(1.0);
        let a = k.eval(&[0.0], &[1.0]);
        let b = k.eval(&[0.0], &[2.0]);
        assert!(a > b && b > 0.0);
        // Known value: exp(-1/2).
        assert!((a - (-0.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn gaussian_symmetric() {
        let k = Kernel::gaussian(0.7);
        let x = vec![0.1, 0.9, 0.4];
        let y = vec![0.8, 0.2, 0.6];
        assert_eq!(k.eval(&x, &y), k.eval(&y, &x));
    }

    #[test]
    fn sigma_controls_decay_rate() {
        let tight = Kernel::gaussian(0.1);
        let wide = Kernel::gaussian(10.0);
        assert!(tight.eval(&[0.0], &[1.0]) < wide.eval(&[0.0], &[1.0]));
    }

    #[test]
    fn linear_is_dot_product() {
        assert_eq!(Kernel::Linear.eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn polynomial_known_value() {
        let k = Kernel::Polynomial { degree: 2, c: 1.0 };
        // (1*1 + 1)^2 = 4.
        assert_eq!(k.eval(&[1.0], &[1.0]), 4.0);
    }

    #[test]
    fn laplacian_uses_l1() {
        let k = Kernel::Laplacian { gamma: 1.0 };
        let v = k.eval(&[0.0, 0.0], &[1.0, 1.0]);
        assert!((v - (-2.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn median_heuristic_positive_sigma() {
        let pts: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 50.0]).collect();
        let Kernel::Gaussian { sigma } = Kernel::gaussian_median_heuristic(&pts) else {
            panic!("expected gaussian")
        };
        assert!(sigma > 0.0 && sigma < 1.0);
    }

    #[test]
    fn median_sigma_matches_uncapped_below_cap() {
        // At or below the sample cap the stride is 1, so the heuristic
        // must equal a brute-force median over every pair.
        let pts: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()])
            .collect();
        let mut all = Vec::new();
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                all.push(vector::dist(&pts[i], &pts[j]));
            }
        }
        all.sort_by(|a, b| a.partial_cmp(b).expect("NaN"));
        assert_eq!(Kernel::median_sigma(&pts), all[all.len() / 2]);
    }

    #[test]
    fn median_sigma_large_dataset_is_capped_and_fast() {
        // 10k points would be ~50M pairwise distances uncapped; the cap
        // keeps it to at most C(256, 2). Bound the wall-clock loosely so
        // the test fails loudly if the cap regresses.
        let pts: Vec<Vec<f64>> = (0..10_000)
            .map(|i| vec![(i % 97) as f64 * 0.01, (i % 83) as f64 * 0.013])
            .collect();
        let start = std::time::Instant::now();
        let sigma = Kernel::median_sigma(&pts);
        assert!(sigma > 0.0);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "median heuristic took {:?} — sample cap not applied?",
            start.elapsed()
        );
    }

    #[test]
    fn median_heuristic_degenerate_data() {
        let pts: Vec<Vec<f64>> = (0..10).map(|_| vec![0.5]).collect();
        let Kernel::Gaussian { sigma } = Kernel::gaussian_median_heuristic(&pts) else {
            panic!("expected gaussian")
        };
        assert_eq!(sigma, 1.0);
    }

    #[test]
    #[should_panic(expected = "sigma > 0")]
    fn zero_sigma_panics() {
        Kernel::gaussian(0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dim_mismatch_panics() {
        Kernel::Linear.eval(&[1.0], &[1.0, 2.0]);
    }
}
