//! Block Lanczos iteration with full reorthogonalization.
//!
//! This is the PARPACK substitute used by the PSC baseline (sparse t-NN
//! Laplacians) and by DASC on buckets large enough that a full dense
//! eigendecomposition would dominate. It computes the `k` algebraically
//! largest eigenpairs of any symmetric [`MatVec`] operator.
//!
//! * **Block width.** The Krylov space grows by `b = min(k, 4)` vectors
//!   at a time through one [`MatVec::matvec_many`], so a dense operator
//!   streams through cache once per block rather than once per vector
//!   (4 is the width of the `gemm` panel kernel's `dot4`). A block of
//!   `b` start vectors also finds up to `b` copies of a repeated
//!   eigenvalue; a Krylov space grown from one vector holds only one
//!   (in exact arithmetic), and the residual check cannot tell.
//! * **Orthogonalization.** Each new block is orthogonalized against the
//!   whole basis by block classical Gram–Schmidt, done twice ("twice is
//!   enough", Parlett), with the coefficients of each pass from one
//!   `gemm::abt_into`. The first pass's coefficients are the block's
//!   columns of the projected matrix `H = VᵀAV`. Modified Gram–Schmidt
//!   then orthonormalizes the block in itself; a column that breaks down
//!   (an invariant subspace, common for the block-diagonal matrices DASC
//!   produces) is replaced by a fresh random direction orthogonal to
//!   everything built so far.
//! * **Checks.** Convergence is checked when the basis first reaches
//!   `max(8, k)` vectors, then each time it has grown by a quarter. The
//!   Rayleigh–Ritz step takes only the top `k` eigenpairs of `H`
//!   ([`crate::symmetric_eigen_topk`]). Their residuals are estimated
//!   without the operator: `A V s − θ V s = W⊥ s_last`, where `W⊥` is
//!   the orthogonalized next block and `s_last` the last block's part of
//!   the Ritz coordinates `s`, so the estimate is `‖R s_last‖` with `R`
//!   the next block's Gram–Schmidt factor. Only when every estimate
//!   passes are the Ritz vectors lifted and checked against the operator
//!   itself (one more `matvec_many`); pairs that miss that bound keep the
//!   space growing, until the basis spans the space.
//! * **Working set.** The basis (`m × n`), the projected matrix
//!   (`m × m`) and one block with its product (two `b × n` buffers);
//!   `A·V` is not kept.
//!
//! The inner loops (`gemm::abt_into`, `vector::{dot, axpy}` and the
//! operator's `matvec_many`) dispatch to the process kernel backend (see
//! [`crate::simd`]), and none of them changes its result with the
//! thread count, so runs are bit-identical across pool sizes within a
//! backend.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use crate::eigen_k::symmetric_eigen_topk;
use crate::gemm::abt_into;
use crate::operator::MatVec;
use crate::vector;
use crate::Matrix;

/// Options controlling the Lanczos run.
#[derive(Clone, Debug)]
pub struct LanczosOptions {
    /// Number of leading (largest) eigenpairs requested.
    pub k: usize,
    /// RNG seed for the starting block (runs are deterministic).
    pub seed: u64,
}

impl LanczosOptions {
    /// Options for the `k` largest eigenpairs with the default seed.
    pub fn top(k: usize) -> Self {
        Self {
            k,
            seed: 0x5ca1ab1e,
        }
    }
}

/// Widest Krylov block: the width of the panel kernel's `dot4`.
const MAX_BLOCK: usize = 4;

/// Basis size of the first convergence check (or `k`, if larger).
const FIRST_CHECK: usize = 8;

/// Residual bound every returned pair meets:
/// `‖A v − λ v‖ ≤ RESIDUAL_TOL · max(1, |λ₁|)`.
const RESIDUAL_TOL: f64 = 1e-8;

/// A Gram–Schmidt column whose norm falls to this share of the largest
/// `‖A q‖` seen (at least 1) has broken down.
const BREAKDOWN: f64 = 16.0 * f64::EPSILON;

/// Result of a Lanczos run.
#[derive(Clone, Debug)]
pub struct LanczosResult {
    /// Ritz values, descending; length `min(k, n)`.
    pub eigenvalues: Vec<f64>,
    /// Matching Ritz vectors as columns of an `n × k` matrix.
    pub eigenvectors: Matrix,
    /// Krylov subspace dimension actually built.
    pub subspace_dim: usize,
}

/// Compute the `k` algebraically largest eigenpairs of a symmetric
/// operator.
///
/// The Krylov space starts from `min(k, 4)` random vectors drawn from
/// `opts.seed` and grows a block at a time until every Ritz pair meets
/// `‖A v − λ v‖ ≤ 1e-8 · max(1, |λ₁|)` or the basis spans the space
/// (module docs). So a small eigengap costs more vectors, never
/// accuracy.
///
/// # Panics
/// Panics if `opts.k == 0`.
pub fn lanczos<A: MatVec>(a: &A, opts: &LanczosOptions) -> LanczosResult {
    assert!(opts.k > 0, "lanczos: k must be positive");
    let n = a.dim();
    let k = opts.k.min(n);
    if n == 0 {
        return LanczosResult {
            eigenvalues: Vec::new(),
            eigenvectors: Matrix::zeros(0, 0),
            subspace_dim: 0,
        };
    }

    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    let mut space = Krylov::new(n);
    let start = (0..k.min(MAX_BLOCK) * n)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let (mut block, _) = space.orthonormalize(start, &mut rng);
    let mut next_check = FIRST_CHECK.max(k);
    loop {
        let width = block.len() / n;
        let w = space.extend(a, &block);
        let (next, r) = space.orthonormalize(w, &mut rng);
        let m = space.dim();
        let spans_space = next.is_empty();
        if spans_space || m >= next_check {
            let top = symmetric_eigen_topk(&space.projected(), k);
            let (values, coords) = (top.eigenvalues, top.eigenvectors);
            if spans_space || estimates_pass(&values, &coords, &r, width) {
                let ritz = space.lift(&coords);
                if spans_space || residuals_pass(a, &values, &ritz) {
                    return LanczosResult {
                        eigenvalues: values,
                        eigenvectors: ritz.transpose(),
                        subspace_dim: m,
                    };
                }
            }
            next_check = (m * 5).div_ceil(4);
        }
        block = next;
    }
}

/// The Krylov basis and the projected matrix built on it.
struct Krylov {
    n: usize,
    /// Orthonormal basis vectors back to back (`m × n` row-major).
    basis: Vec<f64>,
    /// `H = VᵀAV` by columns, upper triangle: `h[j][i] = vᵢᵀ A vⱼ` for
    /// `i ≤ j`.
    h: Vec<Vec<f64>>,
    /// Largest `‖A q‖` seen, at least 1: the scale breakdowns are judged
    /// against.
    scale: f64,
}

impl Krylov {
    fn new(n: usize) -> Self {
        Self {
            n,
            basis: Vec::new(),
            h: Vec::new(),
            scale: 1.0,
        }
    }

    /// Basis vectors so far.
    fn dim(&self) -> usize {
        self.basis.len() / self.n
    }

    /// Append the orthonormal `block` (rows back to back) to the basis
    /// and record its columns of `H`. Returns `W⊥ = (I − VVᵀ)·A·block`
    /// with the new `V`, rows back to back.
    fn extend<A: MatVec>(&mut self, a: &A, block: &[f64]) -> Vec<f64> {
        let n = self.n;
        let width = block.len() / n;
        let m0 = self.dim();
        self.basis.extend_from_slice(block);
        let mut av = vec![0.0; n * width];
        a.matvec_many(block, width, &mut av);
        let mut w = vec![0.0; width * n];
        for (i, row) in av.chunks_exact(width).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                w[c * n + i] = v;
            }
        }
        for row in w.chunks_exact(n) {
            self.scale = self.scale.max(vector::norm2(row));
        }
        let coeffs = self.project_out(&mut w);
        for c in 0..width {
            let column = (0..=m0 + c).map(|i| coeffs[i * width + c]).collect();
            self.h.push(column);
        }
        self.project_out(&mut w);
        w
    }

    /// One block classical Gram–Schmidt pass over the rows of `w`:
    /// `w ← w − (V Wᵀ)ᵀ V`. Returns the coefficients `V Wᵀ`
    /// (`m × width` row-major).
    fn project_out(&self, w: &mut [f64]) -> Vec<f64> {
        let n = self.n;
        let (m, width) = (self.dim(), w.len() / n);
        let mut coeffs = vec![0.0; m * width];
        if m == 0 {
            return coeffs;
        }
        abt_into(&self.basis, m, w, width, n, &mut coeffs, width);
        for (v, cs) in self.basis.chunks_exact(n).zip(coeffs.chunks_exact(width)) {
            for (row, &c) in w.chunks_exact_mut(n).zip(cs) {
                vector::axpy(-c, v, row);
            }
        }
        coeffs
    }

    /// Orthonormalize the rows of `w`, already orthogonal to the basis,
    /// by modified Gram–Schmidt (each column twice against the ones
    /// before it), replacing a column that breaks down by a fresh
    /// direction. Returns the orthonormal rows, at most as many as the
    /// basis has room for and none once no fresh direction is left, and
    /// the factor `R` (`width × width` row-major, upper triangular) with
    /// `w_c = Σ_{c' ≤ c} R[c'][c] q_{c'}` up to breakdown noise.
    fn orthonormalize(&self, mut w: Vec<f64>, rng: &mut ChaCha8Rng) -> (Vec<f64>, Vec<f64>) {
        let n = self.n;
        let width = w.len() / n;
        let room = n - self.dim();
        let mut r = vec![0.0; width * width];
        let mut q: Vec<f64> = Vec::with_capacity(width * n);
        for (c, col) in w.chunks_exact_mut(n).enumerate() {
            if q.len() / n == room {
                break;
            }
            for _ in 0..2 {
                for (c2, qc) in q.chunks_exact(n).enumerate() {
                    let d = vector::dot(qc, col);
                    vector::axpy(-d, qc, col);
                    r[c2 * width + c] += d;
                }
            }
            let norm = vector::norm2(col);
            r[c * width + c] = norm;
            if norm > BREAKDOWN * self.scale {
                vector::scale(1.0 / norm, col);
                q.extend_from_slice(col);
            } else {
                match self.fresh_direction(&q, rng) {
                    Some(fresh) => q.extend_from_slice(&fresh),
                    None => break,
                }
            }
        }
        (q, r)
    }

    /// A random unit vector orthogonal to the basis and to the rows of
    /// `block`; `None` once they (numerically) span the space.
    fn fresh_direction(&self, block: &[f64], rng: &mut ChaCha8Rng) -> Option<Vec<f64>> {
        let n = self.n;
        for _ in 0..8 {
            let mut v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            vector::normalize(&mut v);
            for _ in 0..2 {
                self.project_out(&mut v);
                for qc in block.chunks_exact(n) {
                    vector::orthogonalize_against(qc, &mut v);
                }
            }
            if vector::normalize(&mut v) > 1e-8 {
                return Some(v);
            }
        }
        None
    }

    /// The projected matrix `H = VᵀAV` (`m × m`).
    fn projected(&self) -> Matrix {
        let m = self.dim();
        Matrix::from_fn(m, m, |i, j| self.h[i.max(j)][i.min(j)])
    }

    /// Ritz vectors `V s` for the columns of `coords` (`m × k`), as the
    /// rows of a `k × n` matrix.
    fn lift(&self, coords: &Matrix) -> Matrix {
        let n = self.n;
        let mut ritz = Matrix::zeros(coords.ncols(), n);
        ritz.as_mut_slice()
            .par_chunks_mut(n)
            .enumerate()
            .for_each(|(col, y)| {
                for (i, v) in self.basis.chunks_exact(n).enumerate() {
                    vector::axpy(coords[(i, col)], v, y);
                }
            });
        ritz
    }
}

/// Whether every Ritz pair's residual estimate `‖R s_last‖` meets the
/// [`RESIDUAL_TOL`] bound: `coords` holds the Ritz coordinates as
/// columns, `r` the Gram–Schmidt factor of the block after the last
/// `width` basis vectors.
fn estimates_pass(values: &[f64], coords: &Matrix, r: &[f64], width: usize) -> bool {
    let m = coords.nrows();
    let tol = RESIDUAL_TOL * values.first().map_or(1.0, |v| v.abs()).max(1.0);
    (0..values.len()).all(|col| {
        let last: Vec<f64> = (m - width..m).map(|i| coords[(i, col)]).collect();
        let sq: f64 = r
            .chunks_exact(width)
            .map(|row| vector::dot(row, &last).powi(2))
            .sum();
        sq.sqrt() <= tol
    })
}

/// Whether every Ritz pair (`ritz` holds the vectors as rows) meets the
/// [`RESIDUAL_TOL`] bound. One [`MatVec::matvec_many`] call reads the
/// operator once for all pairs.
fn residuals_pass<A: MatVec>(a: &A, values: &[f64], ritz: &Matrix) -> bool {
    let (k, n) = ritz.shape();
    let lambda_scale = values.first().map_or(1.0, |v| v.abs()).max(1.0);
    let mut av = vec![0.0; n * k];
    a.matvec_many(ritz.as_slice(), k, &mut av);
    values.iter().enumerate().all(|(col, &lambda)| {
        let residual_sq: f64 = ritz
            .row(col)
            .iter()
            .enumerate()
            .map(|(i, v)| (av[i * k + col] - lambda * v).powi(2))
            .sum();
        residual_sq.sqrt() <= RESIDUAL_TOL * lambda_scale
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Largest `‖A v − λ v‖` over the returned pairs.
    fn max_residual(a: &Matrix, res: &LanczosResult) -> f64 {
        let mut av = vec![0.0; a.nrows()];
        (0..res.eigenvalues.len())
            .map(|col| {
                let v = res.eigenvectors.col(col);
                a.matvec(&v, &mut av);
                vector::axpy(-res.eigenvalues[col], &v, &mut av);
                vector::norm2(&av)
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn diagonal_top_eigenpairs() {
        let n = 20;
        let a = Matrix::from_fn(n, n, |i, j| if i == j { (i + 1) as f64 } else { 0.0 });
        let res = lanczos(&a, &LanczosOptions::top(3));
        assert!(max_residual(&a, &res) <= 1e-8 * 20.0);
        assert!((res.eigenvalues[0] - 20.0).abs() < 1e-8);
        assert!((res.eigenvalues[1] - 19.0).abs() < 1e-8);
        assert!((res.eigenvalues[2] - 18.0).abs() < 1e-8);
    }

    /// Random symmetric `n × n` matrix with entries in `[-1, 1)`.
    fn random_symmetric(n: usize, seed: u64) -> Matrix {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v: f64 = rng.gen_range(-1.0..1.0);
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        a
    }

    #[test]
    fn matches_dense_eigensolver() {
        // k = 1 runs blocks of one vector; k = 6 ends in a pair the
        // 4-wide blocks do not divide.
        let a = random_symmetric(30, 7);
        let dense = crate::symmetric_eigen(&a);
        for k in [1, 4, 6] {
            let (dense_top, _) = dense.top_k(k);
            let res = lanczos(&a, &LanczosOptions::top(k));
            assert_eq!(res.eigenvalues.len(), k);
            assert!(max_residual(&a, &res) <= 1e-8 * res.eigenvalues[0].abs().max(1.0));
            for (l, d) in res.eigenvalues.iter().zip(&dense_top) {
                assert!((l - d).abs() < 1e-6, "k = {k}: lanczos {l} vs dense {d}");
            }
        }
    }

    #[test]
    fn block_diagonal_breakdown_recovers_both_blocks() {
        // Two disconnected blocks: a plain Krylov space from one start
        // vector may miss a block; the restart logic must find it.
        let mut a = Matrix::zeros(8, 8);
        for i in 0..4 {
            a[(i, i)] = 10.0;
        }
        for i in 4..8 {
            a[(i, i)] = 5.0;
        }
        let res = lanczos(&a, &LanczosOptions::top(6));
        assert!((res.eigenvalues[0] - 10.0).abs() < 1e-8);
        // Eigenvalue 5 must appear even though it lives in a separate
        // invariant subspace.
        assert!(res.eigenvalues.iter().any(|v| (v - 5.0).abs() < 1e-8));
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let n = 15;
        let a = Matrix::from_fn(n, n, |i, j| 1.0 / (1.0 + (i as f64 - j as f64).abs()));
        let res = lanczos(&a, &LanczosOptions::top(4));
        let v = &res.eigenvectors;
        let g = v.transpose().matmul(v);
        assert!(g.max_abs_diff(&Matrix::identity(4)) < 1e-6);
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let a = Matrix::identity(3);
        let res = lanczos(&a, &LanczosOptions::top(10));
        assert_eq!(res.eigenvalues.len(), 3);
        for v in &res.eigenvalues {
            assert!((v - 1.0).abs() < 1e-10);
        }
        // An order below the 4-wide block: the whole space in one block.
        let a = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 2.0, 1.0], &[0.0, 1.0, 2.0]]);
        let res = lanczos(&a, &LanczosOptions::top(4));
        let want = [2.0 + 2f64.sqrt(), 2.0, 2.0 - 2f64.sqrt()];
        assert_eq!(res.subspace_dim, 3);
        assert!(max_residual(&a, &res) <= 1e-12);
        for (v, w) in res.eigenvalues.iter().zip(want) {
            assert!((v - w).abs() < 1e-12, "{v} vs {w}");
        }
    }

    #[test]
    fn clustered_spectrum_grows_the_subspace_until_converged() {
        // 300 evenly spaced eigenvalues 0.001 apart: the top 8 are not
        // resolved by the first 40-vector Krylov space, so the run must
        // keep extending it rather than return loose Ritz pairs.
        let n = 300;
        let a = Matrix::from_fn(
            n,
            n,
            |i, j| {
                if i == j {
                    1.0 - 0.001 * i as f64
                } else {
                    0.0
                }
            },
        );
        let res = lanczos(&a, &LanczosOptions::top(8));
        assert!(res.subspace_dim > 40, "dim {}", res.subspace_dim);
        assert!(max_residual(&a, &res) <= 1e-8);
        for (i, v) in res.eigenvalues.iter().enumerate() {
            assert!((v - (1.0 - 0.001 * i as f64)).abs() < 1e-10, "{i}: {v}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Matrix::from_fn(12, 12, |i, j| ((i + j) % 5) as f64);
        let r1 = lanczos(&a, &LanczosOptions::top(2));
        let r2 = lanczos(&a, &LanczosOptions::top(2));
        assert_eq!(r1.eigenvalues, r2.eigenvalues);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        // n = 300 spreads the matvec panels and the Ritz lift over every
        // worker; k = 6 grows the space past several checks.
        let a = random_symmetric(300, 3);
        let run = |threads| {
            dasc_pool::Pool::new(threads).install(|| lanczos(&a, &LanczosOptions::top(6)))
        };
        let reference = run(1);
        assert!(max_residual(&a, &reference) <= 1e-8 * reference.eigenvalues[0].abs());
        for threads in [2, 4] {
            let got = run(threads);
            assert_eq!(got.eigenvalues, reference.eigenvalues, "{threads} threads");
            assert_eq!(
                got.eigenvectors, reference.eigenvectors,
                "{threads} threads"
            );
            assert_eq!(
                got.subspace_dim, reference.subspace_dim,
                "{threads} threads"
            );
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let a = Matrix::identity(2);
        let mut opts = LanczosOptions::top(1);
        opts.k = 0;
        lanczos(&a, &opts);
    }
}
