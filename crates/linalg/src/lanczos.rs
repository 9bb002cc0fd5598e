//! Lanczos iteration with full reorthogonalization.
//!
//! This is the PARPACK substitute used by the PSC baseline (sparse t-NN
//! Laplacians) and by DASC on buckets large enough that a full dense
//! eigendecomposition would dominate. It computes the `k` algebraically
//! largest eigenpairs of any symmetric [`MatVec`] operator.
//!
//! Full (two-pass) reorthogonalization keeps the Krylov basis orthogonal
//! at O(m²n) cost — the subspaces here are small (`m ≲ 2k + 20` unless
//! a small eigengap makes [`lanczos`] grow them), so this is cheaper and
//! far more robust than selective reorthogonalization.
//!
//! The inner loops (`vector::{dot, axpy, norm2}` and the operator's
//! `matvec`) dispatch to the process kernel backend (see
//! [`crate::simd`]), so the Lanczos path is vectorized automatically
//! wherever the host supports AVX2+FMA or NEON.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::eigen::tridiagonal_eigen;
use crate::operator::MatVec;
use crate::vector;
use crate::Matrix;

/// Options controlling the Lanczos run.
#[derive(Clone, Debug)]
pub struct LanczosOptions {
    /// Number of leading (largest) eigenpairs requested.
    pub k: usize,
    /// RNG seed for the starting vector (runs are deterministic).
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

/// Vectors in the first Krylov space [`lanczos`] builds for `k` pairs,
/// and in each extension after it: `max(2k + 20, 40)` (capped at the
/// operator order by the solver). The eigen route rule in `dasc-core`
/// reads the same function, so the solver's cost model and the route
/// choice cannot drift apart.
pub fn lanczos_block(k: usize) -> usize {
    (2 * k + 20).max(40)
}

/// Residual bound every returned pair meets:
/// `‖A v − λ v‖ ≤ RESIDUAL_TOL · max(1, |λ₁|)`.
const RESIDUAL_TOL: f64 = 1e-8;

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
/// The first Krylov space has `min(n, lanczos_block(k))` vectors. While
/// any requested Ritz pair misses the residual bound, the same
/// recurrence from the same start vector grows the space by that much
/// again, until every pair passes or the basis spans the space. So a
/// small eigengap costs more vectors, never accuracy.
///
/// Breakdowns (invariant subspaces, common for the block-diagonal
/// matrices DASC produces) are handled by restarting with a fresh random
/// direction orthogonal to the basis built so far.
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

    let step = lanczos_block(k).min(n);
    let mut m = step;
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    // Krylov basis, one row per Lanczos vector (row-major friendly).
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut alphas: Vec<f64> = Vec::with_capacity(m);
    let mut betas: Vec<f64> = Vec::with_capacity(m);

    // The next Lanczos vector; `None` after a breakdown, until a fresh
    // direction is drawn.
    let mut next = Some(random_unit_vector(n, &mut rng));
    let mut spans_space = false;
    let mut w = vec![0.0; n];

    loop {
        while basis.len() < m {
            let q = match next.take() {
                Some(q) => q,
                None => match fresh_orthogonal_direction(n, &basis, &mut rng) {
                    Some(fresh) => fresh,
                    None => {
                        spans_space = true;
                        break;
                    }
                },
            };
            basis.push(q);
            let j = basis.len() - 1;
            a.matvec(&basis[j], &mut w);
            if j > 0 {
                vector::axpy(-betas[j - 1], &basis[j - 1], &mut w);
            }
            let alpha = vector::dot(&basis[j], &w);
            alphas.push(alpha);
            vector::axpy(-alpha, &basis[j], &mut w);
            // Full reorthogonalization, twice ("twice is enough", Parlett).
            for _ in 0..2 {
                for b in &basis {
                    vector::orthogonalize_against(b, &mut w);
                }
            }
            let beta = vector::norm2(&w);
            let scale = alphas
                .iter()
                .zip(betas.iter().chain(std::iter::once(&0.0)))
                .map(|(a, b)| a.abs() + b.abs())
                .fold(1.0_f64, f64::max);
            if beta <= f64::EPSILON * scale * 16.0 {
                // Invariant subspace: continue from a fresh orthogonal
                // direction, drawn when the basis next grows.
                betas.push(0.0);
            } else {
                betas.push(beta);
                next = Some(w.iter().map(|v| v / beta).collect());
            }
        }

        let (values, ritz) = ritz_pairs(&basis, &alphas, &betas, k);
        if spans_space || basis.len() == n || residuals_pass(a, &values, &ritz) {
            return LanczosResult {
                eigenvalues: values,
                eigenvectors: ritz.transpose(),
                subspace_dim: basis.len(),
            };
        }
        m = (m + step).min(n);
    }
}

/// The top-`k` Ritz pairs of the Lanczos basis: eigenpairs of the
/// projected tridiagonal matrix, lifted back through the basis. The
/// Ritz vectors come back as the rows of a `k × n` matrix.
fn ritz_pairs(basis: &[Vec<f64>], alphas: &[f64], betas: &[f64], k: usize) -> (Vec<f64>, Matrix) {
    let dim = basis.len();
    // Assemble the projected tridiagonal matrix T (EISPACK layout: the
    // off-diagonal entry i couples rows i-1 and i).
    let mut off = vec![0.0; dim];
    off[1..dim].copy_from_slice(&betas[..dim - 1]);
    let small = tridiagonal_eigen(alphas, &off);
    let (values, small_vecs) = small.top_k(k);

    // Ritz vectors: V = Qᵀ · s  (basis rows are the Lanczos vectors).
    let n = basis[0].len();
    let mut ritz = Matrix::zeros(values.len(), n);
    for (col, v) in ritz.as_mut_slice().chunks_exact_mut(n).enumerate() {
        for (j, b) in basis.iter().enumerate() {
            let c = small_vecs[(j, col)];
            if c != 0.0 {
                for (vi, bi) in v.iter_mut().zip(b) {
                    *vi += c * bi;
                }
            }
        }
    }
    (values, ritz)
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

fn random_unit_vector(n: usize, rng: &mut ChaCha8Rng) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    if vector::normalize(&mut v) == 0.0 {
        v[0] = 1.0;
    }
    v
}

/// Draw random vectors until one has a significant component outside the
/// span of `basis`; returns `None` once the basis is (numerically) full.
fn fresh_orthogonal_direction(
    n: usize,
    basis: &[Vec<f64>],
    rng: &mut ChaCha8Rng,
) -> Option<Vec<f64>> {
    if basis.len() >= n {
        return None;
    }
    for _ in 0..8 {
        let mut v = random_unit_vector(n, rng);
        for b in basis {
            vector::orthogonalize_against(b, &mut v);
        }
        if vector::normalize(&mut v) > 1e-8 {
            return Some(v);
        }
    }
    None
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

    #[test]
    fn matches_dense_eigensolver() {
        use rand::{Rng, SeedableRng};
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let n = 30;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v: f64 = rng.gen_range(-1.0..1.0);
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let dense = crate::symmetric_eigen(&a);
        let (dense_top, _) = dense.top_k(4);
        let res = lanczos(&a, &LanczosOptions::top(4));
        assert!(max_residual(&a, &res) <= 1e-8 * res.eigenvalues[0].abs().max(1.0));
        for (l, d) in res.eigenvalues.iter().zip(&dense_top) {
            assert!((l - d).abs() < 1e-6, "lanczos {l} vs dense {d}");
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
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let a = Matrix::identity(2);
        let mut opts = LanczosOptions::top(1);
        opts.k = 0;
        lanczos(&a, &opts);
    }
}
