//! K-targeted dense symmetric eigensolver.
//!
//! The spectral embedding (paper Eq. 2) needs only the top `k ≈ 5`
//! eigenvectors of each bucket Laplacian, but the full dense solver
//! rotates and back-transforms all `n` vectors. This module assembles
//! the cheap route:
//!
//! 1. the crate's Householder reduction, reflectors kept factored —
//!    `O(n³)/3` once,
//! 2. the crate's QL in eigenvalues-only mode — `O(n²)`,
//! 3. inverse iteration on the tridiagonal for the `k` wanted vectors
//!    (EISPACK `tinvit` lineage) — `O(nk)` per sweep,
//! 4. a blocked compact-WY back-transform of those `k` vectors through
//!    the `gemm` panel kernel — `O(n²k)`.
//!
//! Everything is deterministic: starting vectors come from a counter
//! seeded xorshift, and no step depends on thread count. The reflector
//! applications and the blocked back-transform run through
//! `vector::{dot, axpy}` and the `gemm` panel kernels, so this solver
//! dispatches to the process kernel backend (see [`crate::simd`]) like
//! the rest of the hot path.

use crate::eigen::tridiagonal_ql;
use crate::tridiag::tridiagonalize;
use crate::{vector, Matrix};

/// Inverse-iteration solves per vector; with a random start two solves
/// already give `O(ε)` residuals, the third buys margin for perturbed
/// shifts inside degenerate clusters.
const INVERSE_ITERATIONS: usize = 3;

/// Restart attempts when a starting vector (after orthogonalization
/// against its cluster) collapses to numerical zero.
const MAX_STARTS: usize = 4;

/// The `k` largest eigenpairs of a dense symmetric matrix.
#[derive(Clone, Debug)]
pub struct TopEigen {
    /// Eigenvalues in descending order.
    pub eigenvalues: Vec<f64>,
    /// `n×k` matrix whose column `j` is the unit eigenvector for
    /// `eigenvalues[j]`.
    pub eigenvectors: Matrix,
}

/// Deterministic starting vector for inverse iteration: xorshift64*
/// driven by (vector index, attempt), mapped into `[-0.5, 0.5)`.
fn start_vector(n: usize, index: usize, attempt: usize, x: &mut [f64]) {
    let mut state = 0x9E37_79B9_7F4A_7C15u64
        ^ ((index as u64) << 32)
        ^ (attempt as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
    for xi in x.iter_mut().take(n) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let mantissa = (state >> 11) as f64 / (1u64 << 53) as f64;
        *xi = mantissa - 0.5;
    }
}

/// LU factorization of `T − λI` with partial pivoting, specialised to
/// the symmetric tridiagonal case: row swaps spill at most two
/// superdiagonals, so the factors fit in five length-`n` arrays.
struct TridiagLu {
    /// Diagonal of `U`.
    u0: Vec<f64>,
    /// First superdiagonal of `U`.
    u1: Vec<f64>,
    /// Second superdiagonal of `U` (nonzero only after a row swap).
    u2: Vec<f64>,
    /// Elimination multipliers.
    mult: Vec<f64>,
    /// Whether step `i` swapped rows `i` and `i+1`.
    swapped: Vec<bool>,
}

impl TridiagLu {
    /// Factor `T − λI`; `sub[i]` couples rows `i` and `i+1`. Exactly
    /// zero pivots are replaced by `pivot_floor` (EISPACK `tinvit`'s
    /// `eps3`) so the singular shift still yields a usable solve.
    fn factor(diagonal: &[f64], sub: &[f64], lambda: f64, pivot_floor: f64) -> Self {
        let n = diagonal.len();
        let mut u0: Vec<f64> = diagonal.iter().map(|&di| di - lambda).collect();
        let mut u1 = vec![0.0; n];
        let mut u2 = vec![0.0; n];
        let mut mult = vec![0.0; n];
        let mut swapped = vec![false; n];
        if n > 1 {
            u1[..n - 1].copy_from_slice(sub);
        }
        for i in 0..n.saturating_sub(1) {
            let low = sub[i];
            if u0[i].abs() >= low.abs() {
                if u0[i] == 0.0 {
                    u0[i] = pivot_floor;
                }
                let m = low / u0[i];
                mult[i] = m;
                u0[i + 1] -= m * u1[i];
                if i + 2 < n {
                    u1[i + 1] -= m * u2[i];
                }
            } else {
                // |low| > |u0[i]| ≥ 0, so the pivot `low` is nonzero.
                swapped[i] = true;
                let m = u0[i] / low;
                mult[i] = m;
                let old_u1 = u1[i];
                u0[i] = low;
                u1[i] = u0[i + 1];
                u2[i] = if i + 2 < n { u1[i + 1] } else { 0.0 };
                u0[i + 1] = old_u1 - m * u1[i];
                if i + 2 < n {
                    u1[i + 1] = -m * u2[i];
                }
            }
        }
        if let Some(last) = u0.last_mut() {
            if *last == 0.0 {
                *last = pivot_floor;
            }
        }
        Self {
            u0,
            u1,
            u2,
            mult,
            swapped,
        }
    }

    /// Solve `(T − λI) x = b` in place.
    fn solve(&self, b: &mut [f64]) {
        let n = b.len();
        for i in 0..n.saturating_sub(1) {
            if self.swapped[i] {
                b.swap(i, i + 1);
            }
            b[i + 1] -= self.mult[i] * b[i];
        }
        b[n - 1] /= self.u0[n - 1];
        if n >= 2 {
            b[n - 2] = (b[n - 2] - self.u1[n - 2] * b[n - 1]) / self.u0[n - 2];
        }
        for i in (0..n.saturating_sub(2)).rev() {
            b[i] = (b[i] - self.u1[i] * b[i + 1] - self.u2[i] * b[i + 2]) / self.u0[i];
        }
    }
}

/// Unit eigenvectors of a symmetric tridiagonal matrix for the given
/// eigenvalues, by inverse iteration with cluster reorthogonalization
/// (EISPACK `tinvit` / LAPACK `dstein` lineage).
///
/// `off_diagonal[i]` couples rows `i-1` and `i` (`off_diagonal[0]` is
/// ignored). `targets` must be sorted ascending. Returns a flat
/// `targets.len()×n` row-major buffer; row `r` is the eigenvector for
/// `targets[r]`.
/// Eigenvalues closer than `10⁻³‖T‖` are treated as one cluster: their
/// shifts are perturbed apart and their vectors orthogonalized, which
/// is what makes degenerate spectra safe.
pub(crate) fn tridiagonal_eigenvectors(
    diagonal: &[f64],
    off_diagonal: &[f64],
    targets: &[f64],
) -> Vec<f64> {
    let n = diagonal.len();
    assert_eq!(
        n,
        off_diagonal.len(),
        "tridiagonal_eigenvectors: shape mismatch"
    );
    let k = targets.len();
    if n == 0 || k == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![1.0; k];
    }
    for pair in targets.windows(2) {
        assert!(
            pair[0] <= pair[1],
            "tridiagonal_eigenvectors: targets must ascend"
        );
    }
    let sub: Vec<f64> = (0..n - 1).map(|i| off_diagonal[i + 1]).collect();

    // ‖T‖∞ bound, used to scale every tolerance in the routine.
    let mut anorm = 0.0f64;
    for i in 0..n {
        let mut row = diagonal[i].abs();
        if i > 0 {
            row += sub[i - 1].abs();
        }
        if i + 1 < n {
            row += sub[i].abs();
        }
        anorm = anorm.max(row);
    }
    let anorm = anorm.max(f64::MIN_POSITIVE);
    let pivot_floor = (f64::EPSILON * anorm).max(f64::MIN_POSITIVE);
    // Shift separation for (near-)identical targets, and the gap under
    // which neighbours count as one cluster for orthogonalization.
    let shift_sep = 10.0 * pivot_floor;
    let cluster_gap = 1e-3 * anorm;

    let mut out = vec![0.0; k * n];
    let mut shifts = vec![0.0; k];
    let mut group_start = 0;
    for r in 0..k {
        let mut lambda = targets[r];
        if r > 0 {
            if targets[r] - targets[r - 1] >= cluster_gap {
                group_start = r;
            }
            if lambda < shifts[r - 1] + shift_sep {
                lambda = shifts[r - 1] + shift_sep;
            }
        }
        shifts[r] = lambda;
        let lu = TridiagLu::factor(diagonal, &sub, lambda, pivot_floor);

        let (done, row) = out.split_at_mut(r * n);
        let x = &mut row[..n];
        let mut converged = false;
        'attempts: for attempt in 0..MAX_STARTS {
            start_vector(n, r, attempt, x);
            vector::normalize(x);
            for _ in 0..INVERSE_ITERATIONS {
                lu.solve(x);
                // Rescale by the largest entry first: a near-singular
                // shift amplifies by ~1/pivot_floor and ‖x‖² would
                // overflow before normalize ever ran.
                let amax = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                if amax == 0.0 || !amax.is_finite() {
                    continue 'attempts;
                }
                vector::scale(1.0 / amax, x);
                // Project out the cluster's earlier vectors so repeated
                // eigenvalues get orthogonal representatives.
                for prev in done[group_start * n..].chunks_exact(n) {
                    let proj = vector::dot(prev, x);
                    vector::axpy(-proj, prev, x);
                }
                if vector::normalize(x) == 0.0 {
                    continue 'attempts;
                }
            }
            converged = true;
            break;
        }
        assert!(
            converged,
            "tridiagonal_eigenvectors: inverse iteration found no independent direction"
        );
    }
    out
}

/// The `k` largest eigenpairs of a dense symmetric matrix via the
/// k-targeted path (Householder reduction, eigenvalues-only QL, inverse
/// iteration, blocked back-transform of `k` vectors); `O(n³)/3 +
/// O(n²k)`.
///
/// Agrees with [`crate::symmetric_eigen`]`.top_k(k)` up to column sign
/// for well-separated eigenvalues; inside a degenerate cluster both
/// return an (equally valid) orthonormal basis of the eigenspace.
///
/// # Panics
/// Panics if `a` is not square. Symmetry is the caller's
/// responsibility; only the lower triangle is read.
pub fn symmetric_eigen_topk(a: &Matrix, k: usize) -> TopEigen {
    assert!(a.is_square(), "symmetric_eigen_topk: matrix must be square");
    let n = a.nrows();
    let k = k.min(n);
    if k == 0 {
        return TopEigen {
            eigenvalues: Vec::new(),
            eigenvectors: Matrix::zeros(n, 0),
        };
    }
    let tri = tridiagonalize(a);
    let mut all = tridiagonal_ql(&tri.diagonal, &tri.off_diagonal, None);
    all.sort_by(|x, y| x.partial_cmp(y).expect("NaN eigenvalue"));
    let targets = &all[n - k..];
    // Rows ascend by eigenvalue.
    let mut vt = tridiagonal_eigenvectors(&tri.diagonal, &tri.off_diagonal, targets);
    tri.back_transform_rows(&mut vt, k);
    let mut vectors = Matrix::zeros(n, k);
    let flat = vectors.as_mut_slice();
    for j in 0..k {
        // Column j ↔ descending eigenvalue j ↔ ascending target k-1-j.
        let row = &mut vt[(k - 1 - j) * n..(k - j) * n];
        vector::normalize(row);
        for i in 0..n {
            flat[i * k + j] = row[i];
        }
    }
    TopEigen {
        eigenvalues: targets.iter().rev().copied().collect(),
        eigenvectors: vectors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symmetric_eigen;

    fn sym_from_seed(n: usize, seed: u64) -> Matrix {
        let mut state = seed.max(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = next();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        a
    }

    #[test]
    fn eigenvalues_match_a_known_spectrum() {
        // A = H diag(λ) H with H = I − 2wwᵀ/‖w‖² orthogonal, so the
        // spectrum is λ exactly, independent of the QL under test.
        for (n, seed) in [(1usize, 7u64), (2, 11), (5, 13), (16, 17), (33, 19)] {
            let w = sym_from_seed(n, seed).row(0).to_vec();
            let w_sq = vector::dot(&w, &w);
            let h = Matrix::from_fn(n, n, |i, j| {
                f64::from(u8::from(i == j)) - 2.0 * w[i] * w[j] / w_sq
            });
            let lambda: Vec<f64> = (0..n).map(|i| 0.5 * i as f64 - 3.0).collect();
            let a = Matrix::from_fn(n, n, |i, j| {
                (0..n).map(|q| h[(i, q)] * lambda[q] * h[(q, j)]).sum()
            });
            let got = symmetric_eigen_topk(&a, n).eigenvalues;
            for (got, want) in got.iter().zip(lambda.iter().rev()) {
                assert!(
                    (got - want).abs() < 1e-12,
                    "n={n}: eigenvalue mismatch {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn topk_matches_full_solver_residuals() {
        for (n, k, seed) in [
            (3usize, 2usize, 41u64),
            (8, 3, 43),
            (20, 5, 47),
            (40, 6, 53),
        ] {
            let a = sym_from_seed(n, seed);
            let top = symmetric_eigen_topk(&a, k);
            assert_eq!(top.eigenvalues.len(), k);
            assert_eq!(top.eigenvectors.nrows(), n);
            assert_eq!(top.eigenvectors.ncols(), k);
            for j in 0..k {
                let v = top.eigenvectors.col(j);
                let lambda = top.eigenvalues[j];
                let mut av = vec![0.0; n];
                a.matvec_into(&v, &mut av);
                for i in 0..n {
                    assert!(
                        (av[i] - lambda * v[i]).abs() < 1e-8,
                        "n={n} k={k}: residual too large for pair {j}"
                    );
                }
            }
            // Orthonormality of the returned block.
            for j in 0..k {
                for j2 in 0..=j {
                    let got = vector::dot(&top.eigenvectors.col(j), &top.eigenvectors.col(j2));
                    let want = if j == j2 { 1.0 } else { 0.0 };
                    assert!(
                        (got - want).abs() < 1e-8,
                        "n={n} k={k}: block not orthonormal at ({j},{j2})"
                    );
                }
            }
            // Eigenvalues agree with the full solver's descending top-k.
            let full = symmetric_eigen(&a);
            let (full_vals, _) = full.top_k(k);
            for (j, (got, want)) in top.eigenvalues.iter().zip(&full_vals).enumerate() {
                assert!(
                    (got - want).abs() < 1e-9,
                    "n={n} k={k}: eigenvalue {j} disagrees with full solver"
                );
            }
        }
    }

    #[test]
    fn degenerate_spectrum_yields_orthonormal_eigenbasis() {
        // Block-constant similarity has a multiple top eigenvalue; the
        // k-targeted path must still return an orthonormal basis whose
        // residuals vanish.
        let n = 12;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if (i < n / 2) == (j < n / 2) {
                    a[(i, j)] = 1.0;
                }
            }
        }
        let top = symmetric_eigen_topk(&a, 3);
        assert!((top.eigenvalues[0] - 6.0).abs() < 1e-9);
        assert!((top.eigenvalues[1] - 6.0).abs() < 1e-9);
        assert!(top.eigenvalues[2].abs() < 1e-9);
        for j in 0..2 {
            let v = top.eigenvectors.col(j);
            let mut av = vec![0.0; n];
            a.matvec_into(&v, &mut av);
            for i in 0..n {
                assert!((av[i] - 6.0 * v[i]).abs() < 1e-8, "residual at ({i},{j})");
            }
        }
        let cross = vector::dot(&top.eigenvectors.col(0), &top.eigenvectors.col(1));
        assert!(
            cross.abs() < 1e-8,
            "degenerate pair not orthogonal: {cross}"
        );
    }

    #[test]
    fn identity_and_zero_matrices() {
        let top = symmetric_eigen_topk(&Matrix::identity(6), 2);
        assert!((top.eigenvalues[0] - 1.0).abs() < 1e-12);
        assert!((top.eigenvalues[1] - 1.0).abs() < 1e-12);
        let top = symmetric_eigen_topk(&Matrix::zeros(5, 5), 3);
        for v in &top.eigenvalues {
            assert!(v.abs() < 1e-12);
        }
        let k0 = symmetric_eigen_topk(&Matrix::identity(4), 0);
        assert!(k0.eigenvalues.is_empty());
        assert_eq!(k0.eigenvectors.ncols(), 0);
    }
}
