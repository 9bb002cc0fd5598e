//! Symmetric eigendecomposition: implicit-shift QL on the tridiagonal
//! form (EISPACK `tql2`), seeded by Householder reduction.
//!
//! The paper computes eigenvectors "using QR decomposition" after a
//! tridiagonal transform; QL with Wilkinson shifts is the numerically
//! preferred formulation of exactly that iteration.

use crate::tridiag::{tridiagonalize, Tridiagonal};
use crate::vector::hypot;
use crate::Matrix;

/// Eigendecomposition of a real symmetric matrix.
///
/// Eigenvalues are sorted ascending. Eigenvectors stay in the order QL
/// produced them, paired with a sort permutation; accessors materialize
/// only the columns a caller asks for, so `top_k(k)` costs `O(nk)`
/// instead of the full `O(n²)` sorted copy the old layout paid.
#[derive(Clone, Debug)]
pub struct SymmetricEigen {
    /// Eigenvalues in ascending order.
    pub eigenvalues: Vec<f64>,
    /// Unit eigenvectors as columns, in unsorted (QL) order.
    vectors: Matrix,
    /// `perm[j]` is the column of `vectors` matching `eigenvalues[j]`.
    perm: Vec<usize>,
}

impl SymmetricEigen {
    /// Order of the decomposed matrix.
    pub fn order(&self) -> usize {
        self.eigenvalues.len()
    }

    /// The unit eigenvector for `eigenvalues[j]` (ascending index).
    pub fn eigenvector(&self, j: usize) -> Vec<f64> {
        self.vectors.col(self.perm[j])
    }

    /// Materialize the full eigenvector matrix with columns sorted to
    /// match `eigenvalues`. `O(n²)` — prefer [`Self::top_k`] or
    /// [`Self::eigenvector`] when only a few columns are needed.
    pub fn eigenvectors_full(&self) -> Matrix {
        let n = self.order();
        let mut out = Matrix::zeros(n, n);
        for (dst, &src) in self.perm.iter().enumerate() {
            for i in 0..n {
                out[(i, dst)] = self.vectors[(i, src)];
            }
        }
        out
    }

    /// The `k` eigenpairs with the **largest** eigenvalues, as
    /// `(values, vectors)` with vectors stacked as columns, ordered by
    /// descending eigenvalue. This is what spectral clustering consumes;
    /// only the `k` requested columns are copied.
    pub fn top_k(&self, k: usize) -> (Vec<f64>, Matrix) {
        let n = self.order();
        let k = k.min(n);
        let mut values = Vec::with_capacity(k);
        let mut vectors = Matrix::zeros(n, k);
        for j in 0..k {
            let src = self.perm[n - 1 - j];
            values.push(self.eigenvalues[n - 1 - j]);
            for i in 0..n {
                vectors[(i, j)] = self.vectors[(i, src)];
            }
        }
        (values, vectors)
    }
}

/// Maximum QL sweeps per eigenvalue before declaring failure to converge.
const MAX_QL_ITERATIONS: usize = 50;

/// Eigendecompose a symmetric tridiagonal matrix (EISPACK `tql2`),
/// rotating the accumulated basis in `tri.q` so the returned vectors are
/// eigenvectors of the *original* matrix.
pub fn tridiagonal_eigen(tri: &Tridiagonal) -> SymmetricEigen {
    let n = tri.order();
    let mut d = tri.diagonal.clone();
    let mut e = tri.off_diagonal.clone();
    let mut z = tri.q.clone();

    if n <= 1 {
        return SymmetricEigen {
            eigenvalues: d,
            vectors: z,
            perm: (0..n).collect(),
        };
    }

    // Shift the off-diagonal so e[i] couples i and i+1.
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small subdiagonal element to split the problem.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            assert!(
                iter <= MAX_QL_ITERATIONS,
                "tql2: eigenvalue {l} failed to converge after {MAX_QL_ITERATIONS} sweeps"
            );

            // Wilkinson shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = hypot(g, 1.0);
            let sign_r = if g >= 0.0 { r.abs() } else { -r.abs() };
            g = d[m] - d[l] + e[l] / (g + sign_r);
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;

            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = hypot(f, g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the rotation into the eigenvector basis.
                for k in 0..n {
                    f = z[(k, i + 1)];
                    z[(k, i + 1)] = s * z[(k, i)] + c * f;
                    z[(k, i)] = c * z[(k, i)] - s * f;
                }
            }
            if r == 0.0 && m > l {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }

    // Sort eigenvalues ascending; vectors stay where QL left them and
    // the permutation records the pairing (no n×n copy here).
    let mut perm: Vec<usize> = (0..n).collect();
    perm.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).expect("NaN eigenvalue"));
    let eigenvalues: Vec<f64> = perm.iter().map(|&i| d[i]).collect();

    SymmetricEigen {
        eigenvalues,
        vectors: z,
        perm,
    }
}

/// Full eigendecomposition of a dense symmetric matrix.
///
/// # Panics
/// Panics if `a` is not square or the QL iteration fails to converge
/// (which for symmetric input does not happen in practice).
pub fn symmetric_eigen(a: &Matrix) -> SymmetricEigen {
    let tri = tridiagonalize(a);
    tridiagonal_eigen(&tri)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_decomposition(a: &Matrix, eig: &SymmetricEigen, tol: f64) {
        let n = a.nrows();
        // A v = λ v for every pair.
        for j in 0..n {
            let v = eig.eigenvector(j);
            let mut av = vec![0.0; n];
            a.matvec_into(&v, &mut av);
            for i in 0..n {
                assert!(
                    (av[i] - eig.eigenvalues[j] * v[i]).abs() < tol,
                    "residual too large for eigenpair {j}"
                );
            }
        }
        // Eigenvector matrix orthogonal.
        let q = eig.eigenvectors_full();
        let qtq = q.transpose().matmul(&q);
        assert!(qtq.max_abs_diff(&Matrix::identity(n)) < tol);
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = Matrix::from_rows(&[&[3.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 2.0]]);
        let eig = symmetric_eigen(&a);
        assert!((eig.eigenvalues[0] - 1.0).abs() < 1e-12);
        assert!((eig.eigenvalues[1] - 2.0).abs() < 1e-12);
        assert!((eig.eigenvalues[2] - 3.0).abs() < 1e-12);
        check_decomposition(&a, &eig, 1e-10);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let eig = symmetric_eigen(&a);
        assert!((eig.eigenvalues[0] - 1.0).abs() < 1e-12);
        assert!((eig.eigenvalues[1] - 3.0).abs() < 1e-12);
        check_decomposition(&a, &eig, 1e-10);
    }

    #[test]
    fn random_symmetric_10x10() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let n = 10;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v: f64 = rng.gen_range(-1.0..1.0);
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let eig = symmetric_eigen(&a);
        check_decomposition(&a, &eig, 1e-8);
        // Trace preserved.
        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let sum: f64 = eig.eigenvalues.iter().sum();
        assert!((trace - sum).abs() < 1e-8);
    }

    #[test]
    fn top_k_orders_descending() {
        let a = Matrix::from_rows(&[&[3.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 2.0]]);
        let eig = symmetric_eigen(&a);
        let (vals, vecs) = eig.top_k(2);
        assert!((vals[0] - 3.0).abs() < 1e-12);
        assert!((vals[1] - 2.0).abs() < 1e-12);
        assert_eq!(vecs.shape(), (3, 2));
        // Top eigenvector of a diagonal matrix is the matching axis.
        assert!((vecs[(0, 0)].abs() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn top_k_clamps_to_order() {
        let eig = symmetric_eigen(&Matrix::identity(2));
        let (vals, vecs) = eig.top_k(10);
        assert_eq!(vals.len(), 2);
        assert_eq!(vecs.ncols(), 2);
    }

    #[test]
    fn rank_one_matrix() {
        // vv^T with v=[1,1,1]/sqrt(3) has eigenvalues {1, 0, 0}.
        let a = Matrix::from_fn(3, 3, |_, _| 1.0 / 3.0);
        let eig = symmetric_eigen(&a);
        assert!(eig.eigenvalues[0].abs() < 1e-12);
        assert!(eig.eigenvalues[1].abs() < 1e-12);
        assert!((eig.eigenvalues[2] - 1.0).abs() < 1e-12);
        check_decomposition(&a, &eig, 1e-10);
    }

    #[test]
    fn singleton_and_empty() {
        let eig = symmetric_eigen(&Matrix::from_rows(&[&[4.0]]));
        assert_eq!(eig.eigenvalues, vec![4.0]);
        let eig = symmetric_eigen(&Matrix::zeros(0, 0));
        assert!(eig.eigenvalues.is_empty());
    }
}
