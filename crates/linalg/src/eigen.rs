//! Symmetric eigendecomposition: implicit-shift QL on the tridiagonal
//! form (EISPACK `tql2`), seeded by Householder reduction.
//!
//! The paper computes eigenvectors "using QR decomposition" after a
//! tridiagonal transform; QL with Wilkinson shifts is the numerically
//! preferred formulation of exactly that iteration. `tridiagonal_ql`
//! is the crate's one QL loop: the full solver here, the k-targeted
//! solver (eigenvalues only) and the Lanczos Ritz step all run it.

use crate::tridiag::tridiagonalize;
use crate::vector::hypot;
use crate::Matrix;

/// Eigendecomposition of a real symmetric matrix.
///
/// Eigenvalues are sorted ascending. Eigenvectors stay in the order QL
/// produced them, paired with a sort permutation; accessors materialize
/// only the vectors a caller asks for, so `top_k(k)` costs `O(nk)`.
#[derive(Clone, Debug)]
pub struct SymmetricEigen {
    /// Eigenvalues in ascending order.
    pub eigenvalues: Vec<f64>,
    /// Unit eigenvectors as the rows of an `n×n` row-major buffer, in
    /// unsorted (QL) order.
    vectors: Vec<f64>,
    /// `perm[j]` is the row of `vectors` matching `eigenvalues[j]`.
    perm: Vec<usize>,
}

impl SymmetricEigen {
    /// Order of the decomposed matrix.
    pub fn order(&self) -> usize {
        self.eigenvalues.len()
    }

    /// The QL-order row holding the eigenvector for `eigenvalues[j]`.
    fn row(&self, j: usize) -> &[f64] {
        let n = self.order();
        let r = self.perm[j];
        &self.vectors[r * n..(r + 1) * n]
    }

    /// The unit eigenvector for `eigenvalues[j]` (ascending index).
    pub fn eigenvector(&self, j: usize) -> Vec<f64> {
        self.row(j).to_vec()
    }

    /// The `k` eigenpairs with the **largest** eigenvalues, as
    /// `(values, vectors)` with vectors stacked as columns, ordered by
    /// descending eigenvalue. This is what spectral clustering consumes;
    /// only the `k` requested vectors are copied.
    pub fn top_k(&self, k: usize) -> (Vec<f64>, Matrix) {
        let n = self.order();
        let k = k.min(n);
        let mut values = Vec::with_capacity(k);
        let mut vectors = Matrix::zeros(n, k);
        for j in 0..k {
            values.push(self.eigenvalues[n - 1 - j]);
            for (i, &v) in self.row(n - 1 - j).iter().enumerate() {
                vectors[(i, j)] = v;
            }
        }
        (values, vectors)
    }
}

/// Maximum QL sweeps per eigenvalue before declaring failure to converge.
const MAX_QL_ITERATIONS: usize = 50;

/// Implicit-shift QL with Wilkinson shifts on a symmetric tridiagonal
/// matrix (EISPACK `tql2`). Returns the eigenvalues in the order QL
/// leaves them, unsorted.
///
/// `off_diagonal[i]` couples rows `i-1` and `i` (`off_diagonal[0]` is
/// ignored). With `basis` (an `n×n` row-major buffer) every plane
/// rotation is applied to its rows, so rows that start as the identity
/// end as the eigenvectors of `T`, in the order of the returned values;
/// without it only the eigenvalues are computed, bit for bit the same.
///
/// # Panics
/// Panics on a shape mismatch or if an eigenvalue fails to converge
/// (which for symmetric input does not happen in practice).
pub(crate) fn tridiagonal_ql(
    diagonal: &[f64],
    off_diagonal: &[f64],
    mut basis: Option<&mut [f64]>,
) -> Vec<f64> {
    let n = diagonal.len();
    assert_eq!(n, off_diagonal.len(), "tridiagonal_ql: shape mismatch");
    if let Some(z) = basis.as_deref() {
        assert_eq!(z.len(), n * n, "tridiagonal_ql: basis shape mismatch");
    }
    let mut d = diagonal.to_vec();
    if n <= 1 {
        return d;
    }
    // Shift the couplings so e[i] joins i and i+1.
    let mut e: Vec<f64> = off_diagonal[1..].to_vec();
    e.push(0.0);

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
            let mut underflow = false;

            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = hypot(f, g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Recover from underflow by deflating here.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Rotate rows i and i+1 of the eigenvector basis.
                if let Some(z) = basis.as_deref_mut() {
                    let (lo, hi) = z.split_at_mut((i + 1) * n);
                    for (zi, zi1) in lo[i * n..].iter_mut().zip(&mut hi[..n]) {
                        let f = *zi1;
                        *zi1 = s * *zi + c * f;
                        *zi = c * *zi - s * f;
                    }
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    d
}

/// Full eigendecomposition of a dense symmetric matrix: Householder
/// reduction, QL with vectors, then one blocked back-transform of all
/// `n` eigenvectors of `T` into eigenvectors of `a`.
///
/// # Panics
/// Panics if `a` is not square or the QL iteration fails to converge
/// (which for symmetric input does not happen in practice).
pub fn symmetric_eigen(a: &Matrix) -> SymmetricEigen {
    let tri = tridiagonalize(a);
    let n = tri.order();
    let mut vectors = vec![0.0; n * n];
    for i in 0..n {
        vectors[i * n + i] = 1.0;
    }
    let d = tridiagonal_ql(&tri.diagonal, &tri.off_diagonal, Some(&mut vectors));
    tri.back_transform_rows(&mut vectors, n);

    // Sort eigenvalues ascending; vectors stay where QL left them and
    // the permutation records the pairing (no n×n copy here).
    let mut perm: Vec<usize> = (0..n).collect();
    perm.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).expect("NaN eigenvalue"));
    let eigenvalues: Vec<f64> = perm.iter().map(|&i| d[i]).collect();

    SymmetricEigen {
        eigenvalues,
        vectors,
        perm,
    }
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
        let (_, q) = eig.top_k(n);
        let qtq = q.transpose().matmul(&q);
        assert!(qtq.max_abs_diff(&Matrix::identity(n)) < tol);
    }

    /// Largest entry of `|V Λ Vᵀ − A|`, with `V` from `top_k(n)`.
    fn reconstruction_error(a: &Matrix, eig: &SymmetricEigen) -> f64 {
        let n = a.nrows();
        let (vals, v) = eig.top_k(n);
        let lambda_vt = Matrix::from_fn(n, n, |i, j| vals[i] * v[(j, i)]);
        v.matmul(&lambda_vt).max_abs_diff(a)
    }

    fn random_symmetric(n: usize, seed: u64) -> Matrix {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
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
    fn reconstructs_across_the_back_transform_block_edges() {
        // 32 reflectors per compact-WY block: orders one under, at, one
        // past and two blocks past the edge.
        for (n, seed) in [(31usize, 1u64), (32, 2), (33, 3), (65, 4)] {
            let a = random_symmetric(n, seed);
            let eig = symmetric_eigen(&a);
            check_decomposition(&a, &eig, 1e-10);
            let err = reconstruction_error(&a, &eig);
            assert!(err < 1e-12, "n={n}: reconstruction error {err}");
        }
    }

    #[test]
    fn reconstructs_a_repeated_eigenvalue() {
        // Two disjoint all-ones blocks of 5: eigenvalue 5 twice, 0 eight
        // times.
        let n = 10;
        let a = Matrix::from_fn(n, n, |i, j| if (i < 5) == (j < 5) { 1.0 } else { 0.0 });
        let eig = symmetric_eigen(&a);
        assert!((eig.eigenvalues[n - 1] - 5.0).abs() < 1e-12);
        assert!((eig.eigenvalues[n - 2] - 5.0).abs() < 1e-12);
        assert!(eig.eigenvalues[n - 3].abs() < 1e-12);
        check_decomposition(&a, &eig, 1e-10);
        let err = reconstruction_error(&a, &eig);
        assert!(err < 1e-12, "reconstruction error {err}");
    }

    #[test]
    fn eigenvalues_only_ql_is_bitwise_the_vector_ql() {
        for (n, seed) in [(1usize, 5u64), (2, 6), (17, 7), (80, 8), (150, 9)] {
            let a = random_symmetric(n, seed);
            let tri = tridiagonalize(&a);
            let mut basis = Matrix::identity(n);
            let with = tridiagonal_ql(&tri.diagonal, &tri.off_diagonal, Some(basis.as_mut_slice()));
            let without = tridiagonal_ql(&tri.diagonal, &tri.off_diagonal, None);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&with), bits(&without), "n={n}");
        }
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
        let n = 10;
        let a = random_symmetric(n, 42);
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
