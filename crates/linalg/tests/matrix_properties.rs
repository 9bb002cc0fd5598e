//! Property-based tests over the dense-matrix algebra (proptest).

use dasc_linalg::{qr, symmetric_eigen, Matrix};
use proptest::prelude::*;

/// Strategy: an `n×n` matrix with entries in [-1, 1].
fn square_matrix(max_n: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_n).prop_flat_map(|n| {
        prop::collection::vec(-1.0f64..1.0, n * n)
            .prop_map(move |data| Matrix::from_vec(n, n, data))
    })
}

fn symmetrize(a: &Matrix) -> Matrix {
    let n = a.nrows();
    Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn transpose_is_involutive(a in square_matrix(8)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_identity_neutral(a in square_matrix(8)) {
        let n = a.nrows();
        let i = Matrix::identity(n);
        prop_assert!(a.matmul(&i).max_abs_diff(&a) < 1e-12);
        prop_assert!(i.matmul(&a).max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn matmul_transpose_identity(a in square_matrix(6), b in square_matrix(6)) {
        prop_assume!(a.nrows() == b.nrows());
        // (AB)ᵀ = BᵀAᵀ.
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-10);
    }

    #[test]
    fn frobenius_is_submultiplicative(a in square_matrix(6), b in square_matrix(6)) {
        prop_assume!(a.nrows() == b.nrows());
        let prod = a.matmul(&b).frobenius_norm();
        prop_assert!(prod <= a.frobenius_norm() * b.frobenius_norm() + 1e-9);
    }

    #[test]
    fn eigendecomposition_reconstructs_symmetric(a in square_matrix(7)) {
        let s = symmetrize(&a);
        let n = s.nrows();
        let eig = symmetric_eigen(&s);
        let (vals, q) = eig.top_k(n);
        let mut lam = Matrix::zeros(n, n);
        for i in 0..n {
            lam[(i, i)] = vals[i];
        }
        let rec = q.matmul(&lam).matmul(&q.transpose());
        prop_assert!(rec.max_abs_diff(&s) < 1e-8);
        // Trace preserved.
        let trace: f64 = (0..n).map(|i| s[(i, i)]).sum();
        let sum: f64 = eig.eigenvalues.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-8);
        // Eigenvalues sorted ascending.
        prop_assert!(eig.eigenvalues.windows(2).all(|w| w[0] <= w[1] + 1e-12));
    }

    #[test]
    fn qr_reconstructs_and_orthogonal(a in square_matrix(7)) {
        let d = qr(&a);
        prop_assert!(d.q.matmul(&d.r).max_abs_diff(&a) < 1e-9);
        let n = a.nrows();
        let g = d.q.transpose().matmul(&d.q);
        prop_assert!(g.max_abs_diff(&Matrix::identity(n)) < 1e-9);
    }

    #[test]
    fn row_sums_match_matvec_with_ones(a in square_matrix(8)) {
        let n = a.nrows();
        let ones = vec![1.0; n];
        let mut prod = vec![0.0; n];
        a.matvec_into(&ones, &mut prod);
        for (rs, p) in a.row_sums().iter().zip(&prod) {
            prop_assert!((rs - p).abs() < 1e-12);
        }
    }
}
