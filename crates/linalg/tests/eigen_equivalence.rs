//! Equivalence suite for the k-targeted dense eigensolver: the
//! factored-Householder + inverse-iteration path must land on the same
//! eigenpairs as the full `symmetric_eigen` decomposition — entrywise
//! up to column sign when the spectrum is simple, and as the same
//! invariant subspace when eigenvalues cluster or degenerate.

use dasc_linalg::{symmetric_eigen, symmetric_eigen_topk, Matrix};
use proptest::prelude::*;

/// Strategy: an `n×n` symmetric matrix with entries in [-1, 1].
fn symmetric_matrix(max_n: usize) -> impl Strategy<Value = Matrix> {
    (2..=max_n).prop_flat_map(|n| {
        prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
            let a = Matrix::from_vec(n, n, data);
            Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]))
        })
    })
}

/// Spectral scale: the largest eigenvalue magnitude (for relative tols).
fn scale_of(eigenvalues: &[f64]) -> f64 {
    eigenvalues.iter().fold(1e-30, |m, &v| m.max(v.abs()))
}

/// Max entrywise deviation between two n×k column stacks after aligning
/// each column's sign on its largest-magnitude entry.
fn max_signed_column_diff(a: &Matrix, b: &Matrix) -> f64 {
    let (n, k) = a.shape();
    let mut worst = 0.0f64;
    for j in 0..k {
        let pivot = (0..n)
            .max_by(|&p, &q| {
                a[(p, j)]
                    .abs()
                    .partial_cmp(&a[(q, j)].abs())
                    .expect("NaN entry")
            })
            .expect("nonempty column");
        let sign = if a[(pivot, j)] * b[(pivot, j)] < 0.0 {
            -1.0
        } else {
            1.0
        };
        for i in 0..n {
            worst = worst.max((a[(i, j)] - sign * b[(i, j)]).abs());
        }
    }
    worst
}

/// `‖A v − λ v‖∞` over every returned eigenpair.
fn max_residual(a: &Matrix, eigenvalues: &[f64], vectors: &Matrix) -> f64 {
    let n = a.nrows();
    let mut worst = 0.0f64;
    for (j, &lam) in eigenvalues.iter().enumerate() {
        let v = vectors.col(j);
        let mut av = vec![0.0; n];
        a.matvec_into(&v, &mut av);
        for i in 0..n {
            worst = worst.max((av[i] - lam * v[i]).abs());
        }
    }
    worst
}

/// Max deviation of `VᵀV` from the identity.
fn orthonormality_defect(vectors: &Matrix) -> f64 {
    let k = vectors.ncols();
    let g = vectors.transpose().matmul(vectors);
    g.max_abs_diff(&Matrix::identity(k))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn topk_matches_full_dense(a in symmetric_matrix(20), k_raw in 1usize..8) {
        let n = a.nrows();
        let k = k_raw.min(n);
        let full = symmetric_eigen(&a);
        let top = symmetric_eigen_topk(&a, k);
        let scale = scale_of(&full.eigenvalues);

        // Eigenvalues agree unconditionally.
        let (want_vals, want_vecs) = full.top_k(k);
        for (got, want) in top.eigenvalues.iter().zip(&want_vals) {
            prop_assert!(
                (got - want).abs() <= 1e-9 * scale.max(1.0),
                "eigenvalue mismatch: {got} vs {want}"
            );
        }

        // Both bases solve the problem to working accuracy.
        prop_assert!(max_residual(&a, &top.eigenvalues, &top.eigenvectors) <= 1e-8 * scale.max(1.0));
        prop_assert!(orthonormality_defect(&top.eigenvectors) <= 1e-9);

        // Entrywise sign-matched agreement needs simple eigenvalues: a
        // clustered pair spans a two-dimensional eigenspace where both
        // solvers may legitimately pick different orthonormal bases.
        // Random continuous spectra are simple almost surely, so this
        // branch runs for nearly every case.
        let simple = (0..k).all(|j| {
            let i = n - 1 - j; // ascending index of target j
            let below = if i > 0 { full.eigenvalues[i] - full.eigenvalues[i - 1] } else { f64::INFINITY };
            let above = if i + 1 < n { full.eigenvalues[i + 1] - full.eigenvalues[i] } else { f64::INFINITY };
            below.min(above) > 1e-6 * scale.max(1.0)
        });
        if simple {
            let diff = max_signed_column_diff(&want_vecs, &top.eigenvectors);
            prop_assert!(diff <= 1e-9, "entrywise deviation {diff} above 1e-9");
        }
    }
}

/// Build `Q D Qᵀ` for a given spectrum, with `Q` from the eigenbasis of
/// a fixed dense symmetric matrix (deterministic, well-conditioned).
fn matrix_with_spectrum(spectrum: &[f64]) -> Matrix {
    let n = spectrum.len();
    let seed = Matrix::from_fn(n, n, |i, j| {
        let v = ((i * 37 + j * 61 + 13) % 97) as f64 / 97.0 - 0.5;
        let w = ((j * 37 + i * 61 + 13) % 97) as f64 / 97.0 - 0.5;
        0.5 * (v + w)
    });
    let (_, q) = symmetric_eigen(&seed).top_k(n);
    let mut d = Matrix::zeros(n, n);
    for (i, &lam) in spectrum.iter().enumerate() {
        d[(i, i)] = lam;
    }
    q.matmul(&d).matmul(&q.transpose())
}

#[test]
fn clustered_eigenvalues_still_resolve() {
    // Top cluster at 5.0 ± 1e-5: tighter than the QL convergence window
    // is allowed to smear, wide enough to stay simple. The inverse
    // iteration's cluster orthogonalization has to keep the two vectors
    // independent.
    let spectrum = [0.1, 0.4, 0.9, 1.3, 2.0, 2.4, 3.0, 4.9999, 5.0, 5.00001];
    let a = matrix_with_spectrum(&spectrum);
    let top = symmetric_eigen_topk(&a, 3);
    assert!(max_residual(&a, &top.eigenvalues, &top.eigenvectors) < 1e-8);
    assert!(orthonormality_defect(&top.eigenvectors) < 1e-9);
    let full = symmetric_eigen(&a);
    for (got, want) in top.eigenvalues.iter().zip(full.top_k(3).0) {
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
    }
}

#[test]
fn degenerate_eigenvalues_span_the_same_subspace() {
    // An exactly repeated top eigenvalue: individual eigenvectors are
    // not unique, the invariant subspace is. Compare the spectral
    // projectors `V Vᵀ` of both solvers.
    let spectrum = [0.2, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 7.0, 7.0, 7.0];
    let a = matrix_with_spectrum(&spectrum);
    let k = 3;
    let top = symmetric_eigen_topk(&a, k);
    let (_, full_vecs) = symmetric_eigen(&a).top_k(k);
    assert!(max_residual(&a, &top.eigenvalues, &top.eigenvectors) < 1e-8);
    assert!(orthonormality_defect(&top.eigenvectors) < 1e-9);
    let p_top = top.eigenvectors.matmul(&top.eigenvectors.transpose());
    let p_full = full_vecs.matmul(&full_vecs.transpose());
    let diff = p_top.max_abs_diff(&p_full);
    assert!(diff < 1e-8, "projector deviation {diff}");
}

#[test]
fn well_separated_spectrum_matches_entrywise() {
    let spectrum = [-3.0, -1.5, -0.5, 0.25, 1.0, 2.0, 3.5, 5.0, 8.0, 13.0];
    let a = matrix_with_spectrum(&spectrum);
    for k in [1usize, 2, 4, 7] {
        let top = symmetric_eigen_topk(&a, k);
        let (_, full_vecs) = symmetric_eigen(&a).top_k(k);
        let diff = max_signed_column_diff(&full_vecs, &top.eigenvectors);
        assert!(diff <= 1e-9, "k={k}: entrywise deviation {diff}");
    }
}

#[test]
fn k_equals_n_matches_full_decomposition() {
    let spectrum = [0.3, 1.1, 2.2, 3.3, 4.4, 5.5];
    let a = matrix_with_spectrum(&spectrum);
    let n = a.nrows();
    let top = symmetric_eigen_topk(&a, n);
    let (full_vals, full_vecs) = symmetric_eigen(&a).top_k(n);
    for (got, want) in top.eigenvalues.iter().zip(&full_vals) {
        assert!((got - want).abs() < 1e-9);
    }
    assert!(max_signed_column_diff(&full_vecs, &top.eigenvectors) <= 1e-9);
}
