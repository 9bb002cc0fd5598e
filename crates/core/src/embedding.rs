//! The spectral tail (Ng–Jordan–Weiss), written once: the normalized
//! Laplacian `L = D^{−1/2} S D^{−1/2}` (Eq. 2), its leading
//! eigenvectors, row normalization to the unit sphere, K-means. SC (and
//! so every DASC bucket) runs it on a dense `S`; PSC on each component
//! of its CSR t-NN graph, whose one eigen route is Lanczos; NYST builds
//! its own approximate embedding and runs only the last two steps.
//!
//! The hot path works in place: the similarity matrix is scaled into
//! the Laplacian without a second `n×n` allocation, the embedding is
//! row-normalized without cloning, and the dense eigensolve routes
//! through one of three paths ([`EigenPath`]) — the full dense solver
//! for tiny or nearly-full spectra, Lanczos (the paper's solver, Sec.
//! 3.2) wherever its Krylov block is small next to the order, and the
//! k-targeted dense solver (`symmetric_eigen_topk`, `O(n³)` for the
//! one-off reduction) in between.
//!
//! The crossover was measured, not chosen. Gaussian median-σ
//! Laplacians of `blobs(n, 64, k)` with 20% noise at spread 1.0 (a
//! small eigengap; spread 0.2 at n = 80), one thread of a 2-vCPU
//! AVX2+FMA Xeon VM; "blocks" is `n / lanczos_block(k)`. The `--ignored`
//! test `crossover_sweep_checks_both_routes` in
//! `tests/eigen_equivalence.rs` re-runs the grid.
//!
//! ```text
//!    n    k   dense-k ms   Lanczos ms (Krylov dim)   blocks
//!   80    2        0.66         0.41 (40)              2.0
//!  128    8        2.01         2.48 (80)              3.2
//!  160    2        3.01         0.69 (40)              4.0
//!  160    8        3.01         2.76 (80)              4.0
//!  200    2        4.53         0.91 (40)              5.0
//!  200   16        5.06         6.30 (104)             3.8
//!  256   16        9.38         7.18 (104)             4.9
//!  256   32        9.86        19.1  (168)             3.0
//!  512    2       51.8          4.31 (40)             12.8
//!  512   64       65.2         31.5  (148)             3.5
//!  512  100       68.2        365    (440)             2.3
//!  768   64      156           60.2  (148)             5.2
//! 1024   64      482          123    (148)             6.9
//! 1024   96      408          595    (424)             4.8
//! 1024  128      566         1176    (552)             3.7
//! 2349    9     6969          590    (80)             29
//! 2349  200     7612        10430    (840)             5.6
//! 2349  469     9042        94012    (1916)            2.5
//! ```
//!
//! Lanczos wins 1.6–18× wherever its first Krylov block
//! ([`dasc_linalg::lanczos_block`]) converges, and loses up to 10× where
//! a large `k` and a small eigengap grow the space toward `n`. Whether
//! it grows depends on the spectrum, which `(n, k)` alone does not tell,
//! so [`resolve_eigen_path`] bounds the damage. Under four blocks,
//! dense-k was faster on 12 of the 14 spread-1.0 cases with `k ≥ 8`, so
//! those stay on dense-k; so does everything up to the 160-point
//! default floor, where `k ≤ 4` still favoured Lanczos (1.6–3.4×) but
//! `(128, 8)` did not. Above four blocks Lanczos still lost on some
//! large-`k` cases past `n = 512` (up to 5.6 blocks, 0.7×), but a larger
//! multiplier would also have moved `(768, 64)`, a 2.6× Lanczos win, to
//! dense-k.

use dasc_linalg::{
    lanczos, lanczos_block, symmetric_eigen, symmetric_eigen_topk, CsrMatrix, FlatPoints,
    LanczosOptions, MatVec, Matrix,
};

use crate::kmeans::{KMeans, KMeansConfig};

/// The resolved eigensolver route for one embedding: the choice
/// [`resolve_eigen_path`] made, or the one a caller of
/// [`top_eigenvectors_with`] forces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EigenPath {
    /// Full decomposition (`symmetric_eigen`): Householder reduction,
    /// QL rotating all `n` vectors, then a blocked back-transform of
    /// all of them; `O(n³)`.
    DenseFull,
    /// K-targeted dense path (`symmetric_eigen_topk`): the same
    /// reduction, eigenvalues-only QL, inverse iteration, and a
    /// back-transform of just the `k` wanted vectors.
    DenseK,
    /// Lanczos with full reorthogonalization on the dense operator.
    Lanczos,
}

impl EigenPath {
    /// Stable lowercase name (bench JSON, trace labels).
    pub fn as_str(&self) -> &'static str {
        match self {
            EigenPath::DenseFull => "dense_full",
            EigenPath::DenseK => "dense_k",
            EigenPath::Lanczos => "lanczos",
        }
    }
}

/// Below this order the full dense solve is cheap enough that the
/// inverse-iteration machinery isn't worth its bookkeeping.
const DENSE_FULL_MAX: usize = 64;

/// Default dense floor: at or below this order every bucket stays on
/// dense-k. For `k ≤ 10` the Lanczos block is 40 vectors, so this is
/// four blocks, where Lanczos stops losing on hard spectra (n = 160,
/// k = 8 ties in the module table). Every executor (serial [`crate::Dasc`],
/// [`crate::SpectralClustering`] and the `dasc-dist` reduce tasks)
/// takes its default from here, so the routes cannot drift apart.
pub const LANCZOS_THRESHOLD: usize = 160;

/// Lanczos needs `n` to be at least this many Krylov blocks
/// ([`lanczos_block`]) before it beats dense-k: closer to `n`, a small
/// eigengap grows the space toward the full order at `O(n³)` cost with
/// a worse constant than the dense reduction (module table).
const LANCZOS_MIN_BLOCKS: usize = 4;

/// Resolve the automatic eigensolver choice for an `n×n` problem
/// wanting `k` vectors: full dense for tiny orders or nearly-full
/// spectra (`4k ≥ n`); the k-targeted dense path up to the caller's
/// `lanczos_threshold` floor, or while `n` is under
/// `LANCZOS_MIN_BLOCKS` Lanczos blocks; Lanczos beyond both.
pub fn resolve_eigen_path(n: usize, k: usize, lanczos_threshold: usize) -> EigenPath {
    if n <= DENSE_FULL_MAX || 4 * k >= n {
        EigenPath::DenseFull
    } else if n <= lanczos_threshold || n < LANCZOS_MIN_BLOCKS * lanczos_block(k) {
        EigenPath::DenseK
    } else {
        EigenPath::Lanczos
    }
}

/// `1/√d` per degree, and `0` for an isolated vertex so that its row and
/// column stay zero: the one degree rule of both Laplacians.
fn inv_sqrt_degrees(degrees: &[f64]) -> Vec<f64> {
    degrees
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
        .collect()
}

/// Scale a dense similarity matrix into the symmetric normalized
/// Laplacian `L = D^{−1/2} S D^{−1/2}` (Eq. 2) **in place**, returning
/// the degree vector.
///
/// Isolated vertices (zero degree) keep zero rows, as in the sparse
/// Laplacian.
///
/// # Panics
/// Panics if `s` is not square.
pub fn normalized_laplacian_inplace(s: &mut Matrix) -> Vec<f64> {
    assert!(s.is_square(), "laplacian: matrix must be square");
    let n = s.nrows();
    let degrees = s.row_sums();
    let inv_sqrt = inv_sqrt_degrees(&degrees);
    for (i, row) in s.as_mut_slice().chunks_exact_mut(n).enumerate() {
        let di = inv_sqrt[i];
        for (v, &dj) in row.iter_mut().zip(&inv_sqrt) {
            *v = di * *v * dj;
        }
    }
    degrees
}

/// [`normalized_laplacian_inplace`] for a sparse similarity: scales the
/// stored entries of `s` in place.
pub(crate) fn sparse_normalized_laplacian_inplace(s: &mut CsrMatrix) {
    let inv_sqrt = inv_sqrt_degrees(&s.row_sums());
    s.diag_scale(&inv_sqrt, &inv_sqrt);
}

/// Top-`k` eigenvectors of a dense symmetric matrix, stacked as
/// columns, computed via the given [`EigenPath`].
pub fn top_eigenvectors_with(l: &Matrix, k: usize, path: EigenPath, seed: u64) -> Matrix {
    let n = l.nrows();
    let k = k.min(n).max(1);
    match path {
        EigenPath::DenseFull => symmetric_eigen(l).top_k(k).1,
        EigenPath::DenseK => symmetric_eigen_topk(l, k).eigenvectors,
        EigenPath::Lanczos => lanczos_top_eigenvectors(l, k, seed),
    }
}

/// Top-`k` eigenvectors of any symmetric operator by Lanczos, stacked as
/// columns: the dense [`EigenPath::Lanczos`] route, and the only route
/// for a [`CsrMatrix`].
pub(crate) fn lanczos_top_eigenvectors<A: MatVec>(a: &A, k: usize, seed: u64) -> Matrix {
    let mut opts = LanczosOptions::top(k);
    opts.seed = seed;
    lanczos(a, &opts).eigenvectors
}

/// Row-normalize an `n × k` embedding and cluster its rows into `k`
/// groups (`k` its column count) with K-means seeded by `seed`: the
/// tail's last two steps. Returns one label per row.
pub(crate) fn cluster_embedding(mut v: Matrix, seed: u64) -> Vec<usize> {
    let k = v.ncols();
    row_normalize(&mut v);
    // The embedding is already row-major `n × k`; hand it to k-means as
    // a flat buffer instead of re-nesting it into Vec<Vec<f64>>.
    KMeans::new(KMeansConfig::new(k).seed(seed))
        .run_flat(&FlatPoints::from_flat(v.into_vec(), k))
        .assignments
}

/// Row-normalize an embedding to unit length **in place**
/// (`Y_ij = X_ij / √(Σ_j X_ij²)`, the NJW step quoted in Section 3.2).
/// Zero rows are left at zero.
pub fn row_normalize(x: &mut Matrix) {
    let k = x.ncols();
    if k == 0 {
        return;
    }
    for row in x.as_mut_slice().chunks_exact_mut(k) {
        let norm: f64 = row.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 0.0 {
            for v in row.iter_mut() {
                *v /= norm;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasc_linalg::symmetric_eigen;

    /// The normalized Laplacian of `s`, keeping `s`.
    fn laplacian(s: &Matrix) -> Matrix {
        let mut l = s.clone();
        normalized_laplacian_inplace(&mut l);
        l
    }

    #[test]
    fn laplacian_of_uniform_similarity() {
        // S = all-ones (n=4): degrees 4, L = S/4 with eigenvalue 1.
        let s = Matrix::from_fn(4, 4, |_, _| 1.0);
        let l = laplacian(&s);
        assert!((l[(0, 0)] - 0.25).abs() < 1e-12);
        let eig = symmetric_eigen(&l);
        assert!((eig.eigenvalues[3] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn inplace_laplacian_returns_degrees() {
        let s = Matrix::from_rows(&[&[1.0, 0.5, 0.1], &[0.5, 1.0, 0.2], &[0.1, 0.2, 1.0]]);
        let mut l = s.clone();
        assert_eq!(normalized_laplacian_inplace(&mut l), s.row_sums());
        // Degrees 1.6 and 1.3: L₀₂ = S₀₂ / √(d₀ d₂).
        assert!((l[(0, 2)] - 0.1 / (1.6f64 * 1.3).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn laplacian_top_eigenvalue_at_most_one() {
        // For any similarity matrix with non-negative entries, the
        // normalized Laplacian's spectrum lies in [-1, 1].
        let s = Matrix::from_rows(&[&[1.0, 0.5, 0.1], &[0.5, 1.0, 0.2], &[0.1, 0.2, 1.0]]);
        let l = laplacian(&s);
        let eig = symmetric_eigen(&l);
        for &v in &eig.eigenvalues {
            assert!((-1.0 - 1e-10..=1.0 + 1e-10).contains(&v));
        }
    }

    #[test]
    fn laplacian_handles_isolated_vertex() {
        // Vertex 0 is isolated: the dense and sparse Laplacians share
        // one degree rule, so both keep its row at zero and agree.
        let s = Matrix::from_rows(&[&[0.0, 0.0, 0.0], &[0.0, 1.0, 0.5], &[0.0, 0.5, 2.0]]);
        let dense = laplacian(&s);
        assert_eq!(dense.row(0), &[0.0, 0.0, 0.0]);
        assert!((dense[(1, 1)] - 1.0 / 1.5).abs() < 1e-12);
        let mut b = dasc_linalg::CooBuilder::new(3, 3);
        for (i, j, v) in [(1, 1, 1.0), (1, 2, 0.5), (2, 1, 0.5), (2, 2, 2.0)] {
            b.push(i, j, v);
        }
        let mut sparse = b.build();
        sparse_normalized_laplacian_inplace(&mut sparse);
        for i in 0..3 {
            for j in 0..3 {
                assert!((sparse.get(i, j) - dense[(i, j)]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn block_similarity_yields_indicator_eigenvectors() {
        // Two disconnected blocks: top-2 eigenvectors separate them.
        let mut s = Matrix::zeros(4, 4);
        for i in 0..2 {
            for j in 0..2 {
                s[(i, j)] = 1.0;
                s[(i + 2, j + 2)] = 1.0;
            }
        }
        let l = laplacian(&s);
        let mut y = top_eigenvectors_with(&l, 2, EigenPath::DenseFull, 0);
        row_normalize(&mut y);
        // Rows 0,1 identical; rows 2,3 identical; the two groups differ.
        let r0 = y.row(0).to_vec();
        let r2 = y.row(2).to_vec();
        assert!((r0[0] - y.row(1)[0]).abs() < 1e-8);
        assert!((r2[0] - y.row(3)[0]).abs() < 1e-8);
        let dot: f64 = r0.iter().zip(&r2).map(|(a, b)| a * b).sum();
        assert!(dot.abs() < 1e-8, "group embeddings not orthogonal");
    }

    #[test]
    fn row_normalize_unit_rows() {
        let mut m = Matrix::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]);
        row_normalize(&mut m);
        assert!((m[(0, 0)] - 0.6).abs() < 1e-12);
        assert!((m[(0, 1)] - 0.8).abs() < 1e-12);
        assert_eq!(m.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn auto_path_picks_all_three_routes() {
        // Tiny → full dense; nearly-full spectrum → full dense;
        // at or under the caller's floor → dense-k; past it → Lanczos.
        assert_eq!(resolve_eigen_path(16, 3, 512), EigenPath::DenseFull);
        assert_eq!(resolve_eigen_path(100, 30, 512), EigenPath::DenseFull);
        assert_eq!(resolve_eigen_path(100, 5, 512), EigenPath::DenseK);
        assert_eq!(resolve_eigen_path(400, 5, 512), EigenPath::DenseK);
        assert_eq!(resolve_eigen_path(1000, 5, 512), EigenPath::Lanczos);
    }

    #[test]
    fn default_route_follows_the_measured_crossover() {
        // The module table's cases: Lanczos where its Krylov block is
        // small next to n, dense-k where the block nears n.
        for (n, k, want) in [
            (80, 2, EigenPath::DenseK),
            (200, 2, EigenPath::Lanczos),
            (200, 24, EigenPath::DenseK),
            (256, 16, EigenPath::Lanczos),
            (512, 100, EigenPath::DenseK),
            (2349, 9, EigenPath::Lanczos),
        ] {
            assert_eq!(
                resolve_eigen_path(n, k, LANCZOS_THRESHOLD),
                want,
                "n = {n}, k = {k}"
            );
        }
    }

    #[test]
    fn all_three_paths_agree_on_block_structure() {
        // A similarity with two clear blocks plus mild noise: the top-2
        // eigenspace is well separated, so all three solvers must span
        // the same subspace (compare |dot| per column after matching).
        let n = 80;
        let s = Matrix::from_fn(n, n, |i, j| {
            let same = (i < n / 2) == (j < n / 2);
            let base = if same { 1.0 } else { 0.05 };
            base + 0.01 * (((i * 31 + j * 17) % 13) as f64 / 13.0)
        });
        // Symmetrize the noise term.
        let s = Matrix::from_fn(n, n, |i, j| 0.5 * (s[(i, j)] + s[(j, i)]));
        let l = laplacian(&s);
        let full = top_eigenvectors_with(&l, 2, EigenPath::DenseFull, 7);
        let dk = top_eigenvectors_with(&l, 2, EigenPath::DenseK, 7);
        let lz = top_eigenvectors_with(&l, 2, EigenPath::Lanczos, 7);
        for c in 0..2 {
            let f = full.col(c);
            for (name, other) in [("dense_k", &dk), ("lanczos", &lz)] {
                let o = other.col(c);
                let dot: f64 = f.iter().zip(&o).map(|(a, b)| a * b).sum();
                assert!(
                    dot.abs() > 0.999,
                    "{name} column {c} diverges (|dot| = {})",
                    dot.abs()
                );
            }
        }
    }

    #[test]
    fn lanczos_path_matches_dense_path() {
        let s = Matrix::from_fn(30, 30, |i, j| {
            (-((i as f64 - j as f64) / 5.0).powi(2)).exp()
        });
        let l = laplacian(&s);
        let dense = top_eigenvectors_with(&l, 3, EigenPath::DenseFull, 7);
        let lz = top_eigenvectors_with(&l, 3, EigenPath::Lanczos, 7);
        // Eigenvectors match up to sign: compare absolute inner products.
        for c in 0..3 {
            let a = dense.col(c);
            let b = lz.col(c);
            let dot: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!(
                dot.abs() > 0.99,
                "column {c} mismatch (|dot| = {})",
                dot.abs()
            );
        }
    }
}
