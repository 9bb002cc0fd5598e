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
//! 3.2) wherever its Krylov space is small next to the order, and the
//! k-targeted dense solver (`symmetric_eigen_topk`, `O(n³)` for the
//! one-off reduction) in between.
//!
//! The crossover was measured, not chosen. Gaussian median-σ
//! Laplacians of `blobs(n, 64, k)` with 20% noise at spread 1.0 (a
//! small eigengap; spread 0.2 at n = 80), one thread of a 2-vCPU
//! AVX2+FMA Xeon VM. "Block" is the block Lanczos solver of
//! `dasc_linalg::lanczos`; "single" is the one-vector Lanczos it
//! replaced, measured in the same session. The `--ignored` test
//! `crossover_sweep_checks_both_routes` in `tests/eigen_equivalence.rs`
//! re-runs the grid.
//!
//! ```text
//!    n    k   dense-k ms   block ms (dim)   single ms (dim)   route
//!   80    2        0.43       0.12 (18)        0.32 (40)      dense_k
//!   80    8        0.47       0.66 (48)        0.30 (40)      dense_k
//!   80   16        0.54       1.78 (76)        0.50 (52)      dense_k
//!  128    2        1.15       0.50 (38)        0.43 (40)      dense_k
//!  128    8        1.23       1.68 (76)        1.69 (80)      dense_k
//!  128   16        1.42       3.15 (96)        2.75 (104)     dense_k
//!  160    2        1.88       0.64 (38)        0.56 (40)      dense_k
//!  160    8        2.04       1.89 (76)        2.04 (80)      dense_k
//!  160   16        2.11       3.26 (96)        3.22 (104)     dense_k
//!  200    2        2.87       1.43 (48)        0.70 (40)      lanczos
//!  200    8        3.32       2.12 (76)        2.25 (80)      lanczos
//!  200   16        3.32       3.69 (96)        3.91 (104)     dense_k
//!  200   24        3.56       4.97 (112)       6.75 (136)     dense_k
//!  256    2        7.64       1.81 (48)        1.21 (40)      lanczos
//!  256    8        8.10       5.19 (96)        2.70 (80)      lanczos
//!  256   16        8.54       4.23 (96)        4.24 (104)     lanczos
//!  256   32        6.67       6.06 (112)      10.3  (168)     dense_k
//!  512    2       38.1        4.38 (48)        4.40 (40)      lanczos
//!  512   16       52.6       15.3  (120)      17.2  (104)     lanczos
//!  512   48       51.4       13.5  (120)      15.8  (116)     lanczos
//!  512   64       43.8       18.1  (128)      23.5  (148)     dense_k
//!  512  100       68.1      109    (316)     167    (440)     dense_k
//! 1024    2      436         21.6  (38)       23.3  (40)      lanczos
//! 1024   64      400         56.4  (128)     105    (148)     lanczos
//! 1024   96      457        343    (376)     545    (424)     lanczos
//! 1024  128      494        474    (496)     719    (552)     dense_k
//! 1024  204      430        739    (628)    2044    (856)     dense_k
//! 2349    9     7331        307    (120)     518    (80)      lanczos
//! 2349   64     7926        386    (128)     923    (148)     lanczos
//! 2349  200     6871       3817    (776)    8986    (840)     lanczos
//! ```
//!
//! On every case the rule sends to Lanczos, the block solver beats
//! dense-k (1.3–24×). [`resolve_eigen_path`] keeps dense-k up to the
//! 160-point floor and while `n` is under four route blocks
//! (`lanczos_block(k) = max(2k + 20, 40)` vectors, the space a small
//! eigengap makes Lanczos build): whether the Krylov space grows
//! toward `n` depends on the spectrum, which `(n, k)` alone does not
//! tell, and under four blocks dense-k was still faster on 7 of these
//! 11 cases (`(160, 8)` and `(1024, 128)` tie). Two cases under four
//! blocks now favour Lanczos, `(256, 32)` by 1.1× and `(512, 64)` by
//! 2.4×; the rule was kept as it was measured for the single-vector
//! solver. Against that solver, the block solver is as fast or faster
//! from `n = 512` up (1.0–2.8×, most at large `n` or `k`), and slower on small orders with a small eigengap
//! (`(200, 2)`, `(256, 2)`, `(256, 8)` on the Lanczos route), where the
//! matrix stays in cache, a block reads it little faster than one
//! vector, and the Rayleigh–Ritz checks cost as much as the products.

use dasc_linalg::{
    lanczos, symmetric_eigen, symmetric_eigen_topk, CsrMatrix, FlatPoints, LanczosOptions, MatVec,
    Matrix,
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
/// dense-k. For `k ≤ 10` a route block (`max(2k + 20, 40)`) is 40
/// vectors, so this is four blocks, where Lanczos stops losing on hard spectra (n = 160,
/// k = 8 ties in the module table). Every executor (serial [`crate::Dasc`],
/// [`crate::SpectralClustering`] and the `dasc-dist` reduce tasks)
/// takes its default from here, so the routes cannot drift apart.
pub const LANCZOS_THRESHOLD: usize = 160;

/// Lanczos needs `n` to be at least this many route blocks
/// ([`lanczos_block`]) before it beats dense-k: closer to `n`, a small
/// eigengap grows the space toward the full order at `O(n³)` cost with
/// a worse constant than the dense reduction (module table).
const LANCZOS_MIN_BLOCKS: usize = 4;

/// The route rule's measure of a Lanczos run's size for `k` pairs:
/// `max(2k + 20, 40)` vectors, the Krylov space a small eigengap makes
/// the solver build before its pairs converge.
fn lanczos_block(k: usize) -> usize {
    (2 * k + 20).max(40)
}

/// Resolve the automatic eigensolver choice for an `n×n` problem
/// wanting `k` vectors: full dense for tiny orders or nearly-full
/// spectra (`4k ≥ n`); the k-targeted dense path up to the caller's
/// `lanczos_threshold` floor, or while `n` is under
/// `LANCZOS_MIN_BLOCKS` route blocks; Lanczos beyond both.
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
        // The module table's cases: Lanczos where a route block is
        // small next to n, dense-k where four blocks reach n.
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
