//! The exact (full) Gram matrix — the O(N²) object DASC avoids.
//!
//! Two implementations live here. The scalar path walks pairs one at a
//! time (raw basis value per pair, batched kernel map per row) and is
//! bit-identical to per-entry `Kernel::eval`. The tiled path routes the
//! raw-value computation through the `dasc_linalg::gemm` micro-kernels:
//! squared distances come from the norm expansion
//! `‖x‖² + ‖y‖² − 2⟨x,y⟩` over register-blocked `A·Bᵀ` tiles, and the
//! kernel map (Gaussian `exp`, polynomial powers) runs as one batched
//! pass over each computed panel. The two paths agree entrywise to a
//! few ULPs of the row norms (see the negative-clamp discussion in
//! `dasc_linalg::gemm`), and [`full_gram_flat`] dispatches between them
//! on [`TILED_MIN_POINTS`].

use dasc_linalg::{gemm, FlatPoints, Matrix};
use rayon::prelude::*;

use crate::functions::{Kernel, TileBasis};

/// Smallest point count routed to the tiled micro-kernel path.
///
/// Below this, a bucket's Gram block costs less than the tiled path's
/// setup (row-norm pass, panel bookkeeping), and staying scalar keeps
/// small blocks bitwise identical to per-entry `Kernel::eval` — which
/// is also what pins down tests that assert exact equality on tiny
/// fixtures. 64 points ≈ one `GEMM_TILE_ROWS`-tile of work per row
/// panel, the first size where tile reuse starts paying.
pub const TILED_MIN_POINTS: usize = 64;

/// Row-panel height of the parallel tiled driver: each pool task owns
/// this many output rows, so tasks write disjoint chunks and the result
/// is independent of the thread count.
const GRAM_PANEL_ROWS: usize = 64;

/// Smallest point count worth fanning out across the thread pool.
///
/// Below this, a full Gram fill is microseconds of work and the pool's
/// task hand-off dominates — `BENCH_pipeline.json` recorded a 0.96×
/// "speedup" at n=1000 before this threshold existed. Both fill paths
/// produce bit-identical output either way (each chunk's contents
/// depend only on its row range), so the sequential branch is purely a
/// scheduling decision.
pub const PARALLEL_MIN_POINTS: usize = 256;

/// Compute the full `N×N` Gram matrix `K[l,m] = k(X_l, X_m)`.
///
/// Flattens the points and delegates to [`full_gram_flat`].
pub fn full_gram(points: &[Vec<f64>], kernel: &Kernel) -> Matrix {
    full_gram_flat(&FlatPoints::from_rows(points), kernel)
}

/// [`full_gram`] over pre-flattened points — the hot path.
///
/// Dispatches to [`full_gram_flat_tiled`] for sets of at least
/// [`TILED_MIN_POINTS`] points whose kernel has a GEMM-expressible
/// basis, and to [`full_gram_flat_scalar`] otherwise (small blocks, and
/// the Laplacian's L1 basis which no bilinear form produces).
pub fn full_gram_flat(points: &FlatPoints, kernel: &Kernel) -> Matrix {
    if points.len() >= TILED_MIN_POINTS && kernel.tile_basis() != TileBasis::L1 {
        full_gram_flat_tiled(points, kernel)
    } else {
        full_gram_flat_scalar(points, kernel)
    }
}

/// Scalar reference path: one raw basis value per pair, batched kernel
/// map per row segment.
///
/// Each parallel task writes its row of the output matrix directly via
/// `par_chunks_mut`, so the N×N buffer is the only allocation: no
/// per-row vectors, no second copy of the triangle. Only the upper
/// triangle (`j >= i`) is evaluated; the lower one is mirrored in place
/// afterwards. Row `i` costs `n - i` kernel evaluations, so the
/// work-stealing pool's fine splits are what keep the triangular load
/// balanced. The per-pair dimension check is hoisted: `FlatPoints`
/// guarantees a uniform stride, so the loop uses the prevalidated batch
/// entry points.
pub fn full_gram_flat_scalar(points: &FlatPoints, kernel: &Kernel) -> Matrix {
    let n = points.len();
    let mut g = Matrix::zeros(n, n);
    if n == 0 {
        return g;
    }
    let fill = |(i, row): (usize, &mut [f64])| {
        let xi = points.row(i);
        for (j, out) in row.iter_mut().enumerate().skip(i) {
            *out = kernel.raw(xi, points.row(j));
        }
        kernel.map_raw(&mut row[i..]);
    };
    if n >= PARALLEL_MIN_POINTS {
        g.as_mut_slice()
            .par_chunks_mut(n)
            .enumerate()
            .for_each(fill);
    } else {
        g.as_mut_slice().chunks_mut(n).enumerate().for_each(fill);
    }
    g.mirror_upper();
    g
}

/// Tiled micro-kernel path: raw basis values via `gemm` panels, kernel
/// map batched over each panel.
///
/// Parallelism is over `GRAM_PANEL_ROWS`-row output panels; a panel
/// computes columns `j ≥ panel start` (everything at or right of the
/// diagonal block) and the strict lower triangle is mirrored from the
/// upper afterwards, so the matrix is exactly symmetric. The diagonal
/// is then overwritten with the scalar `k(x, x)` — exact `1.0` for the
/// Gaussian — because the norm expansion can leave `±ULP` residue where
/// the direct form is exactly zero.
///
/// # Panics
/// Panics if the kernel's basis is [`TileBasis::L1`] (no GEMM form).
pub fn full_gram_flat_tiled(points: &FlatPoints, kernel: &Kernel) -> Matrix {
    let basis = kernel.tile_basis();
    assert_ne!(
        basis,
        TileBasis::L1,
        "tiled gram: L1 basis has no GEMM form"
    );
    let n = points.len();
    let dim = points.dim();
    let mut g = Matrix::zeros(n, n);
    if n == 0 {
        return g;
    }
    let norms = match basis {
        TileBasis::SqDist => gemm::row_sq_norms(points),
        _ => Vec::new(),
    };
    let fill = |(ci, chunk): (usize, &mut [f64])| {
        let r0 = ci * GRAM_PANEL_ROWS;
        let rows = chunk.len() / n;
        let a = points.rows(r0, r0 + rows);
        let b = points.rows(r0, n);
        let nb = n - r0;
        let out = &mut chunk[r0..];
        match basis {
            TileBasis::SqDist => gemm::sq_dists_into(
                a,
                rows,
                &norms[r0..r0 + rows],
                b,
                nb,
                &norms[r0..],
                dim,
                out,
                n,
            ),
            TileBasis::Dot => gemm::abt_into(a, rows, b, nb, dim, out, n),
            TileBasis::L1 => unreachable!("rejected above"),
        }
        for li in 0..rows {
            kernel.map_raw(&mut chunk[li * n + r0..(li + 1) * n]);
        }
    };
    if n >= PARALLEL_MIN_POINTS {
        g.as_mut_slice()
            .par_chunks_mut(n * GRAM_PANEL_ROWS)
            .enumerate()
            .for_each(fill);
    } else {
        g.as_mut_slice()
            .chunks_mut(n * GRAM_PANEL_ROWS)
            .enumerate()
            .for_each(fill);
    }
    g.mirror_upper();
    for i in 0..n {
        let xi = points.row(i);
        g[(i, i)] = kernel.eval_prevalidated(xi, xi);
    }
    g
}

/// Memory a full Gram matrix for `n` points requires, in bytes, under
/// the paper's single-precision accounting (Eq. 12 uses 4 bytes/entry).
pub fn gram_memory_bytes(n: usize) -> usize {
    4 * n * n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
        ]
    }

    /// Deterministic pseudo-random points in [0, 1)^dim.
    fn cloud(n: usize, dim: usize) -> FlatPoints {
        let data: Vec<f64> = (0..n * dim)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (x % 997) as f64 / 997.0
            })
            .collect();
        FlatPoints::from_flat(data, dim)
    }

    #[test]
    fn gaussian_gram_diagonal_is_one() {
        let g = full_gram(&unit_square(), &Kernel::gaussian(1.0));
        for i in 0..4 {
            assert_eq!(g[(i, i)], 1.0);
        }
    }

    #[test]
    fn tiled_gaussian_diagonal_is_exactly_one() {
        // The tiled path must pin the diagonal at the scalar value even
        // though the norm expansion can leave ±ULP residue off it.
        let pts = cloud(100, 3);
        let g = full_gram_flat_tiled(&pts, &Kernel::gaussian(0.4));
        for i in 0..100 {
            assert_eq!(g[(i, i)], 1.0);
        }
    }

    #[test]
    fn gram_is_symmetric() {
        let g = full_gram(&unit_square(), &Kernel::gaussian(0.5));
        assert!(g.is_symmetric(0.0));
    }

    #[test]
    fn tiled_gram_is_exactly_symmetric() {
        for kernel in [
            Kernel::gaussian(0.5),
            Kernel::Linear,
            Kernel::Polynomial { degree: 2, c: 1.0 },
        ] {
            let g = full_gram_flat_tiled(&cloud(97, 4), &kernel);
            assert!(g.is_symmetric(0.0), "{kernel:?} asymmetric");
        }
    }

    #[test]
    fn gram_values_match_kernel() {
        let pts = unit_square();
        let k = Kernel::gaussian(0.8);
        let g = full_gram(&pts, &k);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(g[(i, j)], k.eval(&pts[i], &pts[j]));
            }
        }
    }

    #[test]
    fn tiled_matches_scalar_within_tolerance() {
        // Odd sizes straddle tile boundaries on purpose.
        for n in [64, 65, 97, 130] {
            for kernel in [
                Kernel::gaussian(0.5),
                Kernel::Linear,
                Kernel::Polynomial { degree: 3, c: 0.5 },
            ] {
                let pts = cloud(n, 3);
                let scalar = full_gram_flat_scalar(&pts, &kernel);
                let tiled = full_gram_flat_tiled(&pts, &kernel);
                let diff = scalar.max_abs_diff(&tiled);
                assert!(diff < 1e-12, "{kernel:?} n={n}: max diff {diff}");
            }
        }
    }

    #[test]
    fn dispatch_threshold_picks_paths() {
        let k = Kernel::gaussian(0.5);
        // Below the threshold: bitwise equal to the scalar reference.
        let small = cloud(TILED_MIN_POINTS - 1, 2);
        assert_eq!(
            full_gram_flat(&small, &k).as_slice(),
            full_gram_flat_scalar(&small, &k).as_slice()
        );
        // At the threshold: bitwise equal to the tiled path.
        let big = cloud(TILED_MIN_POINTS, 2);
        assert_eq!(
            full_gram_flat(&big, &k).as_slice(),
            full_gram_flat_tiled(&big, &k).as_slice()
        );
        // Laplacian always stays scalar.
        let lap = Kernel::Laplacian { gamma: 1.0 };
        assert_eq!(
            full_gram_flat(&big, &lap).as_slice(),
            full_gram_flat_scalar(&big, &lap).as_slice()
        );
    }

    #[test]
    fn gaussian_gram_is_psd() {
        // All eigenvalues of a Gaussian Gram matrix are non-negative.
        let pts: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![(i as f64) / 12.0, ((i * 7) % 12) as f64 / 12.0])
            .collect();
        let g = full_gram(&pts, &Kernel::gaussian(0.4));
        let eig = dasc_linalg::symmetric_eigen(&g);
        for &v in &eig.eigenvalues {
            assert!(v > -1e-9, "negative eigenvalue {v}");
        }
    }

    #[test]
    fn empty_input() {
        let g = full_gram(&[], &Kernel::Linear);
        assert_eq!(g.shape(), (0, 0));
        let empty = FlatPoints::from_rows(&[]);
        assert_eq!(
            full_gram_flat_tiled(&empty, &Kernel::Linear).shape(),
            (0, 0)
        );
    }

    #[test]
    fn flat_matches_nested() {
        let pts = unit_square();
        let k = Kernel::gaussian(0.6);
        let nested = full_gram(&pts, &k);
        let flat = full_gram_flat(&dasc_linalg::FlatPoints::from_rows(&pts), &k);
        assert_eq!(nested.as_slice(), flat.as_slice());
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        // The direct-write parallel fill must reproduce the 1-thread
        // result exactly: same entries, same bits, any thread count —
        // on both the scalar and the tiled path. 97 points stays below
        // PARALLEL_MIN_POINTS (sequential branch on every pool), 300
        // exercises the genuinely parallel branch.
        for n in [97usize, 300] {
            let pts: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    vec![
                        (i as f64).sin(),
                        (i as f64 * 0.37).cos(),
                        i as f64 / n as f64,
                    ]
                })
                .collect();
            let k = Kernel::gaussian(0.45);
            let seq = dasc_pool::Pool::new(1).install(|| full_gram(&pts, &k));
            for threads in [2, 4] {
                let par = dasc_pool::Pool::new(threads).install(|| full_gram(&pts, &k));
                assert_eq!(
                    seq.as_slice(),
                    par.as_slice(),
                    "gram differs at n={n}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn memory_accounting_is_quadratic() {
        assert_eq!(gram_memory_bytes(1000), 4_000_000);
        assert_eq!(gram_memory_bytes(0), 0);
    }
}
