//! Blocked dense micro-kernels over flat row-major buffers.
//!
//! The hot O(N²) loops of the pipeline — Gram blocks and the K-means
//! assignment step — are pairwise operations between two point sets.
//! Evaluated one pair at a time they are bandwidth- and ILP-bound:
//! every squared distance walks both operands once and the summation is
//! a single serial dependency chain.
//!
//! This module restructures them as a dense `C ← A·Bᵀ` micro-kernel
//! over cache-sized tiles of rows, with squared distances recovered by
//! the norm expansion
//!
//! ```text
//! ‖x − y‖² = ‖x‖² + ‖y‖² − 2⟨x, y⟩
//! ```
//!
//! so each loaded tile of `B` is reused against a whole tile of `A`
//! rows, and the inner kernel keeps several independent accumulator
//! chains in flight (4 output columns × 2 unrolled depth steps), which
//! is what lets the compiler schedule the FMAs in parallel instead of
//! serializing on one running sum.
//!
//! Numerics: the expansion is algebraically exact but not bitwise equal
//! to the direct `Σ (xᵢ−yᵢ)²` form — cancellation between `‖x‖²+‖y‖²`
//! and `2⟨x,y⟩` can leave values off by a few ULPs of the norms, and
//! for `x ≈ y` can even produce a tiny *negative* result. Every driver
//! here therefore clamps distances at zero. Callers that need bitwise
//! agreement with the scalar path (tiny inputs where the difference is
//! observable relative to setup cost) should stay on the scalar path;
//! see `dasc_kernel::TILED_MIN_POINTS` for where the kernel layer draws
//! that line.
//!
//! Everything is deterministic *within a kernel backend*: a given
//! output entry is always computed by the same instruction sequence,
//! independent of tiling position or thread count, so parallel drivers
//! chunking over row panels reproduce the single-threaded result bit
//! for bit. Across backends the guarantee weakens to a tolerance:
//! the SIMD kernels (see [`crate::simd`]) fuse each multiply-add into a
//! single rounding step (FMA) and reduce 4- or 2-wide lanes in a fixed
//! but *different* order than the scalar accumulator chains, so the
//! same inner product can differ from the scalar result by a few ULPs.
//! `DASC_KERNEL=scalar` pins the process to the scalar kernels, whose
//! instruction sequences are unchanged from the pre-SIMD tree.
//!
//! Every public driver here resolves the process backend once
//! ([`KernelBackend::resolved`]); the `_with` variants take an explicit
//! backend for benchmarks and equivalence tests.

use crate::points::FlatPoints;
use crate::simd::{self, KernelBackend};

/// Rows of `B` processed per cache tile by the panel drivers.
///
/// 128 rows × 64 dims × 8 bytes = 64 KiB worst-case — comfortably L2
/// resident alongside the `A` row being streamed, and big enough that
/// tile-edge remainders are rare for realistic bucket sizes.
pub const GEMM_TILE_ROWS: usize = 128;

/// Squared L2 norm of every row: `out[i] = ⟨aᵢ, aᵢ⟩`.
///
/// Uses the same dot kernel as the panel drivers' remainder path so
/// that a row's norm and its self-inner-product agree bitwise wherever
/// both are computed with the resolved backend's single-row summation
/// order.
pub fn row_sq_norms(points: &FlatPoints) -> Vec<f64> {
    row_sq_norms_with(KernelBackend::resolved(), points)
}

/// [`row_sq_norms`] on an explicit kernel backend.
fn row_sq_norms_with(backend: KernelBackend, points: &FlatPoints) -> Vec<f64> {
    let dim = points.dim();
    points
        .iter()
        .map(|r| simd::dot(backend, r, r, dim))
        .collect()
}

/// [`row_sq_norms`] over a raw row-major buffer.
///
/// # Panics
/// Panics if `data.len()` is not a multiple of `dim` (for `dim > 0`).
pub fn row_sq_norms_flat(data: &[f64], dim: usize) -> Vec<f64> {
    row_sq_norms_flat_with(KernelBackend::resolved(), data, dim)
}

/// [`row_sq_norms_flat`] on an explicit kernel backend.
///
/// # Panics
/// Panics if `data.len()` is not a multiple of `dim` (for `dim > 0`).
pub fn row_sq_norms_flat_with(backend: KernelBackend, data: &[f64], dim: usize) -> Vec<f64> {
    if dim == 0 {
        return Vec::new();
    }
    assert_eq!(data.len() % dim, 0, "row_sq_norms: ragged buffer");
    data.chunks_exact(dim)
        .map(|r| simd::dot(backend, r, r, dim))
        .collect()
}

/// Dense `C ← A·Bᵀ` panel: `out[i·ldc + j] = ⟨aᵢ, bⱼ⟩` for
/// `i < ma`, `j < nb`, with `A` and `B` row-major at stride `dim`.
///
/// `ldc` is the output row stride, which lets callers write a panel
/// directly into a window of a larger matrix.
///
/// # Panics
/// Panics if the input or output buffers are too small for the
/// requested shape, or `ldc < nb`.
pub fn abt_into(
    a: &[f64],
    ma: usize,
    b: &[f64],
    nb: usize,
    dim: usize,
    out: &mut [f64],
    ldc: usize,
) {
    abt_into_with(KernelBackend::resolved(), a, ma, b, nb, dim, out, ldc);
}

/// [`abt_into`] on an explicit kernel backend.
///
/// # Panics
/// Panics under the same shape conditions as [`abt_into`].
#[allow(clippy::too_many_arguments)] // BLAS-style panel signature: shapes travel with buffers
pub fn abt_into_with(
    backend: KernelBackend,
    a: &[f64],
    ma: usize,
    b: &[f64],
    nb: usize,
    dim: usize,
    out: &mut [f64],
    ldc: usize,
) {
    panel_driver_with(
        backend,
        a,
        ma,
        dim,
        b,
        nb,
        dim,
        dim,
        out,
        ldc,
        |_, _, dot| dot,
    );
}

/// [`abt_into`] with independent row strides for `A` and `B`: each
/// inner product runs over the first `dim` entries of rows laid out at
/// stride `lda`/`ldb`. This is what lets the eigensolver's blocked
/// back-transform stream packed reflector panels against eigenvector
/// rows embedded in a wider matrix without copying either side.
///
/// # Panics
/// Panics if `lda`/`ldb` are below `dim`, the buffers are too small for
/// the requested shape, or `ldc < nb`.
#[allow(clippy::too_many_arguments)] // BLAS-style panel signature: shapes travel with buffers
pub fn abt_strided_into(
    a: &[f64],
    ma: usize,
    lda: usize,
    b: &[f64],
    nb: usize,
    ldb: usize,
    dim: usize,
    out: &mut [f64],
    ldc: usize,
) {
    abt_strided_into_with(
        KernelBackend::resolved(),
        a,
        ma,
        lda,
        b,
        nb,
        ldb,
        dim,
        out,
        ldc,
    );
}

/// [`abt_strided_into`] on an explicit kernel backend.
///
/// # Panics
/// Panics under the same shape conditions as [`abt_strided_into`].
#[allow(clippy::too_many_arguments)] // BLAS-style panel signature: shapes travel with buffers
pub fn abt_strided_into_with(
    backend: KernelBackend,
    a: &[f64],
    ma: usize,
    lda: usize,
    b: &[f64],
    nb: usize,
    ldb: usize,
    dim: usize,
    out: &mut [f64],
    ldc: usize,
) {
    panel_driver_with(
        backend,
        a,
        ma,
        lda,
        b,
        nb,
        ldb,
        dim,
        out,
        ldc,
        |_, _, dot| dot,
    );
}

/// Fused pairwise squared distances:
/// `out[i·ldc + j] = max(0, ‖aᵢ‖² + ‖bⱼ‖² − 2⟨aᵢ, bⱼ⟩)`.
///
/// `a_norms`/`b_norms` are the rows' squared norms (see
/// [`row_sq_norms`]); hoisting them out of the inner kernel is what
/// turns the distance computation into a pure matmul. Tiny negative
/// results of the floating-point cancellation are clamped to zero so
/// downstream `sqrt`/`exp` maps never see an out-of-domain value.
///
/// # Panics
/// Panics if norm slices don't match the row counts, buffers are too
/// small, or `ldc < nb`.
#[allow(clippy::too_many_arguments)] // BLAS-style panel signature: shapes travel with buffers
pub fn sq_dists_into(
    a: &[f64],
    ma: usize,
    a_norms: &[f64],
    b: &[f64],
    nb: usize,
    b_norms: &[f64],
    dim: usize,
    out: &mut [f64],
    ldc: usize,
) {
    sq_dists_into_with(
        KernelBackend::resolved(),
        a,
        ma,
        a_norms,
        b,
        nb,
        b_norms,
        dim,
        out,
        ldc,
    );
}

/// [`sq_dists_into`] on an explicit kernel backend.
///
/// # Panics
/// Panics under the same shape conditions as [`sq_dists_into`].
#[allow(clippy::too_many_arguments)] // BLAS-style panel signature: shapes travel with buffers
pub fn sq_dists_into_with(
    backend: KernelBackend,
    a: &[f64],
    ma: usize,
    a_norms: &[f64],
    b: &[f64],
    nb: usize,
    b_norms: &[f64],
    dim: usize,
    out: &mut [f64],
    ldc: usize,
) {
    assert_eq!(a_norms.len(), ma, "sq_dists: a_norms length mismatch");
    assert_eq!(b_norms.len(), nb, "sq_dists: b_norms length mismatch");
    panel_driver_with(
        backend,
        a,
        ma,
        dim,
        b,
        nb,
        dim,
        dim,
        out,
        ldc,
        |i, j, dot| (a_norms[i] + b_norms[j] - 2.0 * dot).max(0.0),
    );
}

/// Convenience tile driver: the full `ma × nb` squared-distance matrix
/// between two flat point sets, computing the row norms itself.
///
/// Returns a flat row-major buffer of length `a.len() * b.len()`.
///
/// # Panics
/// Panics if the two sets differ in dimension (unless one is empty).
pub fn pairwise_sq_dists(a: &FlatPoints, b: &FlatPoints) -> Vec<f64> {
    let (ma, nb) = (a.len(), b.len());
    if ma == 0 || nb == 0 {
        return Vec::new();
    }
    assert_eq!(a.dim(), b.dim(), "pairwise_sq_dists: dimension mismatch");
    let a_norms = row_sq_norms(a);
    let b_norms = row_sq_norms(b);
    let mut out = vec![0.0; ma * nb];
    sq_dists_into(
        a.as_slice(),
        ma,
        &a_norms,
        b.as_slice(),
        nb,
        &b_norms,
        a.dim(),
        &mut out,
        nb,
    );
    out
}

/// Shared tiled driver: validate the panel shapes once, then dispatch
/// the tile loop to the requested backend's kernels.
///
/// The `finish` closure is monomorphized into the kernel, so the fused
/// distance variant pays nothing over the raw matmul.
#[inline]
#[allow(clippy::too_many_arguments)] // BLAS-style panel signature: shapes travel with buffers
fn panel_driver_with<F>(
    backend: KernelBackend,
    a: &[f64],
    ma: usize,
    lda: usize,
    b: &[f64],
    nb: usize,
    ldb: usize,
    dim: usize,
    out: &mut [f64],
    ldc: usize,
    finish: F,
) where
    F: Fn(usize, usize, f64) -> f64 + Copy,
{
    if ma == 0 || nb == 0 {
        return;
    }
    assert!(lda >= dim && ldb >= dim, "gemm: input stride below depth");
    assert!(a.len() >= (ma - 1) * lda + dim, "gemm: A buffer too small");
    assert!(b.len() >= (nb - 1) * ldb + dim, "gemm: B buffer too small");
    assert!(ldc >= nb, "gemm: output stride below panel width");
    assert!(
        out.len() >= (ma - 1) * ldc + nb,
        "gemm: output buffer too small"
    );
    match backend {
        KernelBackend::Scalar => {
            panel_scalar(a, ma, lda, b, nb, ldb, dim, out, ldc, finish);
        }
        KernelBackend::Avx2Fma => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the backend is only resolvable/constructible after
            // `is_available` confirmed AVX2+FMA; shapes validated above.
            unsafe {
                simd::avx2::panel(
                    a,
                    ma,
                    lda,
                    b,
                    nb,
                    ldb,
                    dim,
                    out,
                    ldc,
                    GEMM_TILE_ROWS,
                    finish,
                );
            }
            #[cfg(not(target_arch = "x86_64"))]
            panel_scalar(a, ma, lda, b, nb, ldb, dim, out, ldc, finish);
        }
        KernelBackend::Neon => {
            #[cfg(target_arch = "aarch64")]
            // SAFETY: as above, with NEON confirmed at resolution time.
            unsafe {
                simd::neon::panel(
                    a,
                    ma,
                    lda,
                    b,
                    nb,
                    ldb,
                    dim,
                    out,
                    ldc,
                    GEMM_TILE_ROWS,
                    finish,
                );
            }
            #[cfg(not(target_arch = "aarch64"))]
            panel_scalar(a, ma, lda, b, nb, ldb, dim, out, ldc, finish);
        }
    }
}

/// The scalar tile loop, byte-for-byte the pre-SIMD driver: this is
/// what `DASC_KERNEL=scalar` runs and what the SIMD panels are tested
/// against.
#[inline]
#[allow(clippy::too_many_arguments)] // BLAS-style panel signature: shapes travel with buffers
fn panel_scalar<F>(
    a: &[f64],
    ma: usize,
    lda: usize,
    b: &[f64],
    nb: usize,
    ldb: usize,
    dim: usize,
    out: &mut [f64],
    ldc: usize,
    finish: F,
) where
    F: Fn(usize, usize, f64) -> f64 + Copy,
{
    // The 4-deep column kernel needs four contiguous B rows; strided B
    // panels fall back to the single-row kernel, which is still 4-way
    // unrolled over the depth dimension.
    let contiguous_b = ldb == dim;
    for jb in (0..nb).step_by(GEMM_TILE_ROWS) {
        let jend = (jb + GEMM_TILE_ROWS).min(nb);
        for i in 0..ma {
            let ai = &a[i * lda..i * lda + dim];
            let orow = &mut out[i * ldc + jb..i * ldc + jend];
            let mut j = jb;
            if contiguous_b {
                while j + 4 <= jend {
                    let d = dot4(ai, &b[j * dim..(j + 4) * dim], dim);
                    orow[j - jb] = finish(i, j, d[0]);
                    orow[j + 1 - jb] = finish(i, j + 1, d[1]);
                    orow[j + 2 - jb] = finish(i, j + 2, d[2]);
                    orow[j + 3 - jb] = finish(i, j + 3, d[3]);
                    j += 4;
                }
            }
            while j < jend {
                let d = dot1(ai, &b[j * ldb..j * ldb + dim], dim);
                orow[j - jb] = finish(i, j, d);
                j += 1;
            }
        }
    }
}

/// Register-blocked inner kernel: one `A` row against four consecutive
/// `B` rows. Eight independent accumulators (4 columns × 2 unrolled
/// depth steps) keep the FMA pipeline busy; the `A` element is loaded
/// once per depth step and reused across all four columns.
#[inline(always)]
fn dot4(a: &[f64], b4: &[f64], dim: usize) -> [f64; 4] {
    debug_assert!(a.len() == dim && b4.len() == 4 * dim);
    let (b0, rest) = b4.split_at(dim);
    let (b1, rest) = rest.split_at(dim);
    let (b2, b3) = rest.split_at(dim);
    let mut s = [0.0f64; 8];
    let mut k = 0;
    while k + 2 <= dim {
        let (a0, a1) = (a[k], a[k + 1]);
        s[0] += a0 * b0[k];
        s[4] += a1 * b0[k + 1];
        s[1] += a0 * b1[k];
        s[5] += a1 * b1[k + 1];
        s[2] += a0 * b2[k];
        s[6] += a1 * b2[k + 1];
        s[3] += a0 * b3[k];
        s[7] += a1 * b3[k + 1];
        k += 2;
    }
    if k < dim {
        let a0 = a[k];
        s[0] += a0 * b0[k];
        s[1] += a0 * b1[k];
        s[2] += a0 * b2[k];
        s[3] += a0 * b3[k];
    }
    [s[0] + s[4], s[1] + s[5], s[2] + s[6], s[3] + s[7]]
}

/// Single-row remainder kernel: four accumulator chains over the depth
/// dimension, reduced pairwise so the result is independent of where in
/// a tile the row lands. Crate-visible so the dense matvec and the
/// eigensolver's reflector loops share the exact summation order.
#[inline(always)]
pub(crate) fn dot1(a: &[f64], b: &[f64], dim: usize) -> f64 {
    debug_assert!(a.len() == dim && b.len() == dim);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut k = 0;
    while k + 4 <= dim {
        s0 += a[k] * b[k];
        s1 += a[k + 1] * b[k + 1];
        s2 += a[k + 2] * b[k + 2];
        s3 += a[k + 3] * b[k + 3];
        k += 4;
    }
    while k < dim {
        s0 += a[k] * b[k];
        k += 1;
    }
    (s0 + s1) + (s2 + s3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;

    /// Deterministic pseudo-random point set.
    fn points(n: usize, dim: usize, salt: u64) -> FlatPoints {
        let data: Vec<f64> = (0..n * dim)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
                (x % 1000) as f64 / 250.0 - 2.0
            })
            .collect();
        FlatPoints::from_flat(data, dim)
    }

    #[test]
    fn abt_matches_naive_dot() {
        for (ma, nb, dim) in [(1, 1, 1), (3, 5, 2), (7, 9, 3), (13, 6, 5), (130, 131, 7)] {
            let a = points(ma, dim, 1);
            let b = points(nb, dim, 2);
            let mut out = vec![0.0; ma * nb];
            abt_into(a.as_slice(), ma, b.as_slice(), nb, dim, &mut out, nb);
            for i in 0..ma {
                for j in 0..nb {
                    let want = vector::dot(a.row(i), b.row(j));
                    assert!(
                        (out[i * nb + j] - want).abs() < 1e-12,
                        "({i},{j}) at {ma}x{nb}x{dim}: {} vs {want}",
                        out[i * nb + j]
                    );
                }
            }
        }
    }

    #[test]
    fn sq_dists_match_scalar_within_tolerance() {
        for (ma, nb, dim) in [(1, 4, 2), (5, 5, 3), (17, 33, 4), (129, 7, 6)] {
            let a = points(ma, dim, 3);
            let b = points(nb, dim, 4);
            let out = pairwise_sq_dists(&a, &b);
            for i in 0..ma {
                for j in 0..nb {
                    let want = vector::sq_dist(a.row(i), b.row(j));
                    assert!(
                        (out[i * nb + j] - want).abs() < 1e-12,
                        "({i},{j}): {} vs {want}",
                        out[i * nb + j]
                    );
                }
            }
        }
    }

    #[test]
    fn self_distances_clamped_non_negative() {
        // Identical rows: the expansion cancels to ±ULP noise; the clamp
        // must pin every self-distance at exactly 0 or a non-negative
        // residue, never a negative number.
        let a = points(37, 5, 9);
        let out = pairwise_sq_dists(&a, &a);
        for (idx, &v) in out.iter().enumerate() {
            assert!(v >= 0.0, "negative distance at {idx}: {v}");
        }
        for i in 0..37 {
            assert!(out[i * 37 + i] < 1e-12, "self distance {}", out[i * 37 + i]);
        }
    }

    #[test]
    fn strided_output_leaves_margin_untouched() {
        // Write a 3×4 panel into a 3×10 window at column offset 0 with
        // ldc 10; columns 4..10 must keep their sentinel.
        let a = points(3, 2, 5);
        let b = points(4, 2, 6);
        let an = row_sq_norms(&a);
        let bn = row_sq_norms(&b);
        let mut out = vec![-7.0; 3 * 10];
        sq_dists_into(a.as_slice(), 3, &an, b.as_slice(), 4, &bn, 2, &mut out, 10);
        for i in 0..3 {
            for j in 0..4 {
                assert!(out[i * 10 + j] >= 0.0);
            }
            for j in 4..10 {
                if i * 10 + j < out.len() {
                    assert_eq!(out[i * 10 + j], -7.0, "margin clobbered at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn strided_panels_match_contiguous() {
        // Rows embedded in wider buffers (stride > dim) must produce the
        // same inner products as densely packed rows.
        let (ma, nb, dim, lda, ldb) = (6, 9, 5, 8, 11);
        let a = points(ma, lda, 21);
        let b = points(nb, ldb, 22);
        let packed_a: Vec<f64> = (0..ma).flat_map(|i| a.row(i)[..dim].to_vec()).collect();
        let packed_b: Vec<f64> = (0..nb).flat_map(|j| b.row(j)[..dim].to_vec()).collect();
        let mut want = vec![0.0; ma * nb];
        abt_into(&packed_a, ma, &packed_b, nb, dim, &mut want, nb);
        let mut got = vec![0.0; ma * nb];
        abt_strided_into(
            a.as_slice(),
            ma,
            lda,
            b.as_slice(),
            nb,
            ldb,
            dim,
            &mut got,
            nb,
        );
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() < 1e-12, "entry {i}: {g} vs {w}");
        }
    }

    #[test]
    fn empty_inputs_are_noops() {
        let a = points(3, 2, 7);
        let empty = FlatPoints::from_rows(&[]);
        assert!(pairwise_sq_dists(&a, &empty).is_empty());
        assert!(pairwise_sq_dists(&empty, &a).is_empty());
        let mut out: Vec<f64> = Vec::new();
        abt_into(&[], 0, &[], 0, 3, &mut out, 0);
    }

    #[test]
    fn row_norms_match_dot() {
        let a = points(11, 3, 8);
        let norms = row_sq_norms(&a);
        for (i, &ni) in norms.iter().enumerate() {
            assert!((ni - vector::dot(a.row(i), a.row(i))).abs() < 1e-12);
        }
        assert_eq!(
            row_sq_norms_flat(a.as_slice(), 3),
            norms,
            "flat variant must agree"
        );
    }

    #[test]
    fn zero_dim_points() {
        let a = FlatPoints::from_flat(Vec::new(), 0);
        assert!(row_sq_norms(&a).is_empty());
        assert!(row_sq_norms_flat(&[], 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "output stride")]
    fn small_ldc_panics() {
        let a = points(2, 2, 1);
        let mut out = vec![0.0; 4];
        abt_into(a.as_slice(), 2, a.as_slice(), 2, 2, &mut out, 1);
    }
}
