//! Free-standing vector kernels shared by the dense and sparse paths.
//!
//! These are the innermost loops of the whole system (kernel evaluation,
//! Lanczos, K-means all bottom out here), so they operate on plain slices
//! and avoid allocation.
//!
//! [`dot`], [`norm2`], and [`axpy`] dispatch to the process kernel
//! backend (see [`crate::simd`]): the scalar arm of [`dot`] is the same
//! unrolled kernel the gemm panel drivers use for single rows, so there
//! is exactly one scalar summation order in the tree — a pair's inner
//! product agrees bitwise whether it came through `vector::dot` or a
//! gemm panel on the same backend.

use crate::simd::{self, KernelBackend};

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    simd::dot(KernelBackend::resolved(), a, b, a.len())
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sq_dist: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance between two equal-length slices.
#[inline]
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    sq_dist(a, b).sqrt()
}

/// `y += alpha * x` (BLAS `axpy`).
///
/// Elementwise, so every backend touches `y[i]` exactly once; the SIMD
/// backends fuse the multiply-add where the scalar path rounds twice.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    simd::axpy(KernelBackend::resolved(), alpha, x, y);
}

/// Scale a vector in place: `x *= alpha`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Normalize `x` to unit L2 norm in place.
///
/// Returns the original norm. A zero vector is left untouched and `0.0`
/// is returned (the caller decides how to handle degenerate directions).
#[inline]
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

/// Remove from `v` its projection onto the unit-norm vector `q`
/// (one Gram–Schmidt step): `v -= (q·v) q`.
#[inline]
pub fn orthogonalize_against(q: &[f64], v: &mut [f64]) {
    let c = dot(q, v);
    axpy(-c, q, v);
}

/// Stable hypotenuse `sqrt(a² + b²)` without intermediate overflow,
/// as used inside the QL eigensolver.
#[inline]
pub fn hypot(a: f64, b: f64) -> f64 {
    let (a, b) = (a.abs(), b.abs());
    let (hi, lo) = if a > b { (a, b) } else { (b, a) };
    if hi == 0.0 {
        return 0.0;
    }
    let r = lo / hi;
    hi * (1.0 + r * r).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norm_and_dist() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(dist(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(sq_dist(&[1.0, 1.0], &[2.0, 2.0]), 2.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut x = vec![3.0, 4.0];
        let n = normalize(&mut x);
        assert_eq!(n, 5.0);
        assert!((norm2(&x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_zero_vector_untouched() {
        let mut x = vec![0.0, 0.0];
        assert_eq!(normalize(&mut x), 0.0);
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn orthogonalize_removes_component() {
        let q = [1.0, 0.0];
        let mut v = vec![3.0, 7.0];
        orthogonalize_against(&q, &mut v);
        assert!(dot(&q, &v).abs() < 1e-12);
        assert_eq!(v[1], 7.0);
    }

    #[test]
    fn hypot_matches_naive_in_safe_range() {
        assert!((hypot(3.0, 4.0) - 5.0).abs() < 1e-12);
        assert_eq!(hypot(0.0, 0.0), 0.0);
        // No overflow where naive sqrt(a^2+b^2) would overflow.
        let h = hypot(1e200, 1e200);
        assert!(h.is_finite() && h > 1e200);
    }
}
