//! Work accounting for one bucket's Gram block, counted the way
//! `dasc_kernel::full_gram_flat` executes it.
//!
//! The tiled path (`n >= TILED_MIN_POINTS`) computes, for each 64-row
//! output panel starting at row `r0`, the columns `r0..n`: the diagonal
//! block in full plus everything right of it. The strict lower triangle
//! is mirrored, not computed. Counting all `n²` entries instead would
//! overstate the Gram throughput by up to 2× against a full-panel GEMM.
//! The scalar path (small blocks) evaluates the upper triangle with the
//! diagonal.

use dasc_kernel::TILED_MIN_POINTS;

/// Output rows per parallel panel of the tiled Gram fill; mirrors the
/// kernel crate's private `GRAM_PANEL_ROWS`.
const GRAM_PANEL_ROWS: usize = 64;

/// Entries the Gram fill computes for an `n`-point block.
pub fn gram_entries_computed(n: usize) -> u64 {
    if n >= TILED_MIN_POINTS {
        (0..n)
            .step_by(GRAM_PANEL_ROWS)
            .map(|r0| (GRAM_PANEL_ROWS.min(n - r0) * (n - r0)) as u64)
            .sum()
    } else {
        (n * (n + 1) / 2) as u64
    }
}

/// Floating-point operations of the computed entries: `2d` multiply-adds
/// each for the `A·Bᵀ` distance term. The norm and `exp` passes are
/// `O(n)` and `O(1)` per entry and are left out.
pub fn gram_flops(n: usize, dim: usize) -> f64 {
    2.0 * dim as f64 * gram_entries_computed(n) as f64
}

/// Bytes the fill moves, computed from array sizes (cache misses are not
/// counted): the gathered `n×d` points read once and the `n×n` output
/// written once, at 8 bytes per value.
pub fn gram_bytes(n: usize, dim: usize) -> f64 {
    8.0 * (n * dim + n * n) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_pinned_around_the_tiling_boundaries() {
        // Scalar path: upper triangle with the diagonal.
        assert_eq!(gram_entries_computed(63), 63 * 64 / 2);
        // One full panel.
        assert_eq!(gram_entries_computed(64), 64 * 64);
        // A full panel plus a one-row panel holding one entry.
        assert_eq!(gram_entries_computed(65), 64 * 65 + 1);
        // Panels at rows 0, 64, 128, 192.
        assert_eq!(
            gram_entries_computed(200),
            64 * 200 + 64 * 136 + 64 * 72 + 8 * 8
        );
        assert_eq!(gram_entries_computed(0), 0);
    }

    #[test]
    fn computed_entries_stay_between_the_triangle_and_the_square() {
        for n in [64usize, 100, 513, 4160] {
            let e = gram_entries_computed(n) as usize;
            assert!(e >= n * (n + 1) / 2 && e <= n * n, "n={n}: {e}");
        }
        assert_eq!(gram_flops(64, 3), 2.0 * 3.0 * 4096.0);
    }
}
