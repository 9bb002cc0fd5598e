//! Compressed sparse row (CSR) matrices.
//!
//! The PSC baseline (Chen et al.) sparsifies the similarity matrix to
//! t nearest neighbours before eigensolving; CSR is the storage for those
//! matrices. Construction goes through a coordinate-format builder that
//! merges duplicate entries.

use rayon::prelude::*;

use crate::operator::MatVec;

/// Coordinate-format builder for a [`CsrMatrix`].
///
/// Entries may be pushed in any order; duplicates at the same `(i, j)`
/// position are summed when the matrix is finalized.
#[derive(Clone, Debug)]
pub struct CooBuilder {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooBuilder {
    /// Start building a `rows × cols` sparse matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Add `value` at `(i, j)`. Zero values are skipped.
    ///
    /// # Panics
    /// Panics if the position is out of bounds.
    pub fn push(&mut self, i: usize, j: usize, value: f64) {
        assert!(
            i < self.rows && j < self.cols,
            "CooBuilder: entry out of bounds"
        );
        if value != 0.0 {
            self.entries.push((i, j, value));
        }
    }

    /// Add `value` at both `(i, j)` and `(j, i)`.
    pub fn push_symmetric(&mut self, i: usize, j: usize, value: f64) {
        self.push(i, j, value);
        if i != j {
            self.push(j, i, value);
        }
    }

    /// Number of raw (pre-merge) entries accumulated so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Finalize into CSR form, merging duplicates by summation.
    pub fn build(mut self) -> CsrMatrix {
        self.entries.sort_unstable_by_key(|a| (a.0, a.1));
        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx = Vec::with_capacity(self.entries.len());
        let mut values = Vec::with_capacity(self.entries.len());

        let mut it = self.entries.into_iter().peekable();
        while let Some((i, j, mut v)) = it.next() {
            while let Some(&(ni, nj, nv)) = it.peek() {
                if ni == i && nj == j {
                    v += nv;
                    it.next();
                } else {
                    break;
                }
            }
            col_idx.push(j);
            values.push(v);
            row_ptr[i + 1] += 1;
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// Compressed sparse row matrix of `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structural) non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterate the stored entries of row `i` as `(col, value)` pairs.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Value at `(i, j)` (zero if not stored).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.row_iter(i)
            .find(|&(c, _)| c == j)
            .map(|(_, v)| v)
            .unwrap_or(0.0)
    }

    /// Row sums (degree vector for similarity graphs).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|i| self.row_iter(i).map(|(_, v)| v).sum())
            .collect()
    }

    /// Frobenius norm over stored entries.
    pub fn frobenius_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Symmetry check (structural + numerical) within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for (j, v) in self.row_iter(i) {
                if (self.get(j, i) - v).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Left/right diagonal scaling in place:
    /// `A ← diag(left) · A · diag(right)`, the operation that turns a
    /// similarity matrix into the normalized Laplacian `D^{-1/2} S D^{-1/2}`.
    ///
    /// # Panics
    /// Panics if the scaling vectors have the wrong length.
    #[allow(clippy::needless_range_loop)] // row index drives both arrays
    pub fn diag_scale(&mut self, left: &[f64], right: &[f64]) {
        assert_eq!(left.len(), self.rows, "diag_scale: bad left length");
        assert_eq!(right.len(), self.cols, "diag_scale: bad right length");
        for i in 0..self.rows {
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            for k in lo..hi {
                self.values[k] *= left[i] * right[self.col_idx[k]];
            }
        }
    }

    /// Dense memory an equivalent full matrix would need, in bytes,
    /// under the paper's 4-byte single-precision accounting (Eq. 12).
    pub fn dense_equivalent_bytes(&self) -> usize {
        self.rows * self.cols * 4
    }

    /// Actual storage footprint in bytes (values + indices + row pointers),
    /// counting values at the paper's 4-byte convention.
    pub fn storage_bytes(&self) -> usize {
        self.values.len() * 4
            + self.col_idx.len() * std::mem::size_of::<usize>()
            + self.row_ptr.len() * std::mem::size_of::<usize>()
    }
}

impl MatVec for CsrMatrix {
    fn dim(&self) -> usize {
        assert_eq!(self.rows, self.cols, "MatVec requires a square matrix");
        self.rows
    }

    fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "csr matvec: dimension mismatch");
        y.par_iter_mut().enumerate().for_each(|(i, yi)| {
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *yi = acc;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        let mut b = CooBuilder::new(3, 3);
        b.push(0, 0, 1.0);
        b.push(0, 2, 2.0);
        b.push(1, 1, 3.0);
        b.push(2, 0, 4.0);
        b.build()
    }

    #[test]
    fn build_and_get() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(2, 2), 0.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 1, 1.5);
        b.push(0, 1, 2.5);
        let m = b.build();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 1), 4.0);
    }

    #[test]
    fn zeros_are_skipped() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 0, 0.0);
        assert!(b.is_empty());
    }

    #[test]
    fn push_symmetric_mirrors() {
        let mut b = CooBuilder::new(3, 3);
        b.push_symmetric(0, 2, 5.0);
        b.push_symmetric(1, 1, 7.0);
        let m = b.build();
        assert_eq!(m.get(0, 2), 5.0);
        assert_eq!(m.get(2, 0), 5.0);
        assert_eq!(m.get(1, 1), 7.0);
        assert!(m.is_symmetric(0.0));
    }

    #[test]
    fn matvec_matches_dense() {
        let m = sample();
        let y = m.apply(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![7.0, 6.0, 4.0]);
    }

    #[test]
    fn row_sums_and_fnorm() {
        let m = sample();
        assert_eq!(m.row_sums(), vec![3.0, 3.0, 4.0]);
        let expect = (1.0f64 + 4.0 + 9.0 + 16.0).sqrt();
        assert!((m.frobenius_norm() - expect).abs() < 1e-12);
    }

    #[test]
    fn diag_scale_is_normalized_laplacian_step() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 0, 4.0);
        b.push(0, 1, 2.0);
        b.push(1, 0, 2.0);
        b.push(1, 1, 1.0);
        let mut m = b.build();
        let d = m.row_sums();
        let inv_sqrt: Vec<f64> = d.iter().map(|v| 1.0 / v.sqrt()).collect();
        m.diag_scale(&inv_sqrt, &inv_sqrt);
        // L[0,1] = 2 / sqrt(6 * 3)
        assert!((m.get(0, 1) - 2.0 / (6.0f64 * 3.0).sqrt()).abs() < 1e-12);
        assert!(m.is_symmetric(1e-12));
    }

    #[test]
    fn empty_rows_are_fine() {
        let b = CooBuilder::new(4, 4);
        let m = b.build();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.apply(&[1.0; 4]), vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_push_panics() {
        let mut b = CooBuilder::new(2, 2);
        b.push(2, 0, 1.0);
    }

    #[test]
    fn storage_accounting() {
        let m = sample();
        assert_eq!(m.dense_equivalent_bytes(), 9 * 4);
        assert!(m.storage_bytes() < m.dense_equivalent_bytes() * 10);
    }
}
