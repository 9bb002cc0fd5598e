//! Row-major dense `f64` matrix.
//!
//! Sized for the per-bucket similarity matrices DASC produces: buckets are
//! small (hundreds to a few thousand points), so a contiguous row-major
//! layout with rayon-parallel row operations is the right tradeoff.

use std::fmt;
use std::ops::{Index, IndexMut};

use rayon::prelude::*;

use crate::operator::MatVec;
use crate::vector;

/// Rows per matvec panel: small enough that panels load-balance across
/// the pool, large enough that the per-task scheduling cost vanishes
/// against the row dots.
const MATVEC_PANEL_ROWS: usize = 64;

/// Dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: shape mismatch");
        Self { rows, cols, data }
    }

    /// Build from nested row slices (convenient in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows: no rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Build an `n×n` matrix from a function of `(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` out into a fresh vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Flat row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat row-major data, mutable. Pairs with `par_chunks_mut(ncols)`
    /// to fill rows in parallel without an intermediate per-row buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the flat row-major data vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Copy the upper triangle onto the lower one in place, making the
    /// matrix symmetric. Lets builders fill only `j >= i` and finish
    /// with one linear pass instead of double-writing every entry.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn mirror_upper(&mut self) {
        assert!(self.is_square(), "mirror_upper: matrix not square");
        for i in 1..self.rows {
            for j in 0..i {
                self.data[i * self.cols + j] = self.data[j * self.cols + i];
            }
        }
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–matrix product, row-parallel via rayon.
    ///
    /// # Panics
    /// Panics if inner dimensions do not agree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul: inner dimension mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        out.data
            .par_chunks_mut(n)
            .enumerate()
            .for_each(|(i, out_row)| {
                let a_row = &self.data[i * k..(i + 1) * k];
                for (l, &a) in a_row.iter().enumerate() {
                    if a != 0.0 {
                        let b_row = &other.data[l * n..(l + 1) * n];
                        vector::axpy(a, b_row, out_row);
                    }
                }
            });
        out
    }

    /// Matrix–vector product `y = A x`, row-panel parallel.
    ///
    /// Panels of `MATVEC_PANEL_ROWS` rows go through the same dot
    /// kernel as the GEMM micro-kernel layer (`par_chunks_mut` over
    /// `y`), so the dense matvecs inside Lanczos run at tile speed
    /// instead of one serial accumulator chain per row — and inherit the
    /// process kernel backend (see [`crate::simd`]): AVX2+FMA or NEON
    /// where available, the unrolled scalar kernel under
    /// `DASC_KERNEL=scalar`. Every output entry is produced by the same
    /// instruction sequence regardless of panel position or thread
    /// count, so the result is bit-identical across pool sizes within a
    /// backend.
    ///
    /// # Panics
    /// Panics if `x.len() != ncols`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec: output dimension mismatch");
        let dim = self.cols;
        if dim == 0 {
            y.fill(0.0);
            return;
        }
        y.par_chunks_mut(MATVEC_PANEL_ROWS)
            .enumerate()
            .for_each(|(panel, out)| {
                let r0 = panel * MATVEC_PANEL_ROWS;
                let rows = &self.data[r0 * dim..(r0 + out.len()) * dim];
                crate::gemm::abt_into(rows, out.len(), x, 1, dim, out, 1);
            });
    }

    /// Frobenius norm `sqrt(Σ aᵢⱼ²)` (Eq. 22 of the paper).
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Largest absolute entry-wise difference to another matrix.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Check symmetry to within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Row sums (the degree vector of a similarity matrix).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|i| self.row(i).iter().sum()).collect()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}]", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl MatVec for Matrix {
    fn dim(&self) -> usize {
        assert!(self.is_square(), "MatVec requires a square matrix");
        self.rows
    }

    fn matvec(&self, x: &[f64], y: &mut [f64]) {
        self.matvec_into(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.frobenius_norm(), 3f64.sqrt());
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.col(1), vec![2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_ragged_panics() {
        Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matmul(&Matrix::identity(2)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn matvec_basic() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut y = vec![0.0; 2];
        a.matvec_into(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn symmetry_detection() {
        let s = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(s.is_symmetric(0.0));
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 1.0]]);
        assert!(!a.is_symmetric(1e-12));
        assert!(!Matrix::zeros(2, 3).is_symmetric(0.0));
    }

    #[test]
    fn row_sums_degree_vector() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.row_sums(), vec![3.0, 7.0]);
    }

    #[test]
    fn frobenius_norm_known_value() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert_eq!(m.frobenius_norm(), 5.0);
    }
}
