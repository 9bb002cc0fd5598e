//! Abstract linear operator used by the iterative eigensolvers.

/// A square linear operator that can apply itself to a vector.
///
/// Both [`crate::Matrix`] and [`crate::CsrMatrix`] implement this, so the
/// Lanczos solver works identically on dense per-bucket Laplacians and the
/// sparse t-NN Laplacians of the PSC baseline.
pub trait MatVec: Sync {
    /// Operator dimension `n` (the operator is `n×n`).
    fn dim(&self) -> usize;

    /// Compute `y = A x`.
    ///
    /// Implementations may assume `x.len() == y.len() == self.dim()`.
    fn matvec(&self, x: &[f64], y: &mut [f64]);

    /// Apply the operator to `k` vectors at once: `xt` holds them back
    /// to back (`Xᵀ`, `k × n` row-major) and `y` receives `A X` as an
    /// `n × k` row-major matrix, `y[i·k + j] = (A xⱼ)ᵢ`.
    ///
    /// The default calls [`MatVec::matvec`] once per vector; operators
    /// that can read themselves once for the whole block override it.
    ///
    /// # Panics
    /// Panics if `xt.len() != k·n` or `y.len() != n·k`.
    fn matvec_many(&self, xt: &[f64], k: usize, y: &mut [f64]) {
        let n = self.dim();
        assert_eq!(xt.len(), k * n, "matvec_many: input shape mismatch");
        assert_eq!(y.len(), n * k, "matvec_many: output shape mismatch");
        let mut col = vec![0.0; n];
        for j in 0..k {
            self.matvec(&xt[j * n..(j + 1) * n], &mut col);
            for (i, v) in col.iter().enumerate() {
                y[i * k + j] = *v;
            }
        }
    }

    /// Convenience allocation wrapper around [`MatVec::matvec`].
    fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.dim()];
        self.matvec(x, &mut y);
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CooBuilder, Matrix};

    #[test]
    fn matvec_many_default_stacks_matvec_columns() {
        // CsrMatrix keeps the default matvec_many. A = [[2, 2], [3, 5]].
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 0, 2.0);
        b.push(0, 1, 2.0);
        b.push(1, 0, 3.0);
        b.push(1, 1, 5.0);
        let a = b.build();
        // Vectors e₀ and (1, 1), back to back.
        let mut y = vec![0.0; 4];
        a.matvec_many(&[1.0, 0.0, 1.0, 1.0], 2, &mut y);
        assert_eq!(y, vec![2.0, 4.0, 3.0, 8.0]);
    }

    #[test]
    fn apply_matches_matvec() {
        let a = Matrix::identity(3);
        assert_eq!(a.apply(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }
}
