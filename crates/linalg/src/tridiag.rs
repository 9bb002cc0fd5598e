//! Householder reduction of a real symmetric matrix to tridiagonal form.
//!
//! This is the transformation the DASC paper invokes before QR/QL
//! iteration ("we transform Lᵢ into a symmetric tridiagonal matrix Aᵢ").
//! The reduction follows EISPACK `tred1`: it keeps the Householder
//! reflectors in factored form, and [`Tridiagonal::back_transform_rows`]
//! applies `Q` (with `A = Q · T · Qᵀ`) to exactly the vectors a caller
//! needs, all `n` of them for a full decomposition or `k ≪ n` for the
//! k-targeted one.

use crate::vector;
use crate::Matrix;

/// Reflectors per compact-WY block in [`Tridiagonal::back_transform_rows`].
const BACK_TRANSFORM_BLOCK: usize = 32;

/// A symmetric tridiagonal matrix `T` together with the Householder
/// reflectors that produced it, kept in factored form instead of as an
/// accumulated `Q`.
///
/// The reflector vectors stay where the reduction left them (in the
/// rows of the working copy) next to their `h` normalizers;
/// [`Self::back_transform_rows`] applies the transform through the
/// blocked compact-WY product, `O(n²k)` work for `k` vectors.
#[derive(Clone, Debug)]
pub(crate) struct Tridiagonal {
    /// Diagonal entries `d[0..n]`.
    pub(crate) diagonal: Vec<f64>,
    /// Sub/super-diagonal entries; `off_diagonal[i]` couples `i-1` and
    /// `i` (`off_diagonal[0]` is unused and kept at `0.0`).
    pub(crate) off_diagonal: Vec<f64>,
    /// Row `i` holds the scaled Householder vector `u_i` in columns
    /// `0..i`; `P_i = I − u_i u_iᵀ / h[i]` and `Q = P_{n-1} ⋯ P_1`.
    reflectors: Vec<f64>,
    /// `h[i] = ‖u_i‖² / 2`; zero marks a skipped (identity) reflector.
    h: Vec<f64>,
    n: usize,
}

impl Tridiagonal {
    /// Order of the matrix.
    pub(crate) fn order(&self) -> usize {
        self.n
    }

    /// Apply the accumulated transform `Q` (with `A = Q T Qᵀ`) to `k`
    /// vectors stored as the rows of the `k×n` row-major buffer `vt`,
    /// in place. Rows holding eigenvectors of `T` become eigenvectors
    /// of `A`.
    ///
    /// Reflectors are applied in ascending order (EISPACK `trbak1`),
    /// blocked into compact-WY factors `I − U Tᵀ Uᵀ` so the panel dots
    /// run through the `gemm` micro-kernel instead of one scalar axpy
    /// per reflector per vector.
    pub(crate) fn back_transform_rows(&self, vt: &mut [f64], k: usize) {
        let n = self.n;
        assert_eq!(
            vt.len(),
            k * n,
            "back_transform_rows: buffer shape mismatch"
        );
        if n < 2 || k == 0 {
            return;
        }
        let nb_max = BACK_TRANSFORM_BLOCK;
        let mut upack = vec![0.0; nb_max * n];
        let mut w = vec![0.0; nb_max * nb_max];
        let mut t = vec![0.0; nb_max * nb_max];
        let mut s = vec![0.0; nb_max * k];
        let mut m = vec![0.0; nb_max * k];

        let mut i0 = 1;
        while i0 < n {
            let i1 = (i0 + nb_max).min(n);
            let nb = i1 - i0;
            // Reflector u_i has support 0..i, so the widest vector in
            // the block bounds the packed panel width.
            let len = i1 - 1;

            // Pack the block's reflectors into contiguous zero-padded
            // rows; identity reflectors (h == 0) pack as zero rows so
            // stale matrix entries cannot leak into the panel products.
            for r in 0..nb {
                let i = i0 + r;
                let row = &mut upack[r * len..(r + 1) * len];
                if self.h[i] != 0.0 {
                    row[..i].copy_from_slice(&self.reflectors[i * n..i * n + i]);
                    row[i..].fill(0.0);
                } else {
                    row.fill(0.0);
                }
            }

            // W = U Uᵀ: the block's reflector Gram matrix, one panel call.
            crate::gemm::abt_into(
                &upack[..nb * len],
                nb,
                &upack[..nb * len],
                nb,
                len,
                &mut w[..nb * nb],
                nb,
            );

            // Upper-triangular T of the forward product
            // P_{i0} ⋯ P_{i1-1} = I − U_col T U_colᵀ (LAPACK `larft`):
            // column j is −τ_j · T_{0..j,0..j} · (Uᵀu_j) with τ_j on the
            // diagonal. Applying the block then uses Tᵀ, because the
            // back-transform multiplies reflectors in ascending order.
            t[..nb * nb].fill(0.0);
            for j in 0..nb {
                let h = self.h[i0 + j];
                if h == 0.0 {
                    continue;
                }
                let tau = 1.0 / h;
                for r in 0..j {
                    let mut acc = 0.0;
                    for q in r..j {
                        acc += t[r * nb + q] * w[q * nb + j];
                    }
                    t[r * nb + j] = -tau * acc;
                }
                t[j * nb + j] = tau;
            }

            // S = U Vᵀ: panel dots of packed reflectors against the
            // strided eigenvector rows.
            crate::gemm::abt_strided_into(
                &upack[..nb * len],
                nb,
                len,
                vt,
                k,
                n,
                len,
                &mut s[..nb * k],
                k,
            );

            // M = Tᵀ S (small: nb×k), then V ← V − Uᵀ M as row axpys.
            for r in 0..nb {
                for c in 0..k {
                    let mut acc = 0.0;
                    for (q, sq) in s[..(r + 1) * k].chunks_exact(k).enumerate() {
                        acc += t[q * nb + r] * sq[c];
                    }
                    m[r * k + c] = acc;
                }
            }
            for (c, row) in vt.chunks_exact_mut(n).enumerate() {
                for r in 0..nb {
                    let coeff = m[r * k + c];
                    if coeff != 0.0 {
                        vector::axpy(-coeff, &upack[r * len..r * len + len], &mut row[..len]);
                    }
                }
            }
            i0 = i1;
        }
    }
}

/// Householder-tridiagonalize a symmetric matrix (EISPACK `tred1`),
/// keeping the reflectors for [`Tridiagonal::back_transform_rows`].
///
/// The inner products run through the micro-kernel's unrolled dot and
/// the rank-2 updates through `axpy`, so the reduction dispatches to
/// the process kernel backend.
///
/// # Panics
/// Panics if `a` is not square. Symmetry is the caller's responsibility;
/// only the lower triangle is read.
pub(crate) fn tridiagonalize(a: &Matrix) -> Tridiagonal {
    assert!(a.is_square(), "tridiagonalize: matrix must be square");
    let n = a.nrows();
    let mut z: Vec<f64> = a.as_slice().to_vec();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    let mut hs = vec![0.0; n];

    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let mut scale = 0.0;
            for k in 0..=l {
                scale += z[i * n + k].abs();
            }
            if scale == 0.0 {
                e[i] = z[i * n + l];
            } else {
                let (head, tail) = z.split_at_mut(i * n);
                let u = &mut tail[..=l];
                for x in u.iter_mut() {
                    *x /= scale;
                }
                h = crate::gemm::dot1(u, u, l + 1);
                let f = u[l];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                u[l] = f - g;

                // p = A_sub · u, accumulated row by row so every read is
                // a contiguous row prefix of the lower triangle.
                e[..=l].fill(0.0);
                for (kk, uk) in u.iter().enumerate() {
                    let row = &head[kk * n..kk * n + kk + 1];
                    e[kk] += crate::gemm::dot1(row, &u[..=kk], kk + 1);
                    vector::axpy(*uk, &row[..kk], &mut e[..kk]);
                }

                let mut f_acc = 0.0;
                for (ej, uj) in e[..=l].iter_mut().zip(u.iter()) {
                    *ej /= h;
                    f_acc += *ej * *uj;
                }
                let hh = f_acc / (h + h);
                for (ej, uj) in e[..=l].iter_mut().zip(u.iter()) {
                    *ej -= hh * *uj;
                }

                // Rank-2 update A_sub ← A_sub − u pᵀ − p uᵀ, two axpys
                // per lower-triangle row.
                for j in 0..=l {
                    let fj = u[j];
                    let gj = e[j];
                    let row = &mut head[j * n..j * n + j + 1];
                    vector::axpy(-fj, &e[..=j], row);
                    vector::axpy(-gj, &u[..=j], row);
                }
            }
        } else {
            e[i] = z[i * n + l];
        }
        hs[i] = h;
    }
    for i in 0..n {
        d[i] = z[i * n + i];
    }
    if n > 0 {
        e[0] = 0.0;
    }

    Tridiagonal {
        diagonal: d,
        off_diagonal: e,
        reflectors: z,
        h: hs,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Q` taken from back-transforming the identity: row `j` becomes
    /// `Q eⱼ`, so the transform is the transpose of the result.
    fn transform_of(t: &Tridiagonal) -> Matrix {
        let n = t.order();
        let mut rows = Matrix::identity(n);
        t.back_transform_rows(rows.as_mut_slice(), n);
        rows.transpose()
    }

    fn dense(t: &Tridiagonal) -> Matrix {
        let n = t.order();
        Matrix::from_fn(n, n, |i, j| match i.abs_diff(j) {
            0 => t.diagonal[i],
            1 => t.off_diagonal[i.max(j)],
            _ => 0.0,
        })
    }

    /// Reduce `a` and check `Q T Qᵀ = A` and `QᵀQ = I`.
    fn reduce_checked(a: &Matrix, tol: f64) -> Tridiagonal {
        let t = tridiagonalize(a);
        let q = transform_of(&t);
        let qtq = q.transpose().matmul(&q);
        assert!(
            qtq.max_abs_diff(&Matrix::identity(a.nrows())) < tol,
            "Q not orthogonal"
        );
        let rec = q.matmul(&dense(&t)).matmul(&q.transpose());
        assert!(rec.max_abs_diff(a) < tol, "Q T Qᵀ != A");
        t
    }

    #[test]
    fn empty_and_singleton() {
        let t = tridiagonalize(&Matrix::zeros(0, 0));
        assert_eq!(t.order(), 0);
        t.back_transform_rows(&mut [], 0);
        let t = reduce_checked(&Matrix::from_rows(&[&[7.0]]), 1e-12);
        assert_eq!(t.diagonal, vec![7.0]);
        assert_eq!(transform_of(&t)[(0, 0)], 1.0);
    }

    #[test]
    fn already_tridiagonal_is_preserved_up_to_sign() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 2.0, 1.0], &[0.0, 1.0, 2.0]]);
        let t = reduce_checked(&a, 1e-10);
        for i in 0..3 {
            assert!((t.diagonal[i] - 2.0).abs() < 1e-12, "diagonal {i}");
        }
        for i in 1..3 {
            assert!(
                (t.off_diagonal[i].abs() - 1.0).abs() < 1e-12,
                "coupling {i}"
            );
        }
    }

    #[test]
    fn reconstruction_and_orthogonality() {
        let a = Matrix::from_rows(&[
            &[4.0, 1.0, -2.0, 2.0],
            &[1.0, 2.0, 0.0, 1.0],
            &[-2.0, 0.0, 3.0, -2.0],
            &[2.0, 1.0, -2.0, -1.0],
        ]);
        reduce_checked(&a, 1e-10);
        let a = Matrix::from_fn(6, 6, |i, j| 1.0 / (1.0 + (i as f64 - j as f64).abs()));
        reduce_checked(&a, 1e-10);
    }

    #[test]
    fn zero_matrix_reduces_to_zero() {
        let t = reduce_checked(&Matrix::zeros(5, 5), 1e-12);
        assert!(t.diagonal.iter().all(|&v| v == 0.0));
        assert!(t.off_diagonal.iter().all(|&v| v == 0.0));
    }
}
