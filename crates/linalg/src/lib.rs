//! Dense and sparse linear algebra substrate for the DASC reproduction.
//!
//! The DASC paper (Gao, Abd-Almageed, Hefeeda; HPDC'12) relies on a stack
//! of numerical routines that in the original system were provided by
//! Mahout, PARPACK and Matlab. This crate implements that substrate from
//! scratch:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with the usual algebra.
//! * [`CsrMatrix`] — compressed sparse row storage used by the PSC
//!   baseline's t-nearest-neighbour similarity matrices.
//! * [`SymmetricEigen`] — full symmetric eigendecomposition: Householder
//!   reduction to tridiagonal form (the transformation the paper
//!   describes ahead of QR), implicit QL with Wilkinson shifts, and a
//!   blocked back-transform of all `n` eigenvectors.
//! * [`symmetric_eigen_topk`] — the `k` leading eigenpairs from the same
//!   reduction: eigenvalues-only QL, inverse iteration on the
//!   tridiagonal, and a back-transform of just those `k` vectors.
//! * [`lanczos`](fn@lanczos) — block Lanczos iteration with full
//!   reorthogonalization for the leading eigenpairs of any [`MatVec`]
//!   operator (PARPACK substitute).
//! * [`qr`](fn@qr) — Householder QR, the NYST baseline's
//!   orthonormalization.
//!
//! Every dense eigensolve and the Lanczos Rayleigh–Ritz step share one
//! Householder reduction and one QL loop, both crate-private. Only what
//! the spectral pipelines call lives here: there is no general-purpose
//! solver (Cholesky, SVD) on the paper's path.
//!
//! Everything is `f64` and deterministic within a kernel backend: the
//! hot gemm/dot/axpy primitives dispatch once per process to a SIMD
//! backend (AVX2+FMA or NEON) or the portable scalar kernels via
//! [`KernelBackend`], selectable with `DASC_KERNEL=scalar|auto`. The
//! `unsafe` in the crate is the `#[target_feature]` kernels in
//! [`simd`], gated behind runtime CPU-feature detection, plus the
//! disjoint-entry writes of the parallel [`Matrix::mirror_upper`].
//!
//! ```
//! use dasc_linalg::{symmetric_eigen, Matrix};
//!
//! let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
//! let eig = symmetric_eigen(&a);
//! assert!((eig.eigenvalues[0] - 1.0).abs() < 1e-12);
//! assert!((eig.eigenvalues[1] - 3.0).abs() < 1e-12);
//! ```

pub mod dense;
pub mod eigen;
pub mod eigen_k;
pub mod gemm;
pub mod lanczos;
pub mod operator;
pub mod points;
pub mod qr;
pub mod simd;
pub mod sparse;
mod tridiag;
pub mod vector;

pub use dense::Matrix;
pub use eigen::{symmetric_eigen, SymmetricEigen};
pub use eigen_k::{symmetric_eigen_topk, TopEigen};
pub use gemm::{abt_into, pairwise_sq_dists, row_sq_norms, row_sq_norms_flat, sq_dists_into};
pub use lanczos::{lanczos, LanczosOptions, LanczosResult};
pub use operator::MatVec;
pub use points::{FlatPoints, FlatPointsView, PointsView};
pub use qr::{qr, QrDecomposition};
pub use simd::KernelBackend;
pub use sparse::{CooBuilder, CsrMatrix};
