//! Kernel machinery: kernel functions, Gram matrices, and the DASC
//! block-diagonal approximation.
//!
//! The paper's central object is the kernel (similarity/Gram) matrix.
//! This crate provides:
//!
//! * [`Kernel`] — Gaussian (Eq. 1) plus the other standard kernels, so
//!   the approximation stays "independent of the subsequently used
//!   kernel-based machine learning algorithm";
//! * [`full_gram`] — the exact `N×N` matrix (the O(N²) baseline);
//! * [`ApproximateGram`] — the block-diagonal approximation induced by
//!   LSH buckets, storing only `Σ Nᵢ²` entries;
//! * Frobenius-norm comparison (Eqs. 22–24) behind Figure 5.
//!
//! The NYST baseline builds its own landmark extension in
//! `dasc_core::nystrom_sc`; nothing here is specific to it.
//!
//! ```
//! use dasc_kernel::{full_gram, Kernel};
//!
//! let points = vec![vec![0.0, 0.0], vec![1.0, 0.0]];
//! let k = Kernel::gaussian(1.0);
//! let gram = full_gram(&points, &k);
//! assert_eq!(gram[(0, 0)], 1.0);                    // self-similarity
//! assert!((gram[(0, 1)] - (-0.5f64).exp()).abs() < 1e-12); // Eq. 1
//! ```

pub mod approx;
pub mod functions;
pub mod gram;

pub use approx::{ApproximateGram, GramBlock};
pub use functions::{Kernel, TileBasis};
pub use gram::{
    full_gram, full_gram_flat, full_gram_flat_scalar, full_gram_flat_tiled, gram_memory_bytes,
    TILED_MIN_POINTS,
};
