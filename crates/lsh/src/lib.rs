//! Locality sensitive hashing for the DASC kernel-matrix approximation.
//!
//! This crate implements the first two steps of the DASC algorithm
//! (Section 3 of the paper):
//!
//! 1. **Signatures** — every point gets an `M`-bit binary signature. The
//!    paper's hash family is a span-weighted, axis-aligned threshold
//!    family: each bit compares one input dimension against a threshold
//!    derived from a 20-bin histogram of that dimension (Eq. 5), and the
//!    probability of a dimension being chosen is proportional to its
//!    numerical span (Eq. 4).
//! 2. **Buckets** — points with identical signatures share a bucket, and
//!    buckets whose signatures agree in at least `P` bits are merged.
//!    With the paper's setting `P = M − 1` this reduces to the O(1)
//!    Hamming-distance-1 test `(A⊕B) & (A⊕B−1) == 0` (Eq. 6).
//!
//! Additional hash families — sign-random-projection, min-hash,
//! p-stable, and a spectral-hashing-style PCA hash — are provided for
//! the ablation studies in `dasc-bench` and for skewed data.
//!
//! A signature packs into one `u64`, so `M` is at most
//! [`Signature::MAX_BITS`] = 64; the paper's rule never asks for more
//! than 15. [`KdTree`] serves exact t-nearest-neighbour queries to the
//! PSC baseline and the self-tuning similarity.
//!
//! ```
//! use dasc_lsh::{BucketSet, LshConfig, SignatureModel};
//!
//! // Two obvious groups along one axis.
//! let points: Vec<Vec<f64>> = (0..20)
//!     .map(|i| vec![if i < 10 { 0.1 } else { 0.9 }, 0.5])
//!     .collect();
//! let model = SignatureModel::fit(&points, &LshConfig::with_bits(1));
//! let buckets = BucketSet::from_signatures(&model.hash_all(&points));
//! assert_eq!(buckets.len(), 2);
//! assert_eq!(buckets.sizes(), vec![10, 10]);
//! ```

pub mod bucket;
pub mod config;
pub mod family;
pub mod kdtree;
pub mod model;
pub mod signature;

pub use bucket::BucketSet;
pub use config::{DimensionSelection, LshConfig, MergeStrategy, ThresholdRule};
pub use family::{MinHash, PStableLsh, PcaHash, SignRandomProjection};
pub use kdtree::KdTree;
pub use model::{HashPlane, SignatureModel};
pub use signature::Signature;

/// The paper's default signature width: `M = ⌈log₂ N⌉ / 2 − 1`,
/// clamped to at least one bit (Section 5.4).
pub fn default_signature_bits(n: usize) -> usize {
    if n <= 2 {
        return 1;
    }
    let log2n = (n as f64).log2().ceil() as usize;
    (log2n / 2).saturating_sub(1).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_bits_match_paper_rule() {
        // N = 2^18 → log2 = 18 → M = 9 - 1 = 8.
        assert_eq!(default_signature_bits(1 << 18), 8);
        // N = 2^10 → M = 4.
        assert_eq!(default_signature_bits(1 << 10), 4);
        // Tiny datasets still get one bit.
        assert_eq!(default_signature_bits(2), 1);
        assert_eq!(default_signature_bits(5), 1);
    }

    #[test]
    fn default_bits_monotone_nondecreasing() {
        let mut last = 0;
        for e in 1..30 {
            let m = default_signature_bits(1usize << e);
            assert!(m >= last);
            last = m;
        }
    }
}
