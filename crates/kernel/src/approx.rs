//! The DASC block-diagonal approximate Gram matrix.
//!
//! Step three of the algorithm: the kernel is evaluated only within LSH
//! buckets, so the full `N×N` matrix is replaced by per-bucket blocks
//! holding `Σ Nᵢ²` entries. Cross-bucket similarities are approximated
//! as zero — the approximation error analyzed in Section 4.2.

use dasc_linalg::{FlatPoints, Matrix};
use dasc_lsh::BucketSet;
use rayon::prelude::*;

use crate::functions::Kernel;
use crate::gram::full_gram_flat;

/// One diagonal block: a bucket's members and their sub-similarity
/// matrix (the output of Algorithm 2's reducer).
#[derive(Clone, Debug)]
pub struct GramBlock {
    /// Global point indices of this bucket, ascending.
    pub members: Vec<usize>,
    /// `Nᵢ × Nᵢ` kernel matrix over the members.
    pub matrix: Matrix,
}

/// Block-diagonal approximation of the kernel matrix.
#[derive(Clone, Debug)]
pub struct ApproximateGram {
    n: usize,
    blocks: Vec<GramBlock>,
}

impl ApproximateGram {
    /// Build the approximation from LSH buckets, bucket-parallel.
    ///
    /// Buckets are *scheduled largest-first*: a bucket costs O(Nᵢ²), so
    /// if the biggest one started last it would run alone at the tail
    /// while the rest of the pool idles. Blocks are put back in bucket
    /// order, so the output is independent of the schedule.
    pub fn from_buckets(points: &[Vec<f64>], buckets: &BucketSet, kernel: &Kernel) -> Self {
        assert_eq!(
            buckets.num_points(),
            points.len(),
            "bucket set does not cover the dataset"
        );
        let buckets = buckets.buckets();
        let mut order: Vec<usize> = (0..buckets.len()).collect();
        order.sort_by_key(|&b| std::cmp::Reverse(buckets[b].members.len()));
        let computed: Vec<(usize, GramBlock)> = order
            .into_par_iter()
            .map(|b| {
                let members = &buckets[b].members;
                // Gather the bucket into a flat row-major buffer once;
                // `full_gram_flat` then computes the block through the
                // tiled GEMM micro-kernel for buckets of at least
                // `TILED_MIN_POINTS`, and stays on the scalar path for
                // small buckets where setup dominates.
                let sub = FlatPoints::gather(points, members);
                let block = GramBlock {
                    members: members.clone(),
                    matrix: full_gram_flat(&sub, kernel),
                };
                (b, block)
            })
            .collect();
        let mut blocks: Vec<Option<GramBlock>> = (0..buckets.len()).map(|_| None).collect();
        for (b, block) in computed {
            blocks[b] = Some(block);
        }
        Self {
            n: points.len(),
            blocks: blocks
                .into_iter()
                .map(|b| b.expect("every bucket computed"))
                .collect(),
        }
    }

    /// Total number of points `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The diagonal blocks.
    pub fn blocks(&self) -> &[GramBlock] {
        &self.blocks
    }

    /// Number of stored entries `Σ Nᵢ²` (Eq. 9's numerator).
    pub fn stored_entries(&self) -> usize {
        self.blocks.iter().map(|b| b.members.len().pow(2)).sum()
    }

    /// Storage in bytes under the paper's 4-byte convention (Eq. 12).
    pub fn memory_bytes(&self) -> usize {
        4 * self.stored_entries()
    }

    /// Entry lookup: kernel value if `i` and `j` share a bucket, else the
    /// approximated zero.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        for b in &self.blocks {
            if let Ok(bi) = b.members.binary_search(&i) {
                return match b.members.binary_search(&j) {
                    Ok(bj) => b.matrix[(bi, bj)],
                    Err(_) => 0.0,
                };
            }
        }
        0.0
    }

    /// Frobenius norm of the whole approximation
    /// (`√Σ_blocks ‖Sᵢ‖²_F`, Eq. 22 restricted to stored entries).
    pub fn frobenius_norm(&self) -> f64 {
        self.blocks
            .iter()
            .map(|b| {
                let f = b.matrix.frobenius_norm();
                f * f
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Materialize the dense `N×N` matrix (tests / small N only).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.n);
        for b in &self.blocks {
            for (bi, &i) in b.members.iter().enumerate() {
                for (bj, &j) in b.members.iter().enumerate() {
                    m[(i, j)] = b.matrix[(bi, bj)];
                }
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gram::full_gram;
    use dasc_lsh::Signature;

    fn pts() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![1.0, 1.0],
            vec![0.9, 1.0],
        ]
    }

    /// One 3-bit signature per point, from its bucket id.
    fn buckets_of(ids: &[u64]) -> Vec<Signature> {
        ids.iter().map(|&b| Signature::from_bits(b, 3)).collect()
    }

    fn two_buckets() -> BucketSet {
        // Points 0,1 in one bucket; 2,3 in another.
        let sigs = vec![
            Signature::from_bits(0, 2),
            Signature::from_bits(0, 2),
            Signature::from_bits(3, 2),
            Signature::from_bits(3, 2),
        ];
        BucketSet::from_signatures(&sigs)
    }

    #[test]
    fn block_structure() {
        let k = Kernel::gaussian(0.5);
        let ag = ApproximateGram::from_buckets(&pts(), &two_buckets(), &k);
        assert_eq!(ag.n(), 4);
        assert_eq!(ag.blocks().len(), 2);
        assert_eq!(ag.stored_entries(), 8);
        assert_eq!(ag.memory_bytes(), 32);
    }

    #[test]
    fn within_bucket_entries_match_kernel() {
        let k = Kernel::gaussian(0.5);
        let p = pts();
        let ag = ApproximateGram::from_buckets(&p, &two_buckets(), &k);
        assert_eq!(ag.get(0, 1), k.eval(&p[0], &p[1]));
        assert_eq!(ag.get(2, 3), k.eval(&p[2], &p[3]));
        assert_eq!(ag.get(0, 0), 1.0);
    }

    #[test]
    fn cross_bucket_entries_are_zero() {
        let k = Kernel::gaussian(0.5);
        let ag = ApproximateGram::from_buckets(&pts(), &two_buckets(), &k);
        assert_eq!(ag.get(0, 2), 0.0);
        assert_eq!(ag.get(1, 3), 0.0);
    }

    #[test]
    fn dense_reconstruction_matches_get() {
        let k = Kernel::gaussian(0.5);
        let ag = ApproximateGram::from_buckets(&pts(), &two_buckets(), &k);
        let d = ag.to_dense();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(d[(i, j)], ag.get(i, j));
            }
        }
        assert!(d.is_symmetric(0.0));
    }

    #[test]
    fn single_bucket_is_exact() {
        let k = Kernel::gaussian(0.5);
        let p = pts();
        let sigs = vec![Signature::from_bits(0, 1); 4];
        let buckets = BucketSet::from_signatures(&sigs);
        let ag = ApproximateGram::from_buckets(&p, &buckets, &k);
        let full = full_gram(&p, &k);
        assert!(ag.to_dense().max_abs_diff(&full) < 1e-15);
    }

    #[test]
    fn more_buckets_lower_ratio() {
        // Figure 5's trend: splitting finer loses more mass.
        let k = Kernel::gaussian(1.0);
        let p = pts();
        let coarse = ApproximateGram::from_buckets(&p, &two_buckets(), &k);
        let singletons = BucketSet::from_signatures(&buckets_of(&[0, 1, 2, 3]));
        let fine = ApproximateGram::from_buckets(&p, &singletons, &k);
        assert_eq!(fine.blocks().len(), 4);
        assert!(fine.frobenius_norm() < coarse.frobenius_norm());
    }

    #[test]
    fn memory_far_below_full_for_many_buckets() {
        let n = 64;
        let p: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let ids: Vec<u64> = (0..n as u64).map(|i| i / 8).collect();
        let buckets = BucketSet::from_signatures(&buckets_of(&ids));
        let ag = ApproximateGram::from_buckets(&p, &buckets, &Kernel::gaussian(1.0));
        assert_eq!(ag.blocks().len(), 8);
        // 8 blocks of 8² vs full 64²: exactly the 1/B reduction of Eq. 10.
        assert_eq!(ag.stored_entries(), 8 * 64);
        assert_eq!(ag.memory_bytes() * 8, crate::gram::gram_memory_bytes(n));
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn mismatched_bucket_set_panics() {
        let sigs = vec![Signature::from_bits(0, 1); 3];
        let buckets = BucketSet::from_signatures(&sigs);
        ApproximateGram::from_buckets(&pts(), &buckets, &Kernel::Linear);
    }
}
