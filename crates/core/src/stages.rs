//! The bodies of DASC's two MapReduce stages, shared by every executor.
//!
//! * Stage 1 (Algorithm 1) maps a run of rows to their signatures and
//!   groups the rows' global indices by signature bits
//!   ([`map_signatures`]).
//! * Between the stages, the groups of all map tasks are merged back
//!   into one signature per point ([`merge_signature_groups`]), checking
//!   that every point is mapped exactly once.
//! * Stage 2 (Algorithm 2 plus the spectral step) builds one merged
//!   bucket's Gram block, clusters it and emits `(point, bucket, local
//!   cluster)` records ([`reduce_bucket`]); buckets start largest first
//!   ([`reduce_order`]). [`check_reduce_records`] checks that the
//!   records of all reduce tasks cover every point exactly once, each
//!   with a cluster its bucket has, before [`stitch_distributed`]
//!   assembles them.
//!
//! [`crate::Dasc`] runs these bodies on the local pool; the `dasc-dist`
//! worker runs them in its task arms and the coordinator orders, merges
//! and checks through the same helpers. None of them depends on how the
//! input is cut into tasks or on task arrival order, so every executor
//! produces bit-identical labels.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use dasc_kernel::{full_gram_flat, Kernel};
use dasc_linalg::FlatPoints;
use dasc_lsh::{Signature, SignatureModel};
use dasc_obs::span;

use crate::dasc::bucket_cluster_count;
use crate::spectral::{SpectralBreakdown, SpectralClustering, SpectralConfig};
use crate::Clustering;

/// Stage output that does not cover the dataset exactly once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoverageError {
    /// A record names a point at or past the dataset's end.
    PointOutOfRange {
        /// The offending point index.
        point: usize,
        /// Number of points in the dataset.
        n: usize,
    },
    /// A reduce record names a bucket that does not exist.
    BucketOutOfRange {
        /// The offending bucket id.
        bucket: usize,
        /// Number of merged buckets.
        buckets: usize,
    },
    /// A reduce record names a local cluster its bucket does not have.
    ClusterOutOfRange {
        /// The point the record labels.
        point: usize,
        /// The record's bucket.
        bucket: usize,
        /// The offending local cluster id.
        local: usize,
        /// Number of clusters `Kᵢ` the bucket has.
        clusters: usize,
    },
    /// A point is reported more than once.
    Duplicate {
        /// The first point seen twice.
        point: usize,
    },
    /// A point is never reported.
    Missing {
        /// The first point no record mentions.
        point: usize,
    },
}

impl fmt::Display for CoverageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverageError::PointOutOfRange { point, n } => {
                write!(f, "point {point} out of range for {n} points")
            }
            CoverageError::BucketOutOfRange { bucket, buckets } => {
                write!(f, "bucket {bucket} out of range for {buckets} buckets")
            }
            CoverageError::ClusterOutOfRange {
                point,
                bucket,
                local,
                clusters,
            } => write!(
                f,
                "point {point} has cluster {local} in bucket {bucket}, which has {clusters} clusters"
            ),
            CoverageError::Duplicate { point } => write!(f, "point {point} reported twice"),
            CoverageError::Missing { point } => write!(f, "point {point} never reported"),
        }
    }
}

impl std::error::Error for CoverageError {}

/// Stage-1 map body: hash each row and group the rows' global indices
/// (`start`, `start + 1`, …) by signature bits. Groups come back in
/// ascending key order, each group's indices ascending.
pub fn map_signatures<'a>(
    model: &SignatureModel,
    start: usize,
    rows: impl IntoIterator<Item = &'a [f64]>,
) -> Vec<(u64, Vec<usize>)> {
    let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (offset, row) in rows.into_iter().enumerate() {
        groups
            .entry(model.hash(row).bits())
            .or_default()
            .push(start + offset);
    }
    groups.into_iter().collect()
}

/// Between-stage merge: rebuild one `num_bits`-wide signature per point
/// from the map groups of all tasks. Every point in `0..n` must appear
/// in exactly one group.
pub fn merge_signature_groups<'a>(
    n: usize,
    num_bits: usize,
    groups: impl IntoIterator<Item = &'a (u64, Vec<usize>)>,
) -> Result<Vec<Signature>, CoverageError> {
    let mut sigs: Vec<Option<Signature>> = vec![None; n];
    for (bits, members) in groups {
        let s = Signature::from_bits(*bits, num_bits);
        for &point in members {
            let slot = sigs
                .get_mut(point)
                .ok_or(CoverageError::PointOutOfRange { point, n })?;
            if slot.replace(s).is_some() {
                return Err(CoverageError::Duplicate { point });
            }
        }
    }
    sigs.into_iter()
        .enumerate()
        .map(|(point, s)| s.ok_or(CoverageError::Missing { point }))
        .collect()
}

/// The order in which stage 2 starts its reduce tasks: bucket ids by
/// size, largest first, ties by id. Per-bucket spectral cost grows
/// superlinearly with `Nᵢ`, so a large bucket started last would finish
/// alone while the rest of the slots idle. Only the schedule changes:
/// bucket ids, seeds and records do not.
pub fn reduce_order(bucket_sizes: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..bucket_sizes.len()).collect();
    order.sort_by_key(|&b| Reverse(bucket_sizes[b]));
    order
}

/// The spectral configuration of merged bucket `bucket_id`, clustered
/// into `ki` clusters. The seed derives from `(seed, bucket_id)`, so
/// every executor seeds each bucket alike whatever task runs it.
fn bucket_spectral_config(
    ki: usize,
    kernel: Kernel,
    lanczos_threshold: usize,
    seed: u64,
    bucket_id: usize,
) -> SpectralConfig {
    let mut cfg = SpectralConfig::new(ki)
        .kernel(kernel)
        .seed(seed ^ (bucket_id as u64).wrapping_mul(0x9E37_79B9));
    cfg.lanczos_threshold = lanczos_threshold;
    cfg
}

/// Stage-2 reduce body: build the Gram block of bucket `bucket_id`,
/// whose rows `points` holds in `members` order, spectrally cluster it
/// into `ki` clusters, and emit one `(point, bucket_id, local cluster)`
/// record per member. Also returns the time the Gram block took (span
/// `dasc.gram`) and the spectral substage breakdown.
pub fn reduce_bucket(
    points: &FlatPoints,
    members: &[usize],
    ki: usize,
    kernel: Kernel,
    lanczos_threshold: usize,
    seed: u64,
    bucket_id: usize,
) -> (Vec<(usize, usize, usize)>, Duration, SpectralBreakdown) {
    assert!(!points.is_empty(), "reduce_bucket: empty bucket");
    let gram_span = span!("dasc.gram");
    let similarity = full_gram_flat(points, &kernel);
    let gram = gram_span.finish();
    let cfg = bucket_spectral_config(ki, kernel, lanczos_threshold, seed, bucket_id);
    let (c, breakdown) = SpectralClustering::new(cfg).run_on_similarity_owned(similarity);
    let records = members
        .iter()
        .zip(c.assignments)
        .map(|(&point, local)| (point, bucket_id, local))
        .collect();
    (records, gram, breakdown)
}

/// Check that stage-2 records name each point in `0..n` exactly once,
/// each in one of the buckets `bucket_sizes` lists, with a local
/// cluster id below that bucket's `Kᵢ` (of `k_total`, as
/// [`stitch_distributed`] apportions them).
pub fn check_reduce_records(
    n: usize,
    k_total: usize,
    bucket_sizes: &[usize],
    records: &[(usize, usize, usize)],
) -> Result<(), CoverageError> {
    let mut seen = vec![false; n];
    for &(point, bucket, local) in records {
        let Some(&ni) = bucket_sizes.get(bucket) else {
            return Err(CoverageError::BucketOutOfRange {
                bucket,
                buckets: bucket_sizes.len(),
            });
        };
        let clusters = bucket_cluster_count(k_total, ni, n);
        if local >= clusters {
            return Err(CoverageError::ClusterOutOfRange {
                point,
                bucket,
                local,
                clusters,
            });
        }
        let slot = seen
            .get_mut(point)
            .ok_or(CoverageError::PointOutOfRange { point, n })?;
        if std::mem::replace(slot, true) {
            return Err(CoverageError::Duplicate { point });
        }
    }
    match seen.iter().position(|&s| !s) {
        Some(point) => Err(CoverageError::Missing { point }),
        None => Ok(()),
    }
}

/// Stitch stage-2 records `(point, bucket_id, local_cluster)` into one
/// assignment with contiguous global cluster ids, given each bucket's
/// size. The records must pass [`check_reduce_records`].
///
/// # Panics
/// Panics on a local cluster id past its bucket's `Kᵢ`.
pub fn stitch_distributed(
    n: usize,
    k_total: usize,
    bucket_sizes: &[usize],
    records: &[(usize, usize, usize)],
) -> Clustering {
    let ki_per_bucket: Vec<usize> = bucket_sizes
        .iter()
        .map(|&ni| bucket_cluster_count(k_total, ni, n))
        .collect();
    let mut offsets = vec![0usize; ki_per_bucket.len() + 1];
    for (i, &ki) in ki_per_bucket.iter().enumerate() {
        offsets[i + 1] = offsets[i] + ki;
    }
    let mut assignments = vec![0usize; n];
    for &(point, bucket_id, local) in records {
        assert!(
            local < ki_per_bucket[bucket_id],
            "stitch: cluster {local} out of range in bucket {bucket_id}"
        );
        assignments[point] = offsets[bucket_id] + local;
    }
    Clustering::new(assignments, (*offsets.last().expect("nonempty")).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_groups_by_bits_with_global_indices() {
        let rows = [vec![0.1, 0.1], vec![0.9, 0.9], vec![0.1, 0.2]];
        let model = SignatureModel::fit(&rows, &dasc_lsh::LshConfig::with_bits(2));
        let groups = map_signatures(&model, 10, rows.iter().map(Vec::as_slice));
        let total: usize = groups.iter().map(|(_, m)| m.len()).sum();
        assert_eq!(total, 3);
        assert!(groups.windows(2).all(|w| w[0].0 < w[1].0));
        for (bits, members) in &groups {
            for &i in members {
                assert_eq!(model.hash(&rows[i - 10]).bits(), *bits);
            }
        }
    }

    #[test]
    fn merge_rebuilds_signatures_in_point_order() {
        let groups = [(0b01u64, vec![2, 0]), (0b10u64, vec![1])];
        let sigs = merge_signature_groups(3, 2, &groups).expect("exact cover");
        let bits: Vec<u64> = sigs.iter().map(Signature::bits).collect();
        assert_eq!(bits, vec![0b01, 0b10, 0b01]);
    }

    #[test]
    fn merge_rejects_duplicated_plus_missing_point() {
        // Point 1 is reported by two groups and point 2 by none: the
        // count still matches n, but coverage does not.
        let groups = [(0b01u64, vec![0, 1]), (0b10u64, vec![1])];
        assert_eq!(
            merge_signature_groups(3, 2, &groups),
            Err(CoverageError::Duplicate { point: 1 })
        );
        let groups = [(0b01u64, vec![0]), (0b10u64, vec![1])];
        assert_eq!(
            merge_signature_groups(3, 2, &groups),
            Err(CoverageError::Missing { point: 2 })
        );
        let groups = [(0b01u64, vec![0, 3])];
        assert_eq!(
            merge_signature_groups(3, 2, &groups),
            Err(CoverageError::PointOutOfRange { point: 3, n: 3 })
        );
    }

    #[test]
    fn reduce_records_must_cover_each_point_once() {
        // k = 3 over buckets of 2 and 1 points: K₀ = 2, K₁ = 1.
        let sizes = [2, 1];
        assert_eq!(
            check_reduce_records(3, 3, &sizes, &[(0, 0, 0), (2, 1, 0), (1, 0, 1)]),
            Ok(())
        );
        // Same record count as points, one duplicated and one missing.
        assert_eq!(
            check_reduce_records(3, 3, &sizes, &[(0, 0, 0), (1, 1, 0), (1, 1, 0)]),
            Err(CoverageError::Duplicate { point: 1 })
        );
        assert_eq!(
            check_reduce_records(3, 3, &sizes, &[(0, 0, 0), (1, 1, 0)]),
            Err(CoverageError::Missing { point: 2 })
        );
        assert_eq!(
            check_reduce_records(3, 3, &sizes, &[(0, 2, 0)]),
            Err(CoverageError::BucketOutOfRange {
                bucket: 2,
                buckets: 2
            })
        );
        assert_eq!(
            check_reduce_records(3, 3, &sizes, &[(5, 0, 0)]),
            Err(CoverageError::PointOutOfRange { point: 5, n: 3 })
        );
    }

    #[test]
    fn reduce_records_must_name_a_cluster_of_their_bucket() {
        // Bucket 1 has K₁ = 1 cluster, so local id 1 is out of range:
        // stitched, it would name some other cluster.
        let sizes = [2, 1];
        assert_eq!(
            check_reduce_records(3, 3, &sizes, &[(0, 0, 0), (1, 0, 1), (2, 1, 1)]),
            Err(CoverageError::ClusterOutOfRange {
                point: 2,
                bucket: 1,
                local: 1,
                clusters: 1
            })
        );
    }

    #[test]
    fn reduce_order_is_largest_first_ties_by_id() {
        assert_eq!(reduce_order(&[3, 7, 3, 9, 1]), vec![3, 1, 0, 2, 4]);
        assert!(reduce_order(&[]).is_empty());
    }

    #[test]
    fn reduce_bucket_emits_one_record_per_member() {
        let rows = vec![vec![0.0, 0.0], vec![0.01, 0.0], vec![1.0, 1.0]];
        let members = [7, 3, 5];
        let (records, _, _) = reduce_bucket(
            &FlatPoints::from_rows(&rows),
            &members,
            2,
            Kernel::gaussian(0.2),
            crate::LANCZOS_THRESHOLD,
            1,
            4,
        );
        assert_eq!(records.len(), 3);
        for ((point, bucket, local), &m) in records.iter().zip(&members) {
            assert_eq!((*point, *bucket), (m, 4));
            assert!(*local < 2);
        }
        assert_eq!(records[0].2, records[1].2);
        assert_ne!(records[0].2, records[2].2);
    }
}
