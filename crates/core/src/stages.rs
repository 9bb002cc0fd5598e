//! The bodies of DASC's two MapReduce stages, shared by every executor.
//!
//! * Stage 1 (Algorithm 1) maps a run of rows to their signatures and
//!   groups the rows' global indices by signature bits
//!   ([`map_signatures`]).
//! * Between the stages, the groups of all map tasks are merged back
//!   into one signature per point ([`merge_signature_groups`]), checking
//!   that every point is mapped exactly once.
//! * Stage 2 (Algorithm 2 plus the spectral step) clusters one merged
//!   bucket and emits `(point, bucket, local cluster)` records
//!   ([`reduce_bucket`]); [`check_reduce_records`] checks that the
//!   records of all reduce tasks cover every point exactly once before
//!   [`stitch_distributed`] assembles them.
//!
//! [`crate::Dasc::train_distributed`] runs these bodies on the local
//! pool; the `dasc-dist` worker runs them in its task arms and the
//! coordinator merges and checks through the same helpers. None of them
//! depends on how the input is cut into tasks or on task arrival order,
//! so every executor produces bit-identical labels.

use std::collections::BTreeMap;
use std::fmt;

use dasc_kernel::Kernel;
use dasc_linalg::FlatPoints;
use dasc_lsh::{Signature, SignatureModel};

use crate::dasc::bucket_cluster_count;
use crate::spectral::{SpectralClustering, SpectralConfig};
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

/// The spectral configuration of merged bucket `bucket_id`, clustered
/// into `ki` clusters. The seed derives from `(seed, bucket_id)`, so the
/// serial [`crate::Dasc::run`] and every distributed executor seed each
/// bucket alike whatever task runs it.
pub(crate) fn bucket_spectral_config(
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

/// Stage-2 reduce body: spectrally cluster bucket `bucket_id`, whose
/// rows `points` holds in `members` order, into `ki` clusters, and emit
/// one `(point, bucket_id, local cluster)` record per member.
pub fn reduce_bucket(
    points: &FlatPoints,
    members: &[usize],
    ki: usize,
    kernel: Kernel,
    lanczos_threshold: usize,
    seed: u64,
    bucket_id: usize,
) -> Vec<(usize, usize, usize)> {
    let cfg = bucket_spectral_config(ki, kernel, lanczos_threshold, seed, bucket_id);
    let c = SpectralClustering::new(cfg).run_flat(points).clustering;
    members
        .iter()
        .zip(c.assignments)
        .map(|(&point, local)| (point, bucket_id, local))
        .collect()
}

/// Check that stage-2 records name each point in `0..n` exactly once,
/// each in one of `num_buckets` buckets.
pub fn check_reduce_records(
    n: usize,
    num_buckets: usize,
    records: &[(usize, usize, usize)],
) -> Result<(), CoverageError> {
    let mut seen = vec![false; n];
    for &(point, bucket, _) in records {
        if bucket >= num_buckets {
            return Err(CoverageError::BucketOutOfRange {
                bucket,
                buckets: num_buckets,
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
/// size.
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
        assignments[point] = offsets[bucket_id] + local.min(ki_per_bucket[bucket_id] - 1);
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
        assert_eq!(
            check_reduce_records(3, 2, &[(0, 0, 0), (2, 1, 0), (1, 0, 1)]),
            Ok(())
        );
        // Same record count as points, one duplicated and one missing.
        assert_eq!(
            check_reduce_records(3, 2, &[(0, 0, 0), (1, 1, 0), (1, 1, 0)]),
            Err(CoverageError::Duplicate { point: 1 })
        );
        assert_eq!(
            check_reduce_records(3, 2, &[(0, 0, 0), (1, 1, 0)]),
            Err(CoverageError::Missing { point: 2 })
        );
        assert_eq!(
            check_reduce_records(3, 2, &[(0, 2, 0)]),
            Err(CoverageError::BucketOutOfRange {
                bucket: 2,
                buckets: 2
            })
        );
        assert_eq!(
            check_reduce_records(3, 2, &[(5, 0, 0)]),
            Err(CoverageError::PointOutOfRange { point: 5, n: 3 })
        );
    }

    #[test]
    fn reduce_bucket_emits_one_record_per_member() {
        let rows = vec![vec![0.0, 0.0], vec![0.01, 0.0], vec![1.0, 1.0]];
        let members = [7, 3, 5];
        let records = reduce_bucket(
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
