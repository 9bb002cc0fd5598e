//! The DASC algorithm (Section 3): LSH partitioning, bucket merging,
//! per-bucket approximate kernel blocks, per-bucket spectral clustering
//! — run as the paper's two MapReduce stages on the local pool, through
//! the task bodies in [`crate::stages`] that the `dasc-dist` workers
//! run too.
//!
//! Every stage is traced with `dasc-obs` spans (`dasc.lsh`,
//! `dasc.bucket`, `dasc.cluster` with one `dasc.cluster.bucket` per
//! reduce task and a `dasc.gram` inside each, and `dasc.consolidate`);
//! the same guards produce [`DascStageTimes`], so the struct and a trace
//! of the run can never disagree. Run-level totals land in the global
//! metrics registry (`dasc_runs_total`, `dasc_points_total`,
//! `dasc_buckets_total`).

use std::time::Duration;

use dasc_obs::span;

use dasc_kernel::Kernel;
use dasc_linalg::{FlatPoints, KernelBackend, PointsView};
use dasc_lsh::{BucketSet, LshConfig, Signature, SignatureModel};
use dasc_mapreduce::{simulate_on_cluster, split_ranges, ClusterConfig, JobStats};
use rayon::prelude::*;

use crate::embedding::{EigenPath, LANCZOS_THRESHOLD};
use crate::stages::{
    check_reduce_records, map_signatures, merge_signature_groups, reduce_bucket, reduce_order,
    stitch_distributed,
};
use crate::Clustering;

/// DASC configuration.
#[derive(Clone, Debug)]
pub struct DascConfig {
    /// Total number of clusters `K` across the dataset. Each bucket `i`
    /// receives `Kᵢ ∝ Nᵢ` of them (at least one).
    pub k: usize,
    /// Kernel for the per-bucket similarity blocks (paper: Gaussian,
    /// Eq. 1).
    pub kernel: Kernel,
    /// LSH stage configuration (signature width `M`, merge threshold
    /// `P`, histogram bins, dimension selection).
    pub lsh: LshConfig,
    /// Dense→Lanczos eigensolver crossover inside buckets.
    pub lanczos_threshold: usize,
    /// Consolidate the `Σ Kᵢ` per-bucket clusters down to exactly `K`
    /// global clusters with a weighted K-means over fragment centroids.
    /// Buckets can split a natural cluster across partitions; without
    /// consolidation each fragment stays its own cluster and quality
    /// metrics over-penalize DASC for over-segmentation.
    pub consolidate: bool,
    /// RNG seed (spectral seeds derive from it per bucket).
    pub seed: u64,
}

impl DascConfig {
    /// Paper defaults for `n` points and `k` clusters:
    /// `M = ⌈log₂N⌉/2 − 1`, `P = M − 1`, Gaussian kernel σ = 0.2.
    pub fn for_dataset(n: usize, k: usize) -> Self {
        assert!(k >= 1, "DASC needs k >= 1");
        Self {
            k,
            kernel: Kernel::gaussian(0.2),
            lsh: LshConfig::for_dataset(n),
            lanczos_threshold: LANCZOS_THRESHOLD,
            consolidate: true,
            seed: 0xDA5C,
        }
    }

    /// Builder: toggle fragment consolidation.
    pub fn consolidate(mut self, on: bool) -> Self {
        self.consolidate = on;
        self
    }

    /// Builder: kernel.
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Builder: LSH configuration.
    pub fn lsh(mut self, lsh: LshConfig) -> Self {
        self.lsh = lsh;
        self
    }

    /// Builder: seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Per-stage wall-clock breakdown of a DASC run.
#[derive(Clone, Debug, Default)]
pub struct DascStageTimes {
    /// Signature generation (model fit + the stage-1 map tasks).
    pub lsh: Duration,
    /// Bucket formation and merging.
    pub bucketing: Duration,
    /// Sub-similarity matrices, summed across buckets (a slice of
    /// `clustering`, like the three substage sums below).
    pub gram: Duration,
    /// Stage 2: every bucket's reduce task, then the record check and
    /// stitch.
    pub clustering: Duration,
    /// Laplacian scaling, summed across buckets (with several pool
    /// workers the per-bucket sums can exceed the wall-clock
    /// `clustering` figure).
    pub laplacian: Duration,
    /// Eigensolves, summed across buckets.
    pub eigen: Duration,
    /// Row normalization + K-means, summed across buckets.
    pub kmeans: Duration,
}

/// Result of a DASC run, carrying per-task durations so elasticity can
/// be replayed on other cluster sizes (Table 3).
#[derive(Clone, Debug)]
pub struct DascResult {
    /// The final clustering; cluster ids are contiguous across buckets.
    pub clustering: Clustering,
    /// The (merged) bucket structure used.
    pub buckets: BucketSet,
    /// Bytes of the approximate Gram matrix (4·Σ Nᵢ², Eq. 12).
    pub approx_gram_bytes: usize,
    /// Stage timings.
    pub times: DascStageTimes,
    /// Eigensolver route taken by the largest bucket — the run's
    /// dominant spectral cost.
    pub eigen_path: EigenPath,
    /// The kernel backend the run's gemm/dot/axpy primitives dispatched
    /// to (resolved once per process from `DASC_KERNEL`).
    pub kernel_backend: KernelBackend,
    /// Stage 1 (LSH map) task durations, in split order.
    pub stage1: JobStats,
    /// Stage 2 (per-bucket clustering reduce) task durations, in bucket
    /// order.
    pub stage2: JobStats,
}

impl DascResult {
    /// Replay the recorded task bag on an arbitrary cluster and return
    /// the simulated total duration (the Table 3 mechanism).
    pub fn simulate_total(&self, cluster: &ClusterConfig) -> Duration {
        let s1 = simulate_on_cluster(&self.stage1, cluster);
        let s2 = simulate_on_cluster(&self.stage2, cluster);
        s1.total + s2.total
    }
}

/// A fully trained DASC pipeline: the clustering result together with
/// the fitted LSH model and the per-point signatures that produced it.
///
/// This is the unit of export for online serving: the signature model
/// freezes the hash function, the signatures (with
/// [`DascResult::buckets`]) recover every constituent signature of each
/// merged bucket, and the clustering pins the global cluster ids.
#[derive(Clone, Debug)]
pub struct DascTrained {
    /// The clustering result (assignments, buckets, timings).
    pub result: DascResult,
    /// The frozen LSH signature model used to hash the training set.
    pub model: SignatureModel,
    /// Per-point signatures, parallel to the training points.
    pub signatures: Vec<Signature>,
    /// The configuration that produced the run (provenance).
    pub config: DascConfig,
}

/// The DASC clusterer.
#[derive(Clone, Debug)]
pub struct Dasc {
    config: DascConfig,
}

impl Dasc {
    /// Create from a configuration.
    pub fn new(config: DascConfig) -> Self {
        Self { config }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &DascConfig {
        &self.config
    }

    /// Fit the LSH model, hash, bucket, and merge — steps 1–2 of the
    /// algorithm, exposed for the kernel-approximation use case where a
    /// different downstream algorithm consumes the buckets.
    pub fn partition(&self, points: &[Vec<f64>]) -> (SignatureModel, BucketSet) {
        let model = SignatureModel::fit(points, &self.config.lsh);
        let sigs = model.hash_all(points);
        let buckets = BucketSet::from_signatures(&sigs)
            .merge_with(self.config.lsh.merge_strategy, self.config.lsh.merge_p);
        (model, buckets)
    }

    /// Build the block-diagonal approximate kernel matrix — steps 1–3,
    /// the algorithm-independent approximation of the paper's abstract.
    pub fn approximate_gram(&self, points: &[Vec<f64>]) -> dasc_kernel::ApproximateGram {
        let (_, buckets) = self.partition(points);
        dasc_kernel::ApproximateGram::from_buckets(points, &buckets, &self.config.kernel)
    }

    /// Run the full DASC pipeline on the local pool, with map tasks cut
    /// for the default cluster ([`ClusterConfig::default`]).
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn run(&self, points: &[Vec<f64>]) -> DascResult {
        self.train(points).result
    }

    /// Run the full pipeline and keep the fitted signature model and
    /// per-point signatures alongside the result — the inputs a serving
    /// artifact needs (see `dasc-serve`).
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn train(&self, points: &[Vec<f64>]) -> DascTrained {
        self.execute(points, &ClusterConfig::default())
    }

    /// Run DASC with stage-1 map tasks cut by [`split_ranges`] for
    /// `cluster`. The split plan changes only the recorded task bag,
    /// never the labels.
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn run_distributed(&self, points: &[Vec<f64>], cluster: &ClusterConfig) -> DascResult {
        self.train_distributed(points, cluster).result
    }

    /// [`Dasc::run_distributed`], keeping the fitted signature model and
    /// per-point signatures for artifact export.
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn train_distributed(&self, points: &[Vec<f64>], cluster: &ClusterConfig) -> DascTrained {
        self.execute(points, cluster)
    }

    /// The one DASC pipeline, as the paper's two MapReduce stages on the
    /// local pool, each task timed so the bag can be replayed:
    ///
    /// 1. fit the model; one [`map_signatures`] task per split;
    /// 2. rebuild the signatures ([`merge_signature_groups`]) and merge
    ///    buckets (Section 3.3);
    /// 3. one [`reduce_bucket`] task per bucket, largest first
    ///    ([`reduce_order`]), each gathering its points, building its
    ///    Gram block and clustering it — only the blocks in flight are
    ///    ever held;
    /// 4. [`check_reduce_records`], stitch, and consolidate.
    fn execute(&self, points: &[Vec<f64>], cluster: &ClusterConfig) -> DascTrained {
        assert!(!points.is_empty(), "DASC: empty dataset");
        let n = points.len();
        let cfg = &self.config;
        let mut times = DascStageTimes::default();

        let lsh_span = span!("dasc.lsh");
        let fit_span = span!("dasc.lsh.fit");
        let model = SignatureModel::fit(points, &cfg.lsh);
        fit_span.finish();
        let sign_span = span!("dasc.lsh.sign");
        let (map_task_durations, groups): (Vec<_>, Vec<_>) = split_ranges(n, cluster)
            .into_par_iter()
            .map(|(start, len)| {
                timed(|| {
                    let rows = points[start..start + len].iter().map(Vec::as_slice);
                    map_signatures(&model, start, rows)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .unzip();
        sign_span.finish();
        times.lsh = lsh_span.finish();

        let bucket_span = span!("dasc.bucket");
        let sigs = merge_signature_groups(n, model.num_bits(), groups.iter().flatten())
            .expect("split plan covers every point once");
        drop(groups);
        let buckets =
            BucketSet::from_signatures(&sigs).merge_with(cfg.lsh.merge_strategy, cfg.lsh.merge_p);
        times.bucketing = bucket_span.finish();
        let sizes = buckets.sizes();

        let cluster_span = span!("dasc.cluster");
        let reduced: Vec<_> = reduce_order(&sizes)
            .into_par_iter()
            .map(|bi| {
                let _bucket_span = span!("dasc.cluster.bucket");
                let members = &buckets.buckets()[bi].members;
                let (took, out) = timed(|| {
                    reduce_bucket(
                        &FlatPoints::gather(points, members),
                        members,
                        bucket_cluster_count(cfg.k, members.len(), n),
                        cfg.kernel,
                        cfg.lanczos_threshold,
                        cfg.seed,
                        bi,
                    )
                });
                (bi, took, out)
            })
            .collect();
        // `reduced[0]` is the largest bucket — its route is the run's
        // representative one.
        let eigen_path = reduced
            .first()
            .map_or(EigenPath::DenseFull, |(_, _, (_, _, br))| br.path);
        let mut reduce_task_durations = vec![Duration::ZERO; sizes.len()];
        let mut records = Vec::with_capacity(n);
        for (bi, took, (rs, gram, br)) in reduced {
            reduce_task_durations[bi] = took;
            times.gram += gram;
            times.laplacian += br.laplacian;
            times.eigen += br.eigen;
            times.kmeans += br.kmeans;
            records.extend(rs);
        }
        check_reduce_records(n, cfg.k, &sizes, &records).expect("every bucket reduced once");
        let stitched = stitch_distributed(n, cfg.k, &sizes, &records);
        times.clustering = cluster_span.finish();

        let clustering = if cfg.consolidate {
            let _consolidate_span = span!("dasc.consolidate");
            consolidate(points, &stitched, cfg.k, cfg.seed)
        } else {
            stitched
        };
        let approx_gram_bytes = 4 * buckets.approx_gram_entries();
        record_run_metrics(n, buckets.len(), approx_gram_bytes);
        DascTrained {
            result: DascResult {
                clustering,
                buckets,
                approx_gram_bytes,
                times,
                eigen_path,
                kernel_backend: KernelBackend::resolved(),
                stage1: JobStats {
                    map_task_durations,
                    ..JobStats::default()
                },
                stage2: JobStats {
                    reduce_task_durations,
                    ..JobStats::default()
                },
            },
            model,
            signatures: sigs,
            config: cfg.clone(),
        }
    }
}

/// Run `task` and measure its wall-clock duration.
fn timed<T>(task: impl FnOnce() -> T) -> (Duration, T) {
    let t0 = std::time::Instant::now();
    let out = task();
    (t0.elapsed(), out)
}

/// Run-level totals for the global metrics registry, recorded once per
/// completed DASC run.
fn record_run_metrics(points: usize, buckets: usize, approx_gram_bytes: usize) {
    let registry = dasc_obs::global();
    registry.inc("dasc_runs_total", 1);
    registry.inc("dasc_points_total", points as u64);
    registry.inc("dasc_buckets_total", buckets as u64);
    registry
        .gauge("dasc_approx_gram_bytes")
        .set(approx_gram_bytes as i64);
    registry
        .gauge(&dasc_obs::labeled(
            "dasc_kernel_backend",
            "backend",
            KernelBackend::resolved().as_str(),
        ))
        .set(1);
}

/// `Kᵢ = clamp(round(K · Nᵢ / N), 1, Nᵢ)`: clusters are apportioned to
/// buckets by size, never zero, never more than the bucket's points.
pub fn bucket_cluster_count(k_total: usize, bucket_size: usize, n: usize) -> usize {
    if bucket_size == 0 {
        return 0;
    }
    let share = (k_total as f64 * bucket_size as f64 / n as f64).round() as usize;
    share.clamp(1, bucket_size)
}

/// Consolidate the stitched `Σ Kᵢ` fragment clusters down to exactly
/// `k` global clusters: weighted K-means (k-means++, Lloyd) over the
/// fragment centroids in input space, fragments weighted by size.
///
/// LSH buckets can split a natural cluster across partitions; this
/// two-level step reunites fragments, so the final clustering is
/// comparable to one produced directly with `k` clusters. Every DASC
/// executor finishes through this function, the `dasc-dist`
/// coordinator included.
pub fn consolidate<P: PointsView + ?Sized>(
    points: &P,
    stitched: &Clustering,
    k: usize,
    seed: u64,
) -> Clustering {
    let num_fragments = stitched.num_clusters;
    if num_fragments <= k || points.is_empty() {
        return stitched.clone();
    }
    let d = points.dim();

    // Fragment centroids and weights. Accumulation order is point
    // order regardless of the points layout, so nested-vec and
    // shard-backed callers sum in the same sequence and agree bitwise.
    let mut centroids = vec![vec![0.0; d]; num_fragments];
    let mut weights = vec![0.0f64; num_fragments];
    for (i, &a) in stitched.assignments.iter().enumerate() {
        for (c, &v) in centroids[a].iter_mut().zip(points.row(i)) {
            *c += v;
        }
        weights[a] += 1.0;
    }
    for (c, &w) in centroids.iter_mut().zip(&weights) {
        if w > 0.0 {
            for v in c.iter_mut() {
                *v /= w;
            }
        }
    }

    let frag_to_final = weighted_kmeans(&centroids, &weights, k, seed);
    let assignments: Vec<usize> = stitched
        .assignments
        .iter()
        .map(|&a| frag_to_final[a])
        .collect();
    Clustering::new(assignments, k)
}

/// Weighted K-means over a small set of (centroid, weight) pairs.
/// Returns the cluster id of each input point. Deterministic per seed.
pub(crate) fn weighted_kmeans(
    points: &[Vec<f64>],
    weights: &[f64],
    k: usize,
    seed: u64,
) -> Vec<usize> {
    use dasc_linalg::vector;
    use rand::{Rng, SeedableRng};

    let n = points.len();
    let k = k.min(n).max(1);
    let d = points[0].len();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xC0507);

    // Weighted k-means++ seeding.
    let mut centers: Vec<Vec<f64>> = Vec::with_capacity(k);
    let first = (0..n).max_by(|&a, &b| weights[a].partial_cmp(&weights[b]).expect("NaN weight"));
    centers.push(points[first.expect("nonempty")].clone());
    let mut d2: Vec<f64> = points
        .iter()
        .map(|p| vector::sq_dist(p, &centers[0]))
        .collect();
    while centers.len() < k {
        let total: f64 = d2.iter().zip(weights).map(|(d, w)| d * w).sum();
        let next = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut u = rng.gen_range(0.0..total);
            let mut chosen = n - 1;
            for (i, (&dd, &w)) in d2.iter().zip(weights).enumerate() {
                let mass = dd * w;
                if u < mass {
                    chosen = i;
                    break;
                }
                u -= mass;
            }
            chosen
        };
        centers.push(points[next].clone());
        let latest = centers.last().expect("just pushed").clone();
        for (i, p) in points.iter().enumerate() {
            d2[i] = d2[i].min(vector::sq_dist(p, &latest));
        }
    }

    // Weighted Lloyd iterations.
    let mut assign = vec![0usize; n];
    for _ in 0..50 {
        for (i, p) in points.iter().enumerate() {
            let mut best = (0usize, f64::INFINITY);
            for (c, cen) in centers.iter().enumerate() {
                let dd = vector::sq_dist(p, cen);
                if dd < best.1 {
                    best = (c, dd);
                }
            }
            assign[i] = best.0;
        }
        let mut sums = vec![vec![0.0; d]; k];
        let mut mass = vec![0.0f64; k];
        for (i, p) in points.iter().enumerate() {
            let w = weights[i];
            vector::axpy(w, p, &mut sums[assign[i]]);
            mass[assign[i]] += w;
        }
        let mut moved = 0.0;
        for c in 0..k {
            if mass[c] > 0.0 {
                let mut new_c = sums[c].clone();
                vector::scale(1.0 / mass[c], &mut new_c);
                moved += vector::dist(&centers[c], &new_c);
                centers[c] = new_c;
            }
        }
        if moved < 1e-9 {
            break;
        }
    }
    assign
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasc_lsh::LshConfig;

    /// Four tight blobs in the corners of the unit square.
    fn four_blobs(per: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let centers = [[0.1, 0.1], [0.9, 0.1], [0.1, 0.9], [0.9, 0.9]];
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        for (ci, c) in centers.iter().enumerate() {
            for i in 0..per {
                let jx = (i % 7) as f64 * 0.004;
                let jy = (i % 5) as f64 * 0.004;
                pts.push(vec![c[0] + jx, c[1] + jy]);
                labels.push(ci);
            }
        }
        (pts, labels)
    }

    #[test]
    fn bucket_cluster_count_rules() {
        assert_eq!(bucket_cluster_count(10, 0, 100), 0);
        assert_eq!(bucket_cluster_count(10, 1, 100), 1);
        assert_eq!(bucket_cluster_count(10, 50, 100), 5);
        assert_eq!(bucket_cluster_count(10, 100, 100), 10);
        // Never exceeds bucket size.
        assert_eq!(bucket_cluster_count(100, 2, 4), 2);
    }

    #[test]
    fn recovers_four_blobs() {
        let (pts, truth) = four_blobs(25);
        let cfg = DascConfig::for_dataset(pts.len(), 4)
            .kernel(Kernel::gaussian(0.15))
            .lsh(LshConfig::with_bits(2));
        let res = Dasc::new(cfg).run(&pts);
        assert_eq!(res.clustering.len(), 100);
        let acc = dasc_metrics::accuracy(&res.clustering.assignments, &truth);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn memory_below_full_gram() {
        // With tiny M the P = M−1 merge is transitive across the whole
        // 2-bit cube and collapses everything into one bucket (full
        // Gram); disable merging to observe the block-diagonal saving.
        let (pts, _) = four_blobs(25);
        let cfg = DascConfig::for_dataset(pts.len(), 4).lsh(LshConfig::with_bits(2).merge_p(2));
        let res = Dasc::new(cfg).run(&pts);
        let full = 4 * 100 * 100;
        assert!(
            res.approx_gram_bytes < full,
            "approx {} vs full {full}",
            res.approx_gram_bytes
        );
        assert!(res.buckets.len() >= 2, "LSH produced a single bucket");
    }

    #[test]
    fn partition_and_approximate_gram_agree() {
        let (pts, _) = four_blobs(10);
        let dasc = Dasc::new(DascConfig::for_dataset(pts.len(), 4).lsh(LshConfig::with_bits(2)));
        let (_, buckets) = dasc.partition(&pts);
        let gram = dasc.approximate_gram(&pts);
        assert_eq!(gram.blocks().len(), buckets.len());
        assert_eq!(gram.stored_entries(), buckets.approx_gram_entries());
    }

    #[test]
    fn distributed_matches_serial_accuracy() {
        let (pts, truth) = four_blobs(20);
        let cfg = DascConfig::for_dataset(pts.len(), 4)
            .kernel(Kernel::gaussian(0.15))
            .lsh(LshConfig::with_bits(2));
        let serial = Dasc::new(cfg.clone()).run(&pts);
        let dist = Dasc::new(cfg).run_distributed(&pts, &ClusterConfig::single_node());
        let acc_serial = dasc_metrics::accuracy(&serial.clustering.assignments, &truth);
        let acc_dist = dasc_metrics::accuracy(&dist.clustering.assignments, &truth);
        assert!((acc_serial - acc_dist).abs() < 1e-9);
        assert_eq!(dist.buckets.len(), serial.buckets.len());
        assert_eq!(dist.approx_gram_bytes, serial.approx_gram_bytes);
    }

    #[test]
    fn distributed_stats_capture_both_stages() {
        let (pts, _) = four_blobs(10);
        let cfg = DascConfig::for_dataset(pts.len(), 4).lsh(LshConfig::with_bits(2));
        let dist = Dasc::new(cfg).run_distributed(&pts, &ClusterConfig::single_node());
        assert!(dist.stage1.num_map_tasks() >= 1);
        assert_eq!(dist.stage2.num_reduce_tasks(), dist.buckets.len());
        // Simulated time shrinks (weakly) with more nodes.
        let t1 = dist.simulate_total(&ClusterConfig::emr(1));
        let t64 = dist.simulate_total(&ClusterConfig::emr(64));
        assert!(t64 <= t1);
    }

    #[test]
    fn singleton_buckets_are_fine() {
        // One point per corner: every bucket is a singleton.
        let (pts, _) = four_blobs(1);
        let cfg = DascConfig::for_dataset(pts.len(), 4).lsh(LshConfig::with_bits(2));
        let res = Dasc::new(cfg).run(&pts);
        assert_eq!(res.clustering.len(), 4);
        // Four singleton buckets → four clusters.
        assert_eq!(res.clustering.num_clusters, 4);
    }

    #[test]
    fn consolidation_caps_cluster_count() {
        let (pts, _) = four_blobs(25);
        let cfg = DascConfig::for_dataset(pts.len(), 2)
            .kernel(Kernel::gaussian(0.15))
            .lsh(LshConfig::with_bits(2).merge_p(2));
        let with = Dasc::new(cfg.clone()).run(&pts);
        assert!(with.clustering.num_clusters <= 2);
        let without = Dasc::new(cfg.consolidate(false)).run(&pts);
        assert!(without.clustering.num_clusters >= with.clustering.num_clusters);
    }

    #[test]
    fn output_identical_across_thread_counts() {
        // The acceptance bar for real parallelism: the full pipeline —
        // LSH hashing, bucket Gram blocks, per-bucket spectral runs,
        // consolidation — produces bit-identical assignments whether it
        // runs on one worker or several.
        let (pts, _) = four_blobs(20);
        let cfg = DascConfig::for_dataset(pts.len(), 4)
            .lsh(LshConfig::with_bits(3))
            .seed(7);
        let seq = dasc_pool::Pool::new(1).install(|| Dasc::new(cfg.clone()).run(&pts));
        for threads in [2, 4] {
            let par = dasc_pool::Pool::new(threads).install(|| Dasc::new(cfg.clone()).run(&pts));
            assert_eq!(
                seq.clustering.assignments, par.clustering.assignments,
                "assignments differ at {threads} threads"
            );
            assert_eq!(seq.clustering.num_clusters, par.clustering.num_clusters);
            assert_eq!(seq.approx_gram_bytes, par.approx_gram_bytes);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (pts, _) = four_blobs(15);
        let cfg = DascConfig::for_dataset(pts.len(), 4)
            .lsh(LshConfig::with_bits(3))
            .seed(11);
        let a = Dasc::new(cfg.clone()).run(&pts);
        let b = Dasc::new(cfg).run(&pts);
        assert_eq!(a.clustering.assignments, b.clustering.assignments);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_panics() {
        Dasc::new(DascConfig::for_dataset(1, 1)).run(&[]);
    }

    #[test]
    fn train_emits_stage_spans_and_run_metrics() {
        // The global tracer is shared with any test running
        // concurrently, so every assertion here is monotone (presence,
        // >=, membership) rather than an exact count.
        let (pts, _) = four_blobs(15);
        let cfg = DascConfig::for_dataset(pts.len(), 4).lsh(LshConfig::with_bits(2));
        let runs_before = dasc_obs::global().counter_value("dasc_runs_total");

        let tracer = dasc_obs::tracer();
        tracer.enable();
        let res = Dasc::new(cfg).run(&pts);
        let spans = tracer.drain();
        tracer.disable();

        let names: std::collections::BTreeSet<&str> =
            spans.iter().map(|s| s.name.as_str()).collect();
        for stage in [
            "dasc.lsh",
            "dasc.lsh.fit",
            "dasc.lsh.sign",
            "dasc.bucket",
            "dasc.gram",
            "dasc.cluster",
            "dasc.cluster.bucket",
        ] {
            assert!(names.contains(stage), "missing span {stage}: {names:?}");
        }
        // lsh.fit/lsh.sign nest under some dasc.lsh span.
        let lsh_ids: std::collections::BTreeSet<u64> = spans
            .iter()
            .filter(|s| s.name == "dasc.lsh")
            .map(|s| s.id)
            .collect();
        assert!(spans
            .iter()
            .filter(|s| s.name.starts_with("dasc.lsh."))
            .all(|s| s.parent.is_some_and(|p| lsh_ids.contains(&p))));
        // At least one bucket-cluster span per bucket of our run.
        let per_bucket = spans
            .iter()
            .filter(|s| s.name == "dasc.cluster.bucket")
            .count();
        assert!(per_bucket >= res.buckets.len());
        // Each Gram block is built inside its bucket's reduce task.
        let bucket_ids: std::collections::BTreeSet<u64> = spans
            .iter()
            .filter(|s| s.name == "dasc.cluster.bucket")
            .map(|s| s.id)
            .collect();
        assert!(spans
            .iter()
            .filter(|s| s.name == "dasc.gram")
            .all(|s| s.parent.is_some_and(|p| bucket_ids.contains(&p))));

        assert!(dasc_obs::global().counter_value("dasc_runs_total") > runs_before);
    }
}
