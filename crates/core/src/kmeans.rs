//! K-means with k-means++ seeding (Hartigan–Wong reference in the
//! paper; Lloyd iterations here, which is what Mahout runs).
//!
//! Hot-path layout: points and centroids live in flat row-major
//! buffers. The assignment step is the O(n·k) cost, and for large
//! inputs it runs as point×centroid squared-distance *tiles* through
//! the `dasc_linalg::gemm` micro-kernel (norm expansion, per-iteration
//! centroid norms) instead of a scalar `sq_dist` per pair — see
//! [`TILED_MIN_POINTS`]. Tie-breaking is bitwise deterministic on both
//! paths: the lowest centroid index wins.

use dasc_linalg::{gemm, vector, FlatPoints};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// Smallest dataset whose assignment step runs as distance tiles; below
/// this the per-iteration norm pass outweighs the tile reuse, and one
/// scalar `sq_dist` per (point, centroid) pair serves instead. The two
/// paths' distances agree to a few ULPs (norm-expansion cancellation),
/// so their assignments can differ only on near-exact ties. Matches the
/// Gram layer's `dasc_kernel::TILED_MIN_POINTS`.
pub const TILED_MIN_POINTS: usize = 64;

/// Rows per assignment tile: each pool task owns this many points'
/// assignments, computes their distance tile against all centroids, and
/// writes a disjoint chunk — deterministic at any thread count.
const ASSIGN_TILE_ROWS: usize = 128;

/// Smallest point count worth fanning the assignment step across the
/// thread pool; below it, per-task hand-off outweighs the O(n·k) fill
/// (the same scheduling cliff `dasc_kernel::gram::PARALLEL_MIN_POINTS`
/// guards). Tile contents depend only on the point range, so the
/// sequential branch is bit-identical to the parallel one.
pub const PARALLEL_MIN_POINTS: usize = 256;

/// Lloyd iterations per restart at most.
const MAX_ITERS: usize = 100;

/// A restart stops once the centroids move this little in total.
const TOL: f64 = 1e-6;

/// Independent k-means++ restarts; the run with the lowest inertia wins.
/// K-means on spectral embeddings is seed-sensitive, so restarts are
/// what keep the SC/DASC comparison about the approximation rather than
/// seeding luck.
const RESTARTS: u64 = 8;

/// K-means configuration.
#[derive(Clone, Debug)]
pub struct KMeansConfig {
    /// Number of clusters `K`.
    pub k: usize,
    /// RNG seed for k-means++ seeding.
    pub seed: u64,
}

impl KMeansConfig {
    /// `k` clusters with a fixed default seed.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "k-means needs k >= 1");
        Self { k, seed: 0xC1A55E5 }
    }

    /// Builder: RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// K-means result.
#[derive(Clone, Debug)]
pub struct KMeansResult {
    /// Cluster id per point.
    pub assignments: Vec<usize>,
    /// Final centroids (k rows, or fewer if `k > n`).
    pub centroids: Vec<Vec<f64>>,
    /// Final within-cluster sum of squared distances.
    pub inertia: f64,
}

/// K-means clusterer.
#[derive(Clone, Debug)]
pub struct KMeans {
    config: KMeansConfig,
    /// Pins the assignment step to the tiled (`true`) or scalar
    /// (`false`) path regardless of `n`, so tests can compare the two.
    #[cfg(test)]
    force_tiled: Option<bool>,
}

impl KMeans {
    /// Create a clusterer from a configuration.
    pub fn new(config: KMeansConfig) -> Self {
        Self {
            config,
            #[cfg(test)]
            force_tiled: None,
        }
    }

    /// Cluster `points` into `k` groups: best of 8 independent k-means++
    /// runs by inertia, each at most 100 Lloyd iterations.
    ///
    /// Flattens the rows once and delegates to [`KMeans::run_flat`].
    ///
    /// # Panics
    /// Panics on an empty or ragged dataset.
    pub fn run(&self, points: &[Vec<f64>]) -> KMeansResult {
        assert!(!points.is_empty(), "k-means: empty dataset");
        self.run_flat(&FlatPoints::from_rows(points))
    }

    /// [`KMeans::run`] over pre-flattened points — the hot path (the
    /// spectral pipeline hands its embedding matrix over without
    /// re-nesting it).
    ///
    /// `k` is clamped to the number of points. Deterministic per seed.
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn run_flat(&self, points: &FlatPoints) -> KMeansResult {
        assert!(!points.is_empty(), "k-means: empty dataset");
        // Restarts run concurrently: each derives its own RNG stream
        // from the seed, so the candidate runs are exactly the ones the
        // sequential loop produced. Selection then scans in restart
        // order keeping the first strictly-lower inertia, so the winner
        // is independent of thread count too.
        let seeds: Vec<u64> = (0..RESTARTS)
            .map(|r| self.config.seed ^ r.wrapping_mul(0xA076_1D64_78BD_642F))
            .collect();
        let candidates: Vec<KMeansResult> = seeds
            .par_iter()
            .map(|&seed| self.run_once(points, seed))
            .collect();
        candidates
            .into_iter()
            .reduce(|best, c| if c.inertia < best.inertia { c } else { best })
            .expect("at least one restart")
    }

    fn tiled_assignment(&self, n: usize) -> bool {
        #[cfg(test)]
        if let Some(tiled) = self.force_tiled {
            return tiled;
        }
        n >= TILED_MIN_POINTS
    }

    fn run_once(&self, points: &FlatPoints, seed: u64) -> KMeansResult {
        let n = points.len();
        let d = points.dim();
        let k = self.config.k.min(n);
        let tiled = self.tiled_assignment(n);

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Flat `k × d` centroid buffer; row `c` is centroid `c`.
        let mut centroids = kmeanspp_init(points, k, &mut rng);
        let mut assignments = vec![0usize; n];
        // Point norms are iteration-invariant; centroid norms are
        // recomputed per iteration (they're O(k·d)).
        let point_norms = if tiled {
            gemm::row_sq_norms(points)
        } else {
            Vec::new()
        };

        for _ in 0..MAX_ITERS {
            assign_step(points, &point_norms, &centroids, k, &mut assignments, tiled);

            // Update step: accumulate flat per-cluster sums in place.
            let mut sums = vec![0.0f64; k * d];
            let mut counts = vec![0usize; k];
            for (i, &a) in assignments.iter().enumerate() {
                vector::axpy(1.0, points.row(i), &mut sums[a * d..(a + 1) * d]);
                counts[a] += 1;
            }
            let mut movement = 0.0;
            for c in 0..k {
                let crow = c * d..(c + 1) * d;
                if counts[c] == 0 {
                    // Empty cluster: re-seed at the point farthest from
                    // *its own* assigned centroid, the standard fix-up.
                    let far = farthest_from_own_centroid(points, &assignments, &centroids);
                    movement += vector::dist(&centroids[crow.clone()], points.row(far));
                    centroids[crow].copy_from_slice(points.row(far));
                    continue;
                }
                // New centroid = sums/count; movement accumulated as the
                // L2 distance to the old position, computed in the same
                // dimension order `vector::dist` walks.
                let inv = 1.0 / counts[c] as f64;
                let mut move_sq = 0.0;
                for (old, s) in centroids[crow].iter_mut().zip(&sums[c * d..(c + 1) * d]) {
                    let new = s * inv;
                    let delta = *old - new;
                    move_sq += delta * delta;
                    *old = new;
                }
                movement += move_sq.sqrt();
            }
            if movement <= TOL {
                break;
            }
        }

        // Final assignment against the converged centroids.
        assign_step(points, &point_norms, &centroids, k, &mut assignments, tiled);
        let inertia = assignments
            .iter()
            .enumerate()
            .map(|(i, &a)| vector::sq_dist(points.row(i), &centroids[a * d..(a + 1) * d]))
            .sum();

        KMeansResult {
            assignments,
            centroids: centroids.chunks(d.max(1)).map(<[f64]>::to_vec).collect(),
            inertia,
        }
    }
}

/// Fill `assignments` with each point's nearest centroid (lowest index
/// wins ties on both paths).
///
/// Scalar path: one `sq_dist` per pair, point-parallel. Tiled path:
/// [`ASSIGN_TILE_ROWS`]-point distance tiles against the whole centroid
/// set via the fused GEMM driver, then an argmin scan per tile row.
/// Both paths chunk the output so every pool task writes a disjoint
/// range — results are identical at any thread count.
fn assign_step(
    points: &FlatPoints,
    point_norms: &[f64],
    centroids: &[f64],
    k: usize,
    assignments: &mut [usize],
    tiled: bool,
) {
    let d = points.dim();
    if k <= 1 {
        assignments.fill(0);
        return;
    }
    let parallel = points.len() >= PARALLEL_MIN_POINTS;
    if !tiled {
        let fill = |(ci, out): (usize, &mut [usize])| {
            let r0 = ci * ASSIGN_TILE_ROWS;
            for (li, a) in out.iter_mut().enumerate() {
                *a = nearest(points.row(r0 + li), centroids, k, d).0;
            }
        };
        if parallel {
            assignments
                .par_chunks_mut(ASSIGN_TILE_ROWS)
                .enumerate()
                .for_each(fill);
        } else {
            assignments
                .chunks_mut(ASSIGN_TILE_ROWS)
                .enumerate()
                .for_each(fill);
        }
        return;
    }
    let centroid_norms = gemm::row_sq_norms_flat(centroids, d);
    let fill = |(ci, out): (usize, &mut [usize])| {
        let r0 = ci * ASSIGN_TILE_ROWS;
        let rows = out.len();
        let mut tile = vec![0.0f64; rows * k];
        gemm::sq_dists_into(
            points.rows(r0, r0 + rows),
            rows,
            &point_norms[r0..r0 + rows],
            centroids,
            k,
            &centroid_norms,
            d,
            &mut tile,
            k,
        );
        for (li, a) in out.iter_mut().enumerate() {
            let row = &tile[li * k..(li + 1) * k];
            let mut best = (0usize, f64::INFINITY);
            for (c, &dist) in row.iter().enumerate() {
                if dist < best.1 {
                    best = (c, dist);
                }
            }
            *a = best.0;
        }
    };
    if parallel {
        assignments
            .par_chunks_mut(ASSIGN_TILE_ROWS)
            .enumerate()
            .for_each(fill);
    } else {
        assignments
            .chunks_mut(ASSIGN_TILE_ROWS)
            .enumerate()
            .for_each(fill);
    }
}

/// Nearest centroid in a flat `k × d` buffer: `(index, sq_dist)`, lowest
/// index on ties.
fn nearest(p: &[f64], centroids: &[f64], k: usize, d: usize) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for c in 0..k {
        let dist = vector::sq_dist(p, &centroids[c * d..(c + 1) * d]);
        if dist < best.1 {
            best = (c, dist);
        }
    }
    best
}

/// The point farthest from *its own* assigned centroid — the re-seed
/// target when a cluster empties. Ties keep the last (highest-index)
/// maximum, matching `Iterator::max_by`.
fn farthest_from_own_centroid(
    points: &FlatPoints,
    assignments: &[usize],
    centroids: &[f64],
) -> usize {
    let d = points.dim();
    (0..points.len())
        .max_by(|&a, &b| {
            let da = vector::sq_dist(points.row(a), &centroids[assignments[a] * d..][..d]);
            let db = vector::sq_dist(points.row(b), &centroids[assignments[b] * d..][..d]);
            da.partial_cmp(&db).expect("NaN")
        })
        .expect("nonempty")
}

/// k-means++ seeding: first centroid uniform, each next centroid drawn
/// with probability proportional to squared distance from the nearest
/// chosen centroid. Returns a flat `k × d` centroid buffer; candidate
/// rows are borrowed from `points`, never cloned.
fn kmeanspp_init(points: &FlatPoints, k: usize, rng: &mut ChaCha8Rng) -> Vec<f64> {
    let n = points.len();
    let d = points.dim();
    let mut centroids: Vec<f64> = Vec::with_capacity(k * d);
    let mut chosen_count = 1;
    centroids.extend_from_slice(points.row(rng.gen_range(0..n)));
    let mut d2: Vec<f64> = (0..n)
        .map(|i| vector::sq_dist(points.row(i), &centroids[..d]))
        .collect();
    while chosen_count < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All remaining points coincide with a centroid; pick any.
            rng.gen_range(0..n)
        } else {
            let mut u = rng.gen_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                if u < w {
                    chosen = i;
                    break;
                }
                u -= w;
            }
            chosen
        };
        let latest = points.row(next);
        for (i, dd) in d2.iter_mut().enumerate() {
            *dd = dd.min(vector::sq_dist(points.row(i), latest));
        }
        centroids.extend_from_slice(latest);
        chosen_count += 1;
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    impl KMeans {
        /// Pin the assignment step to the tiled or the scalar path.
        fn on_path(mut self, tiled: bool) -> Self {
            self.force_tiled = Some(tiled);
            self
        }
    }

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..20 {
            pts.push(vec![0.0 + 0.01 * i as f64, 0.0]);
            pts.push(vec![5.0 + 0.01 * i as f64, 5.0]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let res = KMeans::new(KMeansConfig::new(2)).run(&two_blobs());
        // Even indices are blob A, odd are blob B.
        let a = res.assignments[0];
        let b = res.assignments[1];
        assert_ne!(a, b);
        for i in 0..40 {
            assert_eq!(res.assignments[i], if i % 2 == 0 { a } else { b });
        }
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let pts = two_blobs();
        let i1 = KMeans::new(KMeansConfig::new(1)).run(&pts).inertia;
        let i2 = KMeans::new(KMeansConfig::new(2)).run(&pts).inertia;
        assert!(i2 < i1);
    }

    #[test]
    fn k_clamped_to_n() {
        let pts = vec![vec![0.0], vec![1.0]];
        let res = KMeans::new(KMeansConfig::new(10)).run(&pts);
        assert_eq!(res.centroids.len(), 2);
        assert!((res.inertia - 0.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_per_seed() {
        let pts = two_blobs();
        let a = KMeans::new(KMeansConfig::new(3).seed(1)).run(&pts);
        let b = KMeans::new(KMeansConfig::new(3).seed(1)).run(&pts);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.inertia, b.inertia);
    }

    #[test]
    fn single_cluster_centroid_is_mean() {
        let pts = vec![vec![0.0, 0.0], vec![2.0, 4.0]];
        let res = KMeans::new(KMeansConfig::new(1)).run(&pts);
        assert_eq!(res.centroids[0], vec![1.0, 2.0]);
    }

    #[test]
    fn identical_points_are_fine() {
        let pts = vec![vec![3.0]; 10];
        let res = KMeans::new(KMeansConfig::new(3)).run(&pts);
        assert_eq!(res.inertia, 0.0);
        assert_eq!(res.assignments.len(), 10);
    }

    #[test]
    fn k1_assigns_everything_to_zero() {
        let res = KMeans::new(KMeansConfig::new(1)).run(&two_blobs());
        assert!(res.assignments.iter().all(|&a| a == 0));
    }

    #[test]
    fn tiled_and_scalar_paths_agree_on_blobs() {
        // Same seeds, same data: the tiled assignment step must land on
        // the same clustering as the scalar reference (distances agree
        // to ULPs; blob fixtures have no near-exact ties).
        let pts = two_blobs();
        let scalar = KMeans::new(KMeansConfig::new(2)).on_path(false).run(&pts);
        let tiled = KMeans::new(KMeansConfig::new(2)).on_path(true).run(&pts);
        assert_eq!(scalar.assignments, tiled.assignments);
        assert!((scalar.inertia - tiled.inertia).abs() < 1e-9);
    }

    #[test]
    fn flat_entry_point_matches_nested() {
        let pts = two_blobs();
        let flat = FlatPoints::from_rows(&pts);
        let km = KMeans::new(KMeansConfig::new(3).seed(9));
        let a = km.run(&pts);
        let b = km.run_flat(&flat);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.inertia, b.inertia);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn reseed_targets_point_farthest_from_its_own_centroid() {
        // Regression for the empty-cluster re-seed bug: the farthest
        // point must be measured against each point's *own* centroid,
        // not the first point's. Here p1 sits exactly on its centroid
        // (distance 0) but far from p0's; p2 is genuinely 5.0 away from
        // its own. The buggy metric picked p1 (index 1); correct is p2.
        let points = FlatPoints::from_rows(&[vec![0.0], vec![100.0], vec![5.0]]);
        let centroids = vec![0.0, 100.0]; // c0 = [0], c1 = [100]
        let assignments = vec![0, 1, 0];
        assert_eq!(
            farthest_from_own_centroid(&points, &assignments, &centroids),
            2
        );
    }

    #[test]
    fn empty_cluster_reseed_converges() {
        // Two distinct locations, k = 3: k-means++ must duplicate a
        // centroid (total d² mass hits zero), so one cluster empties and
        // the re-seed branch runs every iteration. It must converge and
        // leave a valid clustering.
        let mut pts = vec![vec![0.0]; 5];
        pts.extend(vec![vec![10.0]; 5]);
        let res = KMeans::new(KMeansConfig::new(3)).run(&pts);
        assert_eq!(res.assignments.len(), 10);
        assert!(res.assignments.iter().all(|&a| a < 3));
        assert_eq!(res.inertia, 0.0, "both locations sit on a centroid");
        // The two locations never share a cluster.
        assert_ne!(res.assignments[0], res.assignments[9]);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_panics() {
        KMeans::new(KMeansConfig::new(1)).run(&[]);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_panics() {
        KMeansConfig::new(0);
    }

    /// The scalar-vs-tiled equivalence suite: the micro-kernel
    /// assignment step must land on the same clusterings as the scalar
    /// reference path, on raw point clouds and on the spectral
    /// embeddings the pipeline actually feeds it.
    mod path_equivalence {
        use super::super::*;
        use crate::embedding::{
            normalized_laplacian_inplace, row_normalize, top_eigenvectors_with, EigenPath,
        };
        use dasc_kernel::{full_gram, Kernel};
        use proptest::prelude::*;

        /// Scalar (`tiled = false`) or tiled assignment, pinned.
        fn km(k: usize, seed: u64, tiled: bool) -> KMeans {
            KMeans::new(KMeansConfig::new(k).seed(seed)).on_path(tiled)
        }

        /// Two well-separated Gaussian-ish blobs, n points, interleaved labels.
        fn two_blobs(n: usize) -> Vec<Vec<f64>> {
            (0..n)
                .map(|i| {
                    let t = i as f64 * 0.7;
                    let (cx, cy) = if i % 2 == 0 { (0.0, 0.0) } else { (6.0, 6.0) };
                    vec![cx + 0.3 * t.sin(), cy + 0.3 * t.cos()]
                })
                .collect()
        }

        /// The spectral-embedding fixture: rows of the top-k eigenvector
        /// matrix of a normalized Laplacian, row-normalized — exactly
        /// what `run_on_similarity_owned` hands to k-means.
        fn spectral_embedding(n: usize, k: usize) -> FlatPoints {
            let pts = two_blobs(n);
            let mut l = full_gram(&pts, &Kernel::gaussian(1.5));
            normalized_laplacian_inplace(&mut l);
            let mut y = top_eigenvectors_with(&l, k, EigenPath::DenseK, 7);
            row_normalize(&mut y);
            FlatPoints::from_flat(y.into_vec(), k)
        }

        #[test]
        fn tiled_matches_scalar_on_two_blobs() {
            // 150 points clears TILED_MIN_POINTS, so scalar vs tiled
            // here is a genuine cross-path comparison.
            let pts = two_blobs(150);
            for seed in [0u64, 1, 42, 0xDA5C] {
                let scalar = km(2, seed, false).run(&pts);
                let tiled = km(2, seed, true).run(&pts);
                assert_eq!(
                    scalar.assignments, tiled.assignments,
                    "assignments diverge at seed {seed}"
                );
                assert!((scalar.inertia - tiled.inertia).abs() < 1e-9);
            }
        }

        #[test]
        fn tiled_matches_scalar_on_spectral_embedding() {
            // Embedding coordinates are row-normalized (unit scale), the
            // regime the norm-expansion tolerance analysis assumes.
            for k in [2usize, 3] {
                let emb = spectral_embedding(120, k);
                for seed in [3u64, 99] {
                    let scalar = km(k, seed, false).run_flat(&emb);
                    let tiled = km(k, seed, true).run_flat(&emb);
                    assert_eq!(
                        scalar.assignments, tiled.assignments,
                        "k={k} seed={seed}: embedding clusterings diverge"
                    );
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            #[test]
            fn paths_agree_on_random_clouds(
                data in prop::collection::vec(-2.0f64..2.0, 130..480),
                dim in 1usize..5,
                seed in 0u64..1000,
            ) {
                // Random clouds have no structure, so Lloyd wanders more
                // and any assignment divergence between the paths
                // compounds — this is a stronger probe than the blob
                // fixtures. Near-exact ties are measure-zero for
                // continuous draws.
                let n = data.len() / dim;
                let pts = FlatPoints::from_flat(data[..n * dim].to_vec(), dim);
                let scalar = km(3, seed, false).run_flat(&pts);
                let tiled = km(3, seed, true).run_flat(&pts);
                prop_assert_eq!(&scalar.assignments, &tiled.assignments);

                // And the nested-Vec entry point must match the flat one bitwise.
                let nested: Vec<Vec<f64>> = (0..n).map(|i| pts.row(i).to_vec()).collect();
                let via_nested = km(3, seed, false).run(&nested);
                prop_assert_eq!(&scalar.assignments, &via_nested.assignments);
                prop_assert_eq!(scalar.inertia, via_nested.inertia);
            }
        }
    }
}
