//! Pipeline-level equivalence for the eigensolver routes: clustering
//! labels must be independent of the eigen route on separable data,
//! bit-identical across thread counts on the k-targeted dense path,
//! `SpectralClustering` must be exactly the Eq. 2 tail on the route
//! `resolve_eigen_path` picks, and `ParallelSpectral` exactly the same
//! tail on its sparse t-NN graph.
//!
//! `crossover_sweep_checks_both_routes` is `#[ignore]`d: it re-measures
//! the dense-k/Lanczos crossover the route rule encodes. Run it with
//! `cargo test --release -p dasc-core --test eigen_equivalence --
//! --ignored --nocapture`.

use std::time::Instant;

use dasc_core::{
    normalized_laplacian_inplace, resolve_eigen_path, row_normalize, top_eigenvectors_with, Dasc,
    DascConfig, EigenPath, KMeans, KMeansConfig, ParallelSpectral, PscConfig, SpectralClustering,
    SpectralConfig, LANCZOS_THRESHOLD,
};
use dasc_kernel::{full_gram_flat, Kernel};
use dasc_linalg::{lanczos, symmetric_eigen_topk, CsrMatrix, FlatPoints, LanczosOptions, Matrix};
use dasc_lsh::LshConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Four separated blobs, `per` points each, big enough to push buckets
/// past the dense-k crossover (bucket order > 64).
fn four_blobs(per: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
    let centers = [[0.1, 0.1], [0.9, 0.1], [0.1, 0.9], [0.9, 0.9]];
    let mut pts = Vec::new();
    let mut labels = Vec::new();
    for (ci, c) in centers.iter().enumerate() {
        for i in 0..per {
            let jx = (i % 13) as f64 * 0.003;
            let jy = (i % 11) as f64 * 0.003;
            pts.push(vec![c[0] + jx, c[1] + jy]);
            labels.push(ci);
        }
    }
    (pts, labels)
}

fn similarity(pts: &[Vec<f64>]) -> Matrix {
    full_gram_flat(&FlatPoints::from_rows(pts), &Kernel::gaussian(0.15))
}

/// The spectral tail built by hand: Laplacian (Eq. 2), top-`k`
/// eigenvectors on `path`, row normalization, K-means.
fn hand_tail(similarity: Matrix, k: usize, path: EigenPath, seed: u64) -> Vec<usize> {
    let mut l = similarity;
    normalized_laplacian_inplace(&mut l);
    let mut v = top_eigenvectors_with(&l, k, path, seed);
    row_normalize(&mut v);
    KMeans::new(KMeansConfig::new(k).seed(seed))
        .run_flat(&FlatPoints::from_flat(v.into_vec(), k))
        .assignments
}

#[test]
fn spectral_backends_agree_on_separable_data() {
    // n = 200 with k = 4: every route must recover the clean structure,
    // whichever one the default policy would pick.
    let (pts, truth) = four_blobs(50);
    let s = similarity(&pts);
    for path in [EigenPath::DenseFull, EigenPath::DenseK, EigenPath::Lanczos] {
        let labels = hand_tail(s.clone(), 4, path, 7);
        let acc = dasc_metrics::accuracy(&labels, &truth);
        assert!(acc > 0.99, "{path:?} accuracy {acc}");
    }
}

#[test]
fn dense_k_spectral_run_bit_identical_across_thread_counts() {
    let (pts, _) = four_blobs(50);
    let s = similarity(&pts);
    let reference =
        dasc_pool::Pool::new(1).install(|| hand_tail(s.clone(), 4, EigenPath::DenseK, 11));
    for threads in THREAD_COUNTS {
        let got = dasc_pool::Pool::new(threads)
            .install(|| hand_tail(s.clone(), 4, EigenPath::DenseK, 11));
        assert_eq!(reference, got, "labels differ at {threads} threads");
    }
}

#[test]
fn spectral_run_is_the_hand_built_tail_on_every_route() {
    // 40 points reach dense_full (n <= 64), 120 dense_k (under the
    // 160-point floor), 200 Lanczos (the band just past the floor) and
    // 600 Lanczos. The blobs overlap, so the embedding is not already
    // clustered and a skipped step shows in the labels.
    for (n, want) in [
        (40, EigenPath::DenseFull),
        (120, EigenPath::DenseK),
        (200, EigenPath::Lanczos),
        (600, EigenPath::Lanczos),
    ] {
        let pts = dasc_data::SyntheticConfig::blobs(n, 4, 4)
            .spread(0.15)
            .seed(9)
            .generate()
            .points;
        let n = pts.len();
        let s = similarity(&pts);
        let path = resolve_eigen_path(n, 4, LANCZOS_THRESHOLD);
        assert_eq!(path, want, "n = {n}");
        let cfg = SpectralConfig::new(4)
            .kernel(Kernel::gaussian(0.15))
            .seed(5);
        let (got, breakdown) = SpectralClustering::new(cfg).run_on_similarity_owned(s.clone());
        assert_eq!(breakdown.path, want, "n = {n}");
        assert_eq!(got.assignments, hand_tail(s, 4, path, 5), "n = {n}");
    }
}

/// Whether every vertex of the graph `g` is reachable from vertex 0.
fn is_connected(g: &CsrMatrix) -> bool {
    let mut seen = vec![false; g.nrows()];
    let mut stack = vec![0];
    while let Some(i) = stack.pop() {
        if !std::mem::replace(&mut seen[i], true) {
            stack.extend(g.row_iter(i).map(|(j, _)| j));
        }
    }
    seen.iter().all(|&s| s)
}

#[test]
fn psc_run_is_the_hand_built_sparse_tail() {
    // Overlapping blobs make a t-NN graph of one component, which PSC
    // clusters whole: its Lanczos seed is `seed ^ 0` and its labels take
    // no offset. So PSC must be exactly the sparse tail written out:
    // t-NN similarity, D^{-1/2} scaling, Lanczos, row normalization,
    // K-means.
    let pts = dasc_data::SyntheticConfig::blobs(300, 4, 4)
        .spread(0.3)
        .seed(9)
        .generate()
        .points;
    let (k, seed) = (4, 5);
    let psc = ParallelSpectral::new(PscConfig::new(k).kernel(Kernel::gaussian(0.15)).seed(seed));
    let mut l = psc.tnn_similarity(&pts);
    assert!(
        is_connected(&l),
        "the fixture's t-NN graph must be connected"
    );
    let inv_sqrt: Vec<f64> = l.row_sums().iter().map(|&d| 1.0 / d.sqrt()).collect();
    l.diag_scale(&inv_sqrt, &inv_sqrt);
    let mut opts = LanczosOptions::top(k);
    opts.seed = seed;
    let mut v = lanczos(&l, &opts).eigenvectors;
    row_normalize(&mut v);
    let want = KMeans::new(KMeansConfig::new(k).seed(seed))
        .run_flat(&FlatPoints::from_flat(v.into_vec(), k))
        .assignments;
    assert_eq!(psc.run(&pts).clustering.assignments, want);
}

#[test]
fn dasc_pipeline_bit_identical_across_thread_counts() {
    // Buckets of ~100+ points route through whichever solver
    // `resolve_eigen_path` picks; the whole pipeline (LSH → Gram
    // blocks → per-bucket spectral → consolidation) must not depend on
    // the pool width.
    let (pts, _) = four_blobs(100);
    let cfg = DascConfig::for_dataset(pts.len(), 4)
        .kernel(Kernel::gaussian(0.15))
        .lsh(LshConfig::with_bits(2))
        .seed(3);
    let reference = dasc_pool::Pool::new(1).install(|| Dasc::new(cfg.clone()).run(&pts));
    for threads in THREAD_COUNTS {
        let got = dasc_pool::Pool::new(threads).install(|| Dasc::new(cfg.clone()).run(&pts));
        assert_eq!(
            reference.clustering.assignments, got.clustering.assignments,
            "assignments differ at {threads} threads"
        );
        assert_eq!(
            reference.clustering.num_clusters,
            got.clustering.num_clusters
        );
        assert_eq!(reference.eigen_path, got.eigen_path);
    }
}

/// Normalized Laplacian of `blobs(n, 64, k)` at `spread` with 20%
/// noise under a Gaussian median-σ kernel: overlapping blobs (spread
/// 1.0) crowd the leading eigenvalues together, a small eigengap.
fn noisy_blob_laplacian(n: usize, k: usize, spread: f64) -> Matrix {
    let pts = dasc_data::SyntheticConfig::blobs(n, 64, k)
        .spread(spread)
        .noise_fraction(0.2)
        .seed(2)
        .generate()
        .points;
    let kernel = Kernel::gaussian_median_heuristic(&pts);
    let mut l = full_gram_flat(&FlatPoints::from_rows(&pts), &kernel);
    normalized_laplacian_inplace(&mut l);
    l
}

/// Largest Rayleigh-quotient residual `‖Lv − (vᵀLv)v‖` over the columns
/// of `vectors`.
fn worst_residual(l: &Matrix, vectors: &Matrix) -> f64 {
    let mut lv = vec![0.0; l.nrows()];
    (0..vectors.ncols())
        .map(|c| {
            let v = vectors.col(c);
            l.matvec_into(&v, &mut lv);
            let lambda: f64 = v.iter().zip(&lv).map(|(a, b)| a * b).sum();
            lv.iter()
                .zip(&v)
                .map(|(a, b)| (a - lambda * b).powi(2))
                .sum::<f64>()
                .sqrt()
        })
        .fold(0.0, f64::max)
}

/// Smallest squared norm any column of `vectors` keeps in the span of
/// the orthonormal columns of `reference` (1 when the spans agree).
fn worst_projection(reference: &Matrix, vectors: &Matrix) -> f64 {
    let p = reference.transpose().matmul(vectors);
    (0..p.ncols())
        .map(|c| p.col(c).iter().map(|v| v * v).sum::<f64>())
        .fold(1.0, f64::min)
}

#[test]
fn lanczos_converges_on_a_low_eigengap_laplacian() {
    // One Krylov space of the default size is not enough here. Every
    // returned Ritz pair must still meet the residual bound and span
    // the dense-k subspace.
    let (n, k) = (512, 8);
    let l = noisy_blob_laplacian(n, k, 1.0);
    let lanczos = top_eigenvectors_with(&l, k, EigenPath::Lanczos, 7);
    let dense = top_eigenvectors_with(&l, k, EigenPath::DenseK, 7);
    let worst_res = worst_residual(&l, &lanczos);
    let worst_proj = worst_projection(&dense, &lanczos);
    assert!(worst_res <= 1e-8, "residual {worst_res:e}");
    assert!(worst_proj >= 1.0 - 1e-6, "projection {worst_proj}");
}

/// Normalized Laplacian of `c` well-separated blobs: 1200 points in 16
/// dimensions, blob `i` centred at `10·e_i` with uniform ±0.3 noise, under
/// a Gaussian σ = 0.5 kernel. The blobs barely touch, so the top
/// eigenvalue 1 has multiplicity `c`.
fn separated_blob_laplacian(c: usize, seed: u64) -> Matrix {
    let (n, dim) = (1200, 16);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let pts: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let blob = i * c / n;
            (0..dim)
                .map(|j| if j == blob { 10.0 } else { 0.0 } + rng.gen_range(-0.3..0.3))
                .collect()
        })
        .collect();
    let mut l = full_gram_flat(&FlatPoints::from_rows(&pts), &Kernel::gaussian(0.5));
    normalized_laplacian_inplace(&mut l);
    l
}

#[test]
fn lanczos_keeps_every_copy_of_a_repeated_top_eigenvalue() {
    // The residual bound cannot tell a dropped copy of a repeated
    // eigenvalue: the next eigenpair (about 0.2 here) is a true pair too.
    for c in 2..=4 {
        for seed in 0..6 {
            let l = separated_blob_laplacian(c, seed);
            let res = lanczos(&l, &LanczosOptions::top(c));
            assert_eq!(res.eigenvalues.len(), c);
            for v in &res.eigenvalues {
                assert!(
                    *v >= 1.0 - 1e-8,
                    "c = {c}, seed {seed}: {:?}",
                    res.eigenvalues
                );
            }
            let dense = symmetric_eigen_topk(&l, c);
            let proj = worst_projection(&dense.eigenvectors, &res.eigenvectors);
            assert!(
                proj >= 1.0 - 1e-6,
                "c = {c}, seed {seed}: lanczos keeps {proj} in the dense-k subspace"
            );
        }
    }
}

/// Best-of-`reps` wall time of `f` in milliseconds, with its last result.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t = Instant::now();
        out = Some(f());
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    (best, out.expect("reps > 0"))
}

#[test]
#[ignore = "crossover sweep: run in release with --ignored --nocapture"]
fn crossover_sweep_checks_both_routes() {
    // (spread, n, ks): the grid the route rule was read from, on one
    // thread. Each order has cases on both sides of four route blocks
    // (`n / max(2k + 20, 40)`), k reaches n/5 at n = 1024, and 2349 is
    // the largest bucket of the skewed benchmark workload.
    let grid: [(f64, usize, &[usize]); 8] = [
        (0.2, 80, &[2, 8, 16]),
        (1.0, 128, &[2, 8, 16]),
        (1.0, 160, &[2, 8, 16]),
        (1.0, 200, &[2, 8, 16, 24]),
        (1.0, 256, &[2, 8, 16, 32]),
        (1.0, 512, &[2, 16, 48, 64, 100]),
        (1.0, 1024, &[2, 64, 96, 128, 204]),
        (1.0, 2349, &[9, 64, 200]),
    ];
    println!(
        "{:>6} {:>5} {:>6} {:>11} {:>11} {:>6} {:>7}  route",
        "n", "k", "spread", "dense_k_ms", "lanczos_ms", "dim", "ratio"
    );
    dasc_pool::Pool::new(1).install(|| {
        for (spread, n, ks) in grid {
            for &k in ks {
                let l = noisy_blob_laplacian(n, k, spread);
                let reps = (1_000_000 / (n * n)).clamp(1, 20);
                let (dense_ms, dense) = timed(reps, || symmetric_eigen_topk(&l, k));
                let (lanczos_ms, lz) = timed(reps, || lanczos(&l, &LanczosOptions::top(k)));
                let route = resolve_eigen_path(n, k, LANCZOS_THRESHOLD);
                println!(
                    "{n:>6} {k:>5} {spread:>6} {dense_ms:>11.2} {lanczos_ms:>11.2} {:>6} {:>7.2}  {}",
                    lz.subspace_dim,
                    dense_ms / lanczos_ms,
                    route.as_str()
                );
                for (name, vectors) in [
                    ("dense_k", &dense.eigenvectors),
                    ("lanczos", &lz.eigenvectors),
                ] {
                    let res = worst_residual(&l, vectors);
                    assert!(res <= 1e-8, "n = {n}, k = {k}: {name} residual {res:e}");
                }
                let proj = worst_projection(&dense.eigenvectors, &lz.eigenvectors);
                assert!(
                    proj >= 1.0 - 1e-6,
                    "n = {n}, k = {k}: lanczos keeps {proj} in the dense-k subspace"
                );
            }
        }
    });
}
