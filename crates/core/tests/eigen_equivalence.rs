//! Pipeline-level equivalence for the eigensolver routes: clustering
//! labels must be independent of the eigen route on separable data,
//! bit-identical across thread counts on the k-targeted dense path, and
//! `SpectralClustering` must be exactly the Eq. 2 tail on the route
//! `resolve_eigen_path` picks.

use dasc_core::{
    normalized_laplacian_inplace, resolve_eigen_path, row_normalize, top_eigenvectors_with, Dasc,
    DascConfig, EigenPath, KMeans, KMeansConfig, SpectralClustering, SpectralConfig,
    LANCZOS_THRESHOLD,
};
use dasc_kernel::{full_gram_flat, Kernel};
use dasc_linalg::{FlatPoints, Matrix};
use dasc_lsh::LshConfig;

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
    // 40 points reach dense_full (n <= 64), 200 dense_k, 600 Lanczos
    // (past the 512 threshold). The blobs overlap, so the embedding is
    // not already clustered and a skipped step shows in the labels.
    for (n, want) in [
        (40, EigenPath::DenseFull),
        (200, EigenPath::DenseK),
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

#[test]
fn dasc_pipeline_bit_identical_across_thread_counts() {
    // Buckets of ~100+ points route through the k-targeted dense solve
    // under Auto; the whole pipeline (LSH → Gram blocks → per-bucket
    // spectral → consolidation) must not depend on the pool width.
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

#[test]
fn lanczos_converges_on_a_low_eigengap_laplacian() {
    // Overlapping blobs (spread 1.0) with 20% noise give a Laplacian
    // whose leading eigenvalues crowd together, so one Krylov space of
    // the default size is not enough. Every returned Ritz pair must
    // still meet the residual bound and span the dense-k subspace.
    let (n, k) = (512, 8);
    let pts = dasc_data::SyntheticConfig::blobs(n, 64, k)
        .spread(1.0)
        .noise_fraction(0.2)
        .seed(2)
        .generate()
        .points;
    let kernel = Kernel::gaussian_median_heuristic(&pts);
    let mut l = full_gram_flat(&FlatPoints::from_rows(&pts), &kernel);
    normalized_laplacian_inplace(&mut l);
    let lanczos = top_eigenvectors_with(&l, k, EigenPath::Lanczos, 7);
    let dense = top_eigenvectors_with(&l, k, EigenPath::DenseK, 7);
    let mut lv = vec![0.0; n];
    let mut worst_res = 0.0f64;
    let mut worst_proj = 1.0f64;
    for c in 0..k {
        let v = lanczos.col(c);
        l.matvec_into(&v, &mut lv);
        let lambda: f64 = v.iter().zip(&lv).map(|(a, b)| a * b).sum();
        let residual = lv
            .iter()
            .zip(&v)
            .map(|(a, b)| (a - lambda * b).powi(2))
            .sum::<f64>()
            .sqrt();
        worst_res = worst_res.max(residual);
        let in_dense: f64 = (0..k)
            .map(|d| {
                dense
                    .col(d)
                    .iter()
                    .zip(&v)
                    .map(|(a, b)| a * b)
                    .sum::<f64>()
                    .powi(2)
            })
            .sum();
        worst_proj = worst_proj.min(in_dense);
    }
    assert!(worst_res <= 1e-8, "residual {worst_res:e}");
    assert!(worst_proj >= 1.0 - 1e-6, "projection {worst_proj}");
}
