//! Thread-count stability of the flat k-means: the assignment step
//! fans tiles across the pool, and the clustering of a spectral
//! embedding must not depend on how many threads it had. (The
//! scalar-vs-tiled path equivalence suite lives beside the two paths,
//! in `kmeans.rs`.)

use dasc_core::embedding::{
    normalized_laplacian_inplace, row_normalize, top_eigenvectors_with, EigenPath,
};
use dasc_core::{KMeans, KMeansConfig};
use dasc_kernel::{full_gram, Kernel};
use dasc_linalg::FlatPoints;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn km(k: usize, seed: u64) -> KMeans {
    KMeans::new(KMeansConfig::new(k).seed(seed))
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

/// The spectral-embedding fixture: rows of the top-k eigenvector matrix
/// of a normalized Laplacian, row-normalized — exactly what
/// `run_on_similarity_owned` hands to k-means.
fn spectral_embedding(n: usize, k: usize) -> FlatPoints {
    let pts = two_blobs(n);
    let mut l = full_gram(&pts, &Kernel::gaussian(1.5));
    normalized_laplacian_inplace(&mut l);
    let mut y = top_eigenvectors_with(&l, k, EigenPath::DenseK, 7);
    row_normalize(&mut y);
    FlatPoints::from_flat(y.into_vec(), k)
}

#[test]
fn flat_run_deterministic_across_thread_counts() {
    let emb = spectral_embedding(100, 2);
    let reference = dasc_pool::Pool::new(1).install(|| km(2, 5).run_flat(&emb));
    for threads in THREAD_COUNTS {
        let got = dasc_pool::Pool::new(threads).install(|| km(2, 5).run_flat(&emb));
        assert_eq!(
            reference.assignments, got.assignments,
            "assignments differ at {threads} threads"
        );
        assert_eq!(
            reference.inertia, got.inertia,
            "inertia differs at {threads} threads"
        );
        assert_eq!(reference.centroids, got.centroids);
    }
}
