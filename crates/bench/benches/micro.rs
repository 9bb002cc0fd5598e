//! Criterion microbenchmarks over the hot kernels behind the figures:
//! signature generation (Fig. 3/6 stage 1), bucket merging, Gram-block
//! assembly (Fig. 5/6), eigensolvers (per-bucket spectral step), and
//! K-means (final step of every algorithm).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use dasc_core::{KMeans, KMeansConfig};
use dasc_data::SyntheticConfig;
use dasc_kernel::{full_gram, ApproximateGram, Kernel};
use dasc_linalg::{lanczos, symmetric_eigen, LanczosOptions, Matrix};
use dasc_lsh::{BucketSet, LshConfig, SignatureModel};

fn bench_signatures(c: &mut Criterion) {
    let mut g = c.benchmark_group("lsh_signatures");
    for &n in &[1024usize, 4096] {
        let ds = SyntheticConfig::blobs(n, 64, 16).generate();
        let model = SignatureModel::fit(&ds.points, &LshConfig::for_dataset(n));
        g.bench_with_input(BenchmarkId::new("hash_all", n), &n, |b, _| {
            b.iter(|| black_box(model.hash_all(&ds.points)))
        });
        g.bench_with_input(BenchmarkId::new("fit", n), &n, |b, _| {
            b.iter(|| black_box(SignatureModel::fit(&ds.points, &LshConfig::for_dataset(n))))
        });
    }
    g.finish();
}

fn bench_bucket_merge(c: &mut Criterion) {
    let mut g = c.benchmark_group("bucket_merge");
    let ds = SyntheticConfig::blobs(8192, 64, 16).generate();
    let model = SignatureModel::fit(&ds.points, &LshConfig::with_bits(10));
    let sigs = model.hash_all(&ds.points);
    let buckets = BucketSet::from_signatures(&sigs);
    g.bench_function("from_signatures", |b| {
        b.iter(|| black_box(BucketSet::from_signatures(&sigs)))
    });
    g.bench_function("greedy_pairs_p_m_minus_1", |b| {
        b.iter(|| black_box(buckets.merge_greedy_pairs(9)))
    });
    g.bench_function("closure_p_m_minus_1", |b| {
        b.iter(|| black_box(buckets.merge_similar(9)))
    });
    g.finish();
}

fn bench_gram(c: &mut Criterion) {
    let mut g = c.benchmark_group("gram");
    g.sample_size(20);
    let kernel = Kernel::gaussian(0.3);
    for &n in &[256usize, 512] {
        let ds = SyntheticConfig::blobs(n, 64, 8).generate();
        g.bench_with_input(BenchmarkId::new("full", n), &n, |b, _| {
            b.iter(|| black_box(full_gram(&ds.points, &kernel)))
        });
        let cfg = LshConfig::with_bits(3);
        let model = SignatureModel::fit(&ds.points, &cfg);
        let buckets = BucketSet::from_signatures(&model.hash_all(&ds.points));
        g.bench_with_input(BenchmarkId::new("block_diagonal", n), &n, |b, _| {
            b.iter(|| black_box(ApproximateGram::from_buckets(&ds.points, &buckets, &kernel)))
        });
    }
    g.finish();
}

fn bench_eigensolvers(c: &mut Criterion) {
    let mut g = c.benchmark_group("eigen");
    g.sample_size(10);
    for &n in &[64usize, 128, 256] {
        let a = Matrix::from_fn(n, n, |i, j| (-((i as f64 - j as f64) / 16.0).powi(2)).exp());
        g.bench_with_input(BenchmarkId::new("dense_full", n), &n, |b, _| {
            b.iter(|| black_box(symmetric_eigen(&a)))
        });
        g.bench_with_input(BenchmarkId::new("lanczos_top8", n), &n, |b, _| {
            b.iter(|| black_box(lanczos(&a, &LanczosOptions::top(8))))
        });
    }
    g.finish();
}

fn bench_kmeans(c: &mut Criterion) {
    let mut g = c.benchmark_group("kmeans");
    g.sample_size(20);
    for &n in &[1024usize, 4096] {
        let ds = SyntheticConfig::blobs(n, 16, 8).generate();
        g.bench_with_input(BenchmarkId::new("k8", n), &n, |b, _| {
            b.iter(|| black_box(KMeans::new(KMeansConfig::new(8)).run(&ds.points)))
        });
    }
    g.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let mut g = c.benchmark_group("metrics");
    g.sample_size(20);
    let n = 1024usize;
    let ds = SyntheticConfig::blobs(n, 8, 8).generate();
    let labels = ds.labels.clone().expect("labelled");
    let shifted: Vec<usize> = labels.iter().map(|&l| (l + 1) % 8).collect();
    g.bench_function("accuracy_hungarian", |b| {
        b.iter(|| black_box(dasc_metrics::accuracy(&shifted, &labels)))
    });
    g.bench_function("dbi", |b| {
        b.iter(|| black_box(dasc_metrics::davies_bouldin(&ds.points, &labels, 8)))
    });
    g.bench_function("silhouette", |b| {
        b.iter(|| black_box(dasc_metrics::silhouette(&ds.points, &labels, 8)))
    });
    g.bench_function("nmi", |b| {
        b.iter(|| black_box(dasc_metrics::nmi(&shifted, &labels)))
    });
    g.finish();
}

fn bench_kdtree(c: &mut Criterion) {
    let mut g = c.benchmark_group("knn");
    g.sample_size(20);
    let n = 4096usize;
    let ds = SyntheticConfig::blobs(n, 8, 16).generate();
    let tree = dasc_lsh::KdTree::build(&ds.points);
    g.bench_function("kdtree_build_4096x8", |b| {
        b.iter(|| black_box(dasc_lsh::KdTree::build(&ds.points)))
    });
    g.bench_function("kdtree_10nn_query", |b| {
        b.iter(|| black_box(tree.nearest(&ds.points, &ds.points[17], 10, Some(17))))
    });
    g.bench_function("brute_force_10nn_query", |b| {
        b.iter(|| {
            let q = &ds.points[17];
            let mut all: Vec<(usize, f64)> = ds
                .points
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != 17)
                .map(|(i, p)| {
                    let d: f64 = p.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum();
                    (i, d)
                })
                .collect();
            all.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN"));
            all.truncate(10);
            black_box(all)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_signatures,
    bench_bucket_merge,
    bench_gram,
    bench_eigensolvers,
    bench_kmeans,
    bench_metrics,
    bench_kdtree
);
criterion_main!(benches);
