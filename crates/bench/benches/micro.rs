//! Criterion microbenchmarks over the evaluation helpers: the quality
//! metrics every figure reports, and the k-d tree neighbor search. The
//! pipeline's hot kernels (LSH, Gram, eigensolvers, k-means) are timed
//! per layer by the repository benchmark under `perfbench/`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use dasc_data::SyntheticConfig;

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

criterion_group!(benches, bench_metrics, bench_kdtree);
criterion_main!(benches);
