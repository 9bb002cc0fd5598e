//! The local DASC pipeline: `Dasc::run` as a user calls it, and the
//! traced decomposition that rebuilds it from each crate's public calls
//! so the benchmark can time every layer from outside the program.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use dasc_analysis::cost::dasc_operations_general;
use dasc_core::{
    bucket_cluster_count, consolidate, normalized_laplacian_inplace, resolve_eigen_path,
    row_normalize, stitch_distributed, top_eigenvectors_with, Clustering, Dasc, DascConfig, KMeans,
    KMeansConfig,
};
use dasc_kernel::full_gram_flat;
use dasc_linalg::{gemm, FlatPoints, KernelBackend, Matrix};
use dasc_lsh::{BucketSet, SignatureModel};
use dasc_obs::{SpanRecord, Tracer};
use dasc_pool::Pool;
use rayon::prelude::*;

use crate::gram::{gram_bytes, gram_entries_computed, gram_flops};
use crate::report::RunReport;
use crate::spans::self_times;
use crate::stats::median;

/// Pool width of every workload.
pub const THREADS: usize = 2;
/// Fewest untraced/traced pairs of a traced run.
pub const MIN_TRACE_PAIRS: usize = 3;
/// Lowest ARI against the reference labels that counts as correct.
const MIN_ARI: f64 = 0.9;
/// Fewest operations of an end-to-end window.
const MIN_OPS: usize = 3;
/// Share of a traced run's wall its top-level stage spans must cover.
const MIN_STAGE_COVERAGE: f64 = 0.95;

/// The decomposed run's output and its bucket profile.
pub struct Decomposed {
    /// Final clustering; must equal `Dasc::run`'s bit for bit.
    pub clustering: Clustering,
    /// Merged bucket sizes, in bucket order.
    pub sizes: Vec<usize>,
    /// Clusters apportioned to each bucket.
    pub ks: Vec<usize>,
    /// Index of the largest bucket.
    pub largest: usize,
}

/// `Dasc::run` rebuilt from public calls, with a span around every call:
/// LSH fit and hash, bucketing and merging, per-bucket gather and Gram
/// fill, then per-bucket Laplacian, eigensolve, row normalization and
/// k-means, and finally stitching and consolidation. Buckets are
/// scheduled largest-first on the current pool, as `Dasc::run` does.
///
/// Span names carry the layer and, after `#`, the bucket index.
pub fn decompose(points: &[Vec<f64>], cfg: &DascConfig, tracer: &Tracer) -> Decomposed {
    let n = points.len();
    let _run = tracer.span("run");

    let stage = tracer.span("stage.lsh");
    let span = tracer.span("lsh.fit");
    let model = SignatureModel::fit(points, &cfg.lsh);
    span.finish();
    let span = tracer.span("lsh.hash");
    let sigs = model.hash_all(points);
    span.finish();
    stage.finish();

    let stage = tracer.span("stage.bucket");
    let span = tracer.span("lsh.bucket");
    let buckets =
        BucketSet::from_signatures(&sigs).merge_with(cfg.lsh.merge_strategy, cfg.lsh.merge_p);
    span.finish();
    stage.finish();
    let members = |b: usize| buckets.buckets()[b].members.as_slice();
    let mut order: Vec<usize> = (0..buckets.len()).collect();
    order.sort_by_key(|&b| Reverse(members(b).len()));

    let stage = tracer.span("stage.gram");
    let grams: Vec<(usize, Matrix)> = order
        .par_iter()
        .map(|&b| {
            let span = tracer.span(&format!("kernel.gather#{b}"));
            let sub = FlatPoints::gather(points, members(b));
            span.finish();
            let _span = tracer.span(&format!("kernel.gram#{b}"));
            (b, full_gram_flat(&sub, &cfg.kernel))
        })
        .collect();
    stage.finish();

    let stage = tracer.span("stage.cluster");
    let clustered: Vec<(usize, Clustering)> = grams
        .into_par_iter()
        .map(|(b, similarity)| {
            let ki = bucket_cluster_count(cfg.k, similarity.nrows(), n);
            let seed = cfg.seed ^ (b as u64).wrapping_mul(0x9E37_79B9);
            let c = spectral_tail(tracer, b, similarity, ki, cfg.lanczos_threshold, seed);
            (b, c)
        })
        .collect();
    stage.finish();

    let stage = tracer.span("stage.consolidate");
    let span = tracer.span("core.consolidate");
    let mut records = Vec::with_capacity(n);
    for (b, c) in &clustered {
        for (local, &point) in members(*b).iter().enumerate() {
            records.push((point, *b, c.assignments[local]));
        }
    }
    let sizes = buckets.sizes();
    let stitched = stitch_distributed(n, cfg.k, &sizes, &records);
    let clustering = if cfg.consolidate {
        consolidate(points, &stitched, cfg.k, cfg.seed)
    } else {
        stitched
    };
    span.finish();
    stage.finish();

    Decomposed {
        clustering,
        ks: sizes
            .iter()
            .map(|&ni| bucket_cluster_count(cfg.k, ni, n))
            .collect(),
        largest: order[0],
        sizes,
    }
}

/// `SpectralClustering::run_on_similarity_owned` with the symmetric
/// Laplacian and the automatic eigensolver route, one span per step.
fn spectral_tail(
    tracer: &Tracer,
    b: usize,
    mut s: Matrix,
    ki: usize,
    lanczos_threshold: usize,
    seed: u64,
) -> Clustering {
    let n = s.nrows();
    let k = ki.min(n).max(1);
    if k == 1 || n == 1 {
        return Clustering::new(vec![0; n], 1);
    }
    let span = tracer.span(&format!("core.laplacian#{b}"));
    normalized_laplacian_inplace(&mut s);
    span.finish();
    let path = resolve_eigen_path(n, k, lanczos_threshold);
    let span = tracer.span(&format!("core.eigen.{}#{b}", path.as_str()));
    let mut v = top_eigenvectors_with(&s, k, path, seed);
    drop(s);
    span.finish();
    let _span = tracer.span(&format!("core.kmeans#{b}"));
    row_normalize(&mut v);
    let km = KMeans::new(KMeansConfig::new(k).seed(seed));
    let res = km.run_flat(&FlatPoints::from_flat(v.into_vec(), k));
    Clustering::new(res.assignments, k)
}

/// Eq. 3's per-bucket operation count `2Nᵢ² + 2KᵢNᵢ`: the general
/// count for one bucket with the `M·N + B² + 2N` terms zeroed (`N = M =
/// 0`) and the single bucket's `B² = 1` removed.
fn eq3_bucket_ops(ni: usize, ki: usize) -> f64 {
    dasc_operations_general(0.0, 0.0, &[ni as f64], &[ki as f64]) - 1.0
}

/// Per-layer metrics of one traced decomposition. Returns the share of
/// the run's wall that its top-level stage spans cover.
fn layer_metrics(report: &mut RunReport, spans: &[SpanRecord], d: &Decomposed, dim: usize) -> f64 {
    let selfs = self_times(spans);
    let mut layer: BTreeMap<&str, f64> = BTreeMap::new();
    let mut calls: BTreeMap<&str, u64> = BTreeMap::new();
    let mut bucket_s = vec![0.0; d.sizes.len()];
    let mut largest_eigen_s = 0.0;
    let (mut stages_us, mut run_us) = (0u64, 0u64);
    for (s, &self_us) in spans.iter().zip(&selfs) {
        let (name, bucket) = match s.name.split_once('#') {
            Some((name, b)) => (name, b.parse::<usize>().ok()),
            None => (s.name.as_str(), None),
        };
        let secs = self_us as f64 / 1e6;
        *layer.entry(name).or_default() += secs;
        *calls.entry(name).or_default() += 1;
        if let Some(b) = bucket {
            bucket_s[b] += secs;
            if b == d.largest && name.starts_with("core.eigen.") {
                largest_eigen_s += secs;
            }
        }
        if name.starts_with("stage.") {
            stages_us += s.dur_us;
        } else if name == "run" {
            run_us = s.dur_us;
        }
    }
    let t = |name: &str| layer.get(name).copied().unwrap_or(0.0);
    let c = |name: &str| calls.get(name).copied().unwrap_or(0) as f64;

    report.set("lsh.fit_s", t("lsh.fit"));
    report.set("lsh.hash_s", t("lsh.hash"));
    report.set("lsh.bucket_s", t("lsh.bucket"));
    let buckets = d.sizes.len();
    report.set("lsh.buckets", buckets as f64);
    let mean = d.sizes.iter().sum::<usize>() as f64 / buckets as f64;
    report.set("lsh.bucket_skew", d.sizes[d.largest] as f64 / mean);

    let gram_s = t("kernel.gram");
    let flops: f64 = d.sizes.iter().map(|&ni| gram_flops(ni, dim)).sum();
    let bytes: f64 = d.sizes.iter().map(|&ni| gram_bytes(ni, dim)).sum();
    report.set("kernel.gather_s", t("kernel.gather"));
    report.set("kernel.gram_s", gram_s);
    report.set(
        "kernel.gram_entries",
        d.sizes
            .iter()
            .map(|&ni| gram_entries_computed(ni))
            .sum::<u64>() as f64,
    );
    report.set("kernel.gram_gflops", flops / gram_s / 1e9);
    report.set("kernel.gram_flops_per_byte", flops / bytes);

    let routes = ["lanczos", "dense_k", "dense_full"].map(|r| (r, t(&format!("core.eigen.{r}"))));
    let eigen_s: f64 = routes.iter().map(|(_, s)| s).sum();
    report.set("core.laplacian_s", t("core.laplacian"));
    report.set("core.eigen_s", eigen_s);
    for (route, s) in routes {
        report.set(
            &format!("core.eigen_{route}_calls"),
            c(&format!("core.eigen.{route}")),
        );
        let share = if eigen_s > 0.0 { s / eigen_s } else { 0.0 };
        report.set(&format!("core.eigen_{route}_share"), share);
    }
    report.set("core.eigen_max_bucket_s", largest_eigen_s);
    report.set("core.kmeans_s", t("core.kmeans"));
    report.set("core.consolidate_s", t("core.consolidate"));
    report.set("core.critical_path_s", bucket_s[d.largest]);

    // Fit one scale factor α to measured per-bucket time against Eq. 3's
    // per-bucket term, then take the median relative residual.
    let model: Vec<f64> = d
        .sizes
        .iter()
        .zip(&d.ks)
        .map(|(&ni, &ki)| eq3_bucket_ops(ni, ki))
        .collect();
    let alpha = bucket_s.iter().zip(&model).map(|(t, m)| t * m).sum::<f64>()
        / model.iter().map(|m| m * m).sum::<f64>();
    let residuals: Vec<f64> = bucket_s
        .iter()
        .zip(&model)
        .map(|(t, m)| (t - alpha * m).abs() / (alpha * m))
        .collect();
    report.set("analysis.cost_residual", median(&residuals));

    stages_us as f64 / run_us.max(1) as f64
}

/// Run `op` until `seconds` have passed and at least [`MIN_OPS`] ran;
/// returns each call's wall time in seconds.
pub fn timed_window(seconds: f64, mut op: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        op();
        walls.push(t.elapsed().as_secs_f64());
    }
    walls
}

/// Wall time of `f` in seconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Record ARI and NMI of `assignments` against the reference labels;
/// an ARI under [`MIN_ARI`] fails the run.
pub fn quality(report: &mut RunReport, assignments: &[usize], reference: &[usize]) {
    let ari = dasc_metrics::external::adjusted_rand_index(assignments, reference);
    report.set("ari", ari);
    report.set("nmi", dasc_metrics::external::nmi(assignments, reference));
    report.check(ari >= MIN_ARI, || format!("ARI {ari} below {MIN_ARI}"));
}

/// Record the process's peak RSS. Called right after the measured
/// window, before the benchmark's own summaries allocate.
pub fn peak_rss(report: &mut RunReport) {
    match crate::sys::peak_rss_mib() {
        Ok(mib) => report.set("peak_rss_mb", mib),
        Err(e) => {
            report.check(false, || e);
            report.set("peak_rss_mb", 0.0);
        }
    }
}

/// End-to-end run of a local workload in this process: set up (pool
/// start plus one warm-up run), then call `Dasc::run` repeatedly for
/// `seconds`, checking every result against the warm-up's.
pub fn run_local(
    report: &mut RunReport,
    points: &[Vec<f64>],
    truth: &[usize],
    cfg: &DascConfig,
    seconds: f64,
) {
    let dasc = Dasc::new(cfg.clone());
    let ((pool, reference), setup_s) = timed(|| {
        let pool = Pool::new(THREADS);
        let labels = pool.install(|| dasc.run(points)).clustering.assignments;
        (pool, labels)
    });

    let mut mismatches = 0usize;
    let walls = timed_window(seconds, || {
        let got = pool.install(|| dasc.run(points)).clustering.assignments;
        mismatches += usize::from(got != reference);
    });
    peak_rss(report);
    report.attempted = walls.len() as u64;
    report.check(mismatches == 0, || {
        format!("{mismatches} runs gave labels different from the first")
    });

    let n = points.len() as f64;
    report.set_from(
        "points_per_s",
        n * walls.len() as f64 / walls.iter().sum::<f64>(),
        walls.iter().map(|w| n / w).collect(),
    );
    report.set_latencies(walls.iter().map(|w| w * 1e9).collect());
    report.set("setup_s", setup_s);
    quality(report, &reference, truth);
}

/// Untraced and traced medians of the pipeline, from [`trace_pipeline`].
pub struct PipelineWalls {
    /// Median wall of `Dasc::run` on the workload's pool.
    pub untraced_s: f64,
    /// Median wall of the traced decomposition.
    pub traced_s: f64,
    /// Pipeline runs made, traced or not.
    pub runs: u64,
}

/// Traced run of the local pipeline on `points`: for `seconds`,
/// alternating pairs of an untraced `Dasc::run` and a traced
/// decomposition (whose labels must equal `Dasc::run`'s bit for bit);
/// then a single-thread run for the pool speed-up, and the GEMM ceiling.
/// Sets the `lsh.`, `kernel.`, `linalg.`, `core.`, `pool.` and
/// `analysis.` metrics and writes the Chrome trace of the median traced
/// run to `trace_path`.
pub fn trace_pipeline(
    report: &mut RunReport,
    points: &[Vec<f64>],
    cfg: &DascConfig,
    seconds: f64,
    trace_path: &Path,
) -> PipelineWalls {
    let dasc = Dasc::new(cfg.clone());
    let pool = Pool::new(THREADS);
    let reference = pool.install(|| dasc.run(points)).clustering.assignments;
    let registry = dasc_obs::global();

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while traced.len() < MIN_TRACE_PAIRS || start.elapsed().as_secs_f64() < seconds {
        untraced.push(timed(|| pool.install(|| dasc.run(points))).1);
        let tracer = Tracer::new();
        tracer.enable();
        let executed = registry.counter_value("pool_tasks_executed_total");
        let stolen = registry.counter_value("pool_tasks_stolen_total");
        let (d, wall) = timed(|| pool.install(|| decompose(points, cfg, &tracer)));
        let tasks = (
            registry.counter_value("pool_tasks_executed_total") - executed,
            registry.counter_value("pool_tasks_stolen_total") - stolen,
        );
        report.check(d.clustering.assignments == reference, || {
            "traced decomposition labels differ from Dasc::run".to_string()
        });
        traced.push((wall, tracer.drain(), d, tasks));
    }
    traced.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mid = traced.len() / 2;
    let traced_s = median(&traced.iter().map(|t| t.0).collect::<Vec<_>>());
    let (_, spans, d, (executed, stolen)) = traced.swap_remove(mid);

    let dim = points[0].len();
    let coverage = layer_metrics(report, &spans, &d, dim);
    report.check(coverage >= MIN_STAGE_COVERAGE, || {
        format!("top-level stage spans cover {coverage:.3} of the traced wall")
    });
    report.set("pool.tasks_executed", executed as f64);
    report.set("pool.tasks_stolen", stolen as f64);
    let untraced_s = median(&untraced);
    let single_s = timed(|| Pool::new(1).install(|| dasc.run(points))).1;
    report.set("pool.speedup", single_s / untraced_s);

    let best = gemm_gflops(KernelBackend::resolved());
    report.set("linalg.gemm_gflops", best);
    report.set(
        "linalg.gemm_gflops_scalar",
        gemm_gflops(KernelBackend::Scalar),
    );
    let gram = report.metrics["kernel.gram_gflops"].value;
    report.set("linalg.gram_efficiency", gram / best);

    let json = dasc_obs::trace::chrome_trace_json(&spans);
    if let Err(e) = std::fs::write(trace_path, json) {
        report.check(false, || {
            format!("cannot write {}: {e}", trace_path.display())
        });
    }
    PipelineWalls {
        untraced_s,
        traced_s,
        // The pairs, the reference run and the single-thread run.
        runs: 2 * untraced.len() as u64 + 2,
    }
}

/// GFLOP/s of the Gram distance kernel (`sq_dists_into_with`) on one
/// backend: an `n×n` panel at d = 64, best of three, counting `2d` flops
/// per entry. Single-threaded, so it bounds one pool thread's Gram rate.
fn gemm_gflops(backend: KernelBackend) -> f64 {
    const N: usize = 4000;
    const D: usize = 64;
    let data: Vec<f64> = (0..N * D)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (x % 1000) as f64 / 250.0 - 2.0
        })
        .collect();
    let norms = gemm::row_sq_norms_flat_with(backend, &data, D);
    let mut out = vec![0.0; N * N];
    let mut best_s = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        gemm::sq_dists_into_with(backend, &data, N, &norms, &data, N, &norms, D, &mut out, N);
        best_s = best_s.min(t.elapsed().as_secs_f64());
    }
    assert!(std::hint::black_box(&out).iter().all(|&v| v >= 0.0));
    2.0 * D as f64 * (N * N) as f64 / best_s / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq3_bucket_term() {
        assert_eq!(
            eq3_bucket_ops(100, 3),
            2.0 * 100.0 * 100.0 + 2.0 * 3.0 * 100.0
        );
    }
}
