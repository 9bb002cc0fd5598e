//! End-to-end pipeline benchmark with machine-readable output.
//!
//! Runs the full DASC pipeline (LSH → bucket → Gram → cluster) on
//! synthetic blobs at two or three sizes, once pinned to a single
//! thread and once on the configured pool, and writes
//! `BENCH_pipeline.json`: per-stage wall-clock (from the same obs span
//! guards that fill [`dasc_core::DascStageTimes`]), threads used,
//! points/s, and the per-size parallel speedup.
//!
//! Usage: `bench_pipeline [--full] [--out PATH]`. Sizes default to the
//! quick set; `--full`/`DASC_SCALE=full` switches to paper-adjacent
//! sizes (20k+). The parallel run uses `DASC_NUM_THREADS` (default:
//! available cores), so `DASC_NUM_THREADS=4 bench_pipeline --full`
//! reproduces the 4-thread acceptance measurement. The pipeline runs
//! use the process kernel backend (`DASC_KERNEL`); a separate
//! micro-benchmark times the raw Gram distance kernel on *every*
//! backend the host supports and reports per-backend GFLOP/s under
//! `kernel_gram_gflops`.

use std::fmt::Write as _;
use std::time::Instant;

use dasc_bench::Scale;
use dasc_core::{Dasc, DascConfig, DascResult, KernelBackend};
use dasc_data::SyntheticConfig;
use dasc_linalg::gemm;

#[derive(Clone)]
struct Run {
    n: usize,
    dim: usize,
    threads: usize,
    total_s: f64,
    points_per_s: f64,
    result: DascResult,
}

impl Run {
    /// Effective Gram throughput in GFLOP/s per busy worker, counting
    /// the micro-kernel's norm-expansion work: `2d` flops per stored
    /// entry (the `A·Bᵀ` multiply-adds; the norm/exp passes are O(n) and
    /// O(1) per entry and are left out, so this slightly undercounts).
    /// `times.gram` sums the per-bucket Gram times, so parallel buckets
    /// do not inflate the figure.
    fn gram_gflops(&self) -> f64 {
        let gram_s = self.result.times.gram.as_secs_f64();
        if gram_s <= 0.0 {
            return 0.0;
        }
        let entries = (self.result.approx_gram_bytes / 4) as f64;
        2.0 * self.dim as f64 * entries / gram_s / 1e9
    }
}

fn run_once(points: &[Vec<f64>], k: usize, threads: usize) -> Run {
    let cfg = DascConfig::for_dataset(points.len(), k).seed(0xBE7C);
    let pool = dasc_pool::Pool::new(threads);
    let t0 = Instant::now();
    let result = pool.install(|| Dasc::new(cfg).run(points));
    let total_s = t0.elapsed().as_secs_f64();
    Run {
        n: points.len(),
        dim: points.first().map_or(0, Vec::len),
        threads,
        total_s,
        points_per_s: points.len() as f64 / total_s,
        result,
    }
}

fn json_run(out: &mut String, run: &Run) {
    let t = &run.result.times;
    write!(
        out,
        concat!(
            "{{\"n\": {}, \"threads\": {}, \"total_s\": {:.6}, ",
            "\"points_per_s\": {:.1}, \"buckets\": {}, ",
            "\"approx_gram_bytes\": {}, \"gram_gflops\": {:.4}, ",
            "\"eigen_path\": \"{}\", \"stages_s\": {{",
            "\"lsh\": {:.6}, \"bucketing\": {:.6}, ",
            "\"gram\": {:.6}, \"clustering\": {:.6}, ",
            "\"laplacian\": {:.6}, \"eigen\": {:.6}, \"kmeans\": {:.6}}}}}"
        ),
        run.n,
        run.threads,
        run.total_s,
        run.points_per_s,
        run.result.buckets.len(),
        run.result.approx_gram_bytes,
        run.gram_gflops(),
        run.result.eigen_path.as_str(),
        t.lsh.as_secs_f64(),
        t.bucketing.as_secs_f64(),
        t.gram.as_secs_f64(),
        t.clustering.as_secs_f64(),
        t.laplacian.as_secs_f64(),
        t.eigen.as_secs_f64(),
        t.kmeans.as_secs_f64(),
    )
    .expect("write to string");
}

/// Time the raw Gram distance kernel (`sq_dists_into_with`) on one
/// backend: an `n × n` squared-distance panel at the paper-default
/// dimensionality, best of `reps` — the same `2·d` flops/entry
/// accounting as [`Run::gram_gflops`], without LSH/eigen noise. This is
/// the number the acceptance criterion compares across backends.
fn gram_kernel_gflops(backend: KernelBackend, n: usize, dim: usize, reps: usize) -> f64 {
    let data: Vec<f64> = (0..n * dim)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (x % 1000) as f64 / 250.0 - 2.0
        })
        .collect();
    let norms = gemm::row_sq_norms_flat_with(backend, &data, dim);
    let mut out = vec![0.0; n * n];
    let mut best_s = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        gemm::sq_dists_into_with(
            backend, &data, n, &norms, &data, n, &norms, dim, &mut out, n,
        );
        best_s = best_s.min(t0.elapsed().as_secs_f64());
    }
    // Keep the buffer observable so the kernel can't be optimized out.
    assert!(out.iter().all(|&d| d >= 0.0));
    2.0 * dim as f64 * (n * n) as f64 / best_s / 1e9
}

fn main() {
    let scale = Scale::from_env();
    let out_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| "BENCH_pipeline.json".to_string())
    };
    let sizes: &[usize] = scale.pick(&[1_000, 4_000][..], &[5_000, 20_000, 50_000][..]);
    let k = 16usize;
    let par_threads = dasc_pool::configured_threads();
    let backend = KernelBackend::resolved();

    // Per-backend Gram kernel micro-benchmark: every backend this host
    // supports, timed on the same panel shape.
    let micro_n = 4_000usize;
    let micro_dim = 64usize;
    let mut kernel_gflops: Vec<(KernelBackend, f64)> = Vec::new();
    for be in KernelBackend::all_available() {
        eprintln!(
            "kernel micro-bench ({}, n={micro_n}, d={micro_dim})...",
            be.as_str()
        );
        let gflops = gram_kernel_gflops(be, micro_n, micro_dim, 3);
        eprintln!("  {}: {gflops:.2} GFLOP/s", be.as_str());
        kernel_gflops.push((be, gflops));
    }

    let mut runs: Vec<(Run, Run)> = Vec::new();
    for &n in sizes {
        let ds = SyntheticConfig::paper_default(n, k).seed(0xDA7A).generate();
        eprintln!("n={n}: sequential run...");
        let seq = run_once(&ds.points, k, 1);
        // With a 1-wide pool the "parallel" run is configuration-
        // identical to the sequential one; reuse it so the recorded
        // speedup is exactly 1.0 instead of scheduling noise (the seed
        // benchmark recorded a meaningless 0.96× at n=1000 this way).
        let par = if par_threads == 1 {
            eprintln!("n={n}: pool width 1, reusing sequential run");
            seq.clone()
        } else {
            eprintln!("n={n}: parallel run ({par_threads} threads)...");
            run_once(&ds.points, k, par_threads)
        };
        assert_eq!(
            seq.result.clustering.assignments, par.result.clustering.assignments,
            "clustering must be thread-count independent"
        );
        eprintln!(
            "n={n}: seq {:.3}s, par {:.3}s, speedup {:.2}x",
            seq.total_s,
            par.total_s,
            seq.total_s / par.total_s
        );
        runs.push((seq, par));
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"pipeline\",\n");
    write!(
        json,
        "  \"parallel_threads\": {par_threads},\n  \"kernel_backend\": \"{}\",\n",
        backend.as_str()
    )
    .expect("write to string");
    json.push_str("  \"kernel_gram_gflops\": {");
    for (i, (be, gflops)) in kernel_gflops.iter().enumerate() {
        write!(
            json,
            "{}\"{}\": {gflops:.4}",
            if i == 0 { "" } else { ", " },
            be.as_str()
        )
        .expect("write to string");
    }
    json.push_str("},\n  \"runs\": [\n");
    for (i, (seq, par)) in runs.iter().enumerate() {
        for (j, run) in [seq, par].into_iter().enumerate() {
            json.push_str("    ");
            json_run(&mut json, run);
            if i + 1 < runs.len() || j == 0 {
                json.push(',');
            }
            json.push('\n');
        }
    }
    json.push_str("  ],\n  \"speedup\": [\n");
    for (i, (seq, par)) in runs.iter().enumerate() {
        writeln!(
            json,
            "    {{\"n\": {}, \"speedup\": {:.3}}}{}",
            seq.n,
            seq.total_s / par.total_s,
            if i + 1 < runs.len() { "," } else { "" }
        )
        .expect("write to string");
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("wrote {out_path}");
}
