//! Release-build performance gates, one per mechanism whose whole point
//! is speed or volume: the SIMD Gram kernel, the pool's parallel
//! speedup, the shard-addressed shuffle, and the serving engine's
//! throughput. Each measures one input against one fixed bound.
//!
//! The gates time real work, so they are `#[ignore]` and meant for an
//! optimized build:
//!
//! ```text
//! cargo test --release --test perf_gates -- --ignored --nocapture
//! ```
//!
//! Each prints its measurement beside its bound. The repository
//! benchmark under `perfbench/` records the same layers with medians and
//! spreads; these tests only keep each mechanism above its floor.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use dasc::core::{Dasc, DascConfig, KernelBackend};
use dasc::data::{dataset_to_store, Dataset, SyntheticConfig};
use dasc::dist::{worker, Coordinator, JobClient, JobData, JobSpec, WorkerOptions};
use dasc::kernel::Kernel;
use dasc::linalg::gemm;
use dasc::lsh::LshConfig;
use dasc::mapreduce::ClusterConfig;
use dasc::serve::{AssignmentEngine, LatencyRecorder, ModelArtifact};

/// Held by each gate for its whole run: a gate timed beside another
/// would measure the contention, not its mechanism.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Clusters of the pipeline gates' `paper_default` mixture.
const PIPELINE_K: usize = 16;

/// The pipeline gates' dataset: the paper's synthetic mixture at `n`.
fn pipeline_points(n: usize) -> Vec<Vec<f64>> {
    SyntheticConfig::paper_default(n, PIPELINE_K)
        .seed(0xDA7A)
        .generate()
        .points
}

/// The pipeline gates' configuration: paper defaults for `n` points.
fn pipeline_config(n: usize) -> DascConfig {
    DascConfig::for_dataset(n, PIPELINE_K).seed(0xBE7C)
}

/// Rows and dimensions of the Gram kernel gate's square panel.
const GRAM_N: usize = 4_000;
const GRAM_DIM: usize = 64;

/// Effective GFLOP/s of the raw Gram distance kernel on one backend: a
/// `GRAM_N × GRAM_N` squared-distance panel, best of 3, counting `2·d`
/// flops per entry (the `A·Bᵀ` multiply-adds).
fn gram_kernel_gflops(backend: KernelBackend) -> f64 {
    let (n, dim) = (GRAM_N, GRAM_DIM);
    let data: Vec<f64> = (0..n * dim)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (x % 1000) as f64 / 250.0 - 2.0
        })
        .collect();
    let norms = gemm::row_sq_norms_flat_with(backend, &data, dim);
    let mut out = vec![0.0; n * n];
    let mut best_s = f64::INFINITY;
    for _ in 0..3 {
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

#[test]
#[ignore = "release-build timing gate"]
fn simd_gram_gate() {
    let _alone = alone();
    let timed: Vec<(KernelBackend, f64)> = KernelBackend::all_available()
        .into_iter()
        .map(|be| (be, gram_kernel_gflops(be)))
        .collect();
    for (be, gflops) in &timed {
        println!(
            "gram kernel n={GRAM_N} d={GRAM_DIM} {}: {gflops:.2} GFLOP/s",
            be.as_str()
        );
    }
    let scalar = timed
        .iter()
        .find(|(be, _)| *be == KernelBackend::Scalar)
        .map(|&(_, g)| g)
        .expect("scalar is always available");
    let Some((best, gflops)) = timed
        .iter()
        .filter(|(be, _)| *be != KernelBackend::Scalar)
        .max_by(|a, b| a.1.total_cmp(&b.1))
    else {
        println!("no SIMD backend on this host; nothing to compare");
        return;
    };
    let ratio = gflops / scalar;
    println!("{} over scalar: {ratio:.2}x (gate >= 2x)", best.as_str());
    assert!(
        ratio >= 2.0,
        "SIMD backend {} only {ratio:.2}x over scalar (want >= 2x)",
        best.as_str()
    );
}

#[test]
#[ignore = "release-build timing gate"]
fn parallel_floor_gate() {
    let _alone = alone();
    let threads = dasc_pool::configured_threads();
    let timed_run = |points: &[Vec<f64>], threads: usize| {
        let pool = dasc_pool::Pool::new(threads);
        let dasc = Dasc::new(pipeline_config(points.len()));
        let t0 = Instant::now();
        let labels = pool.install(|| dasc.run(points)).clustering.assignments;
        (labels, t0.elapsed().as_secs_f64())
    };
    // A 1-wide pool makes the parallel run the sequential one again;
    // reusing it keeps the speedup exactly 1.0 rather than noise. Past
    // that, 0.05 below parity is scheduling headroom for shared hosts:
    // anything lower means fan-out costs more than it buys.
    let floor = if threads == 1 { 1.0 } else { 0.95 };
    for n in [1_000, 4_000] {
        let points = pipeline_points(n);
        let seq = timed_run(&points, 1);
        let par = if threads == 1 {
            seq.clone()
        } else {
            timed_run(&points, threads)
        };
        assert_eq!(seq.0, par.0, "n={n}: labels depend on the thread count");
        let speedup = seq.1 / par.1;
        println!(
            "n={n}: 1 thread {:.3}s, {threads} threads {:.3}s, speedup {speedup:.2}x (floor {floor})",
            seq.1, par.1
        );
        assert!(
            speedup >= floor,
            "n={n}: speedup {speedup:.3} below floor {floor}"
        );
    }
}

#[test]
#[ignore = "release-build timing gate"]
fn ref_shuffle_gate() {
    let _alone = alone();
    const N: usize = 4_000;
    let points = pipeline_points(N);
    let config = pipeline_config(N);
    let spec = |data: JobData| JobSpec {
        data,
        k: PIPELINE_K,
        kernel: config.kernel,
        num_bits: 0,
        seed: config.seed,
        consolidate: config.consolidate,
        collect_trace: false,
    };

    let cluster = ClusterConfig::emr(2);
    let coordinator = Coordinator::start("127.0.0.1:0", cluster.clone()).expect("coordinator");
    let addr = coordinator.addr().to_string();
    let workers: Vec<_> = (0..2)
        .map(|i| worker::spawn(&addr, WorkerOptions::named(format!("gate-w{i}"))))
        .collect();
    let mut client = JobClient::connect(&addr, &cluster);

    let inline = client
        .run(
            spec(JobData::Inline {
                points: points.clone(),
            }),
            |_, _, _| {},
        )
        .expect("inline job");

    let store_dir =
        std::env::temp_dir().join(format!("dasc-perf-gate-{}.dstr", std::process::id()));
    let manifest = dataset_to_store(
        &Dataset::new(points.clone(), None, "gate"),
        &store_dir,
        1024,
    )
    .expect("pack store");
    let by_ref = client.run(
        spec(JobData::Ref {
            path: store_dir.to_string_lossy().into_owned(),
            content_hash: manifest.content_hash,
        }),
        |_, _, _| {},
    );
    std::fs::remove_dir_all(&store_dir).ok();
    let by_ref = by_ref.expect("by-reference job");

    for w in workers {
        w.shutdown().expect("worker shutdown");
    }
    coordinator.shutdown();

    let in_process = Dasc::new(config).run_distributed(&points, &ClusterConfig::emr_default());
    assert_eq!(
        inline.assignments, in_process.clustering.assignments,
        "inline job must match the in-process engine"
    );
    assert_eq!(
        by_ref.assignments, inline.assignments,
        "by-reference job must match the inline job"
    );

    let ratio = inline.shuffle_bytes as f64 / by_ref.shuffle_bytes as f64;
    println!(
        "n={N}: {} bytes shuffled inline vs {} by reference, {ratio:.1}x less (gate >= 5x)",
        inline.shuffle_bytes, by_ref.shuffle_bytes
    );
    assert!(
        ratio >= 5.0,
        "by-reference shuffle only {ratio:.2}x below inline (want >= 5x)"
    );
}

#[test]
#[ignore = "release-build timing gate"]
fn serve_assign_floor_gate() {
    let _alone = alone();
    const DIMS: usize = 16;
    const CLUSTERS: usize = 8;
    const TRAIN_POINTS: usize = 4_000;
    const WARMUP: usize = 10_000;
    const MEASURED: usize = 200_000;

    let ds = SyntheticConfig::blobs(TRAIN_POINTS, DIMS, CLUSTERS)
        .seed(42)
        .generate();
    let cfg = DascConfig::for_dataset(ds.points.len(), CLUSTERS)
        .kernel(Kernel::gaussian_median_heuristic(&ds.points))
        .lsh(LshConfig::with_bits(12))
        .seed(42);
    let trained = Dasc::new(cfg).train(&ds.points);
    let artifact = ModelArtifact::from_trained(&trained, &ds.points);
    let engine = AssignmentEngine::new(&artifact);

    // The training points plus jittered copies, cycled: the jitter keeps
    // some probes off the exact routing tier, so the neighbor and
    // fallback paths are timed too.
    let mut probes: Vec<Vec<f64>> = ds.points.clone();
    for (i, p) in ds.points.iter().enumerate().take(TRAIN_POINTS / 2) {
        let mut q = p.clone();
        q[i % DIMS] += 2.5;
        probes.push(q);
    }
    for p in probes.iter().cycle().take(WARMUP) {
        std::hint::black_box(engine.assign(p));
    }

    let latency = LatencyRecorder::new();
    let t0 = Instant::now();
    for p in probes.iter().cycle().take(MEASURED) {
        let t = Instant::now();
        std::hint::black_box(engine.assign(p));
        latency.record_micros(t.elapsed().as_micros() as u64);
    }
    let per_sec = MEASURED as f64 / t0.elapsed().as_secs_f64();
    let routes = engine.routing_counts();
    println!(
        "{per_sec:.0} assignments/s (floor 100000), p50 {} us, p99 {} us; \
         routes exact {} / neighbor {} / fallback {}",
        latency.percentile_micros(0.50),
        latency.percentile_micros(0.99),
        routes.exact,
        routes.one_bit_neighbor,
        routes.global_fallback,
    );
    assert!(
        per_sec >= 100_000.0,
        "{per_sec:.0} assignments/s, below the 100k floor"
    );
}
