//! The `dist_ref` workload: the skewed dataset packed into a `.dstr`
//! store and clustered by a coordinator with two in-process workers over
//! loopback TCP, with jobs submitted by reference.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dasc_core::{Dasc, DascConfig};
use dasc_data::{dataset_to_store, Dataset};
use dasc_dist::{
    worker, Coordinator, JobClient, JobData, JobOutcome, JobSpec, WorkerHandle, WorkerOptions,
};
use dasc_mapreduce::ClusterConfig;

use crate::pipeline::{peak_rss, quality, timed, timed_window, trace_pipeline, MIN_TRACE_PAIRS};
use crate::report::RunReport;
use crate::spans::complete_events;
use crate::stats::median;

/// Distributed workers; each runs one task at a time.
const WORKERS: usize = 2;
/// Rows per store shard.
const SHARD_ROWS: usize = 1024;
/// Heartbeat of the measured cluster. Idle workers back off, and the job
/// client polls, every half heartbeat. At the 500 ms of
/// `ClusterConfig::emr`, job walls land on a 250 ms grid: most jobs took
/// one 0.5 s step and the rest 0.75 s, the median job of a run flipped
/// between the two (quartile distance 0.33 of the median over ten seeds,
/// wider than any bound the benchmark may set), and the mean moved by
/// 0.11. At 20 ms the polling cost stays in the measurement on a 10 ms
/// grid; the traced run measures the default heartbeat as a ratio.
const HEARTBEAT: Duration = Duration::from_millis(20);
/// Jobs the traced run times at the default heartbeat, after a warm-up.
const DEFAULT_HEARTBEAT_JOBS: usize = 5;

/// `ClusterConfig::emr` for the workers, with the measured heartbeat.
fn measured_cluster() -> ClusterConfig {
    let mut cluster = ClusterConfig::emr(WORKERS);
    cluster.heartbeat_interval = HEARTBEAT;
    cluster
}

/// A packed store plus a running coordinator and its workers.
struct DistCluster {
    coordinator: Coordinator,
    workers: Vec<WorkerHandle>,
    client: JobClient,
    store: PathBuf,
    content_hash: u64,
}

impl DistCluster {
    /// Pack `ds` into `store` and start `cluster`; returns the cluster
    /// and the pack time.
    fn start(
        ds: &Dataset,
        store: PathBuf,
        cluster: ClusterConfig,
    ) -> Result<(DistCluster, f64), String> {
        let _ = std::fs::remove_dir_all(&store);
        let (manifest, pack_s) = timed(|| dataset_to_store(ds, &store, SHARD_ROWS));
        let manifest = manifest.map_err(|e| format!("pack {}: {e}", store.display()))?;
        let coordinator = Coordinator::start("127.0.0.1:0", cluster.clone())
            .map_err(|e| format!("coordinator: {e}"))?;
        let addr = coordinator.addr().to_string();
        let workers = (0..WORKERS)
            .map(|i| worker::spawn(&addr, WorkerOptions::named(format!("bench-w{i}"))))
            .collect();
        let client = JobClient::connect(&addr, &cluster);
        let c = DistCluster {
            coordinator,
            workers,
            client,
            store,
            content_hash: manifest.content_hash,
        };
        Ok((c, pack_s))
    }

    /// Submit one job by reference and wait for it.
    fn job(&mut self, cfg: &DascConfig, collect_trace: bool) -> Result<JobOutcome, String> {
        let spec = JobSpec {
            data: JobData::Ref {
                path: self.store.to_string_lossy().into_owned(),
                content_hash: self.content_hash,
            },
            k: cfg.k,
            kernel: cfg.kernel,
            num_bits: 0,
            seed: cfg.seed,
            consolidate: cfg.consolidate,
            collect_trace,
        };
        self.client.run(spec, |_, _, _| {})
    }

    /// Stop the workers and the coordinator, and delete the store.
    fn shutdown(self, report: &mut RunReport) {
        for w in self.workers {
            if let Err(e) = w.shutdown() {
                report.check(false, || format!("worker shutdown: {e}"));
            }
        }
        self.coordinator.shutdown();
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

fn store_path(out_dir: &Path) -> PathBuf {
    out_dir.join(format!("dist-{}.dstr", std::process::id()))
}

/// The distributed runtime must reproduce the in-process distributed
/// engine bit for bit.
fn check_against_engine(
    report: &mut RunReport,
    points: &[Vec<f64>],
    cfg: &DascConfig,
    got: &[usize],
) {
    let engine = Dasc::new(cfg.clone()).run_distributed(points, &ClusterConfig::emr_default());
    report.check(engine.clustering.assignments == got, || {
        "dist_ref labels differ from Dasc::run_distributed".to_string()
    });
}

/// End-to-end run in this process: set up (pack, start, one warm-up
/// job), then submit jobs for `seconds`. With `check_engine`, the labels
/// are also checked against the in-process distributed engine.
pub fn run_dist(
    report: &mut RunReport,
    points: &[Vec<f64>],
    truth: &[usize],
    cfg: &DascConfig,
    seconds: f64,
    out_dir: &Path,
    check_engine: bool,
) -> Result<(), String> {
    let ds = Dataset::new(points.to_vec(), None, "dist_ref");
    let (ready, setup_s) = timed(|| -> Result<_, String> {
        let (mut c, _) = DistCluster::start(&ds, store_path(out_dir), measured_cluster())?;
        let labels = c.job(cfg, false)?.assignments;
        Ok((c, labels))
    });
    let (mut cluster, reference) = ready?;

    let (mut failed, mut mismatches) = (0u64, 0usize);
    let walls = timed_window(seconds, || match cluster.job(cfg, false) {
        Ok(o) => mismatches += usize::from(o.assignments != reference),
        Err(e) => {
            eprintln!("job failed: {e}");
            failed += 1;
        }
    });
    peak_rss(report);
    cluster.shutdown(report);
    report.attempted = walls.len() as u64;
    report.failed = failed;
    report.check(mismatches == 0, || {
        format!("{mismatches} jobs gave labels different from the first")
    });
    if check_engine {
        check_against_engine(report, points, cfg, &reference);
    }

    let n = points.len() as f64;
    report.set_from(
        "points_per_s",
        n * walls.len() as f64 / walls.iter().sum::<f64>(),
        walls.iter().map(|w| n / w).collect(),
    );
    report.set_latencies(walls.iter().map(|w| w * 1e9).collect());
    report.set("setup_s", setup_s);
    quality(report, &reference, truth);
    Ok(())
}

/// Counters of the process-wide registry the traced job moves. Workers
/// run in this process, so the registry holds their series too.
const COUNTERS: [&str; 6] = [
    "dasc_dist_tasks_completed_total",
    "dasc_net_rpcs_total",
    "dasc_net_bytes_sent_total",
    "dasc_store_shard_cache_hits_total",
    "dasc_store_shard_cache_misses_total",
    "dasc_store_shards_served_total",
];

/// Traced run: for half of `seconds` the local pipeline on the same data
/// (the common layer metrics and the local wall), then for the other
/// half alternating untraced and traced jobs. The last traced job's
/// merged trace and registry deltas give the `dist.`, `net.` and
/// `store.` metrics. Last, a few jobs on a cluster at the default
/// heartbeat.
pub fn trace_dist(
    report: &mut RunReport,
    points: &[Vec<f64>],
    cfg: &DascConfig,
    seconds: f64,
    out_dir: &Path,
    trace_path: &Path,
) -> Result<(), String> {
    let ds = Dataset::new(points.to_vec(), None, "dist_ref");
    let (mut cluster, pack_s) = DistCluster::start(&ds, store_path(out_dir), measured_cluster())?;
    let reference = cluster.job(cfg, false)?.assignments;

    let local_trace = trace_path.with_extension("local.json");
    let local = trace_pipeline(report, points, cfg, seconds / 2.0, &local_trace);

    let registry = dasc_obs::global();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    let start = Instant::now();
    while traced.len() < MIN_TRACE_PAIRS || start.elapsed().as_secs_f64() < seconds / 2.0 {
        let (o, wall) = timed(|| cluster.job(cfg, false));
        report.check(o?.assignments == reference, || {
            "untraced job labels differ".into()
        });
        untraced.push(wall);
        let before = COUNTERS.map(|c| registry.counter_value(c));
        let (o, wall) = timed(|| cluster.job(cfg, true));
        let o = o?;
        let deltas = COUNTERS
            .iter()
            .zip(before)
            .map(|(c, b)| (registry.counter_value(c) - b) as f64)
            .collect::<Vec<_>>();
        report.check(o.assignments == reference, || {
            "traced job labels differ".into()
        });
        traced.push(wall);
        last = Some((o, wall, deltas));
    }
    let (outcome, wall, deltas) = last.expect("at least one traced job");
    let job_id = cluster.client.last_job_id().ok_or("no job submitted")?;
    let trace = cluster.client.trace_json(job_id)?;
    cluster.shutdown(report);
    check_against_engine(report, points, cfg, &reference);

    let (mut default, _) =
        DistCluster::start(&ds, store_path(out_dir), ClusterConfig::emr(WORKERS))?;
    let mut default_walls = Vec::new();
    for i in 0..=DEFAULT_HEARTBEAT_JOBS {
        let (o, wall) = timed(|| default.job(cfg, false));
        report.check(o?.assignments == reference, || {
            "default-heartbeat job labels differ".into()
        });
        if i > 0 {
            default_walls.push(wall);
        }
    }
    default.shutdown(report);
    if let Err(e) = std::fs::write(trace_path, &trace) {
        report.check(false, || {
            format!("cannot write {}: {e}", trace_path.display())
        });
    }

    let events = complete_events(&trace)?;
    let queued: Vec<f64> = events
        .iter()
        .filter(|e| e.name.starts_with("task ") && e.name.ends_with(" queued"))
        .map(|e| e.dur_us / 1e6)
        .collect();
    let straggler = events
        .iter()
        .filter(|e| e.name == "dist.task.reduce")
        .map(|e| e.dur_us / 1e6)
        .fold(0.0, f64::max);
    let (map_s, reduce_s) = (
        outcome.stage1_us as f64 / 1e6,
        outcome.stage2_us as f64 / 1e6,
    );
    report.set("dist.tasks", deltas[0]);
    report.set("dist.task_retries", outcome.task_retries as f64);
    report.set("dist.shuffle_bytes", outcome.shuffle_bytes as f64);
    report.set(
        "dist.client_idle_share",
        (wall - map_s - reduce_s).max(0.0) / wall,
    );
    report.set("dist.queue_wait_ratio", queued.iter().sum::<f64>() / wall);
    report.set(
        "dist.queue_wait_max_ratio",
        queued.iter().copied().fold(0.0, f64::max) / wall,
    );
    report.set("dist.straggler_ratio", straggler / wall);
    let untraced_s = median(&untraced);
    report.set("dist.runtime_overhead_ratio", untraced_s / local.untraced_s);
    report.set(
        "dist.default_heartbeat_wall_ratio",
        median(&default_walls) / untraced_s,
    );
    report.set(
        "obs.trace_overhead_pct",
        (median(&traced) - untraced_s) / untraced_s * 100.0,
    );
    report.set("net.rpcs", deltas[1]);
    report.set("net.bytes_sent", deltas[2]);
    report.set("store.pack_rows_per_s", points.len() as f64 / pack_s);
    let lookups = deltas[3] + deltas[4];
    report.set(
        "store.shard_cache_hit_ratio",
        if lookups > 0.0 {
            deltas[3] / lookups
        } else {
            0.0
        },
    );
    report.set("store.shard_fetches", deltas[4]);
    report.set("store.shards_served", deltas[5]);
    report.attempted =
        local.runs + 2 + (untraced.len() + traced.len() + DEFAULT_HEARTBEAT_JOBS) as u64;
    report.zero_layer("serve.");
    Ok(())
}
