//! End-to-end tests of the coordinator/worker runtime, including the
//! fault-injection scenario: a worker dies mid-map, its task is
//! re-queued, and the job still finishes bit-identical to the
//! in-process engine.

use std::time::Duration;

use dasc_core::{Dasc, DascConfig};
use dasc_data::{dataset_to_store, Dataset, SyntheticConfig};
use dasc_dist::{worker, Coordinator, JobClient, JobData, JobSpec, WorkerOptions};
use dasc_mapreduce::ClusterConfig;

/// Fast-failure-detection cluster knobs for tests: sub-second
/// heartbeats and liveness so a killed worker is reclaimed quickly.
fn test_cluster() -> ClusterConfig {
    let mut c = ClusterConfig::emr(2);
    c.records_per_split = 64;
    c.heartbeat_interval = Duration::from_millis(50);
    c.worker_liveness_timeout = Duration::from_millis(800);
    c.rpc_connect_timeout = Duration::from_millis(500);
    c.rpc_read_timeout = Duration::from_secs(5);
    c.rpc_write_timeout = Duration::from_secs(5);
    c.rpc_backoff_base = Duration::from_millis(10);
    c.rpc_backoff_max = Duration::from_millis(100);
    c
}

fn blobs(n: usize, k: usize) -> Vec<Vec<f64>> {
    SyntheticConfig::blobs(n, 8, k).seed(11).generate().points
}

fn spec_for(points: &[Vec<f64>], config: &DascConfig) -> JobSpec {
    JobSpec {
        data: JobData::Inline {
            points: points.to_vec(),
        },
        k: config.k,
        kernel: config.kernel,
        num_bits: 0, // for_dataset default, same as the baseline config
        seed: config.seed,
        consolidate: config.consolidate,
        collect_trace: false,
    }
}

#[test]
fn two_workers_match_in_process_engine() {
    let points = blobs(400, 4);
    let config = DascConfig::for_dataset(points.len(), 4);
    let baseline =
        Dasc::new(config.clone()).run_distributed(&points, &ClusterConfig::emr_default());

    let cluster = test_cluster();
    let coordinator = Coordinator::start("127.0.0.1:0", cluster.clone()).expect("coordinator");
    let addr = coordinator.addr().to_string();
    let w1 = worker::spawn(&addr, WorkerOptions::named("w1"));
    let w2 = worker::spawn(&addr, WorkerOptions::named("w2"));

    let mut client = JobClient::connect(&addr, &cluster);
    let outcome = client
        .run(spec_for(&points, &config), |_, _, _| {})
        .expect("distributed job");

    assert_eq!(outcome.assignments, baseline.clustering.assignments);
    assert_eq!(outcome.num_clusters, baseline.clustering.num_clusters);
    assert_eq!(outcome.num_buckets, baseline.buckets.len());
    assert!(outcome.workers_used >= 1);
    assert!(outcome.shuffle_records > 0);
    assert!(outcome.shuffle_bytes > 0);

    w1.shutdown().expect("w1");
    w2.shutdown().expect("w2");
    coordinator.shutdown();
}

#[test]
fn killed_worker_mid_map_recovers_and_matches() {
    // Enough points for several map waves so the dying worker is very
    // likely to take its fatal assignment while maps are outstanding.
    let points = blobs(600, 4);
    let config = DascConfig::for_dataset(points.len(), 4);
    let baseline =
        Dasc::new(config.clone()).run_distributed(&points, &ClusterConfig::emr_default());

    let cluster = test_cluster();
    let coordinator = Coordinator::start("127.0.0.1:0", cluster.clone()).expect("coordinator");
    let addr = coordinator.addr().to_string();

    // Victim: accepts one task, then vanishes with it in flight.
    let victim = worker::spawn(
        &addr,
        WorkerOptions {
            die_after_assignments: Some(1),
            ..WorkerOptions::named("victim")
        },
    );
    let survivor = worker::spawn(&addr, WorkerOptions::named("survivor"));

    let mut client = JobClient::connect(&addr, &cluster);
    let outcome = client
        .run(spec_for(&points, &config), |_, _, _| {})
        .expect("job survives a worker death");

    // The victim died holding a task: the job must have retried it.
    assert!(
        outcome.task_retries >= 1,
        "expected at least one retry, got {}",
        outcome.task_retries
    );
    victim.wait().expect("victim exits cleanly");

    // Bit-identical to the in-process engine despite the death.
    assert_eq!(outcome.assignments, baseline.clustering.assignments);
    assert_eq!(outcome.num_clusters, baseline.clustering.num_clusters);
    assert_eq!(outcome.num_buckets, baseline.buckets.len());

    survivor.shutdown().expect("survivor");
    coordinator.shutdown();
}

/// Pack `points` into a fresh temp `.dstr` store and return
/// `(store dir, Ref job data)` for submission.
fn packed_ref(points: &[Vec<f64>], tag: &str, shard_rows: usize) -> (std::path::PathBuf, JobData) {
    let dir = std::env::temp_dir().join(format!(
        "dasc-dist-{tag}-{}-{shard_rows}.dstr",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let manifest = dataset_to_store(&Dataset::new(points.to_vec(), None, tag), &dir, shard_rows)
        .expect("pack store");
    let data = JobData::Ref {
        path: dir.to_string_lossy().into_owned(),
        content_hash: manifest.content_hash,
    };
    (dir, data)
}

#[test]
fn ref_job_with_killed_worker_matches_inline_bit_identically() {
    // The acceptance bar for the shard-addressed path: a dataset-ref
    // job must produce bit-identical labels to the inline path — here
    // with a worker dying mid-job so retries and shard re-fetches are
    // exercised too.
    let points = blobs(600, 4);
    let config = DascConfig::for_dataset(points.len(), 4);
    let baseline =
        Dasc::new(config.clone()).run_distributed(&points, &ClusterConfig::emr_default());
    // Shards deliberately smaller than the dataset so ref tasks span
    // several shard fetches.
    let (dir, ref_data) = packed_ref(&points, "refkill", 64);

    let cluster = test_cluster();
    let coordinator = Coordinator::start("127.0.0.1:0", cluster.clone()).expect("coordinator");
    let addr = coordinator.addr().to_string();
    let victim = worker::spawn(
        &addr,
        WorkerOptions {
            die_after_assignments: Some(1),
            ..WorkerOptions::named("ref-victim")
        },
    );
    let survivor = worker::spawn(&addr, WorkerOptions::named("ref-survivor"));

    // The ref job runs first, while the victim is still alive: its
    // fatal assignment lands mid-job and the task is retried elsewhere.
    let mut client = JobClient::connect(&addr, &cluster);
    let mut ref_spec = spec_for(&points, &config);
    ref_spec.data = ref_data;
    let by_ref = client
        .run(ref_spec, |_, _, _| {})
        .expect("ref job survives a worker death");
    assert!(
        by_ref.task_retries >= 1,
        "expected at least one retry, got {}",
        by_ref.task_retries
    );
    victim.wait().expect("victim exits cleanly");

    let inline = client
        .run(spec_for(&points, &config), |_, _, _| {})
        .expect("inline job");

    assert_eq!(by_ref.assignments, baseline.clustering.assignments);
    assert_eq!(by_ref.assignments, inline.assignments);
    assert_eq!(by_ref.num_clusters, inline.num_clusters);
    assert_eq!(by_ref.num_buckets, inline.num_buckets);
    // Tasks carry shard tables instead of points: the shuffled volume
    // must drop well below the inline job's.
    assert!(
        by_ref.shuffle_bytes * 2 < inline.shuffle_bytes,
        "ref job shuffled {} bytes vs inline {}",
        by_ref.shuffle_bytes,
        inline.shuffle_bytes
    );

    survivor.shutdown().expect("survivor");
    coordinator.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ref_job_rejects_content_hash_mismatch() {
    let points = blobs(120, 3);
    let config = DascConfig::for_dataset(points.len(), 3);
    let (dir, ref_data) = packed_ref(&points, "refhash", 32);

    let cluster = test_cluster();
    let coordinator = Coordinator::start("127.0.0.1:0", cluster.clone()).expect("coordinator");
    let addr = coordinator.addr().to_string();
    let w = worker::spawn(&addr, WorkerOptions::named("hash-w"));

    let mut client = JobClient::connect(&addr, &cluster);
    let mut spec = spec_for(&points, &config);
    spec.data = match ref_data {
        JobData::Ref { path, content_hash } => JobData::Ref {
            path,
            content_hash: content_hash ^ 1,
        },
        other => other,
    };
    let err = client
        .run(spec, |_, _, _| {})
        .expect_err("stale content hash must be refused");
    assert!(err.contains("content hash"), "unexpected error: {err}");

    // A job against a path that does not exist fails cleanly too.
    let mut spec = spec_for(&points, &config);
    spec.data = JobData::Ref {
        path: "/nonexistent/nowhere.dstr".into(),
        content_hash: 7,
    };
    client
        .run(spec, |_, _, _| {})
        .expect_err("missing store must be refused");

    w.shutdown().expect("w");
    coordinator.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inline_job_rejects_ragged_points() {
    // The job fails before any task is queued, so no worker is needed.
    let cluster = test_cluster();
    let coordinator = Coordinator::start("127.0.0.1:0", cluster.clone()).expect("coordinator");
    let mut client = JobClient::connect(coordinator.addr().to_string(), &cluster);
    for points in [vec![vec![0.0, 1.0], vec![2.0]], vec![vec![], vec![]]] {
        let spec = spec_for(&points, &DascConfig::for_dataset(points.len(), 1));
        let err = client
            .run(spec, |_, _, _| {})
            .expect_err("ragged points must be refused");
        assert!(err.contains("dimension"), "unexpected error: {err}");
    }
    coordinator.shutdown();
}

#[test]
fn metrics_expose_dist_counters() {
    let points = blobs(200, 3);
    let config = DascConfig::for_dataset(points.len(), 3);

    let cluster = test_cluster();
    let coordinator = Coordinator::start("127.0.0.1:0", cluster.clone()).expect("coordinator");
    let addr = coordinator.addr().to_string();
    let w = worker::spawn(&addr, WorkerOptions::named("w"));

    let mut client = JobClient::connect(&addr, &cluster);
    client
        .run(spec_for(&points, &config), |_, _, _| {})
        .expect("job");
    let text = client.metrics().expect("metrics");
    for series in [
        "dasc_dist_tasks_assigned_total",
        "dasc_dist_tasks_completed_total",
        "dasc_dist_workers_registered_total",
        "dasc_dist_jobs_total",
        "dasc_dist_shuffle_records_total",
        "dasc_dist_heartbeats_total",
        "dasc_dist_workers_connected",
        "dasc_net_frames_sent_total",
        "dasc_net_rpcs_total",
    ] {
        assert!(text.contains(series), "missing {series} in:\n{text}");
    }

    w.shutdown().expect("w");
    coordinator.shutdown();
}

/// Plain-text HTTP GET against the coordinator's observability sidecar.
fn http_get(addr: &str, path: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect http");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn traced_job_merges_worker_lanes_and_federates_metrics() {
    let points = blobs(400, 4);
    let config = DascConfig::for_dataset(points.len(), 4);

    let cluster = test_cluster();
    let mut coordinator = Coordinator::start("127.0.0.1:0", cluster.clone()).expect("coordinator");
    let http_addr = coordinator
        .serve_http("127.0.0.1:0")
        .expect("http sidecar")
        .to_string();
    let addr = coordinator.addr().to_string();
    let w1 = worker::spawn(&addr, WorkerOptions::named("tw1"));
    let w2 = worker::spawn(&addr, WorkerOptions::named("tw2"));

    let mut client = JobClient::connect(&addr, &cluster);
    let mut spec = spec_for(&points, &config);
    spec.collect_trace = true;
    client.run(spec, |_, _, _| {}).expect("traced job");
    let job_id = client.last_job_id().expect("job id");

    // The merged trace: a coordinator lane with the job/stage spans
    // plus one lane per worker that completed a task.
    let json = client.trace_json(job_id).expect("trace");
    let events = dasc_serve::JsonValue::parse(&json).expect("trace parses");
    let events = events.as_array().expect("trace is an array");
    let lane_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("process_name"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    assert!(lane_names.contains(&"coordinator"), "lanes: {lane_names:?}");
    assert!(
        lane_names.iter().any(|n| *n == "tw1" || *n == "tw2"),
        "no worker lane in {lane_names:?}"
    );
    let span_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .filter_map(|e| e.get("name")?.as_str())
        .collect();
    for expected in ["dist.job", "dist.stage1", "dist.stage2", "dist.task.map"] {
        assert!(
            span_names.contains(&expected),
            "missing span {expected} in {span_names:?}"
        );
    }

    // Heartbeats federate both workers' snapshots under their names,
    // and coordinator-side task accounting carries stage+worker labels.
    let give_up = std::time::Instant::now() + Duration::from_secs(5);
    let text = loop {
        let text = client.metrics().expect("metrics");
        if text.contains("worker=\"tw1\"") && text.contains("worker=\"tw2\"") {
            break text;
        }
        assert!(
            std::time::Instant::now() < give_up,
            "workers never federated:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(text.contains("dasc_dist_task_duration_us_count{stage=\"map\"}"));
    assert!(text.contains("dasc_dist_task_duration_us_count{stage=\"reduce\"}"));
    assert!(text.contains("dasc_dist_stragglers"));

    // The HTTP sidecar serves the same federated view plus a roster.
    let (status, body) = http_get(&http_addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("dasc_dist_task_duration_us"));
    assert!(body.contains("worker=\"tw1\""), "no tw1 series in:\n{body}");
    let (status, roster) = http_get(&http_addr, "/workers");
    assert_eq!(status, 200);
    let roster = dasc_serve::JsonValue::parse(&roster).expect("roster parses");
    let names: Vec<&str> = roster
        .get("workers")
        .and_then(|w| w.as_array())
        .expect("workers array")
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    assert!(
        names.contains(&"tw1") && names.contains(&"tw2"),
        "{names:?}"
    );
    let (status, _) = http_get(&http_addr, "/nope");
    assert_eq!(status, 404);

    w1.shutdown().expect("w1");
    w2.shutdown().expect("w2");
    coordinator.shutdown();
}

#[test]
fn untraced_job_has_no_trace() {
    let points = blobs(200, 3);
    let config = DascConfig::for_dataset(points.len(), 3);

    let cluster = test_cluster();
    let coordinator = Coordinator::start("127.0.0.1:0", cluster.clone()).expect("coordinator");
    let addr = coordinator.addr().to_string();
    let w = worker::spawn(&addr, WorkerOptions::named("w"));

    let mut client = JobClient::connect(&addr, &cluster);
    client
        .run(spec_for(&points, &config), |_, _, _| {})
        .expect("job");
    let job_id = client.last_job_id().expect("job id");
    let err = client.trace_json(job_id).expect_err("no trace collected");
    assert!(err.contains("no trace"), "{err}");

    w.shutdown().expect("w");
    coordinator.shutdown();
}

#[test]
fn consolidation_off_also_matches() {
    let points = blobs(300, 3);
    let config = DascConfig::for_dataset(points.len(), 3).consolidate(false);
    let baseline =
        Dasc::new(config.clone()).run_distributed(&points, &ClusterConfig::emr_default());

    let cluster = test_cluster();
    let coordinator = Coordinator::start("127.0.0.1:0", cluster.clone()).expect("coordinator");
    let addr = coordinator.addr().to_string();
    let w = worker::spawn(&addr, WorkerOptions::named("w"));

    let mut client = JobClient::connect(&addr, &cluster);
    let outcome = client
        .run(spec_for(&points, &config), |_, _, _| {})
        .expect("job");
    assert_eq!(outcome.assignments, baseline.clustering.assignments);
    assert_eq!(outcome.num_clusters, baseline.clustering.num_clusters);

    w.shutdown().expect("w");
    coordinator.shutdown();
}
