//! End-to-end tests of the coordinator/worker runtime, including the
//! fault-injection scenario: a worker dies mid-map, its task is
//! re-queued, and the job still finishes bit-identical to the
//! in-process engine.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use dasc_core::{Dasc, DascConfig};
use dasc_data::{dataset_to_store, Dataset, SyntheticConfig};
use dasc_dist::{rpc, worker, Coordinator, JobClient, JobData, JobSpec, Msg, WorkerOptions};
use dasc_mapreduce::ClusterConfig;
use dasc_net::{Client, ClientConfig};

/// Cluster knobs for tests: small splits so even small inputs span
/// several map tasks, and a fast heartbeat so idle workers and job
/// clients poll often. A killed worker is reclaimed when its task
/// connection drops, not by the liveness timeout.
fn test_cluster() -> ClusterConfig {
    let mut c = ClusterConfig::emr(2);
    c.records_per_split = 64;
    c.heartbeat_interval = Duration::from_millis(50);
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
    let points = blobs(600, 4);
    let config = DascConfig::for_dataset(points.len(), 4);
    let baseline =
        Dasc::new(config.clone()).run_distributed(&points, &ClusterConfig::emr_default());

    let cluster = test_cluster();
    let coordinator = Coordinator::start("127.0.0.1:0", cluster.clone()).expect("coordinator");
    let addr = coordinator.addr().to_string();

    // Victim: accepts one task, then vanishes with it in flight. It is
    // the only worker until it has died, so its fatal assignment is a
    // map task of this job however fast the host runs the rest.
    let victim = worker::spawn(
        &addr,
        WorkerOptions {
            die_after_assignments: Some(1),
            ..WorkerOptions::named("victim")
        },
    );
    let (outcome, survivor) = std::thread::scope(|s| {
        let job = s.spawn(|| {
            JobClient::connect(&addr, &cluster)
                .run(spec_for(&points, &config), |_, _, _| {})
                .expect("job survives a worker death")
        });
        victim.wait().expect("victim exits cleanly");
        let survivor = worker::spawn(&addr, WorkerOptions::named("survivor"));
        (job.join().expect("job thread"), survivor)
    });

    // The victim died holding a task: the job must have retried it.
    assert!(
        outcome.task_retries >= 1,
        "expected at least one retry, got {}",
        outcome.task_retries
    );

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

    // The ref job runs first, with the victim as its only worker: its
    // fatal assignment lands mid-job, and the survivor, started once
    // the victim is gone, retries the task.
    let mut ref_spec = spec_for(&points, &config);
    ref_spec.data = ref_data;
    let (mut client, by_ref, survivor) = std::thread::scope(|s| {
        let job = s.spawn(|| {
            let mut client = JobClient::connect(&addr, &cluster);
            let by_ref = client
                .run(ref_spec, |_, _, _| {})
                .expect("ref job survives a worker death");
            (client, by_ref)
        });
        victim.wait().expect("victim exits cleanly");
        let survivor = worker::spawn(&addr, WorkerOptions::named("ref-survivor"));
        let (client, by_ref) = job.join().expect("job thread");
        (client, by_ref, survivor)
    });
    assert!(
        by_ref.task_retries >= 1,
        "expected at least one retry, got {}",
        by_ref.task_retries
    );

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

/// Plain-text HTTP GET against the coordinator's observability sidecar;
/// panics if no full reply arrives within 10 s.
fn http_get(addr: &str, path: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect http");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client read timeout");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status = status_of(&raw).expect("status line");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// The status code of the first response line in `raw`.
fn status_of(raw: &str) -> Option<u16> {
    raw.split_whitespace().nth(1)?.parse().ok()
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

/// A coordinator with its HTTP sidecar, and the sidecar's address.
fn coordinator_with_sidecar() -> (Coordinator, std::net::SocketAddr) {
    let mut coordinator = Coordinator::start("127.0.0.1:0", test_cluster()).expect("coordinator");
    let http_addr = coordinator.serve_http("127.0.0.1:0").expect("http sidecar");
    (coordinator, http_addr)
}

#[test]
fn sidecar_answers_a_malformed_request_with_400() {
    use std::io::{Read, Write};
    let (coordinator, http_addr) = coordinator_with_sidecar();
    let mut stream = std::net::TcpStream::connect(http_addr).expect("connect http");
    stream.write_all(b"garbage\r\n\r\n").expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    assert_eq!(status_of(&raw), Some(400), "reply: {raw:?}");
    coordinator.shutdown();
}

#[test]
fn idle_keep_alive_sidecar_connection_closes_on_shutdown() {
    use std::io::{BufRead, BufReader, Read, Write};
    let (coordinator, http_addr) = coordinator_with_sidecar();
    let stream = std::net::TcpStream::connect(http_addr).expect("connect http");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    (&stream)
        .write_all(b"GET /workers HTTP/1.1\r\nHost: test\r\n\r\n")
        .expect("send");
    // Read one keep-alive response: headers, then the sized body.
    let mut content_length = 0;
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    assert_eq!(status_of(&status_line), Some(200), "{status_line}");
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header");
        if line == "\r\n" {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("content-length");
        }
    }
    let mut body = vec![0; content_length];
    reader.read_exact(&mut body).expect("body");

    // The connection now sits idle; shutdown must close it promptly.
    let begin = Instant::now();
    coordinator.shutdown();
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("connection closed");
    assert!(rest.is_empty(), "{rest:?}");
    assert!(
        begin.elapsed() < Duration::from_secs(2),
        "idle connection closed {:?} after shutdown began",
        begin.elapsed()
    );
}

#[test]
fn idle_keep_alive_sidecar_clients_do_not_starve_a_new_one() {
    use std::io::Write;
    let (coordinator, http_addr) = coordinator_with_sidecar();
    // One more idle keep-alive client than the sidecar has workers; each
    // sends one request and then leaves its connection open.
    let _idle: Vec<std::net::TcpStream> = (0..=dasc_serve::ServerConfig::default().workers)
        .map(|_| {
            let mut stream = std::net::TcpStream::connect(http_addr).expect("connect http");
            stream
                .write_all(b"GET /workers HTTP/1.1\r\nHost: test\r\n\r\n")
                .expect("send");
            stream
        })
        .collect();
    let begin = Instant::now();
    let (status, _) = http_get(&http_addr.to_string(), "/workers");
    assert_eq!(status, 200);
    assert!(
        begin.elapsed() < Duration::from_secs(3),
        "new client waited {:?}",
        begin.elapsed()
    );
    coordinator.shutdown();
}

#[test]
fn idle_worker_stops_promptly() {
    // A 2 s heartbeat makes an idle worker back off 1 s per `NoTask`.
    let mut cluster = test_cluster();
    cluster.heartbeat_interval = Duration::from_secs(2);
    let coordinator = Coordinator::start("127.0.0.1:0", cluster.clone()).expect("coordinator");
    let addr = coordinator.addr().to_string();
    let w = worker::spawn(&addr, WorkerOptions::named("idle"));
    wait_for_workers(&addr, &cluster, 1);
    std::thread::sleep(Duration::from_millis(100));

    let begin = Instant::now();
    w.shutdown().expect("worker");
    assert!(
        begin.elapsed() < Duration::from_millis(300),
        "idle worker took {:?} to stop",
        begin.elapsed()
    );
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

/// Register a raw-protocol worker called `name` on `client`.
fn register(client: &mut Client, name: &str) -> u64 {
    match rpc(client, &Msg::Register { name: name.into() }).expect("register") {
        Msg::RegisterAck { worker_id, .. } => worker_id,
        other => panic!("unexpected register reply: {other:?}"),
    }
}

/// Poll the coordinator at `addr` until it counts `n` registered
/// workers, failing after 10 s.
fn wait_for_workers(addr: &str, cluster: &ClusterConfig, n: usize) {
    let want = format!("dasc_dist_workers_connected {n}");
    let mut client = JobClient::connect(addr, cluster);
    let give_up = Instant::now() + Duration::from_secs(10);
    loop {
        let text = client.metrics().expect("metrics");
        if text.lines().any(|l| l == want) {
            return;
        }
        assert!(Instant::now() < give_up, "never saw `{want}` in:\n{text}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn request_task_from_a_lost_worker_is_refused() {
    let cluster = test_cluster();
    let coordinator = Coordinator::start("127.0.0.1:0", cluster.clone()).expect("coordinator");
    let addr = coordinator.addr().to_string();

    // Pulling on connection A makes A the worker's task connection, so
    // dropping A declares the worker lost.
    let mut a = Client::new(&addr, ClientConfig::default());
    let worker_id = register(&mut a, "raw");
    let reply = rpc(&mut a, &Msg::RequestTask { worker_id }).expect("request on A");
    assert!(matches!(reply, Msg::NoTask { .. }), "{reply:?}");
    drop(a);
    wait_for_workers(&addr, &cluster, 0);

    // The same id on connection B is refused by name, not parked with
    // `NoTask` forever.
    let mut b = Client::new(&addr, ClientConfig::default());
    match rpc(&mut b, &Msg::RequestTask { worker_id }).expect("request on B") {
        Msg::JobError { message } => assert!(
            message.contains(&format!("unknown worker {worker_id}")),
            "{message}"
        ),
        other => panic!("a lost worker's request was not refused: {other:?}"),
    }
    coordinator.shutdown();
}

#[test]
fn worker_rejoins_a_restarted_coordinator() {
    let points = blobs(300, 3);
    let config = DascConfig::for_dataset(points.len(), 3);
    let baseline = Dasc::new(config.clone()).run(&points);

    let cluster = test_cluster();
    let first = Coordinator::start("127.0.0.1:0", cluster.clone()).expect("first coordinator");
    let addr = first.addr().to_string();
    let w = worker::spawn(&addr, WorkerOptions::named("rejoiner"));
    wait_for_workers(&addr, &cluster, 1);

    // Restart the coordinator on the same address and run a job there.
    // The worker is the only one, so the job finishes only if it
    // registers again. The whole restart runs on its own thread and is
    // bounded, so a worker that never rejoins fails the test.
    let (tx, rx) = mpsc::channel();
    {
        let (addr, cluster, spec) = (addr.clone(), cluster.clone(), spec_for(&points, &config));
        std::thread::spawn(move || {
            first.shutdown();
            let second = Coordinator::start(&addr, cluster.clone()).expect("second coordinator");
            let outcome = JobClient::connect(&addr, &cluster).run(spec, |_, _, _| {});
            let _ = tx.send((outcome, second));
        });
    }
    let (outcome, second) = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("job on the restarted coordinator within 30 s");
    let outcome = outcome.expect("job on the restarted coordinator");
    assert_eq!(outcome.assignments, baseline.clustering.assignments);
    assert_eq!(outcome.num_clusters, baseline.clustering.num_clusters);
    assert!(!w.is_finished(), "the worker outlives the restart");

    w.shutdown().expect("worker");
    second.shutdown();
}

#[test]
fn task_failing_every_attempt_fails_the_job_after_four() {
    let points = blobs(40, 2);
    let config = DascConfig::for_dataset(points.len(), 2);
    let cluster = test_cluster();
    let coordinator = Coordinator::start("127.0.0.1:0", cluster.clone()).expect("coordinator");
    let addr = coordinator.addr().to_string();

    // A raw-protocol worker that answers every assignment with
    // `TaskFailed`, counting assignments per task id.
    let done = Arc::new(AtomicBool::new(false));
    let fake = {
        let (addr, done) = (addr.clone(), Arc::clone(&done));
        std::thread::spawn(move || {
            let mut client = Client::new(&addr, ClientConfig::default());
            let worker_id = register(&mut client, "always-fails");
            let mut assigned: HashMap<u64, usize> = HashMap::new();
            while !done.load(Ordering::SeqCst) {
                match rpc(&mut client, &Msg::RequestTask { worker_id }).expect("request") {
                    Msg::AssignTask { task } => {
                        *assigned.entry(task.task_id).or_default() += 1;
                        let failed = Msg::TaskFailed {
                            worker_id,
                            task_id: task.task_id,
                            error: "injected failure".into(),
                        };
                        rpc(&mut client, &failed).expect("report failure");
                    }
                    Msg::NoTask { .. } => std::thread::sleep(Duration::from_millis(5)),
                    other => panic!("unexpected reply: {other:?}"),
                }
            }
            assigned
        })
    };

    // `JobClient::run` must return, so bound it.
    let (tx, rx) = mpsc::channel();
    {
        let (addr, cluster, spec) = (addr.clone(), cluster.clone(), spec_for(&points, &config));
        std::thread::spawn(move || {
            let _ = tx.send(JobClient::connect(&addr, &cluster).run(spec, |_, _, _| {}));
        });
    }
    let result = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("JobClient::run returns within 30 s");
    done.store(true, Ordering::SeqCst);
    let assigned = fake.join().expect("fake worker");

    let err = result.expect_err("a task failing every attempt fails the job");
    assert!(
        err.contains("failed after 4 attempts: injected failure"),
        "{err}"
    );
    let task_id: u64 = err
        .strip_prefix("task ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|id| id.parse().ok())
        .unwrap_or_else(|| panic!("no task id in {err:?}"));
    assert_eq!(assigned[&task_id], 4, "assignments per task: {assigned:?}");
    coordinator.shutdown();
}
