//! Dispatch from a parsed [`Command`] to dataset generation or
//! clustering, with human-readable reporting.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

use dasc_core::{
    local_scaling_similarity, Dasc, DascConfig, Nystrom, NystromConfig, ParallelSpectral,
    PscConfig, SpectralClustering, SpectralConfig,
};
use dasc_data::{dataset_from_store, pack_csv_to_store, SyntheticConfig, WikiCorpusConfig};
use dasc_dist::{Coordinator, JobClient, JobData, JobSpec, WorkerHandle, WorkerOptions};
use dasc_kernel::Kernel;
use dasc_lsh::{LshConfig, Signature};
use dasc_mapreduce::ClusterConfig;
use dasc_metrics::{accuracy, nmi};
use dasc_serve::{AssignmentEngine, ModelArtifact, Server, ServerConfig};
use dasc_store::{StoreReader, DEFAULT_SHARD_ROWS};

use crate::args::{Algorithm, Command, USAGE};
use crate::csv;

/// Execute a command, returning the human-readable report that the
/// binary prints.
pub fn run(cmd: &Command) -> Result<String, String> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Generate {
            kind,
            n,
            d,
            k,
            seed,
            output,
        } => generate(kind, *n, *d, *k, *seed, output),
        Command::Cluster {
            input,
            data,
            output,
            k,
            algorithm,
            sigma,
            bits,
            labels_last_column,
            stage_timings,
            trace_out,
            dist,
            seed,
        } => cluster(
            input.as_deref(),
            data.as_deref(),
            output.as_deref(),
            *k,
            *algorithm,
            *sigma,
            *bits,
            *seed,
            *labels_last_column,
            *stage_timings,
            trace_out.as_deref(),
            dist.as_deref(),
        ),
        Command::Train {
            input,
            model_out,
            k,
            sigma,
            bits,
            seed,
            labels_last_column,
            stage_timings,
            trace_out,
        } => train(
            input,
            model_out,
            *k,
            *sigma,
            *bits,
            *seed,
            *labels_last_column,
            *stage_timings,
            trace_out.as_deref(),
        ),
        Command::Serve {
            model,
            addr,
            port,
            workers,
        } => serve(model, addr, *port, *workers),
        Command::Assign {
            model,
            input,
            output,
            labels_last_column,
        } => assign(model, input, output.as_deref(), *labels_last_column),
        Command::Coordinator {
            addr,
            port,
            http_port,
        } => coordinator(addr, *port, *http_port),
        Command::Worker { coordinator, name } => worker_daemon(coordinator, name),
        Command::DistMetrics { coordinator } => dist_metrics(coordinator),
        Command::Pack {
            input,
            output,
            shard_rows,
            labels_last_column,
        } => pack(input, output, *shard_rows, *labels_last_column),
        Command::Inspect { data } => inspect(data),
    }
}

/// Check `--k` and `--bits`, load points and optional ground-truth
/// labels from either a CSV file or a packed `.dstr` store, and pick
/// the kernel: a Gaussian of bandwidth `--sigma`, or the median
/// heuristic's. A store records label presence itself, so
/// `labels_last_column` only applies to CSV input.
#[allow(clippy::type_complexity)] // points + optional labels + kernel
fn load_input(
    input: Option<&str>,
    data: Option<&str>,
    labels_last_column: bool,
    k: usize,
    sigma: Option<f64>,
    bits: Option<usize>,
) -> Result<(Vec<Vec<f64>>, Option<Vec<usize>>, Kernel), String> {
    if k == 0 {
        return Err("--k must be at least 1".to_string());
    }
    if let Some(m) = bits.filter(|m| !(1..=Signature::MAX_BITS).contains(m)) {
        return Err(format!(
            "--bits must be in 1..={}, got {m}",
            Signature::MAX_BITS
        ));
    }
    let (points, labels) = match (input, data) {
        (Some(path), None) => {
            let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
            csv::read_points(BufReader::new(file), labels_last_column)
                .map_err(|e| format!("{path}: {e}"))?
        }
        (None, Some(dir)) => {
            let reader =
                StoreReader::open(Path::new(dir)).map_err(|e| format!("open store {dir}: {e}"))?;
            let ds = dataset_from_store(&reader).map_err(|e| format!("read store {dir}: {e}"))?;
            (ds.points, ds.labels)
        }
        _ => return Err("exactly one of --input / --data is required".to_string()),
    };
    let kernel = match sigma {
        Some(s) if s > 0.0 => Kernel::gaussian(s),
        Some(s) => return Err(format!("--sigma must be positive, got {s}")),
        None => Kernel::gaussian_median_heuristic(&points),
    };
    Ok((points, labels, kernel))
}

/// The DASC configuration of every CLI run: paper defaults for `n`
/// points, with `--bits` and `--seed` applied.
fn dasc_config(
    n: usize,
    k: usize,
    kernel: Kernel,
    bits: Option<usize>,
    seed: Option<u64>,
) -> DascConfig {
    let cfg = DascConfig::for_dataset(n, k).kernel(kernel);
    let cfg = match bits {
        Some(m) => cfg.lsh(LshConfig::with_bits(m)),
        None => cfg,
    };
    seeded(cfg, seed, DascConfig::seed)
}

/// `cfg` with `--seed` applied, or with its own default seed without it.
fn seeded<C>(cfg: C, seed: Option<u64>, with_seed: fn(C, u64) -> C) -> C {
    match seed {
        Some(s) => with_seed(cfg, s),
        None => cfg,
    }
}

fn generate(
    kind: &str,
    n: usize,
    d: usize,
    k: usize,
    seed: u64,
    output: &str,
) -> Result<String, String> {
    let ds = match kind {
        "blobs" => SyntheticConfig::blobs(n, d, k).seed(seed).generate(),
        "grid" => {
            let bits = (k.max(2) as f64).log2().ceil() as usize;
            SyntheticConfig::grid(n, d.max(bits), bits)
                .seed(seed)
                .generate()
        }
        "wiki" => WikiCorpusConfig::new(n)
            .categories(k.max(1))
            .seed(seed)
            .generate(),
        other => return Err(format!("unknown dataset kind '{other}'")),
    };
    let file = File::create(output).map_err(|e| format!("create {output}: {e}"))?;
    let mut w = BufWriter::new(file);
    csv::write_points(&mut w, &ds.points, ds.labels.as_deref())
        .and_then(|()| w.flush())
        .map_err(|e| format!("write {output}: {e}"))?;
    Ok(format!(
        "wrote {} points ({} dims, {} classes, labels in last column) to {output}",
        ds.points.len(),
        ds.dims(),
        ds.num_classes().unwrap_or(0)
    ))
}

/// Run `f` with the global stage tracer enabled when either
/// observability flag asks for it. Returns `f`'s output plus report
/// text: a pointer to the written Chrome trace and/or the rendered
/// per-stage wall-time table.
fn with_tracing<T>(
    stage_timings: bool,
    trace_out: Option<&str>,
    f: impl FnOnce() -> T,
) -> Result<(T, String), String> {
    if !stage_timings && trace_out.is_none() {
        return Ok((f(), String::new()));
    }
    let tracer = dasc_obs::tracer();
    tracer.enable();
    let out = f();
    let spans = tracer.drain();
    tracer.disable();

    let mut extra = String::new();
    if let Some(path) = trace_out {
        let json = dasc_obs::chrome_trace_json(&spans);
        std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
        extra.push_str(&format!(
            "\ntrace of {} spans written to {path} (open in chrome://tracing or Perfetto)",
            spans.len()
        ));
    }
    if stage_timings {
        extra.push_str("\nstage timings:\n");
        extra.push_str(&dasc_obs::stage_table(&spans));
    }
    Ok((out, extra))
}

/// `cluster`: run `algorithm` on the input, then report and write the
/// assignments. Without `--dist` the run stays in this process. With
/// `--dist` the DASC job runs on a coordinator and its workers: the
/// in-process lab cluster for `local` ([`on_local_cluster`]), otherwise
/// the coordinator at that address. For the same `--seed` every route
/// writes the same assignments.
///
/// A job on a coordinator with `--data <dstr>` is submitted *by
/// reference*: the spec carries only the store path and content hash,
/// the coordinator opens the store itself, and tasks ship shard tables
/// instead of points (the points are still read here once, for the
/// sigma heuristic and accuracy reporting).
#[allow(clippy::too_many_arguments)]
fn cluster(
    input: Option<&str>,
    data: Option<&str>,
    output: Option<&str>,
    k: usize,
    algorithm: Algorithm,
    sigma: Option<f64>,
    bits: Option<usize>,
    seed: Option<u64>,
    labels_last_column: bool,
    stage_timings: bool,
    trace_out: Option<&str>,
    dist: Option<&str>,
) -> Result<String, String> {
    if dist.is_some() && algorithm != Algorithm::Dasc {
        return Err("--dist only supports --algorithm dasc".to_string());
    }
    if dist.is_some() && stage_timings {
        return Err(
            "--stage-timings only times single-process runs; with --dist use --trace-out \
             for the merged cluster trace"
                .to_string(),
        );
    }
    let (points, labels, kernel) = load_input(input, data, labels_last_column, k, sigma, bits)?;
    let n = points.len();

    let (assignments, detail) = match dist {
        None => {
            let ((assignments, detail), trace_report) =
                with_tracing(stage_timings, trace_out, || {
                    run_in_process(&points, algorithm, k, kernel, bits, seed)
                })?;
            (assignments, detail + &trace_report)
        }
        Some(target) => {
            let cfg = dasc_config(n, k, kernel, bits, seed);
            let spec = JobSpec {
                data: job_data(data, points)?,
                k: cfg.k,
                kernel: cfg.kernel,
                num_bits: cfg.lsh.num_bits,
                seed: cfg.seed,
                consolidate: cfg.consolidate,
                collect_trace: trace_out.is_some(),
            };
            match target {
                "local" => on_local_cluster(|addr| submit(addr, target, spec, trace_out))?,
                addr => submit(addr, target, spec, trace_out)?,
            }
        }
    };

    let mut report = format!("clustered {n} points into k={k}\n{detail}");
    if let Some(truth) = &labels {
        report.push_str(&format!(
            "\naccuracy: {:.4}\nnmi: {:.4}",
            accuracy(&assignments, truth),
            nmi(&assignments, truth)
        ));
    }

    match output {
        // Assignments go to stdout only when asked for with "-";
        // otherwise the report stands alone.
        None => {}
        Some("-") => {
            let mut buf = Vec::new();
            csv::write_assignments(&mut buf, &assignments).map_err(|e| e.to_string())?;
            report.push('\n');
            report.push_str(&String::from_utf8_lossy(&buf));
        }
        Some(path) => {
            let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
            let mut w = BufWriter::new(file);
            csv::write_assignments(&mut w, &assignments)
                .and_then(|()| w.flush())
                .map_err(|e| format!("write {path}: {e}"))?;
            report.push_str(&format!("\nassignments written to {path}"));
        }
    }
    Ok(report)
}

/// Run `algorithm` in this process: the assignments plus a one-line
/// summary of the run.
fn run_in_process(
    points: &[Vec<f64>],
    algorithm: Algorithm,
    k: usize,
    kernel: Kernel,
    bits: Option<usize>,
    seed: Option<u64>,
) -> (Vec<usize>, String) {
    let n = points.len();
    match algorithm {
        Algorithm::Dasc => {
            let res = Dasc::new(dasc_config(n, k, kernel, bits, seed)).run(points);
            (
                res.clustering.assignments,
                format!(
                    "dasc: {} buckets, approx gram {} KB (full {} KB)",
                    res.buckets.len(),
                    res.approx_gram_bytes / 1024,
                    4 * n * n / 1024
                ),
            )
        }
        Algorithm::Sc => {
            let cfg = seeded(
                SpectralConfig::new(k).kernel(kernel),
                seed,
                SpectralConfig::seed,
            );
            let res = SpectralClustering::new(cfg).run(points);
            (
                res.clustering.assignments,
                format!("sc: full gram {} KB", res.gram_memory_bytes / 1024),
            )
        }
        Algorithm::Psc => {
            let cfg = seeded(PscConfig::new(k).kernel(kernel), seed, PscConfig::seed);
            let res = ParallelSpectral::new(cfg).run(points);
            (
                res.clustering.assignments,
                format!(
                    "psc: {} nnz, sparse {} KB",
                    res.nnz,
                    res.sparse_memory_bytes / 1024
                ),
            )
        }
        Algorithm::Nyst => {
            let cfg = seeded(
                NystromConfig::new(k).kernel(kernel),
                seed,
                NystromConfig::seed,
            );
            let res = Nystrom::new(cfg).run(points);
            (
                res.clustering.assignments,
                format!(
                    "nyst: {} landmarks, {} KB",
                    res.landmarks,
                    res.memory_bytes / 1024
                ),
            )
        }
        Algorithm::Stsc => {
            // Self-tuning: per-point bandwidths (r = 7), so --sigma is
            // ignored by construction.
            let s = local_scaling_similarity(points, 7);
            let cfg = seeded(SpectralConfig::new(k), seed, SpectralConfig::seed);
            let (c, _) = SpectralClustering::new(cfg).run_on_similarity_owned(s);
            (
                c.assignments,
                "stsc: local scaling (r = 7), full similarity matrix".to_string(),
            )
        }
    }
}

/// The dataset of a job on a coordinator: the points inline, or with
/// `--data` a reference to the store.
fn job_data(data: Option<&str>, points: Vec<Vec<f64>>) -> Result<JobData, String> {
    Ok(match data {
        // By reference: resolve to an absolute path so the
        // coordinator finds the store regardless of its own cwd,
        // and pin the manifest hash so a swapped store is refused.
        Some(dir) => {
            let reader =
                StoreReader::open(Path::new(dir)).map_err(|e| format!("open store {dir}: {e}"))?;
            let path = std::fs::canonicalize(dir)
                .map(|p| p.to_string_lossy().into_owned())
                .unwrap_or_else(|_| dir.to_string());
            JobData::Ref {
                path,
                content_hash: reader.manifest().content_hash,
            }
        }
        None => JobData::Inline { points },
    })
}

/// Run `f` against a coordinator on `127.0.0.1:0` with one in-process
/// worker per node of the paper's lab cluster
/// ([`ClusterConfig::local_lab`]: four slaves), and shut the workers and
/// the coordinator down before returning, whether `f` succeeded or not.
fn on_local_cluster<T>(f: impl FnOnce(&str) -> Result<T, String>) -> Result<T, String> {
    let lab = ClusterConfig::local_lab();
    let coordinator = Coordinator::start("127.0.0.1:0", lab.clone())
        .map_err(|e| format!("start local coordinator: {e}"))?;
    let addr = coordinator.addr().to_string();
    let workers: Vec<_> = (0..lab.nodes)
        .map(|i| dasc_dist::worker::spawn(&addr, WorkerOptions::named(format!("local-{i}"))))
        .collect();
    let out = f(&addr);
    // A handle the short-circuit leaves behind still stops and joins
    // its worker when it is dropped.
    let stopped: Result<Vec<()>, String> =
        workers.into_iter().map(WorkerHandle::shutdown).collect();
    coordinator.shutdown();
    let out = out?;
    stopped.map_err(|e| format!("local worker: {e}"))?;
    Ok(out)
}

/// Submit `spec` to the coordinator at `addr` and wait for the result:
/// the assignments plus a report line tagged with `target`. With
/// `trace_out`, fetch the job's merged trace (the coordinator's lane
/// plus one per worker) and write it there.
fn submit(
    addr: &str,
    target: &str,
    spec: JobSpec,
    trace_out: Option<&str>,
) -> Result<(Vec<usize>, String), String> {
    let mode = match spec.data {
        JobData::Ref { .. } => ", shard-addressed",
        JobData::Inline { .. } => "",
    };
    let mut client = JobClient::connect(addr, &ClusterConfig::emr_default());
    let outcome = client
        .run(spec, |_, _, _| {})
        .map_err(|e| format!("distributed job on {target}: {e}"))?;
    let mut trace_report = String::new();
    if let Some(path) = trace_out {
        let job_id = client.last_job_id().expect("job just ran");
        let json = client
            .trace_json(job_id)
            .map_err(|e| format!("fetch trace for job {job_id}: {e}"))?;
        std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
        trace_report = format!(
            "\nmerged cluster trace written to {path} (open in chrome://tracing or Perfetto)"
        );
    }
    Ok((
        outcome.assignments,
        format!(
            "dist({target}{mode}): {} buckets, {} workers, \
             stage1 {:.1} ms, stage2 {:.1} ms, \
             {} records / {} bytes shuffled, {} task retries{trace_report}",
            outcome.num_buckets,
            outcome.workers_used,
            outcome.stage1_us as f64 / 1e3,
            outcome.stage2_us as f64 / 1e3,
            outcome.shuffle_records,
            outcome.shuffle_bytes,
            outcome.task_retries,
        ),
    ))
}

/// Run a coordinator daemon until the process is killed. The HTTP
/// observability sidecar (`/metrics`, `/workers`) binds `http_port`,
/// defaulting to the RPC port + 1 (the RPC port is resolved first, so
/// `--port 0` still yields a deterministic pairing).
fn coordinator(addr: &str, port: u16, http_port: Option<u16>) -> Result<String, String> {
    let mut handle = Coordinator::start(&format!("{addr}:{port}"), ClusterConfig::emr_default())
        .map_err(|e| format!("bind {addr}:{port}: {e}"))?;
    let http_port = http_port.unwrap_or_else(|| handle.addr().port().wrapping_add(1));
    let http_addr = handle
        .serve_http(&format!("{addr}:{http_port}"))
        .map_err(|e| format!("bind http {addr}:{http_port}: {e}"))?;
    // Flush the ready lines before blocking so callers (the smoke
    // script included) can wait for them.
    println!("coordinator listening on {}", handle.addr());
    println!("metrics over http on http://{http_addr}/metrics");
    std::io::stdout().flush().ok();
    handle.wait();
    Ok("coordinator stopped".to_string())
}

/// Run a worker daemon attached to a coordinator until the process is
/// killed or the coordinator becomes unreachable.
fn worker_daemon(coordinator: &str, name: &str) -> Result<String, String> {
    println!("worker '{name}' connecting to {coordinator}");
    std::io::stdout().flush().ok();
    let options = WorkerOptions::named(name);
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    dasc_dist::run_worker(coordinator, &options, &stop)
        .map_err(|e| format!("worker '{name}': {e}"))?;
    Ok(format!("worker '{name}' stopped"))
}

/// Scrape the coordinator's metrics endpoint and return the Prometheus
/// text exposition.
fn dist_metrics(coordinator: &str) -> Result<String, String> {
    let mut client = JobClient::connect(coordinator, &ClusterConfig::emr_default());
    client.metrics()
}

/// Stream a CSV into a sharded `.dstr` store, one shard in memory at a
/// time.
fn pack(
    input: &str,
    output: &str,
    shard_rows: Option<usize>,
    labels_last_column: bool,
) -> Result<String, String> {
    let file = File::open(input).map_err(|e| format!("open {input}: {e}"))?;
    let rows = shard_rows.unwrap_or(DEFAULT_SHARD_ROWS);
    let manifest = pack_csv_to_store(
        BufReader::new(file),
        labels_last_column,
        Path::new(output),
        rows,
    )
    .map_err(|e| format!("pack {input}: {e}"))?;
    let bytes: u64 = manifest.shards.iter().map(|s| s.byte_len).sum();
    Ok(format!(
        "packed {} rows x {} dims into {} shards ({} rows/shard, {bytes} bytes) at {output}\n\
         content hash {:#018x}, labels: {}",
        manifest.n,
        manifest.dim,
        manifest.shards.len(),
        manifest.shard_rows,
        manifest.content_hash,
        if manifest.has_labels { "yes" } else { "no" },
    ))
}

/// Print a store's manifest and verify every shard checksum.
fn inspect(data: &str) -> Result<String, String> {
    let reader =
        StoreReader::open(Path::new(data)).map_err(|e| format!("open store {data}: {e}"))?;
    reader
        .verify_all()
        .map_err(|e| format!("verify {data}: {e}"))?;
    let m = reader.manifest();
    let bytes: u64 = m.shards.iter().map(|s| s.byte_len).sum();
    let mut report = format!(
        "store {data}\n\
         content hash  {:#018x}\n\
         rows          {} x {} dims, labels: {}\n\
         shards        {} ({} rows/shard, {bytes} bytes total)\n\
         checksums     all {} shards verified",
        m.content_hash,
        m.n,
        m.dim,
        if m.has_labels { "yes" } else { "no" },
        m.shards.len(),
        m.shard_rows,
        m.shards.len(),
    );
    for (i, s) in m.shards.iter().enumerate() {
        report.push_str(&format!(
            "\n  shard {i:>5}: {} rows, {} bytes, fnv1a {:#018x}",
            s.rows, s.byte_len, s.checksum
        ));
    }
    Ok(report)
}

/// Train a DASC model and persist the serving artifact.
#[allow(clippy::too_many_arguments)]
fn train(
    input: &str,
    model_out: &str,
    k: usize,
    sigma: Option<f64>,
    bits: Option<usize>,
    seed: Option<u64>,
    labels_last_column: bool,
    stage_timings: bool,
    trace_out: Option<&str>,
) -> Result<String, String> {
    let (points, labels, kernel) =
        load_input(Some(input), None, labels_last_column, k, sigma, bits)?;
    let n = points.len();
    let cfg = dasc_config(n, k, kernel, bits, seed);

    let (trained, trace_report) =
        with_tracing(stage_timings, trace_out, || Dasc::new(cfg).train(&points))?;
    let artifact = ModelArtifact::from_trained(&trained, &points);
    artifact
        .save(model_out)
        .map_err(|e| format!("save {model_out}: {e}"))?;
    let bytes = std::fs::metadata(model_out).map(|m| m.len()).unwrap_or(0);

    let mut report = format!(
        "trained on {n} points ({} dims) into k={k}\n\
         model: {} signatures, {} buckets, {} bit hashes\n\
         artifact written to {model_out} ({bytes} bytes)",
        artifact.dimension,
        artifact.signature_table.len(),
        artifact.buckets.len(),
        artifact.planes.len(),
    );
    report.push_str(&trace_report);
    if let Some(truth) = &labels {
        let assignments = &trained.result.clustering.assignments;
        report.push_str(&format!(
            "\ntraining accuracy: {:.4}\ntraining nmi: {:.4}",
            accuracy(assignments, truth),
            nmi(assignments, truth)
        ));
    }
    Ok(report)
}

/// Serve a persisted model over HTTP until the process is killed.
fn serve(model: &str, addr: &str, port: u16, workers: Option<usize>) -> Result<String, String> {
    let artifact = ModelArtifact::load(model).map_err(|e| format!("load {model}: {e}"))?;
    let engine = AssignmentEngine::new(&artifact);
    let mut config = ServerConfig {
        addr: format!("{addr}:{port}"),
        ..ServerConfig::default()
    };
    if let Some(w) = workers {
        config.workers = w.max(1);
    }
    let workers = config.workers;
    let handle = Server::new(engine, config)
        .start()
        .map_err(|e| format!("bind {addr}:{port}: {e}"))?;
    // Print (and flush) the ready line before blocking so callers — the
    // smoke script included — can wait for it.
    println!(
        "serving {model} on http://{} ({} dims, k={}, {workers} workers)",
        handle.addr(),
        artifact.dimension,
        artifact.num_clusters,
    );
    std::io::stdout().flush().ok();
    handle.wait();
    Ok("server stopped".to_string())
}

/// Batch-assign a CSV of points against a persisted model.
fn assign(
    model: &str,
    input: &str,
    output: Option<&str>,
    labels_last_column: bool,
) -> Result<String, String> {
    let artifact = ModelArtifact::load(model).map_err(|e| format!("load {model}: {e}"))?;
    let engine = AssignmentEngine::new(&artifact);
    let file = File::open(input).map_err(|e| format!("open {input}: {e}"))?;
    let (points, labels) = csv::read_points(BufReader::new(file), labels_last_column)
        .map_err(|e| format!("{input}: {e}"))?;
    if let Some(p) = points.iter().find(|p| p.len() != engine.dimension()) {
        return Err(format!(
            "{input}: points have {} dimensions but the model expects {}",
            p.len(),
            engine.dimension()
        ));
    }

    let assignments = engine.assign_batch(&points);
    let counts = engine.routing_counts();
    let mut report = format!(
        "assigned {} points with model {model}\n\
         routing: {} exact, {} one-bit neighbor, {} global fallback",
        assignments.len(),
        counts.exact,
        counts.one_bit_neighbor,
        counts.global_fallback,
    );
    if let Some(truth) = &labels {
        let clusters: Vec<usize> = assignments.iter().map(|a| a.cluster).collect();
        report.push_str(&format!(
            "\naccuracy: {:.4}\nnmi: {:.4}",
            accuracy(&clusters, truth),
            nmi(&clusters, truth)
        ));
    }

    let render = |w: &mut dyn Write| -> std::io::Result<()> {
        writeln!(w, "# index,cluster,route")?;
        for (i, a) in assignments.iter().enumerate() {
            writeln!(w, "{i},{},{}", a.cluster, a.route.as_str())?;
        }
        Ok(())
    };
    match output {
        Some("-") => {
            let mut buf = Vec::new();
            render(&mut buf).map_err(|e| e.to_string())?;
            report.push('\n');
            report.push_str(&String::from_utf8_lossy(&buf));
        }
        None => {}
        Some(path) => {
            let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
            let mut w = BufWriter::new(file);
            render(&mut w)
                .and_then(|()| w.flush())
                .map_err(|e| format!("write {path}: {e}"))?;
            report.push_str(&format!("\nassignments written to {path}"));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args;

    fn tmp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("dasc-cli-test-{}-{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    fn sv(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn generate_then_cluster_roundtrip() {
        let data = tmp("pts.csv");
        let out = tmp("assign.csv");
        let r = run(&args::parse(&sv(&[
            "generate", "--kind", "blobs", "--n", "120", "--d", "8", "--k", "3", "--output", &data,
        ]))
        .unwrap())
        .unwrap();
        assert!(r.contains("120 points"));

        let r = run(&args::parse(&sv(&[
            "cluster",
            "--input",
            &data,
            "--k",
            "3",
            "--labels-last-column",
            "--output",
            &out,
        ]))
        .unwrap())
        .unwrap();
        assert!(r.contains("accuracy"), "report: {r}");
        // High accuracy on easy blobs.
        let acc: f64 = r
            .lines()
            .find(|l| l.starts_with("accuracy:"))
            .and_then(|l| l.split(':').nth(1))
            .and_then(|v| v.trim().parse().ok())
            .expect("accuracy line");
        assert!(acc > 0.9, "accuracy {acc}");

        let written = std::fs::read_to_string(&out).unwrap();
        assert!(written.starts_with("# index,cluster"));
        assert_eq!(written.lines().count(), 121);

        let _ = std::fs::remove_file(&data);
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn all_algorithms_run() {
        let data = tmp("pts2.csv");
        run(&args::parse(&sv(&[
            "generate", "--kind", "blobs", "--n", "80", "--d", "4", "--k", "2", "--output", &data,
        ]))
        .unwrap())
        .unwrap();
        for alg in ["dasc", "sc", "psc", "nyst", "stsc"] {
            let r = run(&args::parse(&sv(&[
                "cluster",
                "--input",
                &data,
                "--k",
                "2",
                "--algorithm",
                alg,
                "--labels-last-column",
            ]))
            .unwrap())
            .unwrap();
            assert!(r.contains("clustered 80 points"), "{alg}: {r}");
        }
        let _ = std::fs::remove_file(&data);
    }

    #[test]
    fn unknown_kind_is_an_error() {
        let e = run(&Command::Generate {
            kind: "mystery".into(),
            n: 1,
            d: 1,
            k: 1,
            seed: 0,
            output: tmp("x.csv"),
        })
        .unwrap_err();
        assert!(e.contains("unknown dataset kind"));
    }

    #[test]
    fn missing_input_is_an_error() {
        let e = run(&args::parse(&sv(&[
            "cluster",
            "--input",
            "/nonexistent/nope.csv",
            "--k",
            "2",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(e.contains("open"));
    }

    #[test]
    fn bad_sigma_rejected() {
        let data = tmp("pts3.csv");
        run(&args::parse(&sv(&[
            "generate", "--kind", "blobs", "--n", "10", "--d", "2", "--k", "2", "--output", &data,
        ]))
        .unwrap())
        .unwrap();
        let e = run(&args::parse(&sv(&[
            "cluster", "--input", &data, "--k", "2", "--sigma", "-1",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(e.contains("sigma"));
        let _ = std::fs::remove_file(&data);
    }

    #[test]
    fn help_returns_usage() {
        assert!(run(&Command::Help).unwrap().contains("USAGE"));
    }

    #[test]
    fn train_then_assign_roundtrip() {
        let data = tmp("train-pts.csv");
        let model = tmp("model.dasc");
        let out = tmp("assign-out.csv");
        run(&args::parse(&sv(&[
            "generate", "--kind", "blobs", "--n", "120", "--d", "8", "--k", "3", "--output", &data,
        ]))
        .unwrap())
        .unwrap();

        let r = run(&args::parse(&sv(&[
            "train",
            "--input",
            &data,
            "--k",
            "3",
            "--model-out",
            &model,
            "--labels-last-column",
        ]))
        .unwrap())
        .unwrap();
        assert!(r.contains("artifact written to"), "{r}");
        assert!(r.contains("training accuracy"), "{r}");

        // Assigning the training set back through the frozen model hits
        // the exact tier for every point and matches the labels well.
        let r = run(&args::parse(&sv(&[
            "assign",
            "--model",
            &model,
            "--input",
            &data,
            "--output",
            &out,
            "--labels-last-column",
        ]))
        .unwrap())
        .unwrap();
        assert!(r.contains("assigned 120 points"), "{r}");
        assert!(r.contains("routing:"), "{r}");
        let acc: f64 = r
            .lines()
            .find(|l| l.starts_with("accuracy:"))
            .and_then(|l| l.split(':').nth(1))
            .and_then(|v| v.trim().parse().ok())
            .expect("accuracy line");
        assert!(acc > 0.9, "accuracy {acc}\n{r}");

        let written = std::fs::read_to_string(&out).unwrap();
        assert!(written.starts_with("# index,cluster,route"));
        assert_eq!(written.lines().count(), 121);

        for f in [&data, &model, &out] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn assign_rejects_dimension_mismatch() {
        let data = tmp("dim-pts.csv");
        let wrong = tmp("dim-wrong.csv");
        let model = tmp("dim-model.dasc");
        run(&args::parse(&sv(&[
            "generate", "--kind", "blobs", "--n", "60", "--d", "4", "--k", "2", "--output", &data,
        ]))
        .unwrap())
        .unwrap();
        run(&args::parse(&sv(&[
            "train",
            "--input",
            &data,
            "--k",
            "2",
            "--model-out",
            &model,
            "--labels-last-column",
        ]))
        .unwrap())
        .unwrap();
        run(&args::parse(&sv(&[
            "generate", "--kind", "blobs", "--n", "10", "--d", "7", "--k", "2", "--output", &wrong,
        ]))
        .unwrap())
        .unwrap();
        let e = run(&args::parse(&sv(&[
            "assign",
            "--model",
            &model,
            "--input",
            &wrong,
            "--labels-last-column",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(e.contains("dimensions"), "{e}");
        for f in [&data, &wrong, &model] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn train_with_tracing_writes_chrome_json_and_stage_table() {
        let data = tmp("obs-pts.csv");
        let model = tmp("obs-model.dasc");
        let trace = tmp("obs-trace.json");
        run(&args::parse(&sv(&[
            "generate", "--kind", "blobs", "--n", "90", "--d", "6", "--k", "3", "--output", &data,
        ]))
        .unwrap())
        .unwrap();

        let r = run(&args::parse(&sv(&[
            "train",
            "--input",
            &data,
            "--k",
            "3",
            "--model-out",
            &model,
            "--stage-timings",
            "--trace-out",
            &trace,
        ]))
        .unwrap())
        .unwrap();
        assert!(r.contains("stage timings:"), "{r}");
        assert!(r.contains("dasc.lsh"), "{r}");
        assert!(r.contains(&format!("written to {trace}")), "{r}");

        let json = std::fs::read_to_string(&trace).unwrap();
        let parsed = dasc_serve::JsonValue::parse(&json).expect("trace parses");
        let events = parsed.as_array().expect("array of events");
        assert!(events.len() >= 5, "only {} events", events.len());
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(|v| v.as_str()) == Some("dasc.cluster")));

        for f in [&data, &model, &trace] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn seed_reaches_plain_local_and_remote_cluster_runs() {
        // One `--seed`, three places to run: the single-process engine,
        // the in-process coordinator and workers, and a coordinator over
        // TCP. All three must write the same bytes.
        let data = tmp("seed-pts.csv");
        run(&args::parse(&sv(&[
            "generate", "--kind", "blobs", "--n", "400", "--d", "4", "--k", "6", "--seed", "2",
            "--output", &data,
        ]))
        .unwrap())
        .unwrap();

        let coord =
            Coordinator::start("127.0.0.1:0", ClusterConfig::emr_default()).expect("coordinator");
        let addr = coord.addr().to_string();
        let w = dasc_dist::worker::spawn(&addr, WorkerOptions::named("cli-seed"));
        let mut written = Vec::new();
        for dist in [None, Some("local"), Some(addr.as_str())] {
            let out = tmp(&format!("seed-out-{}.csv", written.len()));
            let mut argv = sv(&[
                "cluster",
                "--input",
                &data,
                "--k",
                "6",
                "--seed",
                "7",
                "--labels-last-column",
                "--output",
                &out,
            ]);
            if let Some(target) = dist {
                argv.extend(sv(&["--dist", target]));
            }
            let r = run(&args::parse(&argv).unwrap()).unwrap();
            if let Some(target) = dist {
                assert!(r.contains(&format!("dist({target}): ")), "{r}");
            }
            if dist == Some("local") {
                // The lab cluster's four in-process workers.
                assert!(r.contains(" workers, "), "{r}");
            }
            written.push(std::fs::read_to_string(&out).unwrap());
            let _ = std::fs::remove_file(&out);
        }
        w.shutdown().expect("worker");
        coord.shutdown();
        let _ = std::fs::remove_file(&data);

        for (route, labels) in ["--dist local", "--dist <addr>"].iter().zip(&written[1..]) {
            let differ = labels
                .lines()
                .zip(written[0].lines())
                .filter(|(a, b)| a != b)
                .count();
            assert!(
                *labels == written[0],
                "{route}: {differ} assignment lines differ from plain cluster"
            );
        }
    }

    #[test]
    fn local_cluster_is_shut_down_when_the_job_fails() {
        let mut seen = String::new();
        let e = on_local_cluster(|addr| {
            seen = addr.to_string();
            Err::<(), _>("job failed".to_string())
        })
        .unwrap_err();
        assert_eq!(e, "job failed");
        // The coordinator's listener is closed, and every worker handle
        // was joined before `on_local_cluster` returned.
        assert!(
            std::net::TcpStream::connect(&seen).is_err(),
            "{seen} still open"
        );
    }

    #[test]
    fn stage_timings_with_dist_is_an_error_pointing_at_trace_out() {
        for target in ["local", "127.0.0.1:1"] {
            let e = run(&args::parse(&sv(&[
                "cluster",
                "--input",
                "whatever.csv",
                "--k",
                "2",
                "--stage-timings",
                "--dist",
                target,
            ]))
            .unwrap())
            .unwrap_err();
            assert!(e.contains("--stage-timings"), "{e}");
            assert!(e.contains("--trace-out"), "{e}");
        }
    }

    #[test]
    fn pack_inspect_and_cluster_from_store_match_csv() {
        let data = tmp("store-pts.csv");
        let store = tmp("store-pts.dstr");
        let csv_out = tmp("store-csv-out.csv");
        let store_out = tmp("store-store-out.csv");
        run(&args::parse(&sv(&[
            "generate", "--kind", "blobs", "--n", "150", "--d", "6", "--k", "3", "--output", &data,
        ]))
        .unwrap())
        .unwrap();

        let r = run(&args::parse(&sv(&[
            "pack",
            "--input",
            &data,
            "--output",
            &store,
            "--shard-rows",
            "64",
            "--labels-last-column",
        ]))
        .unwrap())
        .unwrap();
        assert!(r.contains("packed 150 rows"), "{r}");
        assert!(r.contains("3 shards"), "{r}");
        assert!(r.contains("labels: yes"), "{r}");

        let r = run(&args::parse(&sv(&["inspect", "--data", &store])).unwrap()).unwrap();
        assert!(r.contains("150 x 6 dims"), "{r}");
        assert!(r.contains("all 3 shards verified"), "{r}");
        assert!(r.contains("shard     0"), "{r}");

        // The same clustering from the CSV and from the packed store,
        // bit-for-bit: both read identical points and run the same
        // engine with the same defaults.
        run(&args::parse(&sv(&[
            "cluster",
            "--input",
            &data,
            "--k",
            "3",
            "--labels-last-column",
            "--output",
            &csv_out,
        ]))
        .unwrap())
        .unwrap();
        let r = run(&args::parse(&sv(&[
            "cluster", "--data", &store, "--k", "3", "--output", &store_out,
        ]))
        .unwrap())
        .unwrap();
        // Labels ride along inside the store, so accuracy is reported
        // without any flag.
        assert!(r.contains("accuracy"), "{r}");
        let from_csv = std::fs::read_to_string(&csv_out).unwrap();
        let from_store = std::fs::read_to_string(&store_out).unwrap();
        assert_eq!(from_csv, from_store, "store path diverges from CSV path");

        for f in [&data, &csv_out, &store_out] {
            let _ = std::fs::remove_file(f);
        }
        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn cluster_dist_ref_submission_matches_inline() {
        let data = tmp("ref-pts.csv");
        let store = tmp("ref-pts.dstr");
        let inline_out = tmp("ref-inline.csv");
        let ref_out = tmp("ref-byref.csv");
        run(&args::parse(&sv(&[
            "generate", "--kind", "blobs", "--n", "150", "--d", "6", "--k", "3", "--output", &data,
        ]))
        .unwrap())
        .unwrap();
        run(&args::parse(&sv(&[
            "pack",
            "--input",
            &data,
            "--output",
            &store,
            "--shard-rows",
            "48",
            "--labels-last-column",
        ]))
        .unwrap())
        .unwrap();

        let coord =
            Coordinator::start("127.0.0.1:0", ClusterConfig::emr_default()).expect("coordinator");
        let addr = coord.addr().to_string();
        let w = dasc_dist::worker::spawn(&addr, WorkerOptions::named("cli-ref"));

        run(&args::parse(&sv(&[
            "cluster",
            "--input",
            &data,
            "--k",
            "3",
            "--seed",
            "7",
            "--labels-last-column",
            "--dist",
            &addr,
            "--output",
            &inline_out,
        ]))
        .unwrap())
        .unwrap();
        let r = run(&args::parse(&sv(&[
            "cluster", "--data", &store, "--k", "3", "--seed", "7", "--dist", &addr, "--output",
            &ref_out,
        ]))
        .unwrap())
        .unwrap();
        assert!(r.contains("shard-addressed"), "{r}");

        let inline = std::fs::read_to_string(&inline_out).unwrap();
        let by_ref = std::fs::read_to_string(&ref_out).unwrap();
        assert_eq!(inline, by_ref, "ref submission diverges from inline");

        w.shutdown().expect("worker");
        coord.shutdown();
        for f in [&data, &inline_out, &ref_out] {
            let _ = std::fs::remove_file(f);
        }
        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn cluster_dist_rejects_non_dasc_algorithms() {
        let e = run(&args::parse(&sv(&[
            "cluster",
            "--input",
            "whatever.csv",
            "--k",
            "2",
            "--algorithm",
            "sc",
            "--dist",
            "local",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(e.contains("--dist only supports"), "{e}");
    }

    #[test]
    fn serve_rejects_missing_model() {
        let e = run(&args::parse(&sv(&["serve", "--model", "/nonexistent/m.dasc"])).unwrap())
            .unwrap_err();
        assert!(e.contains("load"), "{e}");
    }
}
