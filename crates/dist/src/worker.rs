//! The worker: a task-tracker process pulling tasks over TCP.
//!
//! On start the worker registers, spawns a heartbeat thread on its own
//! connection, then loops: `RequestTask` → execute → `TaskDone` (or
//! `TaskFailed` if the task body panicked or failed). A coordinator that
//! no longer knows the worker's id (it declared the worker lost, or it
//! restarted) refuses `RequestTask` with a `JobError`; the worker then
//! stops that registration's heartbeat, registers again under a new id
//! and carries on pulling.
//!
//! Task bodies are the stage bodies of `dasc_core::stages`, the same
//! functions every `Dasc` entry point runs, so the numerics are shared
//! code with the single-process path:
//!
//! * `MapSignatures` → [`dasc_core::map_signatures`] (Algorithm 1);
//! * `ReduceBucket` → [`dasc_core::reduce_bucket`] (Algorithm 2 plus
//!   the spectral step).
//!
//! A task's rows ride inline or are named by store ([`TaskRows`]).
//! Store rows are resolved through the worker's [`ShardSource`] — a
//! byte-bounded LRU shard cache that fetches misses from the
//! coordinator with `ShardRequest` RPCs and verifies every fetched
//! shard against the manifest checksum — and reach the same body as
//! inline rows, so a store task's output is bit-identical to the inline
//! task's.
//!
//! For fault-injection tests, [`WorkerOptions::die_after_assignments`]
//! makes the worker drop all its connections and stop the moment it
//! has *accepted* its Nth task — the coordinator sees a vanished
//! worker holding an in-flight task, exactly like a crashed machine.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dasc_core::{map_signatures, reduce_bucket, LANCZOS_THRESHOLD};
use dasc_linalg::FlatPoints;
use dasc_lsh::SignatureModel;
use dasc_net::{Client, ClientConfig};
use dasc_obs::{labeled, SpanRecord, Tracer};
use dasc_store::{DatasetManifest, Shard, ShardCache, StoreError};

use crate::client::rpc;
use crate::proto::{Msg, Task, TaskKind, TaskOutput, TaskRows};

/// Worker behaviour knobs.
#[derive(Clone, Debug)]
pub struct WorkerOptions {
    /// Human-readable name reported at registration.
    pub name: String,
    /// Fault injection: accept this many task assignments, then drop
    /// every connection and stop without completing the last one.
    pub die_after_assignments: Option<usize>,
}

impl WorkerOptions {
    /// A worker called `name`, with no fault injection.
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            die_after_assignments: None,
        }
    }
}

/// Worker-side shard resolver: an LRU [`ShardCache`] backed by
/// `ShardRequest` RPCs to the coordinator. The fetch connection is
/// created lazily on the first cache miss (a worker that only ever runs
/// inline tasks never opens it) and dropped on any RPC failure so the
/// next miss reconnects cleanly.
pub struct ShardSource {
    cache: ShardCache,
    addr: String,
    client: Mutex<Option<Client>>,
}

impl ShardSource {
    /// Resolver fetching from the coordinator at `addr`, cache sized
    /// from `DASC_SHARD_CACHE_BYTES` (default 256 MiB).
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            cache: ShardCache::from_env(),
            addr: addr.into(),
            client: Mutex::new(None),
        }
    }

    /// The underlying cache (tests inspect residency and capacity).
    pub fn cache(&self) -> &ShardCache {
        &self.cache
    }

    /// Resolve shard `index` of `manifest`'s dataset: cache hit, or a
    /// checksum-verified fetch from the coordinator.
    pub fn shard(&self, manifest: &DatasetManifest, index: usize) -> Result<Arc<Shard>, String> {
        let meta = manifest
            .shards
            .get(index)
            .ok_or_else(|| format!("shard {index} out of range"))?;
        self.cache
            .get_or_fetch(
                manifest.content_hash,
                index as u32,
                manifest.dim,
                manifest.has_labels,
                meta,
                || {
                    let mut guard = self.client.lock().expect("shard client");
                    let client = guard.get_or_insert_with(|| {
                        Client::new(self.addr.clone(), ClientConfig::default())
                    });
                    let req = Msg::ShardRequest {
                        dataset: manifest.content_hash,
                        shard: index as u32,
                    };
                    match rpc(client, &req) {
                        Ok(Msg::ShardReply { bytes }) => Ok(bytes),
                        Ok(Msg::JobError { message }) => Err(StoreError::Fetch(message)),
                        Ok(other) => Err(StoreError::Fetch(format!(
                            "unexpected shard reply {:?}",
                            other.msg_type()
                        ))),
                        Err(e) => {
                            *guard = None;
                            Err(StoreError::Fetch(e))
                        }
                    }
                },
            )
            .map_err(|e| format!("shard {index}: {e}"))
    }
}

/// A running worker (its pull loop lives on a background thread).
pub struct WorkerHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Result<(), String>>>,
}

impl WorkerHandle {
    /// Ask the loop to stop and wait for it.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        match self.thread.take() {
            Some(t) => t.join().map_err(|_| "worker thread panicked".to_string())?,
            None => Ok(()),
        }
    }

    /// Wait for the loop to end on its own (coordinator gone, fault
    /// injection tripped, or a fatal RPC error).
    pub fn wait(mut self) -> Result<(), String> {
        match self.thread.take() {
            Some(t) => t.join().map_err(|_| "worker thread panicked".to_string())?,
            None => Ok(()),
        }
    }

    /// True once the loop has exited.
    pub fn is_finished(&self) -> bool {
        self.thread.as_ref().is_none_or(JoinHandle::is_finished)
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Start a worker against `coordinator_addr` on a background thread.
pub fn spawn(coordinator_addr: impl Into<String>, options: WorkerOptions) -> WorkerHandle {
    let addr = coordinator_addr.into();
    let stop = Arc::new(AtomicBool::new(false));
    let thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || run_worker(&addr, &options, &stop))
    };
    WorkerHandle {
        stop,
        thread: Some(thread),
    }
}

/// Run a worker loop until the coordinator goes away or `stop` is
/// raised. The CLI daemon calls this directly on its main thread.
pub fn run_worker(
    coordinator_addr: &str,
    options: &WorkerOptions,
    stop: &Arc<AtomicBool>,
) -> Result<(), String> {
    let mut client = Client::new(coordinator_addr, ClientConfig::default());
    let shard_source = ShardSource::new(coordinator_addr);
    let mut assignments_taken = 0usize;
    loop {
        let (worker_id, heartbeat_interval_ms) = match rpc(
            &mut client,
            &Msg::Register {
                name: options.name.clone(),
            },
        )? {
            Msg::RegisterAck {
                worker_id,
                heartbeat_interval_ms,
            } => (worker_id, heartbeat_interval_ms),
            other => return Err(format!("unexpected register reply: {other:?}")),
        };

        // Heartbeats ride a dedicated connection so a long-running task
        // body never starves liveness. Each registration has its own
        // heartbeat thread, stopped when that registration ends.
        let beating = Arc::new(AtomicBool::new(true));
        let heartbeat = spawn_heartbeat(
            coordinator_addr.to_string(),
            worker_id,
            Duration::from_millis(heartbeat_interval_ms.max(10)),
            Arc::clone(&beating),
        );
        let ended = pull_loop(
            &mut client,
            worker_id,
            options,
            &shard_source,
            stop,
            &mut assignments_taken,
        );
        // Whatever ended the loop, stop heartbeating under this id so the
        // coordinator's liveness sweep can reclaim our tasks.
        beating.store(false, Ordering::SeqCst);
        let _ = heartbeat.join();
        match ended {
            Ok(PullEnd::Forgotten) => continue,
            Ok(PullEnd::Stopped) => return Ok(()),
            Err(e) => return Err(e),
        }
    }
}

/// How a pull loop ended without an error.
enum PullEnd {
    /// `stop` was raised, or fault injection tripped.
    Stopped,
    /// The coordinator refused our worker id: register again.
    Forgotten,
}

fn spawn_heartbeat(
    addr: String,
    worker_id: u64,
    interval: Duration,
    beating: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut client = Client::new(addr, ClientConfig::default());
        while beating.load(Ordering::SeqCst) {
            // Failures are fine: the coordinator may be briefly busy or
            // gone; the pull loop owns the fatal-error decision. Each
            // heartbeat carries the full metrics snapshot, which the
            // coordinator re-labels and federates per worker name.
            let metrics = dasc_obs::global().snapshot();
            let _ = rpc(&mut client, &Msg::Heartbeat { worker_id, metrics });
            // Sleep in small slices so shutdown isn't delayed by a
            // long heartbeat interval.
            let deadline = std::time::Instant::now() + interval;
            while std::time::Instant::now() < deadline && beating.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    })
}

fn pull_loop(
    client: &mut Client,
    worker_id: u64,
    options: &WorkerOptions,
    shard_source: &ShardSource,
    stop: &AtomicBool,
    assignments_taken: &mut usize,
) -> Result<PullEnd, String> {
    let mut consecutive_failures = 0usize;
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(PullEnd::Stopped);
        }
        let reply = match rpc(client, &Msg::RequestTask { worker_id }) {
            Ok(r) => {
                consecutive_failures = 0;
                r
            }
            Err(e) => {
                consecutive_failures += 1;
                if consecutive_failures >= 3 {
                    return Err(format!("coordinator unreachable: {e}"));
                }
                std::thread::sleep(ClientConfig::default().backoff_base);
                continue;
            }
        };
        match reply {
            Msg::AssignTask { task } => {
                *assignments_taken += 1;
                if options
                    .die_after_assignments
                    .is_some_and(|n| *assignments_taken >= n)
                {
                    // Simulated crash: vanish with the task in flight.
                    stop.store(true, Ordering::SeqCst);
                    client.disconnect();
                    return Ok(PullEnd::Stopped);
                }
                let task_id = task.task_id;
                let report = match execute_task_traced(task, Some(shard_source)) {
                    (Ok(output), spans) => Msg::TaskDone {
                        worker_id,
                        task_id,
                        output,
                        spans,
                    },
                    (Err(error), _) => Msg::TaskFailed {
                        worker_id,
                        task_id,
                        error,
                    },
                };
                rpc(client, &report)?;
            }
            Msg::NoTask { backoff_ms } => {
                std::thread::sleep(Duration::from_millis(backoff_ms.clamp(1, 1000)));
            }
            Msg::JobError { .. } => return Ok(PullEnd::Forgotten),
            other => return Err(format!("unexpected reply to RequestTask: {other:?}")),
        }
    }
}

/// Execute one task body. A panic inside the body becomes an error
/// string for `TaskFailed`; shard-addressed tasks fail without a
/// [`ShardSource`]. Wrapper over [`execute_task_traced`] for callers
/// that don't want the span log.
pub fn execute_task(task: Task, shard_source: Option<&ShardSource>) -> Result<TaskOutput, String> {
    execute_task_traced(task, shard_source).0
}

/// Execute one task body and return its output together with the span
/// log recorded under the task's trace context. When the task carries
/// no context ([`Task::trace_parent`] is 0) the log is empty and the
/// body runs untraced.
///
/// Spans go to a *task-local* tracer, not the process-global one, so
/// concurrent workers sharing a process (tests, benches) never mix
/// their logs; timestamps are relative to the task body's start and are
/// rebased onto the job timeline by the coordinator.
pub fn execute_task_traced(
    task: Task,
    shard_source: Option<&ShardSource>,
) -> (Result<TaskOutput, String>, Vec<SpanRecord>) {
    let tracer = Tracer::new();
    if task.trace_parent != 0 {
        tracer.enable();
    }
    let stage = task.kind.stage_name();
    let began = std::time::Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
        || -> Result<TaskOutput, String> {
            match task.kind {
                TaskKind::MapSignatures {
                    planes,
                    start,
                    len,
                    rows,
                } => {
                    let _span = tracer.span("dist.task.map");
                    let model = SignatureModel::from_planes(planes);
                    let _hash_span = tracer.span("dist.task.map.hash");
                    let groups = with_rows(&rows, start..start + len, shard_source, |rows| {
                        map_signatures(&model, start, rows)
                    })?;
                    Ok(TaskOutput::MapSignatures(groups))
                }
                TaskKind::ReduceBucket {
                    bucket_id,
                    ki,
                    kernel,
                    seed,
                    members,
                    rows,
                } => {
                    let _span = tracer.span("dist.task.reduce");
                    // Decoding checked that inline rows share one
                    // dimension; store rows share the manifest's.
                    let points = with_rows(&rows, members.iter().copied(), shard_source, |rows| {
                        let rows: Vec<&[f64]> = rows.collect();
                        FlatPoints::from_flat(rows.concat(), rows.first().map_or(0, |r| r.len()))
                    })?;
                    let _cluster_span = tracer.span("dist.task.reduce.cluster");
                    // `JobSpec` carries no dense floor, so every job
                    // routes at the library default, whatever
                    // `DascConfig::lanczos_threshold` the caller's
                    // in-process runs use.
                    Ok(TaskOutput::ReduceBucket(
                        reduce_bucket(
                            &points,
                            &members,
                            ki,
                            kernel,
                            LANCZOS_THRESHOLD,
                            seed,
                            bucket_id,
                        )
                        .0,
                    ))
                }
            }
        },
    ));
    dasc_obs::global().observe(
        &labeled("dasc_dist_task_duration_us", "stage", stage),
        began.elapsed().as_micros() as u64,
    );
    let spans = tracer.drain();
    let result = match result {
        Ok(r) => r,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "task panicked".to_string());
            Err(format!("task panicked: {msg}"))
        }
    };
    (result, spans)
}

/// Hand `body` the task's rows for global ids `ids`, in order: inline
/// rows as shipped, store rows borrowed from the shards that hold them,
/// each shard resolved once through `shard_source`.
fn with_rows<R>(
    rows: &TaskRows,
    ids: impl IntoIterator<Item = usize>,
    shard_source: Option<&ShardSource>,
    body: impl FnOnce(&mut dyn Iterator<Item = &[f64]>) -> R,
) -> Result<R, String> {
    let manifest = match rows {
        TaskRows::Inline(points) => return Ok(body(&mut points.iter().map(Vec::as_slice))),
        TaskRows::Store(manifest) => manifest,
    };
    let source = shard_source.ok_or("shard-addressed task but this worker has no shard source")?;
    let mut shards = vec![None; manifest.shards.len()];
    let mut at = Vec::new();
    for i in ids {
        let (s, r) = manifest.locate(i);
        if shards[s].is_none() {
            shards[s] = Some(source.shard(manifest, s)?);
        }
        at.push((s, r));
    }
    let shard = |s: usize| -> &Shard { shards[s].as_deref().expect("resolved above") };
    Ok(body(&mut at.iter().map(|&(s, r)| shard(s).row(r))))
}
