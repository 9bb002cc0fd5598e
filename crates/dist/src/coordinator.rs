//! The coordinator: job tracker + name node for the dist runtime.
//!
//! One `dasc-net` server thread-set handles all RPCs; each submitted
//! job gets a runner thread that replays the exact in-process
//! `Dasc::train` jobflow, but with the map and reduce bodies executed
//! by remote workers:
//!
//! 1. fit the LSH signature model locally (cheap, needs the whole
//!    dataset's histograms — same as the in-process path);
//! 2. stage 1: one `MapSignatures` task per `split_ranges` slice;
//! 3. between-stage merge: rebuild per-point signatures, checking that
//!    every point is mapped exactly once, then form and merge buckets
//!    (the shared `dasc_core::merge_signature_groups`);
//! 4. stage 2: one `ReduceBucket` task per merged bucket, queued
//!    largest first (the shared `dasc_core::reduce_order`);
//! 5. check that every point came back exactly once with a cluster its
//!    bucket has, then stitch and consolidate locally via the shared
//!    `dasc-core` helpers.
//!
//! Jobs submitted against a packed dataset store ([`JobData::Ref`])
//! follow the same flow with the same task kinds, whose rows name the
//! store ([`TaskRows::Store`]) instead of carrying points, and the
//! coordinator doubles as the name node, serving raw shard bytes to
//! workers on [`Msg::ShardRequest`] out of the mmap'd store.
//!
//! Because every numerical step is the same shared function
//! `Dasc::run` calls, the final assignments are
//! bit-identical to it for the same `JobSpec` — regardless of
//! worker count, task interleaving, or mid-job worker deaths.
//!
//! Fault tolerance is Hadoop-shaped: workers heartbeat; a worker silent
//! past `worker_liveness_timeout` (or whose task connection drops) is
//! declared dead and its in-flight tasks re-queue with `attempt + 1`;
//! a task exhausting `max_task_attempts` fails the job. Stale results
//! from resurrected attempts are ignored unless the reporting worker
//! still owns the in-flight entry.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dasc_core::{
    bucket_cluster_count, check_reduce_records, consolidate, merge_signature_groups, reduce_order,
    stitch_distributed, Clustering,
};
use dasc_linalg::PointsView;
use dasc_lsh::{BucketSet, LshConfig, Signature, SignatureModel};
use dasc_mapreduce::{split_ranges, ClusterConfig};
use dasc_net::{ConnId, Server, ServerConfig, ServerHandle, Service};
use dasc_obs::{labeled, span, InstantRecord, MetricsSnapshot, SpanRecord, TraceLane};
use dasc_store::StoreReader;

use crate::httpd::HttpHandle;
use crate::proto::{
    stage, task_input_volume, JobData, JobOutcome, JobSpec, Msg, Task, TaskKind, TaskOutput,
    TaskRows,
};

/// A task is flagged as a straggler once its elapsed time exceeds this
/// multiple of the running-median completed-task duration (Hadoop's
/// speculative-execution trigger is the same shape).
const STRAGGLER_FACTOR: u64 = 2;
/// Straggler floor: never flag tasks faster than this, so microsecond
/// jitter on tiny test jobs doesn't light the gauge.
const STRAGGLER_MIN_US: u64 = 1_000;
/// Completed-duration ring capacity behind the running median.
const TASK_DURATION_WINDOW: usize = 256;
/// Don't flag stragglers until the median rests on this many samples.
const STRAGGLER_MIN_SAMPLES: usize = 3;

/// A running coordinator.
pub struct Coordinator {
    server: ServerHandle<CoordinatorService>,
    http: Option<HttpHandle>,
}

impl Coordinator {
    /// Bind `addr` (port 0 picks a free port) and start serving.
    pub fn start(addr: &str, cluster: ClusterConfig) -> io::Result<Coordinator> {
        let service = CoordinatorService {
            state: Arc::new(SharedState {
                inner: Mutex::new(State::default()),
                changed: Condvar::new(),
                cluster,
            }),
        };
        let server = Server::new(
            service,
            ServerConfig {
                read_timeout: Duration::from_millis(200),
            },
        )
        .start(addr)?;
        Ok(Coordinator { server, http: None })
    }

    /// Also serve the federated metrics over HTTP (`GET /metrics` in
    /// Prometheus text, `GET /workers` as JSON) on `addr`. Port 0 picks
    /// a free port; the bound address is returned.
    pub fn serve_http(&mut self, addr: &str) -> io::Result<SocketAddr> {
        let handle = crate::httpd::start(Arc::clone(&self.server.service().state), addr)?;
        let bound = handle.addr();
        self.http = Some(handle);
        Ok(bound)
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Block until the server dies on its own (daemon mode). The HTTP
    /// endpoint keeps serving for as long as the RPC server lives.
    pub fn wait(mut self) {
        let http = self.http.take();
        self.server.wait();
        if let Some(http) = http {
            http.shutdown();
        }
    }

    /// Graceful shutdown: stop accepting, join all threads. Running job
    /// runners observe the dropped connections and fail their stages.
    pub fn shutdown(mut self) {
        if let Some(http) = self.http.take() {
            http.shutdown();
        }
        self.server.service().state.shutdown();
        self.server.shutdown();
    }
}

struct CoordinatorService {
    state: Arc<SharedState>,
}

pub(crate) struct SharedState {
    pub(crate) inner: Mutex<State>,
    changed: Condvar,
    cluster: ClusterConfig,
}

#[derive(Default)]
pub(crate) struct State {
    shutting_down: bool,
    next_worker_id: u64,
    next_job_id: u64,
    next_task_id: u64,
    pub(crate) workers: HashMap<u64, WorkerInfo>,
    /// Tasks ready to hand to the next `RequestTask`.
    pending: VecDeque<Task>,
    /// task_id → (worker running it, the task, when it started).
    pub(crate) in_flight: HashMap<u64, InFlight>,
    /// task_id → attempts consumed so far (pending + in-flight).
    attempts: HashMap<u64, u32>,
    /// Completed task outputs awaiting pickup by their job runner,
    /// keyed by task_id, with the completing worker recorded.
    outputs: HashMap<u64, (u64, TaskOutput)>,
    /// task_id → terminal failure message (attempt budget exhausted).
    dead_tasks: HashMap<u64, String>,
    jobs: HashMap<u64, JobState>,
    /// Latest federated metrics snapshot per worker *name*. Kept after
    /// a worker dies so its series survive in scrapes (post-mortems
    /// need the dead worker's numbers most of all).
    pub(crate) worker_metrics: BTreeMap<String, MetricsSnapshot>,
    /// Recent completed-task durations (µs) feeding the running median
    /// behind the straggler gauge.
    recent_task_durations: VecDeque<u64>,
    /// Per-job merged trace under assembly (only for jobs submitted
    /// with `collect_trace`).
    traces: HashMap<u64, JobTrace>,
    /// Open dataset stores, keyed by content hash — the coordinator's
    /// name-node table. Registered at ref-job submission, retained for
    /// the server's lifetime so late shard fetches (retried tasks,
    /// follow-up jobs on the same dataset) keep resolving.
    datasets: HashMap<u64, Arc<StoreReader>>,
}

pub(crate) struct WorkerInfo {
    /// Registered name — the `worker="<name>"` label on every federated
    /// series and trace lane this worker produces.
    pub(crate) name: String,
    pub(crate) last_seen: Instant,
    /// The connection the worker last pulled a task on; if it drops,
    /// the worker is declared dead immediately.
    task_conn: Option<ConnId>,
    /// Tasks this worker has completed (surfaced by `/workers`).
    pub(crate) tasks_done: u64,
}

pub(crate) struct InFlight {
    pub(crate) worker_id: u64,
    task: Task,
    /// When the task was handed out — drives both the straggler check
    /// and the rebasing of the worker's span log onto the job timeline.
    assigned_at: Instant,
}

enum JobState {
    Running { stage: u8, done: u64, total: u64 },
    Done(JobOutcome),
    Failed(String),
}

/// A merged multi-lane trace under assembly for one tracing job: the
/// coordinator lane records scheduling (queued-wait and assigned-run
/// spans per task, lifecycle instants), and each worker's returned span
/// logs are rebased onto the shared epoch into that worker's lane.
struct JobTrace {
    epoch: Instant,
    next_id: u64,
    /// Coordinator-lane spans (job/stage/scheduling).
    spans: Vec<SpanRecord>,
    /// Coordinator-lane lifecycle markers (retried/fenced/lost).
    instants: Vec<InstantRecord>,
    /// Worker-lane spans, keyed by worker name.
    lanes: BTreeMap<String, Vec<SpanRecord>>,
    /// Coordinator spans opened but not yet closed:
    /// id → (name, parent, start offset µs).
    open: HashMap<u64, (String, u64, u64)>,
    /// task_id → enqueue offset µs (closed into a queued-wait span at
    /// assignment).
    queued_at: HashMap<u64, u64>,
}

impl JobTrace {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
            instants: Vec::new(),
            lanes: BTreeMap::new(),
            open: HashMap::new(),
            queued_at: HashMap::new(),
        }
    }

    /// Offset of "now" from the job epoch, µs.
    fn ts(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn alloc(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn push_span(&mut self, name: String, parent: u64, start_us: u64, dur_us: u64) -> u64 {
        let id = self.alloc();
        self.spans.push(SpanRecord {
            id,
            parent: (parent != 0).then_some(parent),
            name,
            thread: 0,
            start_us,
            dur_us,
        });
        id
    }

    fn mark(&mut self, name: String) {
        let ts_us = self.ts();
        self.instants.push(InstantRecord { name, ts_us });
    }

    /// Give `worker` a lane as soon as it is *assigned* a traced task:
    /// a worker that dies before returning any spans still belongs on
    /// the merged timeline (its loss/retry instants reference it).
    fn touch_lane(&mut self, worker: &str) {
        self.lanes.entry(worker.to_string()).or_default();
    }

    /// Fold a worker's task span log into its lane: ids are remapped
    /// into the job's id space, local parents follow the remap, roots
    /// hang under the task's coordinator-side `trace_parent`, and
    /// task-relative timestamps shift by the assignment offset.
    fn merge_worker_spans(
        &mut self,
        worker: &str,
        trace_parent: u64,
        base_us: u64,
        spans: Vec<SpanRecord>,
    ) {
        let remap: HashMap<u64, u64> = spans.iter().map(|s| (s.id, self.alloc())).collect();
        let lane = self.lanes.entry(worker.to_string()).or_default();
        for mut s in spans {
            s.id = remap[&s.id];
            s.parent = match s.parent.and_then(|p| remap.get(&p)) {
                Some(&p) => Some(p),
                None => (trace_parent != 0).then_some(trace_parent),
            };
            s.start_us += base_us;
            lane.push(s);
        }
    }
}

impl SharedState {
    fn shutdown(&self) {
        let mut state = self.inner.lock().expect("state");
        state.shutting_down = true;
        self.changed.notify_all();
    }

    /// Declare a worker dead: drop it and re-queue its in-flight tasks
    /// (or fail them if out of attempts).
    fn declare_lost(&self, state: &mut State, worker_id: u64, why: &str) {
        let Some(info) = state.workers.remove(&worker_id) else {
            return;
        };
        dasc_obs::global().inc("dasc_dist_workers_lost_total", 1);
        let name = info.name;
        for tr in state.traces.values_mut() {
            tr.mark(format!("worker {name} lost ({why})"));
        }
        let orphaned: Vec<u64> = state
            .in_flight
            .iter()
            .filter(|(_, f)| f.worker_id == worker_id)
            .map(|(&tid, _)| tid)
            .collect();
        for task_id in orphaned {
            let inflight = state.in_flight.remove(&task_id).expect("in-flight entry");
            self.requeue(state, inflight.task, format!("worker {name} {why}"));
        }
        self.changed.notify_all();
    }

    /// Put a task back in the queue with `attempt + 1`, or mark it dead
    /// if the retry budget is spent. Either way the tracing job gets a
    /// lifecycle marker, so a killed worker's fenced/retried task is
    /// visible in the merged timeline.
    fn requeue(&self, state: &mut State, mut task: Task, why: String) {
        let attempts = state.attempts.get(&task.task_id).copied().unwrap_or(1);
        if attempts >= self.cluster.max_task_attempts as u32 {
            if let Some(tr) = state.traces.get_mut(&task.job_id) {
                tr.mark(format!(
                    "task {} dead after {attempts} attempts",
                    task.task_id
                ));
            }
            state.dead_tasks.insert(
                task.task_id,
                format!(
                    "task {} failed after {attempts} attempts: {why}",
                    task.task_id
                ),
            );
            return;
        }
        dasc_obs::global().inc("dasc_dist_task_retries_total", 1);
        task.attempt = attempts + 1;
        state.attempts.insert(task.task_id, attempts + 1);
        if let Some(tr) = state.traces.get_mut(&task.job_id) {
            tr.mark(format!(
                "task {} retried (attempt {}): {why}",
                task.task_id, task.attempt
            ));
            tr.queued_at.insert(task.task_id, tr.ts());
        }
        state.pending.push_back(task);
    }

    /// Update the `dasc_dist_stragglers` gauge: in-flight tasks whose
    /// elapsed time exceeds `STRAGGLER_FACTOR ×` the running median of
    /// recently completed tasks (with a floor so microsecond-scale test
    /// jobs never flag).
    fn sweep_stragglers(&self, state: &State) {
        let stragglers = if state.recent_task_durations.len() >= STRAGGLER_MIN_SAMPLES {
            let mut sorted: Vec<u64> = state.recent_task_durations.iter().copied().collect();
            sorted.sort_unstable();
            let median = sorted[sorted.len() / 2];
            let threshold = (median * STRAGGLER_FACTOR).max(STRAGGLER_MIN_US);
            state
                .in_flight
                .values()
                .filter(|f| f.assigned_at.elapsed().as_micros() as u64 > threshold)
                .count()
        } else {
            0
        };
        dasc_obs::global()
            .gauge("dasc_dist_stragglers")
            .set(stragglers as i64);
    }

    /// The federated metrics view: the coordinator's own registry plus
    /// every worker's last heartbeat snapshot re-keyed with its
    /// `worker="<name>"` label, rendered as Prometheus text.
    pub(crate) fn federated_metrics_text(&self) -> String {
        let mut snap = dasc_obs::global().snapshot();
        let state = self.inner.lock().expect("state");
        self.sweep_stragglers(&state);
        snap.gauges.insert(
            "dasc_dist_workers_connected".to_string(),
            state.workers.len() as i64,
        );
        snap.gauges.insert(
            "dasc_dist_stragglers".to_string(),
            dasc_obs::global().gauge("dasc_dist_stragglers").get(),
        );
        let mut merged = snap;
        for (name, worker_snap) in &state.worker_metrics {
            merged = merged.merge(worker_snap.clone().with_label("worker", name));
        }
        dasc_obs::prometheus::render(&merged)
    }

    /// Export a finished tracing job's merged Chrome trace JSON: lane 0
    /// is the coordinator, lanes 1.. are the workers in name order.
    fn trace_json(&self, job_id: u64) -> Option<String> {
        let state = self.inner.lock().expect("state");
        let tr = state.traces.get(&job_id)?;
        let mut lanes = vec![TraceLane {
            pid: 0,
            label: "coordinator".to_string(),
            spans: tr.spans.clone(),
            instants: tr.instants.clone(),
        }];
        for (i, (name, spans)) in tr.lanes.iter().enumerate() {
            lanes.push(TraceLane {
                pid: i as u64 + 1,
                label: name.clone(),
                spans: spans.clone(),
                instants: Vec::new(),
            });
        }
        Some(dasc_obs::chrome_trace_json_lanes(&lanes))
    }

    /// Open a coordinator-lane span for a tracing job. Returns the span
    /// id, or 0 when the job is not tracing (0 doubles as "no parent"
    /// and as `Task::trace_parent`'s "tracing off").
    fn trace_begin(&self, job_id: u64, name: &str, parent: u64) -> u64 {
        let mut state = self.inner.lock().expect("state");
        let Some(tr) = state.traces.get_mut(&job_id) else {
            return 0;
        };
        let id = tr.alloc();
        let start = tr.ts();
        tr.open.insert(id, (name.to_string(), parent, start));
        id
    }

    /// Close a span opened with [`SharedState::trace_begin`].
    fn trace_end(&self, job_id: u64, span_id: u64) {
        if span_id == 0 {
            return;
        }
        let mut state = self.inner.lock().expect("state");
        let Some(tr) = state.traces.get_mut(&job_id) else {
            return;
        };
        if let Some((name, parent, start)) = tr.open.remove(&span_id) {
            let dur = tr.ts().saturating_sub(start);
            tr.spans.push(SpanRecord {
                id: span_id,
                parent: (parent != 0).then_some(parent),
                name,
                thread: 0,
                start_us: start,
                dur_us: dur,
            });
        }
    }

    /// Enqueue `tasks` and block until all are complete or any is
    /// terminally dead. Returns outputs keyed by task_id, plus the set
    /// of workers that completed at least one of them.
    fn run_stage(
        &self,
        job_id: u64,
        stage_tag: u8,
        tasks: Vec<Task>,
    ) -> Result<(HashMap<u64, TaskOutput>, HashSet<u64>), String> {
        let task_ids: Vec<u64> = tasks.iter().map(|t| t.task_id).collect();
        {
            let mut state = self.inner.lock().expect("state");
            if let Some(JobState::Running { stage, done, total }) = state.jobs.get_mut(&job_id) {
                *stage = stage_tag;
                *done = 0;
                *total = task_ids.len() as u64;
            }
            for task in tasks {
                state.attempts.insert(task.task_id, 1);
                if task.trace_parent != 0 {
                    if let Some(tr) = state.traces.get_mut(&task.job_id) {
                        let ts = tr.ts();
                        tr.queued_at.insert(task.task_id, ts);
                    }
                }
                state.pending.push_back(task);
            }
            self.changed.notify_all();
        }

        let mut outputs = HashMap::new();
        let mut workers_used = HashSet::new();
        let mut state = self.inner.lock().expect("state");
        loop {
            for &tid in &task_ids {
                if let Some((worker, out)) = state.outputs.remove(&tid) {
                    outputs.insert(tid, out);
                    workers_used.insert(worker);
                }
                if let Some(err) = state.dead_tasks.get(&tid) {
                    let err = err.clone();
                    self.abandon_stage(&mut state, &task_ids);
                    return Err(err);
                }
            }
            if let Some(JobState::Running { done, .. }) = state.jobs.get_mut(&job_id) {
                *done = outputs.len() as u64;
            }
            if outputs.len() == task_ids.len() {
                return Ok((outputs, workers_used));
            }
            if state.shutting_down {
                self.abandon_stage(&mut state, &task_ids);
                return Err("coordinator shutting down".to_string());
            }
            let (next, _) = self
                .changed
                .wait_timeout(state, Duration::from_millis(100))
                .expect("state");
            state = next;
            // The sweep needs the lock we hold; do it inline.
            let timeout = self.cluster.worker_liveness_timeout;
            let silent: Vec<u64> = state
                .workers
                .iter()
                .filter(|(_, w)| w.last_seen.elapsed() > timeout)
                .map(|(&id, _)| id)
                .collect();
            for id in silent {
                self.declare_lost(&mut state, id, "missed heartbeats");
            }
            self.sweep_stragglers(&state);
        }
    }

    /// Drop a failed stage's remaining bookkeeping so nothing leaks.
    fn abandon_stage(&self, state: &mut State, task_ids: &[u64]) {
        let ids: HashSet<u64> = task_ids.iter().copied().collect();
        state.pending.retain(|t| !ids.contains(&t.task_id));
        state.in_flight.retain(|tid, _| !ids.contains(tid));
        for tid in task_ids {
            state.attempts.remove(tid);
            state.outputs.remove(tid);
            state.dead_tasks.remove(tid);
        }
    }

    fn alloc_task_ids(&self, n: usize) -> u64 {
        let mut state = self.inner.lock().expect("state");
        let first = state.next_task_id;
        state.next_task_id += n as u64;
        first
    }

    fn set_job_state(&self, job_id: u64, js: JobState) {
        let mut state = self.inner.lock().expect("state");
        state.jobs.insert(job_id, js);
        self.changed.notify_all();
    }
}

impl Service for CoordinatorService {
    fn handle(&self, conn: ConnId, msg_type: u16, payload: &[u8]) -> Option<(u16, Vec<u8>)> {
        let reg = dasc_obs::global();
        reg.inc("dasc_dist_rpcs_total", 1);
        let msg = match Msg::decode_frame(msg_type, payload) {
            Ok(m) => m,
            Err(e) => {
                let reply = Msg::JobError {
                    message: format!("protocol error: {e}"),
                };
                return Some((reply.msg_type() as u16, reply.encode_payload()));
            }
        };
        let reply = self.dispatch(conn, msg);
        Some((reply.msg_type() as u16, reply.encode_payload()))
    }

    fn on_disconnect(&self, conn: ConnId) {
        let shared = Arc::clone(&self.state);
        let mut state = shared.inner.lock().expect("state");
        let lost: Vec<u64> = state
            .workers
            .iter()
            .filter(|(_, w)| w.task_conn == Some(conn))
            .map(|(&id, _)| id)
            .collect();
        for id in lost {
            shared.declare_lost(&mut state, id, "dropped its task connection");
        }
    }
}

impl CoordinatorService {
    fn dispatch(&self, conn: ConnId, msg: Msg) -> Msg {
        let shared = &self.state;
        let reg = dasc_obs::global();
        match msg {
            Msg::Register { name } => {
                let mut state = shared.inner.lock().expect("state");
                state.next_worker_id += 1;
                let worker_id = state.next_worker_id;
                state.workers.insert(
                    worker_id,
                    WorkerInfo {
                        name,
                        last_seen: Instant::now(),
                        task_conn: None,
                        tasks_done: 0,
                    },
                );
                reg.inc("dasc_dist_workers_registered_total", 1);
                Msg::RegisterAck {
                    worker_id,
                    heartbeat_interval_ms: shared.cluster.heartbeat_interval.as_millis() as u64,
                }
            }
            Msg::Heartbeat { worker_id, metrics } => {
                reg.inc("dasc_dist_heartbeats_total", 1);
                let mut state = shared.inner.lock().expect("state");
                if let Some(w) = state.workers.get_mut(&worker_id) {
                    let lag = w.last_seen.elapsed();
                    reg.observe("dasc_dist_heartbeat_lag_us", lag.as_micros() as u64);
                    w.last_seen = Instant::now();
                    // Federation: retain the latest snapshot under the
                    // worker's *name* so the series outlive the worker.
                    if !metrics.is_empty() {
                        let name = w.name.clone();
                        state.worker_metrics.insert(name, metrics);
                    }
                }
                Msg::HeartbeatAck
            }
            Msg::RequestTask { worker_id } => {
                let mut state = shared.inner.lock().expect("state");
                let Some(w) = state.workers.get_mut(&worker_id) else {
                    // Unknown (e.g. previously declared dead): make it
                    // back off; re-registration is its own call.
                    return Msg::NoTask {
                        backoff_ms: shared.cluster.heartbeat_interval.as_millis() as u64,
                    };
                };
                w.last_seen = Instant::now();
                w.task_conn = Some(conn);
                let assignee = w.name.clone();
                match state.pending.pop_front() {
                    Some(task) => {
                        reg.inc("dasc_dist_tasks_assigned_total", 1);
                        // Close the queued-wait span for a tracing job:
                        // enqueue → assignment, on the coordinator lane.
                        if task.trace_parent != 0 {
                            if let Some(tr) = state.traces.get_mut(&task.job_id) {
                                tr.touch_lane(&assignee);
                                if let Some(queued) = tr.queued_at.remove(&task.task_id) {
                                    let now = tr.ts();
                                    tr.push_span(
                                        format!("task {} queued", task.task_id),
                                        task.trace_parent,
                                        queued,
                                        now.saturating_sub(queued),
                                    );
                                }
                            }
                        }
                        state.in_flight.insert(
                            task.task_id,
                            InFlight {
                                worker_id,
                                task: task.clone(),
                                assigned_at: Instant::now(),
                            },
                        );
                        Msg::AssignTask { task }
                    }
                    None => Msg::NoTask {
                        backoff_ms: shared.cluster.heartbeat_interval.as_millis() as u64 / 2,
                    },
                }
            }
            Msg::TaskDone {
                worker_id,
                task_id,
                output,
                spans,
            } => {
                let mut state = shared.inner.lock().expect("state");
                let worker_name = state.workers.get_mut(&worker_id).map(|w| {
                    w.last_seen = Instant::now();
                    w.name.clone()
                });
                // Only the worker that owns the in-flight entry may
                // complete it — a stale attempt from a worker already
                // declared dead (whose task was re-run elsewhere) is
                // acked and dropped.
                let owned = state
                    .in_flight
                    .get(&task_id)
                    .is_some_and(|f| f.worker_id == worker_id);
                if owned {
                    let inflight = state.in_flight.remove(&task_id).expect("owned entry");
                    reg.inc("dasc_dist_tasks_completed_total", 1);
                    let (records, bytes) = output_volume(&output);
                    reg.inc("dasc_dist_shuffle_records_total", records);
                    reg.inc("dasc_dist_shuffle_bytes_total", bytes);
                    // Lifecycle accounting: per-stage (and per-worker)
                    // duration histograms plus the running-median window
                    // behind the straggler gauge. Observed coordinator-
                    // side so the series exist even for workers that die
                    // before their next heartbeat ships metrics.
                    let duration_us = inflight.assigned_at.elapsed().as_micros() as u64;
                    let series = labeled(
                        "dasc_dist_task_duration_us",
                        "stage",
                        inflight.task.kind.stage_name(),
                    );
                    reg.observe(&series, duration_us);
                    if let Some(name) = worker_name.as_deref() {
                        reg.observe(&labeled(&series, "worker", name), duration_us);
                    }
                    state.recent_task_durations.push_back(duration_us);
                    if state.recent_task_durations.len() > TASK_DURATION_WINDOW {
                        state.recent_task_durations.pop_front();
                    }
                    if let Some(w) = state.workers.get_mut(&worker_id) {
                        w.tasks_done += 1;
                    }
                    // Trace stitching: a coordinator-lane span covering
                    // assignment → completion, plus the worker's own
                    // span log rebased onto the job timeline.
                    if inflight.task.trace_parent != 0 {
                        if let Some(tr) = state.traces.get_mut(&inflight.task.job_id) {
                            let base_us =
                                inflight.assigned_at.duration_since(tr.epoch).as_micros() as u64;
                            let lane = worker_name.as_deref().unwrap_or("worker");
                            tr.push_span(
                                format!("task {task_id} @ {lane}"),
                                inflight.task.trace_parent,
                                base_us,
                                duration_us,
                            );
                            tr.merge_worker_spans(lane, inflight.task.trace_parent, base_us, spans);
                        }
                    }
                    state.outputs.insert(task_id, (worker_id, output));
                    shared.changed.notify_all();
                } else {
                    reg.inc("dasc_dist_tasks_fenced_total", 1);
                    let lane = worker_name.as_deref().unwrap_or("worker").to_string();
                    for tr in state.traces.values_mut() {
                        tr.mark(format!("task {task_id} fenced (stale result from {lane})"));
                    }
                }
                Msg::TaskAck
            }
            Msg::TaskFailed {
                worker_id,
                task_id,
                error,
            } => {
                let mut state = shared.inner.lock().expect("state");
                let owned = state
                    .in_flight
                    .get(&task_id)
                    .is_some_and(|f| f.worker_id == worker_id);
                if owned {
                    let inflight = state.in_flight.remove(&task_id).expect("owned entry");
                    shared.requeue(&mut state, inflight.task, error);
                    shared.changed.notify_all();
                }
                Msg::TaskAck
            }
            Msg::SubmitJob { spec } => {
                let job_id = {
                    let mut state = shared.inner.lock().expect("state");
                    state.next_job_id += 1;
                    let id = state.next_job_id;
                    state.jobs.insert(
                        id,
                        JobState::Running {
                            stage: stage::QUEUED,
                            done: 0,
                            total: 0,
                        },
                    );
                    id
                };
                reg.inc("dasc_dist_jobs_total", 1);
                let shared = Arc::clone(shared);
                std::thread::spawn(move || drive_job(&shared, job_id, spec));
                Msg::JobAccepted { job_id }
            }
            Msg::PollJob { job_id } => {
                let state = shared.inner.lock().expect("state");
                match state.jobs.get(&job_id) {
                    Some(JobState::Running { stage, done, total }) => Msg::JobPending {
                        stage: *stage,
                        done: *done,
                        total: *total,
                    },
                    Some(JobState::Done(outcome)) => Msg::JobResult {
                        outcome: outcome.clone(),
                    },
                    Some(JobState::Failed(message)) => Msg::JobError {
                        message: message.clone(),
                    },
                    None => Msg::JobError {
                        message: format!("unknown job {job_id}"),
                    },
                }
            }
            Msg::ShardRequest { dataset, shard } => {
                // Resolve the reader under the lock, read the file
                // outside it — shard serving must not stall scheduling.
                let reader = {
                    let state = shared.inner.lock().expect("state");
                    state.datasets.get(&dataset).cloned()
                };
                match reader {
                    Some(r) => match r.shard_file_bytes(shard as usize) {
                        Ok(bytes) => {
                            reg.inc("dasc_store_shards_served_total", 1);
                            Msg::ShardReply { bytes }
                        }
                        Err(e) => Msg::JobError {
                            message: format!("shard {shard} of dataset {dataset:#018x}: {e}"),
                        },
                    },
                    None => Msg::JobError {
                        message: format!("unknown dataset {dataset:#018x}"),
                    },
                }
            }
            Msg::MetricsRequest => Msg::MetricsReply {
                text: shared.federated_metrics_text(),
            },
            Msg::TraceRequest { job_id } => match shared.trace_json(job_id) {
                // `put_str` caps frames at 1 MiB; an over-budget trace
                // becomes an explicit error rather than a panic.
                Some(json) if json.len() <= crate::proto::MAX_TRACE_JSON => {
                    Msg::TraceReply { json }
                }
                Some(json) => Msg::JobError {
                    message: format!(
                        "trace for job {job_id} is {} bytes, over the {} byte frame cap",
                        json.len(),
                        crate::proto::MAX_TRACE_JSON
                    ),
                },
                None => Msg::JobError {
                    message: format!("no trace recorded for job {job_id}"),
                },
            },
            other => Msg::JobError {
                message: format!("unexpected message {:?} at coordinator", other.msg_type()),
            },
        }
    }
}

/// Payload accounting for the shuffle counters: records and approximate
/// wire bytes of a task output.
fn output_volume(output: &TaskOutput) -> (u64, u64) {
    match output {
        TaskOutput::MapSignatures(groups) => {
            let records: u64 = groups.iter().map(|(_, m)| m.len() as u64).sum();
            let bytes: u64 = groups.iter().map(|(_, m)| 12 + 8 * m.len() as u64).sum();
            (records, bytes)
        }
        TaskOutput::ReduceBucket(records) => (records.len() as u64, 24 * records.len() as u64),
    }
}

/// The resolved dataset a job computes over: the submission's inline
/// points, or an opened (verified) store served shard-wise to workers.
enum DataSource<'a> {
    Inline(&'a [Vec<f64>]),
    Store(Arc<StoreReader>),
}

impl DataSource<'_> {
    /// The whole dataset, for the steps the coordinator runs itself:
    /// fitting the signature model and consolidation.
    fn points(&self) -> &dyn PointsView {
        match self {
            DataSource::Inline(points) => points,
            DataSource::Store(reader) => reader.as_ref(),
        }
    }

    /// What a task over the global rows `ids` ships: copies of the
    /// points, or the store's manifest.
    fn task_rows(&self, ids: impl IntoIterator<Item = usize>) -> TaskRows {
        match self {
            DataSource::Inline(points) => {
                TaskRows::Inline(ids.into_iter().map(|i| points[i].clone()).collect())
            }
            DataSource::Store(reader) => TaskRows::Store(reader.manifest().clone()),
        }
    }
}

/// Rebuild per-point signatures from the stage-1 replies. Every point
/// must be mapped by exactly one reply group.
fn merge_map_outputs<'a>(
    n: usize,
    num_bits: usize,
    outputs: impl IntoIterator<Item = &'a TaskOutput>,
) -> Result<Vec<Signature>, String> {
    let mut groups = Vec::new();
    for output in outputs {
        let TaskOutput::MapSignatures(g) = output else {
            return Err("map task returned reduce output".to_string());
        };
        groups.push(g);
    }
    merge_signature_groups(n, num_bits, groups.into_iter().flatten())
        .map_err(|e| format!("map stage output: {e}"))
}

/// Gather the stage-2 replies' records. Every point must come back
/// exactly once, in an existing bucket, with a cluster that bucket has
/// (`bucket_sizes` and `k` give each bucket's `Kᵢ`).
fn collect_reduce_records<'a>(
    n: usize,
    k: usize,
    bucket_sizes: &[usize],
    outputs: impl IntoIterator<Item = &'a TaskOutput>,
) -> Result<Vec<(usize, usize, usize)>, String> {
    let mut records = Vec::with_capacity(n);
    for output in outputs {
        let TaskOutput::ReduceBucket(rs) = output else {
            return Err("reduce task returned map output".to_string());
        };
        records.extend_from_slice(rs);
    }
    check_reduce_records(n, k, bucket_sizes, &records)
        .map_err(|e| format!("reduce stage output: {e}"))?;
    Ok(records)
}

/// The job runner: the exact `Dasc::train` flow with map and reduce
/// bodies farmed out to workers.
fn drive_job(shared: &SharedState, job_id: u64, spec: JobSpec) {
    let result = execute_job(shared, job_id, &spec);
    match result {
        Ok(outcome) => shared.set_job_state(job_id, JobState::Done(outcome)),
        Err(message) => {
            dasc_obs::global().inc("dasc_dist_jobs_failed_total", 1);
            shared.set_job_state(job_id, JobState::Failed(message));
        }
    }
}

fn execute_job(shared: &SharedState, job_id: u64, spec: &JobSpec) -> Result<JobOutcome, String> {
    // Resolve the dataset. A store ref is opened on the coordinator's
    // filesystem, fully checksum-verified, pinned against the submitted
    // identity hash, and registered in the name-node table so workers
    // can fetch its shards.
    let source = match &spec.data {
        JobData::Inline { points } => {
            if points
                .iter()
                .any(|p| p.is_empty() || p.len() != points[0].len())
            {
                return Err("inline points must share one nonzero dimension".to_string());
            }
            DataSource::Inline(points)
        }
        JobData::Ref { path, content_hash } => {
            let reader = StoreReader::open(Path::new(path))
                .map_err(|e| format!("open dataset store {path}: {e}"))?;
            let actual = reader.manifest().content_hash;
            if actual != *content_hash {
                return Err(format!(
                    "dataset store {path} has content hash {actual:#018x}, \
                     job submitted {content_hash:#018x}"
                ));
            }
            reader
                .verify_all()
                .map_err(|e| format!("verify dataset store {path}: {e}"))?;
            let reader = Arc::new(reader);
            shared
                .inner
                .lock()
                .expect("state")
                .datasets
                .insert(*content_hash, Arc::clone(&reader));
            DataSource::Store(reader)
        }
    };
    let n = source.points().len();
    if n == 0 {
        return Err("empty dataset".to_string());
    }
    if spec.k == 0 {
        return Err("k must be >= 1".to_string());
    }
    let retries_before = dasc_obs::global().counter_value("dasc_dist_task_retries_total");
    if spec.collect_trace {
        let mut state = shared.inner.lock().expect("state");
        state.traces.insert(job_id, JobTrace::new());
    }
    let job_span = span!("dist.job");
    let job_span_id = shared.trace_begin(job_id, "dist.job", 0);
    let lsh = if spec.num_bits == 0 {
        LshConfig::for_dataset(n)
    } else {
        LshConfig::with_bits(spec.num_bits)
    };

    // Stage 1: fit the model locally, hash remotely. Every task carries
    // the stage span as its trace context (0 when the job isn't traced),
    // so worker span logs come back parented under the right stage.
    let stage1_span = span!("dist.stage1");
    let stage1_id = shared.trace_begin(job_id, "dist.stage1", job_span_id);
    let stage1_start = Instant::now();
    // One `fit_view` over either form, so the fitted planes are
    // bit-identical between inline and store submissions.
    let model = SignatureModel::fit_view(source.points(), &lsh);
    let ranges = split_ranges(n, &shared.cluster);
    let first_id = shared.alloc_task_ids(ranges.len());
    let map_tasks: Vec<Task> = ranges
        .iter()
        .enumerate()
        .map(|(i, &(start, len))| Task {
            job_id,
            task_id: first_id + i as u64,
            attempt: 1,
            trace_parent: stage1_id,
            kind: TaskKind::MapSignatures {
                planes: model.planes().to_vec(),
                start,
                len,
                rows: source.task_rows(start..start + len),
            },
        })
        .collect();
    let stage1_input_bytes: u64 = map_tasks.iter().map(|t| task_input_volume(&t.kind)).sum();
    dasc_obs::global().inc("dasc_dist_shuffle_bytes_total", stage1_input_bytes);
    let (map_outputs, workers1) = shared.run_stage(job_id, stage::MAP, map_tasks)?;
    let stage1_us = stage1_start.elapsed().as_micros() as u64;
    shared.trace_end(job_id, stage1_id);
    stage1_span.finish();

    // Between-stage merge through the shared helper.
    let sigs = merge_map_outputs(n, model.num_bits(), map_outputs.values())?;
    let buckets = BucketSet::from_signatures(&sigs).merge_with(lsh.merge_strategy, lsh.merge_p);

    // Stage 2: one reduce task per merged bucket, queued largest first.
    // Task ids stay in bucket order.
    let stage2_span = span!("dist.stage2");
    let stage2_id = shared.trace_begin(job_id, "dist.stage2", job_span_id);
    let stage2_start = Instant::now();
    let sizes = buckets.sizes();
    let first_id = shared.alloc_task_ids(buckets.len());
    let reduce_tasks: Vec<Task> = reduce_order(&sizes)
        .into_iter()
        .map(|bi| (bi, &buckets.buckets()[bi]))
        .map(|(bi, b)| Task {
            job_id,
            task_id: first_id + bi as u64,
            attempt: 1,
            trace_parent: stage2_id,
            kind: TaskKind::ReduceBucket {
                bucket_id: bi,
                ki: bucket_cluster_count(spec.k, b.members.len(), n),
                kernel: spec.kernel,
                seed: spec.seed,
                members: b.members.clone(),
                rows: source.task_rows(b.members.iter().copied()),
            },
        })
        .collect();
    let stage2_input_bytes: u64 = reduce_tasks
        .iter()
        .map(|t| task_input_volume(&t.kind))
        .sum();
    dasc_obs::global().inc("dasc_dist_shuffle_bytes_total", stage2_input_bytes);
    let (reduce_outputs, workers2) = shared.run_stage(job_id, stage::REDUCE, reduce_tasks)?;
    let stage2_us = stage2_start.elapsed().as_micros() as u64;
    shared.trace_end(job_id, stage2_id);
    stage2_span.finish();

    // Finish locally: stitch + consolidate via the shared helpers.
    let finish_id = shared.trace_begin(job_id, "dist.finish", job_span_id);
    if let Some(JobState::Running { stage, .. }) =
        shared.inner.lock().expect("state").jobs.get_mut(&job_id)
    {
        *stage = stage::FINISH;
    }
    let records = collect_reduce_records(n, spec.k, &sizes, reduce_outputs.values())?;
    let stitched = stitch_distributed(n, spec.k, &sizes, &records);
    let clustering: Clustering = if spec.consolidate {
        consolidate(source.points(), &stitched, spec.k, spec.seed)
    } else {
        stitched
    };
    shared.trace_end(job_id, finish_id);
    shared.trace_end(job_id, job_span_id);
    job_span.finish();

    let (shuffle_records, output_bytes) = map_outputs
        .values()
        .chain(reduce_outputs.values())
        .map(output_volume)
        .fold((0, 0), |(r, b), (r2, b2)| (r + r2, b + b2));
    // Shuffle volume is both directions: task inputs shipped out plus
    // task outputs shipped back. Worker shard *fetches* are deliberately
    // excluded — they are DFS reads in the Hadoop analogy and are
    // accounted under the `dasc_store_*` series instead.
    let shuffle_bytes = output_bytes + stage1_input_bytes + stage2_input_bytes;
    let workers_used: HashSet<u64> = workers1.union(&workers2).copied().collect();
    let task_retries =
        dasc_obs::global().counter_value("dasc_dist_task_retries_total") - retries_before;
    Ok(JobOutcome {
        num_clusters: clustering.num_clusters,
        assignments: clustering.assignments,
        num_buckets: buckets.len(),
        workers_used: workers_used.len() as u64,
        stage1_us,
        stage2_us,
        shuffle_records,
        shuffle_bytes,
        task_retries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_replies_with_a_duplicated_and_a_missing_point_fail_the_merge() {
        // Two replies map 3 points in total, but point 1 twice and point
        // 2 never.
        let replies = [
            TaskOutput::MapSignatures(vec![(0b01, vec![0, 1])]),
            TaskOutput::MapSignatures(vec![(0b10, vec![1])]),
        ];
        let err = merge_map_outputs(3, 2, &replies).expect_err("point 1 twice");
        assert!(err.contains("point 1 reported twice"), "{err}");

        let replies = [
            TaskOutput::MapSignatures(vec![(0b01, vec![0])]),
            TaskOutput::MapSignatures(vec![(0b10, vec![1])]),
        ];
        let err = merge_map_outputs(3, 2, &replies).expect_err("point 2 missing");
        assert!(err.contains("point 2 never reported"), "{err}");

        let replies = [
            TaskOutput::MapSignatures(vec![(0b01, vec![0, 2])]),
            TaskOutput::MapSignatures(vec![(0b10, vec![1])]),
        ];
        let sigs = merge_map_outputs(3, 2, &replies).expect("exact cover");
        let bits: Vec<u64> = sigs.iter().map(Signature::bits).collect();
        assert_eq!(bits, vec![0b01, 0b10, 0b01]);
    }

    #[test]
    fn reduce_replies_with_a_duplicated_and_a_missing_point_fail_the_job() {
        // k = 3 over buckets of 2 and 1 points: K₀ = 2, K₁ = 1.
        let sizes = [2, 1];
        // Three records for three points — the old count check passed
        // this — but point 0 comes back twice and point 2 never.
        let replies = [
            TaskOutput::ReduceBucket(vec![(0, 0, 0), (1, 0, 1)]),
            TaskOutput::ReduceBucket(vec![(0, 1, 0)]),
        ];
        let err = collect_reduce_records(3, 3, &sizes, &replies).expect_err("point 0 twice");
        assert!(err.contains("point 0 reported twice"), "{err}");

        let replies = [
            TaskOutput::ReduceBucket(vec![(0, 0, 0), (1, 0, 1)]),
            TaskOutput::ReduceBucket(vec![(2, 1, 0)]),
        ];
        let records = collect_reduce_records(3, 3, &sizes, &replies).expect("exact cover");
        assert_eq!(records.len(), 3);

        let wrong_stage = [TaskOutput::MapSignatures(Vec::new())];
        assert!(collect_reduce_records(0, 1, &[], &wrong_stage).is_err());
    }

    #[test]
    fn reduce_reply_with_an_out_of_range_cluster_fails_the_job() {
        // Bucket 1 holds one point, so it has one cluster; a reply
        // labelling that point with local cluster 1 must fail the job.
        let replies = [
            TaskOutput::ReduceBucket(vec![(0, 0, 0), (1, 0, 1)]),
            TaskOutput::ReduceBucket(vec![(2, 1, 1)]),
        ];
        let err = collect_reduce_records(3, 3, &[2, 1], &replies).expect_err("cluster 1 of 1");
        assert_eq!(
            err,
            "reduce stage output: point 2 has cluster 1 in bucket 1, which has 1 clusters"
        );
    }
}
