//! The coordinator/worker message protocol.
//!
//! Every message is one `dasc-net` frame: the frame's `msg_type` is the
//! [`MsgType`] discriminant and the payload is the [`Wire`]-encoded
//! body. The scheme is deliberately Hadoop-shaped: workers *pull* tasks
//! ([`RequestTask`](Msg::RequestTask)) the way task trackers ask the
//! job tracker for work on each heartbeat.
//!
//! There is one task kind per stage of the paper's jobflow:
//! [`TaskKind::MapSignatures`] (Algorithm 1) and
//! [`TaskKind::ReduceBucket`] (Algorithm 2 plus the spectral step).
//! Either names its input rows through [`TaskRows`]: inline (the
//! task's own points, in task order), or by store — a job submitted
//! against a packed `.dstr` dataset ships only its [`DatasetManifest`],
//! in the store's own self-hashed encoding, and workers resolve the
//! rows through a local shard cache, fetching misses from the
//! coordinator with [`ShardRequest`](Msg::ShardRequest) (the
//! coordinator plays both job tracker and name node).
//!
//! | tag | message        | direction            |
//! |-----|----------------|----------------------|
//! | 1   | Register       | worker → coordinator |
//! | 2   | RegisterAck    | reply                |
//! | 3   | Heartbeat      | worker → coordinator |
//! | 4   | HeartbeatAck   | reply                |
//! | 5   | RequestTask    | worker → coordinator |
//! | 6   | AssignTask     | reply                |
//! | 7   | NoTask         | reply                |
//! | 8   | TaskDone       | worker → coordinator |
//! | 9   | TaskAck        | reply                |
//! | 10  | SubmitJob      | client → coordinator |
//! | 11  | JobAccepted    | reply                |
//! | 12  | PollJob        | client → coordinator |
//! | 13  | JobPending     | reply                |
//! | 14  | JobResult      | reply                |
//! | 15  | JobError       | reply                |
//! | 16  | MetricsRequest | client → coordinator |
//! | 17  | MetricsReply   | reply                |
//! | 18  | TaskFailed     | worker → coordinator |
//! | 19  | TraceRequest   | client → coordinator |
//! | 20  | TraceReply     | reply                |
//! | 21  | ShardRequest   | worker → coordinator |
//! | 22  | ShardReply     | reply                |
//!
//! Observability rides the same frames: tasks carry a trace context
//! ([`Task::trace_parent`]), completed tasks return their span log
//! inside [`TaskDone`](Msg::TaskDone), and heartbeats piggyback each
//! worker's [`MetricsSnapshot`] for coordinator-side federation.

use dasc_kernel::Kernel;
use dasc_lsh::HashPlane;
use dasc_net::{encode_to_vec, Wire, WireError, WireReader, WireWriter};
use dasc_obs::{HistogramSnapshot, MetricsSnapshot, SpanRecord, HISTOGRAM_BUCKETS};
use dasc_store::format::{decode_manifest, encode_manifest};
use dasc_store::DatasetManifest;

/// Declares [`MsgType`] from one `Name = tag` list, together with the
/// two maps that must agree with it: [`MsgType::from_u16`] and
/// [`Msg::msg_type`] (every [`Msg`] variant travels under the tag of
/// the same name).
macro_rules! msg_types {
    ($($name:ident = $tag:literal,)*) => {
        /// Frame `msg_type` values (see module table).
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u16)]
        pub enum MsgType {
            $($name = $tag,)*
        }

        impl MsgType {
            /// Parse a frame's `msg_type` field.
            pub fn from_u16(v: u16) -> Option<Self> {
                match v {
                    $($tag => Some(MsgType::$name),)*
                    _ => None,
                }
            }
        }

        impl Msg {
            /// The frame tag this message travels under.
            pub fn msg_type(&self) -> MsgType {
                match self {
                    $(Msg::$name { .. } => MsgType::$name,)*
                }
            }
        }
    };
}

msg_types! {
    Register = 1, RegisterAck = 2, Heartbeat = 3, HeartbeatAck = 4,
    RequestTask = 5, AssignTask = 6, NoTask = 7, TaskDone = 8, TaskAck = 9,
    SubmitJob = 10, JobAccepted = 11, PollJob = 12, JobPending = 13,
    JobResult = 14, JobError = 15, MetricsRequest = 16, MetricsReply = 17,
    TaskFailed = 18, TraceRequest = 19, TraceReply = 20, ShardRequest = 21,
    ShardReply = 22,
}

/// One protocol message; [`Msg::msg_type`] names its frame tag.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Worker announces itself; `name` is a human-readable label.
    Register { name: String },
    /// Coordinator's reply: assigned id + heartbeat cadence to honour.
    RegisterAck {
        worker_id: u64,
        heartbeat_interval_ms: u64,
    },
    /// Worker liveness ping (sent on a dedicated connection),
    /// piggybacking the worker's current metrics snapshot for
    /// coordinator-side federation.
    Heartbeat {
        worker_id: u64,
        metrics: MetricsSnapshot,
    },
    /// Heartbeat reply.
    HeartbeatAck,
    /// Worker asks for work (the Hadoop pull model). An id the
    /// coordinator does not know gets a [`JobError`](Msg::JobError),
    /// and the worker registers again.
    RequestTask { worker_id: u64 },
    /// Coordinator hands out one task.
    AssignTask { task: Task },
    /// Nothing to do right now; ask again after `backoff_ms`.
    NoTask { backoff_ms: u64 },
    /// Worker ships a completed task's output plus the span log the
    /// task body recorded under its trace context (empty when the task
    /// carried no [`Task::trace_parent`]). Span timestamps are relative
    /// to the task body's start; the coordinator rebases them onto the
    /// job timeline at assignment time.
    TaskDone {
        worker_id: u64,
        task_id: u64,
        output: TaskOutput,
        spans: Vec<SpanRecord>,
    },
    /// Coordinator acknowledges a result (stale results are acked too).
    TaskAck,
    /// Job client submits a DASC job (points + config inline).
    SubmitJob { spec: JobSpec },
    /// Coordinator accepted the job.
    JobAccepted { job_id: u64 },
    /// Job client polls for completion.
    PollJob { job_id: u64 },
    /// Job still running: which stage, and task progress within it.
    JobPending { stage: u8, done: u64, total: u64 },
    /// Job finished.
    JobResult { outcome: JobOutcome },
    /// Job (or request) failed for good.
    JobError { message: String },
    /// Ask for a Prometheus-text metrics snapshot.
    MetricsRequest,
    /// Metrics snapshot reply.
    MetricsReply { text: String },
    /// Worker reports a task attempt that errored (panicked).
    TaskFailed {
        worker_id: u64,
        task_id: u64,
        error: String,
    },
    /// Ask for a finished job's merged multi-lane trace.
    TraceRequest { job_id: u64 },
    /// The merged Chrome trace-event JSON (coordinator lane + one lane
    /// per worker). Empty string when the job collected no trace.
    TraceReply { json: String },
    /// Worker asks the coordinator (acting as name node) for one raw
    /// shard of a registered dataset, addressed by content hash.
    ShardRequest { dataset: u64, shard: u32 },
    /// The shard's file bytes, verbatim — the requester validates them
    /// against the manifest's per-shard checksum before use, so a
    /// corrupt or substituted reply can never enter a computation.
    ShardReply { bytes: Vec<u8> },
}

/// Largest merged trace JSON the coordinator will put on the wire —
/// the `dasc-net` string cap (`put_str` panics past 1 MiB), minus
/// nothing: a trace at exactly the cap still fits its own frame.
pub const MAX_TRACE_JSON: usize = 1 << 20;

/// Job progress stages reported in [`Msg::JobPending`].
pub mod stage {
    /// Queued, not yet started.
    pub const QUEUED: u8 = 0;
    /// Stage 1: LSH signature map tasks.
    pub const MAP: u8 = 1;
    /// Stage 2: per-bucket spectral reduce tasks.
    pub const REDUCE: u8 = 2;
    /// Stitch + consolidate on the coordinator.
    pub const FINISH: u8 = 3;
}

/// One schedulable unit of work.
#[derive(Clone, Debug, PartialEq)]
pub struct Task {
    /// Owning job.
    pub job_id: u64,
    /// Unique per coordinator lifetime; retries keep the id.
    pub task_id: u64,
    /// Attempt number, starting at 1 (Hadoop counts the same way).
    pub attempt: u32,
    /// Trace context: the coordinator-side span id this task's spans
    /// hang under (the stage span). 0 means the job is not tracing and
    /// the worker should not collect spans for this task.
    pub trace_parent: u64,
    /// What to compute.
    pub kind: TaskKind,
}

/// Task bodies: one per stage.
#[derive(Clone, Debug, PartialEq)]
pub enum TaskKind {
    /// Stage 1 (Algorithm 1): hash the global rows `start..start + len`
    /// with the frozen signature model; emit `(bits, point_index)`
    /// grouped by signature.
    MapSignatures {
        /// The fitted model's hash planes, in bit order.
        planes: Vec<HashPlane>,
        /// First global row of the range.
        start: usize,
        /// Rows in the range.
        len: usize,
        /// The range's rows.
        rows: TaskRows,
    },
    /// Stage 2 (Algorithm 2 + spectral step): cluster one merged
    /// bucket's points into `ki` local clusters.
    ReduceBucket {
        /// Bucket index in the merged bucket set (drives the spectral
        /// seed derivation).
        bucket_id: usize,
        /// Clusters apportioned to this bucket.
        ki: usize,
        /// Kernel for the sub-similarity block.
        kernel: Kernel,
        /// Run seed (bucket seed derives from it).
        seed: u64,
        /// Global point ids, in bucket order.
        members: Vec<usize>,
        /// The members' rows.
        rows: TaskRows,
    },
}

impl TaskKind {
    /// The stage name tasks of this kind are reported under.
    pub(crate) fn stage_name(&self) -> &'static str {
        match self {
            TaskKind::MapSignatures { .. } => "map",
            TaskKind::ReduceBucket { .. } => "reduce",
        }
    }
}

/// Where a task's input rows come from.
#[derive(Clone, Debug, PartialEq)]
pub enum TaskRows {
    /// The task's own rows, in task order: the coordinator is the data
    /// node.
    Inline(Vec<Vec<f64>>),
    /// Rows of a packed `.dstr` dataset, named by global id; only the
    /// shard table travels, and the worker resolves the rows from its
    /// shard cache.
    Store(DatasetManifest),
}

/// What a completed task ships back.
#[derive(Clone, Debug, PartialEq)]
pub enum TaskOutput {
    /// Stage 1 shuffle output: `(signature bits, member point ids)`.
    MapSignatures(Vec<(u64, Vec<usize>)>),
    /// Stage 2 output: `(point, bucket_id, local cluster)` triples.
    ReduceBucket(Vec<(usize, usize, usize)>),
}

/// How a job names its dataset.
#[derive(Clone, Debug, PartialEq)]
pub enum JobData {
    /// Points travel inside the submission frame (the original scheme;
    /// simple, but every task re-ships its slice of them).
    Inline { points: Vec<Vec<f64>> },
    /// The dataset is a packed `.dstr` store on the coordinator's
    /// filesystem. Only the path and the expected identity hash travel;
    /// the coordinator opens and verifies the store, then serves shards
    /// to workers on demand.
    Ref { path: String, content_hash: u64 },
}

/// A submitted DASC job: the dataset plus exactly the knobs the CLI
/// derives a `DascConfig` from, so the coordinator reconstructs the
/// identical configuration a single-process run would use.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// The dataset, inline or by store reference.
    pub data: JobData,
    /// Total clusters K.
    pub k: usize,
    /// Kernel.
    pub kernel: Kernel,
    /// Explicit signature width; 0 means the paper's `for_dataset`
    /// default `M = ⌈log₂N⌉/2 − 1`.
    pub num_bits: usize,
    /// Run seed.
    pub seed: u64,
    /// Consolidate fragments down to K clusters.
    pub consolidate: bool,
    /// Collect a merged multi-lane trace for this job, retrievable via
    /// [`Msg::TraceRequest`] once the job finishes.
    pub collect_trace: bool,
}

/// A finished job's result plus run accounting for benches.
#[derive(Clone, Debug, PartialEq)]
pub struct JobOutcome {
    /// Final cluster id per point.
    pub assignments: Vec<usize>,
    /// Number of clusters referenced.
    pub num_clusters: usize,
    /// Merged buckets formed between the stages.
    pub num_buckets: usize,
    /// Distinct workers that completed at least one task.
    pub workers_used: u64,
    /// Stage 1 wall time, microseconds.
    pub stage1_us: u64,
    /// Stage 2 wall time, microseconds.
    pub stage2_us: u64,
    /// Shuffle records shipped worker → coordinator.
    pub shuffle_records: u64,
    /// Payload bytes shipped worker → coordinator in task outputs.
    pub shuffle_bytes: u64,
    /// Task retries the job survived.
    pub task_retries: u64,
}

fn encode_kernel(k: &Kernel, w: &mut WireWriter) {
    match *k {
        Kernel::Gaussian { sigma } => {
            w.put_u8(0);
            w.put_f64(sigma);
        }
        Kernel::Linear => w.put_u8(1),
        Kernel::Polynomial { degree, c } => {
            w.put_u8(2);
            w.put_u32(degree);
            w.put_f64(c);
        }
        Kernel::Laplacian { gamma } => {
            w.put_u8(3);
            w.put_f64(gamma);
        }
    }
}

fn decode_kernel(r: &mut WireReader<'_>) -> Result<Kernel, WireError> {
    Ok(match r.u8()? {
        0 => Kernel::Gaussian { sigma: r.f64()? },
        1 => Kernel::Linear,
        2 => Kernel::Polynomial {
            degree: r.u32()?,
            c: r.f64()?,
        },
        3 => Kernel::Laplacian { gamma: r.f64()? },
        _ => return Err(WireError::Invalid("kernel tag")),
    })
}

/// Newtype to give [`SpanRecord`] a wire form without dasc-obs
/// depending on dasc-net (obs stays std-only by design).
struct WireSpan(SpanRecord);

impl Wire for WireSpan {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.0.id);
        match self.0.parent {
            Some(p) => {
                w.put_bool(true);
                w.put_u64(p);
            }
            None => w.put_bool(false),
        }
        w.put_str(&self.0.name);
        w.put_u64(self.0.thread);
        w.put_u64(self.0.start_us);
        w.put_u64(self.0.dur_us);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let id = r.u64()?;
        let parent = if r.bool()? { Some(r.u64()?) } else { None };
        Ok(WireSpan(SpanRecord {
            id,
            parent,
            name: r.str()?,
            thread: r.u64()?,
            start_us: r.u64()?,
            dur_us: r.u64()?,
        }))
    }
}

fn encode_spans(spans: &[SpanRecord], w: &mut WireWriter) {
    spans
        .iter()
        .map(|s| WireSpan(s.clone()))
        .collect::<Vec<_>>()
        .encode(w);
}

fn decode_spans(r: &mut WireReader<'_>) -> Result<Vec<SpanRecord>, WireError> {
    Ok(Vec::<WireSpan>::decode(r)?
        .into_iter()
        .map(|s| s.0)
        .collect())
}

/// Wire form of a [`MetricsSnapshot`]. Histogram buckets ship sparsely
/// (`(index, count)` pairs) — most of the 40 log₂ buckets are empty.
/// Gauges are `i64`, bit-cast through `u64` (the wire layer is
/// little-endian two's-complement either way).
fn encode_metrics(m: &MetricsSnapshot, w: &mut WireWriter) {
    w.put_u32(m.counters.len() as u32);
    for (name, v) in &m.counters {
        w.put_str(name);
        w.put_u64(*v);
    }
    w.put_u32(m.gauges.len() as u32);
    for (name, v) in &m.gauges {
        w.put_str(name);
        w.put_u64(*v as u64);
    }
    w.put_u32(m.histograms.len() as u32);
    for (name, h) in &m.histograms {
        w.put_str(name);
        w.put_u64(h.count);
        w.put_u64(h.sum);
        let filled: Vec<(u8, u64)> = h
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u8, c))
            .collect();
        w.put_u32(filled.len() as u32);
        for (i, c) in filled {
            w.put_u8(i);
            w.put_u64(c);
        }
    }
}

fn decode_metrics(r: &mut WireReader<'_>) -> Result<MetricsSnapshot, WireError> {
    let mut m = MetricsSnapshot::default();
    for _ in 0..r.seq_len()? {
        let name = r.str()?;
        m.counters.insert(name, r.u64()?);
    }
    for _ in 0..r.seq_len()? {
        let name = r.str()?;
        m.gauges.insert(name, r.u64()? as i64);
    }
    for _ in 0..r.seq_len()? {
        let name = r.str()?;
        let count = r.u64()?;
        let sum = r.u64()?;
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for _ in 0..r.seq_len()? {
            let i = r.u8()? as usize;
            if i >= HISTOGRAM_BUCKETS {
                return Err(WireError::Invalid("histogram bucket index"));
            }
            buckets[i] = r.u64()?;
        }
        m.histograms.insert(
            name,
            HistogramSnapshot {
                count,
                sum,
                buckets,
            },
        );
    }
    Ok(m)
}

/// Newtype to give [`HashPlane`] a wire form without dasc-lsh depending
/// on dasc-net.
struct WirePlane(HashPlane);

impl Wire for WirePlane {
    fn encode(&self, w: &mut WireWriter) {
        w.put_usize(self.0.dimension);
        w.put_f64(self.0.threshold);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(WirePlane(HashPlane {
            dimension: r.usize()?,
            threshold: r.f64()?,
        }))
    }
}

fn encode_rows(rows: &TaskRows, w: &mut WireWriter) {
    match rows {
        TaskRows::Inline(points) => {
            w.put_u8(0);
            points.encode(w);
        }
        TaskRows::Store(m) => {
            w.put_u8(1);
            let (bytes, hash) = encode_manifest(m.n, m.dim, m.has_labels, m.shard_rows, &m.shards);
            debug_assert_eq!(hash, m.content_hash, "manifest hash is stale");
            w.put_blob(&bytes);
        }
    }
}

/// Decode the rows of a task that names `count` rows, every global id
/// below `end`. Inline rows must number `count` and share one
/// dimension; a store manifest must pass `decode_manifest` and hold
/// every named row.
fn decode_rows(r: &mut WireReader<'_>, count: usize, end: usize) -> Result<TaskRows, WireError> {
    match r.u8()? {
        0 => {
            let points: Vec<Vec<f64>> = Vec::decode(r)?;
            if points.len() != count {
                return Err(WireError::Invalid("inline row count"));
            }
            if points.iter().any(|p| p.len() != points[0].len()) {
                return Err(WireError::Invalid("ragged inline rows"));
            }
            Ok(TaskRows::Inline(points))
        }
        1 => {
            let manifest =
                decode_manifest(&r.blob()?).map_err(|_| WireError::Invalid("task manifest"))?;
            if end as u64 > manifest.n {
                return Err(WireError::Invalid("task row outside the dataset"));
            }
            Ok(TaskRows::Store(manifest))
        }
        _ => Err(WireError::Invalid("task rows tag")),
    }
}

impl Wire for TaskKind {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            TaskKind::MapSignatures {
                planes,
                start,
                len,
                rows,
            } => {
                w.put_u8(0);
                planes
                    .iter()
                    .map(|&p| WirePlane(p))
                    .collect::<Vec<_>>()
                    .encode(w);
                w.put_usize(*start);
                w.put_usize(*len);
                encode_rows(rows, w);
            }
            TaskKind::ReduceBucket {
                bucket_id,
                ki,
                kernel,
                seed,
                members,
                rows,
            } => {
                w.put_u8(1);
                w.put_usize(*bucket_id);
                w.put_usize(*ki);
                encode_kernel(kernel, w);
                w.put_u64(*seed);
                members.encode(w);
                encode_rows(rows, w);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => {
                let planes = Vec::<WirePlane>::decode(r)?
                    .into_iter()
                    .map(|p| p.0)
                    .collect();
                let start = r.usize()?;
                let len = r.usize()?;
                let end = start
                    .checked_add(len)
                    .ok_or(WireError::Invalid("usize overflow"))?;
                TaskKind::MapSignatures {
                    planes,
                    start,
                    len,
                    rows: decode_rows(r, len, end)?,
                }
            }
            1 => {
                let bucket_id = r.usize()?;
                let ki = r.usize()?;
                let kernel = decode_kernel(r)?;
                let seed = r.u64()?;
                let members: Vec<usize> = Vec::decode(r)?;
                let end = members.iter().max().map_or(0, |&m| m.saturating_add(1));
                TaskKind::ReduceBucket {
                    bucket_id,
                    ki,
                    kernel,
                    seed,
                    rows: decode_rows(r, members.len(), end)?,
                    members,
                }
            }
            _ => return Err(WireError::Invalid("task kind tag")),
        })
    }
}

/// Wire bytes of a task body: the encoded length of `kind` (counted
/// once per task at build time; a retried task re-ships but isn't
/// re-counted). Inline tasks carry their points; store tasks carry only
/// the hash planes or member ids plus a manifest — the gap between the
/// two is the shuffle saving the dataset store buys, and it is what
/// `JobOutcome::shuffle_bytes` measures alongside the output volume.
pub(crate) fn task_input_volume(kind: &TaskKind) -> u64 {
    encode_to_vec(kind).len() as u64
}

impl Wire for Task {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.job_id);
        w.put_u64(self.task_id);
        w.put_u32(self.attempt);
        w.put_u64(self.trace_parent);
        self.kind.encode(w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Task {
            job_id: r.u64()?,
            task_id: r.u64()?,
            attempt: r.u32()?,
            trace_parent: r.u64()?,
            kind: TaskKind::decode(r)?,
        })
    }
}

impl Wire for TaskOutput {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            TaskOutput::MapSignatures(groups) => {
                w.put_u8(0);
                groups.encode(w);
            }
            TaskOutput::ReduceBucket(records) => {
                w.put_u8(1);
                records.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => TaskOutput::MapSignatures(Vec::decode(r)?),
            1 => TaskOutput::ReduceBucket(Vec::decode(r)?),
            _ => return Err(WireError::Invalid("task output tag")),
        })
    }
}

impl Wire for JobData {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            JobData::Inline { points } => {
                w.put_u8(0);
                points.encode(w);
            }
            JobData::Ref { path, content_hash } => {
                w.put_u8(1);
                w.put_str(path);
                w.put_u64(*content_hash);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => JobData::Inline {
                points: Vec::decode(r)?,
            },
            1 => JobData::Ref {
                path: r.str()?,
                content_hash: r.u64()?,
            },
            _ => return Err(WireError::Invalid("job data tag")),
        })
    }
}

impl Wire for JobSpec {
    fn encode(&self, w: &mut WireWriter) {
        self.data.encode(w);
        w.put_usize(self.k);
        encode_kernel(&self.kernel, w);
        w.put_usize(self.num_bits);
        w.put_u64(self.seed);
        w.put_bool(self.consolidate);
        w.put_bool(self.collect_trace);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(JobSpec {
            data: JobData::decode(r)?,
            k: r.usize()?,
            kernel: decode_kernel(r)?,
            num_bits: r.usize()?,
            seed: r.u64()?,
            consolidate: r.bool()?,
            collect_trace: r.bool()?,
        })
    }
}

impl Wire for JobOutcome {
    fn encode(&self, w: &mut WireWriter) {
        self.assignments.encode(w);
        w.put_usize(self.num_clusters);
        w.put_usize(self.num_buckets);
        w.put_u64(self.workers_used);
        w.put_u64(self.stage1_us);
        w.put_u64(self.stage2_us);
        w.put_u64(self.shuffle_records);
        w.put_u64(self.shuffle_bytes);
        w.put_u64(self.task_retries);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(JobOutcome {
            assignments: Vec::decode(r)?,
            num_clusters: r.usize()?,
            num_buckets: r.usize()?,
            workers_used: r.u64()?,
            stage1_us: r.u64()?,
            stage2_us: r.u64()?,
            shuffle_records: r.u64()?,
            shuffle_bytes: r.u64()?,
            task_retries: r.u64()?,
        })
    }
}

impl Msg {
    /// Encode the body (frame payload, without the frame header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            Msg::Register { name } => w.put_str(name),
            Msg::RegisterAck {
                worker_id,
                heartbeat_interval_ms,
            } => {
                w.put_u64(*worker_id);
                w.put_u64(*heartbeat_interval_ms);
            }
            Msg::Heartbeat { worker_id, metrics } => {
                w.put_u64(*worker_id);
                encode_metrics(metrics, &mut w);
            }
            Msg::HeartbeatAck | Msg::TaskAck | Msg::MetricsRequest => {}
            Msg::RequestTask { worker_id } => w.put_u64(*worker_id),
            Msg::AssignTask { task } => task.encode(&mut w),
            Msg::NoTask { backoff_ms } => w.put_u64(*backoff_ms),
            Msg::TaskDone {
                worker_id,
                task_id,
                output,
                spans,
            } => {
                w.put_u64(*worker_id);
                w.put_u64(*task_id);
                output.encode(&mut w);
                encode_spans(spans, &mut w);
            }
            Msg::SubmitJob { spec } => spec.encode(&mut w),
            Msg::JobAccepted { job_id } => w.put_u64(*job_id),
            Msg::PollJob { job_id } => w.put_u64(*job_id),
            Msg::JobPending { stage, done, total } => {
                w.put_u8(*stage);
                w.put_u64(*done);
                w.put_u64(*total);
            }
            Msg::JobResult { outcome } => outcome.encode(&mut w),
            Msg::JobError { message } => w.put_str(message),
            Msg::MetricsReply { text } => w.put_str(text),
            Msg::TaskFailed {
                worker_id,
                task_id,
                error,
            } => {
                w.put_u64(*worker_id);
                w.put_u64(*task_id);
                w.put_str(error);
            }
            Msg::TraceRequest { job_id } => w.put_u64(*job_id),
            Msg::TraceReply { json } => w.put_str(json),
            Msg::ShardRequest { dataset, shard } => {
                w.put_u64(*dataset);
                w.put_u32(*shard);
            }
            Msg::ShardReply { bytes } => w.put_blob(bytes),
        }
        w.into_vec()
    }

    /// Decode a frame back into a message. Rejects unknown tags,
    /// malformed bodies, and trailing bytes.
    pub fn decode_frame(msg_type: u16, payload: &[u8]) -> Result<Msg, WireError> {
        let tag = MsgType::from_u16(msg_type).ok_or(WireError::Invalid("unknown msg_type"))?;
        let mut r = WireReader::new(payload);
        let msg = match tag {
            MsgType::Register => Msg::Register { name: r.str()? },
            MsgType::RegisterAck => Msg::RegisterAck {
                worker_id: r.u64()?,
                heartbeat_interval_ms: r.u64()?,
            },
            MsgType::Heartbeat => Msg::Heartbeat {
                worker_id: r.u64()?,
                metrics: decode_metrics(&mut r)?,
            },
            MsgType::HeartbeatAck => Msg::HeartbeatAck,
            MsgType::RequestTask => Msg::RequestTask {
                worker_id: r.u64()?,
            },
            MsgType::AssignTask => Msg::AssignTask {
                task: Task::decode(&mut r)?,
            },
            MsgType::NoTask => Msg::NoTask {
                backoff_ms: r.u64()?,
            },
            MsgType::TaskDone => Msg::TaskDone {
                worker_id: r.u64()?,
                task_id: r.u64()?,
                output: TaskOutput::decode(&mut r)?,
                spans: decode_spans(&mut r)?,
            },
            MsgType::TaskAck => Msg::TaskAck,
            MsgType::SubmitJob => Msg::SubmitJob {
                spec: JobSpec::decode(&mut r)?,
            },
            MsgType::JobAccepted => Msg::JobAccepted { job_id: r.u64()? },
            MsgType::PollJob => Msg::PollJob { job_id: r.u64()? },
            MsgType::JobPending => Msg::JobPending {
                stage: r.u8()?,
                done: r.u64()?,
                total: r.u64()?,
            },
            MsgType::JobResult => Msg::JobResult {
                outcome: JobOutcome::decode(&mut r)?,
            },
            MsgType::JobError => Msg::JobError { message: r.str()? },
            MsgType::MetricsRequest => Msg::MetricsRequest,
            MsgType::MetricsReply => Msg::MetricsReply { text: r.str()? },
            MsgType::TaskFailed => Msg::TaskFailed {
                worker_id: r.u64()?,
                task_id: r.u64()?,
                error: r.str()?,
            },
            MsgType::TraceRequest => Msg::TraceRequest { job_id: r.u64()? },
            MsgType::TraceReply => Msg::TraceReply { json: r.str()? },
            MsgType::ShardRequest => Msg::ShardRequest {
                dataset: r.u64()?,
                shard: r.u32()?,
            },
            MsgType::ShardReply => Msg::ShardReply { bytes: r.blob()? },
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasc_store::format::shard_byte_len;
    use dasc_store::ShardMeta;

    /// A valid manifest: 10 labeled rows of dimension 2 in shards of 4.
    fn manifest() -> DatasetManifest {
        let shards: Vec<ShardMeta> = [4, 4, 2]
            .into_iter()
            .map(|rows| ShardMeta {
                rows,
                byte_len: shard_byte_len(rows, 2, true),
                checksum: rows * 11,
            })
            .collect();
        decode_manifest(&encode_manifest(10, 2, true, 4, &shards).0).expect("valid manifest")
    }

    /// One task per stage and row form: map inline, reduce inline, map
    /// by store, reduce by store.
    fn sample_tasks() -> [Task; 4] {
        let map = |rows| TaskKind::MapSignatures {
            planes: vec![
                HashPlane {
                    dimension: 1,
                    threshold: 0.5,
                },
                HashPlane {
                    dimension: 0,
                    threshold: -1.25,
                },
            ],
            start: 4,
            len: 2,
            rows,
        };
        let reduce = |rows| TaskKind::ReduceBucket {
            bucket_id: 7,
            ki: 2,
            kernel: Kernel::Gaussian { sigma: 0.5 },
            seed: 0xDA5C,
            members: vec![3, 9],
            rows,
        };
        let inline = || TaskRows::Inline(vec![vec![0.25, 1.0], vec![-2.0, 0.0]]);
        let store = || TaskRows::Store(manifest());
        [
            map(inline()),
            reduce(inline()),
            map(store()),
            reduce(store()),
        ]
        .map(|kind| Task {
            job_id: 1,
            task_id: 42,
            attempt: 2,
            trace_parent: 3,
            kind,
        })
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn roundtrip(msg: Msg) {
        let payload = msg.encode_payload();
        let back = Msg::decode_frame(msg.msg_type() as u16, &payload).expect("decode");
        assert_eq!(back, msg);
    }

    #[test]
    fn every_message_variant_roundtrips() {
        let [map_task, reduce_task, map_ref_task, reduce_ref_task] = sample_tasks();
        let mut worker_metrics = MetricsSnapshot::default();
        worker_metrics
            .counters
            .insert("dasc_dist_tasks_completed_total".into(), 4);
        worker_metrics.gauges.insert("depth".into(), -3);
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        buckets[3] = 2;
        buckets[HISTOGRAM_BUCKETS - 1] = 1;
        worker_metrics.histograms.insert(
            "dasc_dist_task_duration_us{stage=\"map\"}".into(),
            HistogramSnapshot {
                count: 3,
                sum: 42,
                buckets,
            },
        );
        for msg in [
            Msg::Register { name: "w-1".into() },
            Msg::RegisterAck {
                worker_id: 9,
                heartbeat_interval_ms: 500,
            },
            Msg::Heartbeat {
                worker_id: 9,
                metrics: MetricsSnapshot::default(),
            },
            Msg::Heartbeat {
                worker_id: 9,
                metrics: worker_metrics,
            },
            Msg::HeartbeatAck,
            Msg::RequestTask { worker_id: 9 },
            Msg::AssignTask { task: map_task },
            Msg::AssignTask { task: reduce_task },
            Msg::AssignTask { task: map_ref_task },
            Msg::AssignTask {
                task: reduce_ref_task,
            },
            Msg::NoTask { backoff_ms: 250 },
            Msg::TaskDone {
                worker_id: 9,
                task_id: 42,
                output: TaskOutput::MapSignatures(vec![(0b1010, vec![128, 130]), (0, vec![129])]),
                spans: vec![
                    SpanRecord {
                        id: 1,
                        parent: None,
                        name: "dist.task.map".into(),
                        thread: 2,
                        start_us: 0,
                        dur_us: 1500,
                    },
                    SpanRecord {
                        id: 2,
                        parent: Some(1),
                        name: "dist.task.map.hash".into(),
                        thread: 2,
                        start_us: 10,
                        dur_us: 1400,
                    },
                ],
            },
            Msg::TaskDone {
                worker_id: 9,
                task_id: 43,
                output: TaskOutput::ReduceBucket(vec![(5, 7, 0), (9, 7, 1), (11, 7, 0)]),
                spans: vec![],
            },
            Msg::TaskAck,
            Msg::SubmitJob {
                spec: JobSpec {
                    data: JobData::Inline {
                        points: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
                    },
                    k: 2,
                    kernel: Kernel::Laplacian { gamma: 1.5 },
                    num_bits: 0,
                    seed: 0xDA5C,
                    consolidate: true,
                    collect_trace: true,
                },
            },
            Msg::SubmitJob {
                spec: JobSpec {
                    data: JobData::Ref {
                        path: "/data/wiki.dstr".into(),
                        content_hash: 0xFEED_BEEF,
                    },
                    k: 2,
                    kernel: Kernel::Gaussian { sigma: 0.2 },
                    num_bits: 5,
                    seed: 0xDA5C,
                    consolidate: true,
                    collect_trace: false,
                },
            },
            Msg::ShardRequest {
                dataset: 0xFEED_BEEF,
                shard: 2,
            },
            Msg::ShardReply {
                bytes: vec![0xD5, 0x48, 0x44, 0x00, 1, 2, 3],
            },
            Msg::ShardReply { bytes: vec![] },
            Msg::JobAccepted { job_id: 3 },
            Msg::PollJob { job_id: 3 },
            Msg::JobPending {
                stage: stage::MAP,
                done: 2,
                total: 8,
            },
            Msg::JobResult {
                outcome: JobOutcome {
                    assignments: vec![0, 1, 1, 0],
                    num_clusters: 2,
                    num_buckets: 3,
                    workers_used: 2,
                    stage1_us: 1000,
                    stage2_us: 2000,
                    shuffle_records: 4,
                    shuffle_bytes: 96,
                    task_retries: 1,
                },
            },
            Msg::JobError {
                message: "task 42 exhausted 4 attempts".into(),
            },
            Msg::MetricsRequest,
            Msg::MetricsReply {
                text: "# TYPE dasc_dist_rpcs_total counter\n".into(),
            },
            Msg::TaskFailed {
                worker_id: 9,
                task_id: 42,
                error: "panic: boom".into(),
            },
            Msg::TraceRequest { job_id: 3 },
            Msg::TraceReply {
                json: "[\n{\"name\":\"process_name\"}\n]\n".into(),
            },
        ] {
            roundtrip(msg);
        }
    }

    #[test]
    fn all_kernels_roundtrip() {
        for kernel in [
            Kernel::Gaussian { sigma: 0.7 },
            Kernel::Linear,
            Kernel::Polynomial { degree: 3, c: 1.0 },
            Kernel::Laplacian { gamma: 0.3 },
        ] {
            roundtrip(Msg::SubmitJob {
                spec: JobSpec {
                    data: JobData::Inline {
                        points: vec![vec![0.5]],
                    },
                    k: 1,
                    kernel,
                    num_bits: 3,
                    seed: 1,
                    consolidate: false,
                    collect_trace: false,
                },
            });
        }
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_rejected() {
        assert_eq!(
            Msg::decode_frame(999, &[]),
            Err(WireError::Invalid("unknown msg_type"))
        );
        let mut payload = Msg::PollJob { job_id: 1 }.encode_payload();
        payload.push(7);
        assert_eq!(
            Msg::decode_frame(MsgType::PollJob as u16, &payload),
            Err(WireError::Trailing(1))
        );
    }

    #[test]
    fn heartbeat_with_out_of_range_bucket_index_rejected() {
        let mut w = WireWriter::new();
        w.put_u64(9); // worker_id
        w.put_u32(0); // counters
        w.put_u32(0); // gauges
        w.put_u32(1); // one histogram
        w.put_str("lat");
        w.put_u64(1); // count
        w.put_u64(5); // sum
        w.put_u32(1); // one filled bucket...
        w.put_u8(HISTOGRAM_BUCKETS as u8); // ...one past the last index
        w.put_u64(1);
        assert_eq!(
            Msg::decode_frame(MsgType::Heartbeat as u16, &w.into_vec()),
            Err(WireError::Invalid("histogram bucket index"))
        );
    }

    #[test]
    fn truncated_bodies_rejected() {
        let payload = Msg::RegisterAck {
            worker_id: 1,
            heartbeat_interval_ms: 500,
        }
        .encode_payload();
        for cut in 0..payload.len() {
            assert!(
                Msg::decode_frame(MsgType::RegisterAck as u16, &payload[..cut]).is_err(),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn assign_task_payloads_match_golden_bytes() {
        // Header (job 1, task 42, attempt 2, trace parent 3), then the
        // kind tag, the stage's fields, the rows tag and the rows.
        const HEADER: &str = "01000000000000002a00000000000000020000000300000000000000";
        const MAP: &str = "00 02000000 0100000000000000 000000000000e03f \
                           0000000000000000 000000000000f4bf \
                           0400000000000000 0200000000000000";
        const REDUCE: &str = "01 0700000000000000 0200000000000000 00 000000000000e03f \
                              5cda000000000000 02000000 0300000000000000 0900000000000000";
        const INLINE_ROWS: &str = "00 02000000 \
                                   02000000 000000000000d03f 000000000000f03f \
                                   02000000 00000000000000c0 0000000000000000";
        // A 116-byte blob: the manifest file of `manifest()`.
        const STORE_ROWS: &str = "01 74000000 44535452 0100 0100 0a00000000000000 \
                                  0200000000000000 0400000000000000 03000000 \
                                  0400000000000000 a800000000000000 2c00000000000000 \
                                  0400000000000000 a800000000000000 2c00000000000000 \
                                  0200000000000000 7800000000000000 1600000000000000 \
                                  81a47ea85c78480e";
        let golden = [
            format!("{HEADER}{MAP}{INLINE_ROWS}"),
            format!("{HEADER}{REDUCE}{INLINE_ROWS}"),
            format!("{HEADER}{MAP}{STORE_ROWS}"),
            format!("{HEADER}{REDUCE}{STORE_ROWS}"),
        ];
        for (task, want) in sample_tasks().into_iter().zip(golden) {
            let got = hex(&Msg::AssignTask { task }.encode_payload());
            assert_eq!(got, want.replace(' ', ""));
        }
    }

    #[test]
    fn task_with_a_bad_manifest_is_a_typed_decode_error() {
        let [_, _, map_ref_task, _] = sample_tasks();
        let payload = Msg::AssignTask { task: map_ref_task }.encode_payload();
        // Flip one bit of the manifest's `n` field: the blob still
        // frames correctly, but its content hash no longer matches.
        let manifest_at = payload.len() - (44 + 24 * 3);
        let mut corrupt = payload.clone();
        corrupt[manifest_at + 8] ^= 1;
        assert_eq!(
            Msg::decode_frame(MsgType::AssignTask as u16, &corrupt),
            Err(WireError::Invalid("task manifest"))
        );
    }

    #[test]
    fn task_rows_must_match_the_named_rows() {
        let [map_task, reduce_task, map_ref_task, _] = sample_tasks();
        let mutate = |mut task: Task, f: fn(&mut TaskKind)| {
            f(&mut task.kind);
            Msg::decode_frame(
                MsgType::AssignTask as u16,
                &Msg::AssignTask { task }.encode_payload(),
            )
        };
        let short_map = mutate(map_task, |k| {
            if let TaskKind::MapSignatures { len, .. } = k {
                *len = 3;
            }
        });
        assert_eq!(short_map, Err(WireError::Invalid("inline row count")));
        let short_reduce = mutate(reduce_task.clone(), |k| {
            if let TaskKind::ReduceBucket { members, .. } = k {
                members.push(11);
            }
        });
        assert_eq!(short_reduce, Err(WireError::Invalid("inline row count")));
        let ragged = mutate(reduce_task.clone(), |k| {
            if let TaskKind::ReduceBucket {
                rows: TaskRows::Inline(points),
                ..
            } = k
            {
                points[1].push(1.0);
            }
        });
        assert_eq!(ragged, Err(WireError::Invalid("ragged inline rows")));
        // The manifest holds rows 0..10, so rows 4..11 run off its end.
        let past_end = mutate(map_ref_task, |k| {
            if let TaskKind::MapSignatures { len, .. } = k {
                *len = 7;
            }
        });
        assert_eq!(
            past_end,
            Err(WireError::Invalid("task row outside the dataset"))
        );
    }
}
