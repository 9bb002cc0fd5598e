//! Property tests for the protocol bodies: every message type
//! round-trips through its wire form with arbitrary contents, and the
//! decoder rejects truncated or trailing-garbage payloads without
//! panicking — whatever the message.

use dasc_dist::{JobData, JobOutcome, JobSpec, Msg, Task, TaskKind, TaskOutput, TaskRows};
use dasc_kernel::Kernel;
use dasc_lsh::HashPlane;
use dasc_obs::{HistogramSnapshot, MetricsSnapshot, SpanRecord, HISTOGRAM_BUCKETS};
use dasc_store::format::{decode_manifest, encode_manifest, shard_byte_len};
use dasc_store::ShardMeta;
use proptest::prelude::*;

/// An arbitrary-but-valid metrics snapshot derived from the scalar
/// pool: counters/gauges keyed off the name, one histogram with counts
/// scattered over valid bucket indices.
fn snapshot_from(name: &str, ids: (u64, u64, u64)) -> MetricsSnapshot {
    let (a, b, c) = ids;
    let mut snap = MetricsSnapshot::default();
    snap.counters.insert(format!("{name}_total"), a);
    snap.gauges.insert(format!("{name}_depth"), b as i64);
    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
    buckets[(a % HISTOGRAM_BUCKETS as u64) as usize] = b % 1000 + 1;
    buckets[(c % HISTOGRAM_BUCKETS as u64) as usize] += 1;
    snap.histograms.insert(
        format!("{name}_us"),
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum: a.wrapping_add(c),
            buckets,
        },
    );
    snap
}

/// An arbitrary span log: ids 1..=n, each span parented on the
/// previous one except the root, timestamps derived from `members`.
fn spans_from(members: &[usize]) -> Vec<SpanRecord> {
    members
        .iter()
        .take(6)
        .enumerate()
        .map(|(i, &m)| SpanRecord {
            id: i as u64 + 1,
            parent: (i > 0).then_some(i as u64),
            name: format!("span{i}"),
            thread: m as u64 % 4,
            start_us: m as u64,
            dur_us: m as u64 % 512,
        })
        .collect()
}

fn kernel_from(seed: u64, a: f64, b: f64) -> Kernel {
    match seed % 4 {
        0 => Kernel::Gaussian {
            sigma: a.abs() + 0.01,
        },
        1 => Kernel::Linear,
        2 => Kernel::Polynomial {
            degree: (seed % 5) as u32 + 1,
            c: b,
        },
        _ => Kernel::Laplacian {
            gamma: a.abs() + 0.01,
        },
    }
}

/// Build one of every message variant from a small pool of arbitrary
/// scalars/vectors, so the whole protocol surface is exercised per
/// case.
#[allow(clippy::too_many_arguments)]
fn all_messages(
    ids: (u64, u64, u64),
    name: String,
    points: Vec<Vec<f64>>,
    members: Vec<usize>,
    groups: Vec<(u64, Vec<usize>)>,
    records: Vec<(usize, usize, usize)>,
    planes: Vec<(usize, f64)>,
    kernel: Kernel,
) -> Vec<Msg> {
    let (a, b, c) = ids;
    let planes: Vec<HashPlane> = planes
        .into_iter()
        .map(|(dimension, threshold)| HashPlane {
            dimension,
            threshold,
        })
        .collect();
    // Task rows share one dimension (task decoding checks it).
    let row_dim = points.iter().map(Vec::len).min().unwrap_or(0);
    let rows: Vec<Vec<f64>> = points.iter().map(|p| p[..row_dim].to_vec()).collect();
    let map_task = Task {
        job_id: a,
        task_id: b,
        attempt: (c % 8) as u32 + 1,
        trace_parent: c,
        kind: TaskKind::MapSignatures {
            planes,
            start: c as usize % 1024,
            len: rows.len(),
            rows: TaskRows::Inline(rows.clone()),
        },
    };
    let reduce_members: Vec<usize> = members.iter().copied().take(rows.len()).collect();
    let reduce_task = Task {
        job_id: a,
        task_id: b.wrapping_add(1),
        attempt: 1,
        trace_parent: a % 2,
        kind: TaskKind::ReduceBucket {
            bucket_id: a as usize % 64,
            ki: b as usize % 16 + 1,
            kernel,
            seed: c,
            rows: TaskRows::Inline(rows[..reduce_members.len()].to_vec()),
            members: reduce_members,
        },
    };
    // A valid manifest shaped from the same scalar pool (task decoding
    // checks it): shard count, shard size, dimension and labels vary
    // per case, and the dataset holds every member row.
    let dim = a % 64 + 1;
    let has_labels = c & 1 == 0;
    let shard_rows = b % 4096 + 1;
    let n = members.iter().max().map_or(0, |&m| m as u64 + 1) + c % 5_000;
    let shards: Vec<ShardMeta> = (0..n.div_ceil(shard_rows))
        .map(|s| {
            let rows = shard_rows.min(n - s * shard_rows);
            ShardMeta {
                rows,
                byte_len: shard_byte_len(rows, dim, has_labels),
                checksum: rows.wrapping_mul(c),
            }
        })
        .collect();
    let manifest = decode_manifest(&encode_manifest(n, dim, has_labels, shard_rows, &shards).0)
        .expect("valid manifest");
    let len = (b % 1024).min(n);
    let map_ref_task = Task {
        job_id: a,
        task_id: b.wrapping_add(2),
        attempt: 1,
        trace_parent: c % 2,
        kind: TaskKind::MapSignatures {
            planes: vec![HashPlane {
                dimension: a as usize % 8,
                threshold: 0.5,
            }],
            start: (a % (n - len + 1)) as usize,
            len: len as usize,
            rows: TaskRows::Store(manifest.clone()),
        },
    };
    let reduce_ref_task = Task {
        job_id: a,
        task_id: b.wrapping_add(3),
        attempt: (a % 4) as u32 + 1,
        trace_parent: 0,
        kind: TaskKind::ReduceBucket {
            bucket_id: c as usize % 64,
            ki: a as usize % 16 + 1,
            kernel,
            seed: c,
            members: members.clone(),
            rows: TaskRows::Store(manifest),
        },
    };
    vec![
        Msg::Register { name: name.clone() },
        Msg::RegisterAck {
            worker_id: a,
            heartbeat_interval_ms: b,
        },
        Msg::Heartbeat {
            worker_id: a,
            metrics: MetricsSnapshot::default(),
        },
        Msg::Heartbeat {
            worker_id: a,
            metrics: snapshot_from(&name, ids),
        },
        Msg::HeartbeatAck,
        Msg::RequestTask { worker_id: a },
        Msg::AssignTask { task: map_task },
        Msg::AssignTask { task: reduce_task },
        Msg::AssignTask { task: map_ref_task },
        Msg::AssignTask {
            task: reduce_ref_task,
        },
        Msg::NoTask { backoff_ms: c },
        Msg::TaskDone {
            worker_id: a,
            task_id: b,
            output: TaskOutput::MapSignatures(groups),
            spans: spans_from(&members),
        },
        Msg::TaskDone {
            worker_id: a,
            task_id: b,
            output: TaskOutput::ReduceBucket(records),
            spans: Vec::new(),
        },
        Msg::TaskAck,
        Msg::SubmitJob {
            spec: JobSpec {
                data: JobData::Inline { points },
                k: a as usize % 32 + 1,
                kernel,
                num_bits: b as usize % 64,
                seed: c,
                consolidate: a & 1 == 0,
                collect_trace: b & 1 == 0,
            },
        },
        Msg::SubmitJob {
            spec: JobSpec {
                data: JobData::Ref {
                    path: format!("/tmp/{name}.dstr"),
                    content_hash: a ^ c,
                },
                k: c as usize % 32 + 1,
                kernel,
                num_bits: a as usize % 64,
                seed: b,
                consolidate: c & 1 == 0,
                collect_trace: a & 1 == 0,
            },
        },
        Msg::ShardRequest {
            dataset: a ^ c,
            shard: (b % 100_000) as u32,
        },
        Msg::ShardReply {
            bytes: members.iter().map(|&m| m as u8).collect(),
        },
        Msg::JobAccepted { job_id: a },
        Msg::PollJob { job_id: a },
        Msg::JobPending {
            stage: (a % 4) as u8,
            done: b,
            total: c,
        },
        Msg::JobResult {
            outcome: JobOutcome {
                assignments: members.clone(),
                num_clusters: members.iter().max().map_or(0, |m| m + 1),
                num_buckets: a as usize % 128,
                workers_used: b % 64,
                stage1_us: a,
                stage2_us: b,
                shuffle_records: c,
                shuffle_bytes: a ^ b,
                task_retries: c % 5,
            },
        },
        Msg::JobError {
            message: name.clone(),
        },
        Msg::MetricsRequest,
        Msg::MetricsReply { text: name.clone() },
        Msg::TaskFailed {
            worker_id: a,
            task_id: b,
            error: name.clone(),
        },
        Msg::TraceRequest { job_id: a },
        Msg::TraceReply { json: name },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_message_type_roundtrips_with_arbitrary_contents(
        ids in (any::<u64>(), any::<u64>(), any::<u64>()),
        name_bytes in prop::collection::vec(any::<u8>(), 0..48),
        points in prop::collection::vec(
            prop::collection::vec(any::<f64>(), 0..6), 0..12),
        members in prop::collection::vec(0usize..10_000, 0..32),
        groups in prop::collection::vec(
            (any::<u64>(), prop::collection::vec(0usize..10_000, 0..8)), 0..8),
        records in prop::collection::vec(
            (0usize..10_000, 0usize..64, 0usize..16), 0..32),
        planes in prop::collection::vec((0usize..64, any::<f64>()), 0..12),
        kab in (any::<u64>(), any::<f64>(), any::<f64>()),
    ) {
        let name = String::from_utf8_lossy(&name_bytes).into_owned();
        let kernel = kernel_from(kab.0, kab.1, kab.2);
        for msg in all_messages(ids, name, points, members, groups, records, planes, kernel) {
            let payload = msg.encode_payload();
            let back = Msg::decode_frame(msg.msg_type() as u16, &payload);
            prop_assert_eq!(back.as_ref(), Ok(&msg));
        }
    }

    #[test]
    fn truncated_or_padded_payloads_never_decode(
        ids in (any::<u64>(), any::<u64>(), any::<u64>()),
        members in prop::collection::vec(0usize..10_000, 1..16),
        cut_seed in any::<u64>(),
        kab in (any::<u64>(), any::<f64>(), any::<f64>()),
    ) {
        let kernel = kernel_from(kab.0, kab.1, kab.2);
        for msg in all_messages(
            ids,
            "w".to_string(),
            vec![vec![0.5, -0.5]],
            members,
            vec![(3, vec![1, 2])],
            vec![(1, 2, 3)],
            vec![(0, 0.5)],
            kernel,
        ) {
            let payload = msg.encode_payload();
            if !payload.is_empty() {
                // Truncate somewhere strictly inside the payload.
                let cut = (cut_seed as usize) % payload.len();
                prop_assert!(
                    Msg::decode_frame(msg.msg_type() as u16, &payload[..cut]).is_err(),
                    "truncated {:?} decoded", msg.msg_type()
                );
            }
            // Trailing garbage must also be rejected.
            let mut padded = payload;
            padded.push(0xAA);
            prop_assert!(
                Msg::decode_frame(msg.msg_type() as u16, &padded).is_err(),
                "padded {:?} decoded", msg.msg_type()
            );
        }
    }
}
