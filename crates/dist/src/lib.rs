//! Multi-process distributed DASC runtime.
//!
//! The paper runs DASC as two MapReduce stages on Hadoop across real
//! machines; `Dasc::run` (like every `Dasc` entry point) runs that
//! jobflow inside one process. This crate runs it across OS processes: a [`Coordinator`]
//! (job tracker + name node) and pull-based workers ([`worker::spawn`])
//! over `dasc-net` TCP framing.
//!
//! Determinism is structural, not empirical: the map body
//! (`dasc_core::map_signatures`), the between-stage merge
//! (`dasc_core::merge_signature_groups`), the reduce body
//! (`dasc_core::reduce_bucket`), the stitch
//! (`dasc_core::stitch_distributed`) and the consolidation
//! (`dasc_core::consolidate`) are the *same functions* the in-process
//! `Dasc::run` calls, and none of them depend on task
//! granularity or arrival order. A distributed run therefore produces
//! bit-identical assignments to a single-process run of the same
//! [`JobSpec`] — with any number of workers, and even when workers die
//! mid-job and their tasks are retried elsewhere (Hadoop-style
//! `max_task_attempts` budget from `ClusterConfig`).
//!
//! Datasets travel either inline in the submission
//! ([`JobData::Inline`]) or as a reference to a packed `.dstr` store on
//! the coordinator's filesystem ([`JobData::Ref`]). There is one task
//! kind per stage ([`TaskKind`]), and its rows ([`TaskRows`]) either
//! ride inline or name the store: then only the shard table travels,
//! and workers pull shard bytes through a checksum-verified LRU cache
//! ([`worker::ShardSource`]). Both forms run the same shared numerical
//! bodies, so their outputs are bit-identical too.

pub mod client;
pub mod coordinator;
pub mod httpd;
pub mod proto;
pub mod worker;

pub use client::{client_config, rpc, JobClient};
pub use coordinator::Coordinator;
pub use httpd::HttpHandle;
pub use proto::{JobData, JobOutcome, JobSpec, Msg, MsgType, Task, TaskKind, TaskOutput, TaskRows};
pub use worker::{
    execute_task, execute_task_traced, run_worker, ShardSource, WorkerHandle, WorkerOptions,
};
