//! Cluster configuration, split plan and Table 3 makespan simulator.
//!
//! The DASC paper runs on Hadoop 0.20.2 — a five-node lab cluster and
//! Amazon Elastic MapReduce with 16/32/64 nodes (Tables 2–3). This crate
//! holds what every DASC executor shares about that cluster:
//!
//! * [`ClusterConfig`] — the Table 2 slot layout plus split sizing, the
//!   speculation cap and the heartbeat the `dasc-dist` runtime reads;
//! * [`split_ranges`] — the stage-1 split plan, one map task per range;
//! * [`JobStats`] and the [`sim`] scheduler — a run's measured task bag,
//!   replayed on a *different* cluster size to report the makespan (the
//!   mechanism behind the Table 3 elasticity experiment).

pub mod config;
pub mod sim;
pub mod stats;

pub use config::{split_ranges, ClusterConfig};
pub use sim::{
    simulate_makespan, simulate_on_cluster, simulate_with_stragglers, simulate_with_stragglers_on,
    ScheduleReport, StragglerModel,
};
pub use stats::JobStats;
