//! The repository benchmark for `dasc`: four workloads, end-to-end
//! metrics measured with tracing off, and a separate traced run that
//! times every layer from outside the program. See `perfbench/README.md`.

pub mod catalog;
pub mod compare;
pub mod data;
pub mod dist;
pub mod gram;
pub mod pipeline;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod workload;
