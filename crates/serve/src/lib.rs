//! Online model serving for DASC.
//!
//! The offline pipeline (Section 3 of the paper) produces a clustering
//! of the training set; this crate turns that run into a **persistable,
//! queryable model** so new points can be assigned to clusters without
//! re-running the pipeline:
//!
//! * [`ModelArtifact`] — a versioned snapshot of a trained pipeline:
//!   the frozen LSH signature model (histogram-valley thresholds), the
//!   bucket signature table, per-bucket cluster centroids in input
//!   space, the global centroid table, and the [`DascConfig`]
//!   provenance. Saved/loaded with a self-describing binary format that
//!   rejects foreign or truncated files.
//! * [`AssignmentEngine`] — the online counterpart of Algorithm 1: hash
//!   the incoming point with the frozen model, route it
//!   *exact-signature* → *one-bit-differs neighbor* (the paper's Eq. 6
//!   trick) → *global nearest centroid*, and return the cluster id in
//!   `O(M + K·d)` with per-stage routing counters.
//! * [`serve`] — the workspace's one HTTP/1.1 server loop: an acceptor
//!   and a fixed pool of worker threads, each owning a keep-alive
//!   connection, answering with a generic request handler, with
//!   400/413 replies for bad requests and graceful shutdown. The
//!   coordinator's metrics sidecar in `dasc-dist` runs on it too.
//! * [`Server`] — that loop plus the JSON assignment routes over an
//!   immutable engine: single and batch assignment, per-endpoint
//!   latency/QPS counters, and a Prometheus-style `GET /metrics`
//!   endpoint (backed by the `dasc-obs` registry). No external
//!   dependencies: framing and JSON are hand-rolled in [`http`] and
//!   [`json`].
//!
//! [`DascConfig`]: dasc_core::DascConfig

pub mod artifact;
pub mod codec;
pub mod engine;
pub mod http;
pub mod json;
pub mod server;
pub mod stats;

pub use artifact::{ArtifactError, BucketClusters, ModelArtifact, FORMAT_VERSION};
pub use engine::{Assignment, AssignmentEngine, Route, RoutingCounts};
pub use json::JsonValue;
pub use server::{serve, Response, Server, ServerConfig, ServerHandle};
pub use stats::EndpointStats;
