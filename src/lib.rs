//! # dasc — Distributed Approximate Spectral Clustering
//!
//! Facade crate for the Rust reproduction of *“Distributed Approximate
//! Spectral Clustering for Large-Scale Datasets”* (Gao, Abd-Almageed,
//! Hefeeda; HPDC 2012). Re-exports the full public API of the workspace
//! crates under stable module names.
//!
//! ```
//! use dasc::prelude::*;
//!
//! // 200 points in two obvious blobs.
//! let ds = SyntheticConfig::blobs(200, 8, 2).seed(7).generate();
//! let result = Dasc::new(DascConfig::for_dataset(ds.points.len(), 2))
//!     .run(&ds.points);
//! assert_eq!(result.clustering.len(), 200);
//! ```

pub use dasc_analysis as analysis;
pub use dasc_core as core;
pub use dasc_data as data;
pub use dasc_dist as dist;
pub use dasc_kernel as kernel;
pub use dasc_linalg as linalg;
pub use dasc_lsh as lsh;
pub use dasc_mapreduce as mapreduce;
pub use dasc_metrics as metrics;
pub use dasc_net as net;
pub use dasc_serve as serve;

/// Commonly used items, re-exported for `use dasc::prelude::*`.
pub mod prelude {
    pub use dasc_core::{
        Dasc, DascConfig, DascTrained, KMeans, KMeansConfig, Nystrom, NystromConfig,
        ParallelSpectral, PscConfig, SpectralClustering, SpectralConfig,
    };
    pub use dasc_data::{Dataset, SyntheticConfig, WikiCorpusConfig};
    pub use dasc_dist::{Coordinator, JobClient, JobSpec, WorkerOptions};
    pub use dasc_kernel::{ApproximateGram, Kernel};
    pub use dasc_lsh::{LshConfig, MergeStrategy, SignatureModel, ThresholdRule};
    pub use dasc_mapreduce::ClusterConfig;
    pub use dasc_metrics::{accuracy, ase, davies_bouldin, fnorm_ratio, nmi};
    pub use dasc_serve::{AssignmentEngine, ModelArtifact, Route, Server, ServerConfig};
}
