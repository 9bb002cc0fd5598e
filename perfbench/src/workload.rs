//! The four workloads, their inputs, and one run of each.

use std::path::Path;

use dasc_core::DascConfig;
use dasc_lsh::LshConfig;

use crate::catalog::{end_to_end, per_layer};
use crate::data::{Mixture, Sample};
use crate::pipeline::{run_local, trace_pipeline};
use crate::report::RunReport;

/// DASC's own seed (spectral start vectors, k-means seeding). Fixed: the
/// workload seed only draws the data.
const DASC_SEED: u64 = 0xBE7C;

/// 6 grid bits (the paper's `M` for 8k–32k points) with 8 clusters in
/// cell 0: one bucket of 9 clusters (4× the mean) and 31 of two, all
/// past the 512-point Lanczos threshold. With 12 or more clusters in one
/// bucket, Lanczos merged two of them on some seeds and ARI flipped
/// between seeds. The size trades the block against the host's shared
/// L3 cache: in one noisy stretch, single processes at 24 000 points (a
/// 74 MB largest block) spread 20% (quartile distance over median) where
/// 12 000 points spread 7%, but below about 18 200 points the two-cluster
/// buckets fall under the threshold and dense-k takes over the time.
const SKEWED: Mixture = Mixture {
    grid_bits: 6,
    hub_clusters: 8,
};
const SKEWED_N: usize = 18_500;

/// 8 grid bits, one cluster per cell: 128 merged buckets of 200 points,
/// all on the dense-k route.
const BALANCED: Mixture = Mixture {
    grid_bits: 8,
    hub_clusters: 1,
};
const BALANCED_N: usize = 25_600;

/// Training set of the served model, and its signature width: 8 grid
/// planes plus 4 on the sign patterns, so unseen signatures occur.
const SERVE_TRAIN_N: usize = 12_800;
const SERVE_BITS: usize = 12;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Paper LSH on a skewed mixture; every bucket takes Lanczos.
    SkewedLanczos,
    /// Many equal buckets on the dense-k route.
    BalancedDenseK,
    /// The skewed data through the coordinator/worker runtime by reference.
    DistRef,
    /// `POST /assign` against a served model.
    ServeAssign,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SkewedLanczos,
        Workload::BalancedDenseK,
        Workload::DistRef,
        Workload::ServeAssign,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SkewedLanczos => "skewed_lanczos",
            Workload::BalancedDenseK => "balanced_dense_k",
            Workload::DistRef => "dist_ref",
            Workload::ServeAssign => "serve_assign",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's dataset drawn from `seed`, and the DASC configuration.
    pub fn input(self, seed: u64) -> (Sample, DascConfig) {
        let (mixture, n, lsh) = match self {
            Workload::SkewedLanczos | Workload::DistRef => (SKEWED, SKEWED_N, None),
            Workload::BalancedDenseK => (BALANCED, BALANCED_N, Some(BALANCED.grid_bits)),
            Workload::ServeAssign => (BALANCED, SERVE_TRAIN_N, Some(SERVE_BITS)),
        };
        let mut cfg = DascConfig::for_dataset(n, mixture.clusters()).seed(DASC_SEED);
        if let Some(bits) = lsh {
            cfg = cfg.lsh(LshConfig::with_bits(bits));
        }
        (mixture.sample(n, seed), cfg)
    }
}

/// Processes one end-to-end run is spread over. Each sets up once and
/// measures an equal share of the run. Within one process, repeated
/// operations agree to a few percent, but from process to process the
/// level moved by ±6% on a 2-core host, so a run pools several; an odd
/// count keeps the median of set-up time and peak RSS a measured value.
pub const PROCESSES: usize = 5;

/// One run in this process: with `trace`, the per-layer metrics of the
/// traced run, whose Chrome trace is written under `out_dir`; otherwise
/// one process's share of an end-to-end run (`first` marks the share
/// that also checks against the in-process distributed engine).
pub fn run_here(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    first: bool,
    out_dir: &Path,
) -> Result<RunReport, String> {
    let (sample, cfg) = w.input(seed);
    let mut report = RunReport::default();
    let trace_path = out_dir.join(format!("{}-seed{seed}.trace.json", w.name()));
    match (w, trace) {
        (Workload::SkewedLanczos | Workload::BalancedDenseK, false) => {
            run_local(&mut report, &sample.points, &sample.labels, &cfg, seconds)
        }
        (Workload::SkewedLanczos | Workload::BalancedDenseK, true) => {
            let walls = trace_pipeline(&mut report, &sample.points, &cfg, seconds, &trace_path);
            report.set(
                "obs.trace_overhead_pct",
                (walls.traced_s - walls.untraced_s) / walls.untraced_s * 100.0,
            );
            report.attempted = walls.runs;
            for layer in ["dist.", "net.", "store.", "serve."] {
                report.zero_layer(layer);
            }
        }
        (Workload::DistRef, false) => crate::dist::run_dist(
            &mut report,
            &sample.points,
            &sample.labels,
            &cfg,
            seconds,
            out_dir,
            first,
        )?,
        (Workload::DistRef, true) => {
            crate::dist::trace_dist(
                &mut report,
                &sample.points,
                &cfg,
                seconds,
                out_dir,
                &trace_path,
            )?;
        }
        (Workload::ServeAssign, false) => {
            crate::serve::run_serve(&mut report, &sample, &cfg, seconds)?
        }
        (Workload::ServeAssign, true) => {
            crate::serve::trace_serve(&mut report, &sample, &cfg, seconds, &trace_path)?
        }
    }
    report.assert_complete(if trace { per_layer() } else { end_to_end() });
    Ok(report)
}
