//! Cluster topology, Hadoop-style tuning parameters (paper Table 2) and
//! the stage-1 split plan.

use std::time::Duration;

/// Configuration of the (simulated or real) Hadoop-style cluster a job
/// runs on.
///
/// Field defaults mirror Table 2 of the paper, which lists the Elastic
/// MapReduce setup: 4 map slots and 2 reduce slots per task tracker.
///
/// The struct describes the cluster, not its transport: nodes and
/// slots, split sizing, the speculation cap and the heartbeat. Every
/// executor reads the same fields: the in-process
/// `Dasc::run_distributed`, the LPT simulator (`sim.rs`), and the
/// multi-process `dasc-dist` coordinator/worker runtime. RPC timeouts
/// and backoff belong to `dasc-net` (`ClientConfig::default`), and the
/// runtime's retry budget and liveness timeout are constants beside
/// the coordinator code that reads them.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterConfig {
    /// Number of worker nodes (task trackers / data nodes).
    pub nodes: usize,
    /// Concurrent map tasks per node ("Maximum map tasks in tasktracker").
    pub map_slots_per_node: usize,
    /// Concurrent reduce tasks per node.
    pub reduce_slots_per_node: usize,
    /// Records per input split — the record-level analogue of Hadoop's
    /// block-driven split sizing, so map-task count grows with data
    /// volume. A floor of two map waves per slot still applies.
    pub records_per_split: usize,
    /// Speculative-execution duration cap as a multiple of the normal
    /// task duration: the backup copy launches once the normal duration
    /// elapses, so a straggler completes within `speculation_cap × d`
    /// (Hadoop's behaviour; the simulator's straggler model applies it).
    pub speculation_cap: f64,
    /// Worker → coordinator heartbeat cadence (`dasc-dist`; Hadoop's
    /// tasktracker heartbeat, 3 s at this cluster scale — shrunk here so
    /// localhost jobs detect death fast). Workers learn it at
    /// registration, and job clients poll at half of it.
    pub heartbeat_interval: Duration,
}

/// Minimum map waves per slot: small inputs are still cut into at
/// least `MAP_WAVES_PER_SLOT × total_map_slots` tasks so every slot
/// sees work and stragglers can be rebalanced (Hadoop folklore's "aim
/// for a couple of waves of maps").
const MAP_WAVES_PER_SLOT: usize = 2;

impl ClusterConfig {
    /// The paper's Amazon Elastic MapReduce setup (Table 2) with the
    /// given node count (the paper uses 16, 32 and 64).
    pub fn emr(nodes: usize) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        Self {
            nodes,
            map_slots_per_node: 4,
            reduce_slots_per_node: 2,
            records_per_split: 1024,
            speculation_cap: 2.0,
            heartbeat_interval: Duration::from_millis(500),
        }
    }

    /// The paper's five-machine lab cluster (one master, four slaves;
    /// Core2 Duo E6550, 1 GB DRAM). Worker count is the four slaves.
    pub fn local_lab() -> Self {
        Self::emr(4)
    }

    /// Single-node configuration, handy for unit tests.
    pub fn single_node() -> Self {
        Self::emr(1)
    }

    /// The canonical default: the paper's 16-node EMR setup, the
    /// smallest cloud configuration evaluated. [`Default`] delegates
    /// here; the name exists so call sites (and the test pinning the
    /// shared knob set) can say what they mean.
    pub fn emr_default() -> Self {
        Self::emr(16)
    }

    /// Total concurrent map tasks the cluster admits.
    pub fn total_map_slots(&self) -> usize {
        self.nodes * self.map_slots_per_node
    }

    /// Total concurrent reduce tasks the cluster admits.
    pub fn total_reduce_slots(&self) -> usize {
        self.nodes * self.reduce_slots_per_node
    }
}

impl Default for ClusterConfig {
    /// Defaults to [`ClusterConfig::emr_default`] — the 16-node EMR
    /// setup, the smallest cloud configuration evaluated in the paper.
    fn default() -> Self {
        Self::emr_default()
    }
}

/// Pick a split count: data-proportional (one task per
/// `records_per_split` records, Hadoop's block-driven sizing) with a
/// floor of `waves_per_slot` waves per slot ([`MAP_WAVES_PER_SLOT`]),
/// never more tasks than records.
fn desired_splits(
    records: usize,
    map_slots: usize,
    records_per_split: usize,
    waves_per_slot: usize,
) -> usize {
    if records == 0 {
        return 0;
    }
    let by_data = records.div_ceil(records_per_split.max(1));
    let by_slots = (map_slots * waves_per_slot).min(records);
    by_data.max(by_slots).clamp(1, records)
}

/// The contiguous `(start, len)` input ranges `records` records are cut
/// into on `config` — the stage-1 split plan, one map task per range.
/// `Dasc::run_distributed` and the `dasc-dist` coordinator both cut
/// their map tasks here. Earlier ranges take the remainder, one record
/// each.
pub fn split_ranges(records: usize, config: &ClusterConfig) -> Vec<(usize, usize)> {
    let num_splits = desired_splits(
        records,
        config.total_map_slots(),
        config.records_per_split,
        MAP_WAVES_PER_SLOT,
    );
    if num_splits == 0 {
        return Vec::new();
    }
    let base = records / num_splits;
    let extra = records % num_splits;
    let mut ranges = Vec::with_capacity(num_splits);
    let mut start = 0usize;
    for s in 0..num_splits {
        let len = base + usize::from(s < extra);
        ranges.push((start, len));
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emr_matches_table2() {
        let c = ClusterConfig::emr(16);
        assert_eq!(c.map_slots_per_node, 4);
        assert_eq!(c.reduce_slots_per_node, 2);
    }

    #[test]
    fn slot_totals_scale_with_nodes() {
        assert_eq!(ClusterConfig::emr(16).total_map_slots(), 64);
        assert_eq!(ClusterConfig::emr(64).total_map_slots(), 256);
        assert_eq!(ClusterConfig::emr(32).total_reduce_slots(), 64);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        ClusterConfig::emr(0);
    }

    #[test]
    fn default_is_emr_default() {
        assert_eq!(ClusterConfig::default(), ClusterConfig::emr_default());
        assert_eq!(ClusterConfig::emr_default(), ClusterConfig::emr(16));
    }

    #[test]
    fn emr_default_pins_the_shared_knob_set() {
        // The knobs shared by the simulator and dasc-dist. Anything
        // drifting here silently changes every executor at once, so the
        // defaults are pinned exactly.
        let c = ClusterConfig::emr_default();
        assert_eq!(c.nodes, 16);
        assert_eq!(c.map_slots_per_node, 4);
        assert_eq!(c.reduce_slots_per_node, 2);
        assert_eq!(c.records_per_split, 1024);
        assert_eq!(c.speculation_cap, 2.0);
        assert_eq!(c.heartbeat_interval, Duration::from_millis(500));
        assert_eq!(MAP_WAVES_PER_SLOT, 2);
    }

    #[test]
    fn desired_splits_bounds() {
        assert_eq!(desired_splits(0, 4, 1024, 2), 0);
        assert_eq!(desired_splits(3, 64, 1024, 2), 3);
        assert_eq!(desired_splits(1_000, 4, 1024, 2), 8);
        // Data-proportional once records exceed splits × slots.
        assert_eq!(desired_splits(8_192, 4, 16, 2), 512);
        assert_eq!(desired_splits(8_192, 4, 0, 2), 8_192);
        // The waves floor is an argument.
        assert_eq!(desired_splits(1_000, 4, 1024, 4), 16);
        assert_eq!(desired_splits(1_000, 4, 1024, 1), 4);
    }

    #[test]
    fn split_ranges_cover_records_contiguously() {
        let cfg = ClusterConfig::single_node(); // 4 map slots → 8 splits
        let ranges = split_ranges(100, &cfg);
        assert_eq!(
            ranges.len(),
            desired_splits(100, 4, cfg.records_per_split, MAP_WAVES_PER_SLOT)
        );
        // Contiguous cover of 0..100; sizes differ by at most one,
        // larger first.
        let mut next = 0usize;
        for &(start, len) in &ranges {
            assert_eq!(start, next);
            assert!(len == 13 || len == 12, "split of {len}");
            next += len;
        }
        assert_eq!(next, 100);
        assert_eq!(ranges[0].1, 13);
        assert_eq!(ranges[7].1, 12);
        assert!(split_ranges(0, &cfg).is_empty());
    }
}
