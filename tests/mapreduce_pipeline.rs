//! Integration tests of the distributed DASC stages with the cluster
//! configuration: split plan, task bag, elasticity replay.

use std::time::Duration;

use dasc::core::{Dasc, DascConfig};
use dasc::mapreduce::{simulate_makespan, split_ranges, ClusterConfig};
use dasc::prelude::*;

#[test]
fn dasc_distributed_records_replayable_task_bag() {
    let ds = SyntheticConfig::blobs(400, 8, 4).seed(1).generate();
    let kernel = Kernel::gaussian_median_heuristic(&ds.points);
    let result = Dasc::new(DascConfig::for_dataset(400, 4).kernel(kernel))
        .run_distributed(&ds.points, &ClusterConfig::local_lab());

    // Makespan must be weakly decreasing in node count, bounded below by
    // the longest single task.
    let mut last = Duration::MAX;
    for nodes in [1usize, 2, 4, 8, 16, 32, 64] {
        let t = result.simulate_total(&ClusterConfig::emr(nodes));
        assert!(t <= last, "makespan increased at {nodes} nodes");
        last = t;
    }
    let longest_reduce = result
        .stage2
        .reduce_task_durations
        .iter()
        .max()
        .copied()
        .unwrap_or_default();
    assert!(last >= longest_reduce, "sim below critical path");
}

#[test]
fn makespan_bounds_hold() {
    let bag: Vec<Duration> = (1..=50u64).map(Duration::from_millis).collect();
    let total: Duration = bag.iter().sum();
    let max = *bag.iter().max().unwrap();
    for slots in [1usize, 3, 7, 50, 100] {
        let m = simulate_makespan(&bag, slots);
        assert!(m >= max, "below max task");
        assert!(m <= total, "above serial time");
        // Within 2x of the trivial lower bound (LPT is 4/3-optimal).
        let lower = total.as_nanos() / slots as u128;
        assert!(m.as_nanos() * 2 >= lower, "impossibly good makespan");
    }
}

#[test]
fn stats_reflect_job_structure() {
    let ds = SyntheticConfig::blobs(256, 8, 4).seed(3).generate();
    let kernel = Kernel::gaussian_median_heuristic(&ds.points);
    let mut executor = ClusterConfig::single_node();
    executor.records_per_split = 32;
    let result = Dasc::new(DascConfig::for_dataset(256, 4).kernel(kernel))
        .run_distributed(&ds.points, &executor);
    // One map task per split of the plan, one reduce task per bucket,
    // and each stage records only its own phase.
    assert_eq!(
        result.stage1.num_map_tasks(),
        split_ranges(256, &executor).len()
    );
    assert!(result.stage1.num_map_tasks() >= 256 / 32);
    assert_eq!(result.stage1.num_reduce_tasks(), 0);
    assert_eq!(result.stage2.num_map_tasks(), 0);
    assert_eq!(result.stage2.num_reduce_tasks(), result.buckets.len());
    assert_eq!(result.clustering.len(), 256);
}
