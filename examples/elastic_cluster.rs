//! Elastic execution of the two DASC stages.
//!
//! Runs DASC as the paper's two MapReduce stages and replays the
//! recorded task bag on Amazon-EMR-sized clusters of 4…64 nodes — the
//! Table 3 elasticity mechanism end-to-end.
//!
//! ```text
//! cargo run --release --example elastic_cluster
//! ```

use dasc::core::{Dasc, DascConfig};
use dasc::prelude::*;

fn main() {
    // An LSH-aligned grid mixture: 64 clusters on a 6-bit binary grid,
    // the regime where buckets match cluster structure exactly.
    let dataset = dasc::data::SyntheticConfig::grid(8_192, 64, 6)
        .seed(3)
        .generate();
    let truth = dataset.labels.as_ref().expect("labelled");
    let kernel = Kernel::gaussian_median_heuristic(&dataset.points);

    // Execute once, with map tasks cut for the 5-machine lab profile.
    let mut lab = ClusterConfig::local_lab();
    lab.records_per_split = 64;
    let dasc = Dasc::new(
        DascConfig::for_dataset(dataset.points.len(), 64)
            .kernel(kernel)
            .lsh(dasc::lsh::LshConfig::with_bits(6)),
    );
    let result = dasc.run_distributed(&dataset.points, &lab);

    println!(
        "job: {} map tasks, {} reduce tasks, {} buckets, accuracy {:.3}\n",
        result.stage1.num_map_tasks(),
        result.stage2.num_reduce_tasks(),
        result.buckets.len(),
        accuracy(&result.clustering.assignments, truth)
    );

    // Elasticity: replay the recorded task bag on growing clusters.
    println!("{:>6} {:>14} {:>9}", "nodes", "sim time (ms)", "speedup");
    let base = result.simulate_total(&ClusterConfig::emr(4));
    for nodes in [4usize, 8, 16, 32, 64] {
        let t = result.simulate_total(&ClusterConfig::emr(nodes));
        println!(
            "{:>6} {:>14.2} {:>8.2}x",
            nodes,
            t.as_secs_f64() * 1e3,
            base.as_secs_f64() / t.as_secs_f64()
        );
    }
}
