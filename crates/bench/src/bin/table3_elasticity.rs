//! Table 3 — elasticity: the same DASC job replayed on Amazon-EMR
//! clusters of 16, 32 and 64 nodes.
//!
//! The run executes the two DASC stages once on this machine; its
//! recorded task bag (map tasks sized by data volume, one reduce
//! task per bucket) is then scheduled onto each cluster size (Table 2
//! slot configuration) by the deterministic LPT simulator.
//!
//! Workload: an LSH-aligned grid mixture (256 clusters on a binary grid
//! over the leading dimensions) — the high-collision-probability regime
//! the paper's Figure 2 analysis assumes for its Wikipedia corpus, where
//! buckets align with cluster structure and parallelism is abundant.
//! Expected shape: time ≈ halves per doubling of nodes while accuracy
//! and memory are byte-identical (same recorded task bag).

use dasc_bench::{kb, print_header, print_row, Scale};
use dasc_core::{Dasc, DascConfig};
use dasc_data::SyntheticConfig;
use dasc_kernel::Kernel;
use dasc_lsh::LshConfig;
use dasc_mapreduce::ClusterConfig;
use dasc_metrics::accuracy;

fn main() {
    let scale = Scale::from_env();
    let bits = 8usize; // 256 grid clusters
    let n = scale.pick(1usize << 15, 1usize << 17);
    let k = 1usize << bits;

    eprintln!("generating grid mixture (N = {n}, K = {k}) ...");
    let ds = SyntheticConfig::grid(n, 64, bits).seed(0x7AB3).generate();
    let truth = ds.labels.as_ref().expect("labelled");
    let kernel = Kernel::gaussian_median_heuristic(&ds.points);

    // One execution of the two stages records the task bag.
    let mut executor = ClusterConfig::local_lab();
    executor.records_per_split = 64;
    eprintln!("running the two DASC stages ...");
    let result = Dasc::new(
        DascConfig::for_dataset(n, k)
            .kernel(kernel)
            .lsh(LshConfig::with_bits(bits)),
    )
    .run_distributed(&ds.points, &executor);
    let acc = accuracy(&result.clustering.assignments, truth);

    print_header(
        &format!(
            "Table 3: DASC on EMR clusters (N = {n}, K = {k}, {} buckets, \
             {} map + {} reduce tasks)",
            result.buckets.len(),
            result.stage1.num_map_tasks(),
            result.stage2.num_reduce_tasks()
        ),
        &["nodes", "accuracy", "memory KB", "sim time (s)", "speedup"],
    );
    let t16 = result.simulate_total(&ClusterConfig::emr(16));
    for nodes in [64usize, 32, 16] {
        let cluster = ClusterConfig::emr(nodes);
        let t = result.simulate_total(&cluster);
        print_row(&[
            nodes.to_string(),
            format!("{acc:.3}"),
            kb(result.approx_gram_bytes),
            format!("{:.4}", t.as_secs_f64()),
            format!("{:.2}x", t16.as_secs_f64() / t.as_secs_f64()),
        ]);
    }

    // Bonus (beyond the paper): the same task bag under a straggler
    // model, with and without Hadoop-style speculative execution.
    use dasc_mapreduce::{simulate_with_stragglers, StragglerModel};
    let model = StragglerModel {
        fraction: 0.1,
        slowdown: 6.0,
        seed: 0x57A6,
    };
    print_header(
        "Bonus: stragglers (10% of tasks, 6x slower) on 32 nodes",
        &["mode", "sim time (s)"],
    );
    let reduce_slots = ClusterConfig::emr(32).total_reduce_slots();
    let clean =
        dasc_mapreduce::simulate_makespan(&result.stage2.reduce_task_durations, reduce_slots);
    let slow = simulate_with_stragglers(
        &result.stage2.reduce_task_durations,
        reduce_slots,
        &model,
        false,
    );
    let spec = simulate_with_stragglers(
        &result.stage2.reduce_task_durations,
        reduce_slots,
        &model,
        true,
    );
    for (label, t) in [
        ("no stragglers", clean),
        ("stragglers", slow),
        ("+speculation", spec),
    ] {
        print_row(&[label.to_string(), format!("{:.4}", t.as_secs_f64())]);
    }

    println!(
        "\nShape check: the paper reports 20.3 h / 40.75 h / 78.85 h for \
         64/32/16 nodes — time ≈ halves per doubling while accuracy and \
         memory stay flat. Verify the same ratio structure above; the \
         bonus table shows speculation recovering most of the straggler \
         penalty."
    );
}
