//! Stage spans and run metrics of one DASC run. The tracer is global
//! to the process, so this test has a binary of its own: in a shared
//! one, spans of tests running beside it land in the same drain (a
//! `dasc.gram` span whose bucket span another test still holds open).

use dasc_core::{Dasc, DascConfig};
use dasc_lsh::LshConfig;

/// Four tight blobs in the corners of the unit square.
fn four_blobs(per: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
    let centers = [[0.1, 0.1], [0.9, 0.1], [0.1, 0.9], [0.9, 0.9]];
    let mut pts = Vec::new();
    let mut labels = Vec::new();
    for (ci, c) in centers.iter().enumerate() {
        for i in 0..per {
            let jx = (i % 7) as f64 * 0.004;
            let jy = (i % 5) as f64 * 0.004;
            pts.push(vec![c[0] + jx, c[1] + jy]);
            labels.push(ci);
        }
    }
    (pts, labels)
}

#[test]
fn train_emits_stage_spans_and_run_metrics() {
    // The global tracer is shared with any test running
    // concurrently, so every assertion here is monotone (presence,
    // >=, membership) rather than an exact count.
    let (pts, _) = four_blobs(15);
    let cfg = DascConfig::for_dataset(pts.len(), 4).lsh(LshConfig::with_bits(2));
    let runs_before = dasc_obs::global().counter_value("dasc_runs_total");

    let tracer = dasc_obs::tracer();
    tracer.enable();
    let res = Dasc::new(cfg).run(&pts);
    let spans = tracer.drain();
    tracer.disable();

    let names: std::collections::BTreeSet<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    for stage in [
        "dasc.lsh",
        "dasc.lsh.fit",
        "dasc.lsh.sign",
        "dasc.bucket",
        "dasc.gram",
        "dasc.cluster",
        "dasc.cluster.bucket",
    ] {
        assert!(names.contains(stage), "missing span {stage}: {names:?}");
    }
    // lsh.fit/lsh.sign nest under some dasc.lsh span.
    let lsh_ids: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.name == "dasc.lsh")
        .map(|s| s.id)
        .collect();
    assert!(spans
        .iter()
        .filter(|s| s.name.starts_with("dasc.lsh."))
        .all(|s| s.parent.is_some_and(|p| lsh_ids.contains(&p))));
    // At least one bucket-cluster span per bucket of our run.
    let per_bucket = spans
        .iter()
        .filter(|s| s.name == "dasc.cluster.bucket")
        .count();
    assert!(per_bucket >= res.buckets.len());
    // Each Gram block is built inside its bucket's reduce task.
    let bucket_ids: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.name == "dasc.cluster.bucket")
        .map(|s| s.id)
        .collect();
    assert!(spans
        .iter()
        .filter(|s| s.name == "dasc.gram")
        .all(|s| s.parent.is_some_and(|p| bucket_ids.contains(&p))));

    assert!(dasc_obs::global().counter_value("dasc_runs_total") > runs_before);
}
