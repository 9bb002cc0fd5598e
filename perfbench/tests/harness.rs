//! Harness checks: the traced decomposition measures the same program
//! as `Dasc::run`, every metric name `BENCHMARK.json` declares is valid,
//! and the result line is JSON the repository's own parser reads.

use std::collections::BTreeSet;

use dasc_core::{Dasc, DascConfig};
use dasc_lsh::LshConfig;
use dasc_obs::Tracer;
use dasc_perfbench::catalog::{end_to_end, per_layer};
use dasc_perfbench::data::Mixture;
use dasc_perfbench::pipeline::decompose;
use dasc_perfbench::report::RunReport;
use dasc_pool::Pool;
use dasc_serve::json::JsonValue;

/// A metric name: a letter or digit, then at most 63 more letters,
/// digits, `_`, `.` and `-`.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn decomposition_reproduces_dasc_run_on_lanczos_and_dense_k_routes() {
    // The skewed workload's structure at 3000 points: the 13-cluster
    // bucket (520 points) takes Lanczos, the two-cluster buckets dense-k.
    let mixture = Mixture {
        grid_bits: 6,
        hub_clusters: 12,
    };
    let sample = mixture.sample(3000, 5);
    let cfg = DascConfig::for_dataset(3000, mixture.clusters())
        .lsh(LshConfig::with_bits(6))
        .seed(9);
    let pool = Pool::new(2);
    let expected = pool.install(|| Dasc::new(cfg.clone()).run(&sample.points));
    let tracer = Tracer::new();
    tracer.enable();
    let got = pool.install(|| decompose(&sample.points, &cfg, &tracer));
    assert_eq!(got.clustering, expected.clustering);
    assert_eq!(got.sizes, expected.buckets.sizes());

    let spans = tracer.drain();
    let calls = |route: &str| {
        spans
            .iter()
            .filter(|s| s.name.starts_with(&format!("core.eigen.{route}#")))
            .count()
    };
    assert!(calls("lanczos") >= 1, "no bucket took the Lanczos route");
    assert!(calls("dense_k") >= 1, "no bucket took the dense-k route");
}

#[test]
fn every_declared_metric_name_is_valid_and_used_once() {
    let mut seen = BTreeSet::new();
    for m in end_to_end().iter().chain(per_layer()) {
        assert!(valid_name(&m.name), "invalid metric name {}", m.name);
        assert!(seen.insert(m.name.as_str()), "{} declared twice", m.name);
    }
    assert!(per_layer().len() <= 128);
    let setup = end_to_end().iter().find(|m| m.name == "setup_s");
    let setup = setup.expect("setup_s is an end-to-end metric");
    assert!(setup.unit == "s" && setup.lower_is_better);
    for m in end_to_end() {
        let bound = m.bound.expect("end-to-end metrics have a bound");
        assert!(
            bound > 0.0 && bound <= setup.bound.expect("bound"),
            "{}",
            m.name
        );
    }
}

#[test]
fn result_line_parses_with_the_repository_json_reader() {
    let mut report = RunReport {
        attempted: 4,
        ..Default::default()
    };
    for (i, m) in end_to_end().iter().enumerate() {
        report.set_from(&m.name, 0.1 + i as f64 / 3.0, vec![0.1, 0.2, 0.3]);
    }
    report.assert_complete(end_to_end());
    let v = JsonValue::parse(&report.result_json()).expect("result line parses");
    assert_eq!(v.get("correct"), Some(&JsonValue::Bool(true)));
    assert_eq!(v.get("attempted").and_then(JsonValue::as_f64), Some(4.0));
    let metrics = v
        .get("metrics")
        .and_then(JsonValue::as_object)
        .expect("metrics");
    assert_eq!(metrics.len(), end_to_end().len());
    for m in end_to_end() {
        let v = &metrics[&m.name];
        assert!(v.get("value").and_then(JsonValue::as_f64).is_some());
        assert_eq!(
            v.get("unit").and_then(JsonValue::as_str),
            Some(m.unit.as_str())
        );
    }
    assert!(v.get("latency_ns").is_none(), "latencies stay inside a run");
}
