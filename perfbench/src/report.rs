//! One run's result: the metrics, the operation counts and the outcome
//! of every correctness check, printed as a table and as the final JSON
//! line.

use std::collections::BTreeMap;

use dasc_serve::json::{object, JsonValue};

use crate::catalog::{self, Metric};
use crate::compare::Run;
use crate::stats::{median, percentile, quartiles};

/// A reported value and the samples it summarizes (one sample for a
/// value measured once).
pub struct Value {
    /// The reported value.
    pub value: f64,
    /// The samples behind it, for the quartile table.
    pub samples: Vec<f64>,
}

/// Everything one run reports.
#[derive(Default)]
pub struct RunReport {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations among them that failed.
    pub failed: u64,
    /// Correctness checks that did not hold.
    pub check_failures: Vec<String>,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Value>,
    /// Latency of every measured operation, in nanoseconds. A process of
    /// an end-to-end run hands them to the run that combines it.
    pub latency_ns: Vec<f64>,
}

impl RunReport {
    /// Record a value measured once.
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_from(name, value, vec![value]);
    }

    /// Record a value summarizing `samples`.
    pub fn set_from(&mut self, name: &str, value: f64, samples: Vec<f64>) {
        assert!(catalog::unit(name).is_some(), "undeclared metric {name}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics
            .insert(name.to_string(), Value { value, samples });
    }

    /// Set every per-layer metric under `prefix` to 0: the layer is not
    /// on this workload's path.
    pub fn zero_layer(&mut self, prefix: &str) {
        for m in catalog::per_layer() {
            if m.name.starts_with(prefix) {
                self.set(&m.name, 0.0);
            }
        }
    }

    /// Record a correctness check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.check_failures.push(msg);
        }
    }

    /// All checks held and no operation failed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0
    }

    /// Record the latency of each operation (nanoseconds), with its
    /// median and tail as `latency_p50_ms` and `latency_tail_ms`.
    pub fn set_latencies(&mut self, latency_ns: Vec<f64>) {
        let ms: Vec<f64> = latency_ns.iter().map(|ns| ns / 1e6).collect();
        self.set_from("latency_p50_ms", median(&ms), ms.clone());
        self.set_from(
            "latency_tail_ms",
            percentile(&ms, tail_quantile(ms.len())),
            ms,
        );
        self.latency_ns = latency_ns;
    }

    /// Panic unless the metrics are exactly `expected`.
    pub fn assert_complete(&self, expected: &[Metric]) {
        let have: Vec<&str> = self.metrics.keys().map(String::as_str).collect();
        let mut want: Vec<&str> = expected.iter().map(|m| m.name.as_str()).collect();
        want.sort_unstable();
        assert_eq!(have, want, "reported metrics differ from the catalog");
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric's value and unit, plus the operation latencies when a
    /// process of an end-to-end run recorded them.
    pub fn result_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let unit = catalog::unit(name).expect("declared metric");
                (
                    name.clone(),
                    object([("value", m.value.into()), ("unit", unit.into())]),
                )
            })
            .collect();
        let mut line = object([
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", JsonValue::Object(metrics)),
        ]);
        if let (JsonValue::Object(keys), false) = (&mut line, self.latency_ns.is_empty()) {
            let ns: Vec<f64> = self.latency_ns.iter().map(|ns| ns.round()).collect();
            keys.insert("latency_ns".to_string(), ns.into());
        }
        line.to_json()
    }

    /// Human-readable table: value, unit, and median/quartiles/count of
    /// the samples behind each value.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<36} {:>14} {:<10} {:>12} {:>12} {:>12} {:>5}\n",
            "metric", "value", "unit", "median", "q1", "q3", "n"
        );
        for (name, m) in &self.metrics {
            let [q1, med, q3] = quartiles(&m.samples);
            out.push_str(&format!(
                "{:<36} {:>14.6} {:<10} {:>12.6} {:>12.6} {:>12.6} {:>5}\n",
                name,
                m.value,
                catalog::unit(name).expect("declared metric"),
                med,
                q1,
                q3,
                m.samples.len()
            ));
        }
        out
    }
}

/// Percentiles the tail of a latency is read at, highest first.
const TAIL_PERCENTILES: [usize; 4] = [99, 95, 90, 75];

/// The highest of [`TAIL_PERCENTILES`], as a quantile, with at least ten
/// of `n` samples beyond it; the median when none has.
pub fn tail_quantile(n: usize) -> f64 {
    let p = TAIL_PERCENTILES
        .into_iter()
        .find(|p| n * (100 - p) >= 1000)
        .unwrap_or(50);
    p as f64 / 100.0
}

/// Combine the end-to-end runs of one workload's processes into one
/// report. Each metric is the median over the processes, which two slow
/// processes of five do not move: on a 2-vCPU VM a process now and then
/// ran at two thirds of the others' speed, and allocator arenas now and
/// then kept some 50 MB more in one process of the skewed workload. The
/// tail percentile is chosen from the operations of all processes
/// together ([`tail_quantile`]) and read in each. Every process clusters
/// the same input, so their ARI and NMI must agree exactly.
pub fn aggregate(parts: &[Run]) -> RunReport {
    let mut r = RunReport::default();
    for (i, p) in parts.iter().enumerate() {
        r.attempted += p.attempted as u64;
        r.failed += p.failed as u64;
        r.check(p.correct, || {
            format!("process {i} reported incorrect output")
        });
    }
    let values = |name: &str| -> Vec<f64> { parts.iter().map(|p| p.metrics[name]).collect() };
    let latency_ms = |read: &dyn Fn(&[f64]) -> f64| -> Vec<f64> {
        parts.iter().map(|p| read(&p.latency_ns) / 1e6).collect()
    };
    let q = tail_quantile(parts.iter().map(|p| p.latency_ns.len()).sum());
    for (name, v) in [
        ("points_per_s", values("points_per_s")),
        ("latency_p50_ms", latency_ms(&|l| median(l))),
        ("latency_tail_ms", latency_ms(&|l| percentile(l, q))),
        ("setup_s", values("setup_s")),
        ("peak_rss_mb", values("peak_rss_mb")),
    ] {
        r.set_from(name, median(&v), v);
    }
    for name in ["ari", "nmi"] {
        let v = values(name);
        r.check(v.iter().all(|&x| x == v[0]), || {
            format!("{name} differs between processes: {v:?}")
        });
        r.set_from(name, v[0], v);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut r = RunReport {
            attempted: 3,
            ..Default::default()
        };
        r.set_from("setup_s", 0.5, vec![0.4, 0.5, 0.7]);
        let v = JsonValue::parse(&r.result_json()).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(JsonValue::as_f64), Some(0.5));
        assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some("s"));
        assert_eq!(v.get("correct"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn a_run_is_the_median_of_its_processes_which_agree_on_quality() {
        let part = |ops: f64, pps: f64, ari: f64| Run {
            workload: "w".into(),
            seed: 1,
            correct: true,
            attempted: ops,
            failed: 0.0,
            metrics: [
                ("points_per_s", pps),
                ("latency_p50_ms", 1000.0 / pps),
                ("latency_tail_ms", 1000.0 / pps),
                ("setup_s", 0.5),
                ("peak_rss_mb", 100.0),
                ("ari", ari),
                ("nmi", 1.0),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
            latency_ns: vec![1e9 / pps; ops as usize],
        };
        // Each metric is the median over the processes; the slow third
        // process does not move it.
        let r = aggregate(&[
            part(10.0, 10.0, 1.0),
            part(30.0, 15.0, 1.0),
            part(20.0, 5.0, 1.0),
        ]);
        assert_eq!(r.metrics["points_per_s"].value, 10.0);
        assert_eq!(r.metrics["latency_p50_ms"].value, 100.0);
        assert_eq!(r.metrics["latency_tail_ms"].samples.len(), 3);
        assert_eq!(r.attempted, 60);
        assert!(r.correct());
        assert!(!aggregate(&[part(1.0, 1.0, 1.0), part(1.0, 1.0, 0.9)]).correct());
    }

    #[test]
    fn tail_is_the_highest_quantile_with_ten_samples_beyond() {
        assert_eq!(tail_quantile(100_000), 0.99);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(999), 0.95);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(60), 0.75);
        assert_eq!(tail_quantile(39), 0.5);
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = RunReport::default();
        r.check(true, || unreachable!());
        assert!(r.correct());
        r.check(false, || "labels differ".into());
        assert!(!r.correct());
    }
}
