//! Run sets — repeated runs of the benchmark on several seeds — and the
//! comparison of two of them by the no-regression rule: for every
//! workload and end-to-end metric, the change's median may be worse than
//! the parent's by at most the bound `BENCHMARK.json` fixes; where the
//! spread between runs is wider than the bound the metric is unresolved
//! rather than unchanged; a gain needs nine tenths of the seed-paired
//! runs to win and the medians to differ by more than the parent's
//! quartile distance.

use std::collections::BTreeMap;

use dasc_serve::json::{object, JsonValue};

use crate::catalog::Metric;
use crate::stats::{median, quartiles, relative_spread};

/// One run's outcome, as a run set records it.
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// The run's `correct` flag.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: f64,
    /// Operations failed.
    pub failed: f64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Latency of every operation, in nanoseconds: what one process of an
    /// end-to-end run hands the run that combines it. Run sets leave it out.
    pub latency_ns: Vec<f64>,
}

/// Runs of one benchmark configuration, with the host they ran on.
pub struct RunSet {
    /// Host facts (`hostname`, `cpu`, `nproc`, `kernel_backend`).
    pub host: Vec<(String, String)>,
    /// `--seconds` of every run.
    pub seconds: f64,
    /// The runs.
    pub runs: Vec<Run>,
}

fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing \"{key}\""))
}

fn number(v: &JsonValue, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("\"{key}\" is not a number"))
}

impl Run {
    /// Read a benchmark run's final output line.
    pub fn from_result_line(workload: &str, seed: u64, line: &str) -> Result<Run, String> {
        let v = JsonValue::parse(line).map_err(|e| format!("result line: {e}"))?;
        let metrics = field(&v, "metrics")?
            .as_object()
            .ok_or("\"metrics\" is not an object")?
            .iter()
            .map(|(name, m)| Ok((name.clone(), number(m, "value")?)))
            .collect::<Result<_, String>>()?;
        let latency_ns = match v.get("latency_ns") {
            Some(l) => l
                .as_point()
                .ok_or("\"latency_ns\" is not a list of numbers")?,
            None => Vec::new(),
        };
        Ok(Run {
            workload: workload.to_string(),
            seed,
            correct: field(&v, "correct")? == &JsonValue::Bool(true),
            attempted: number(&v, "attempted")?,
            failed: number(&v, "failed")?,
            metrics,
            latency_ns,
        })
    }

    fn to_json(&self) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, &v)| (k.clone(), v.into()))
            .collect();
        object([
            ("workload", self.workload.as_str().into()),
            ("seed", self.seed.into()),
            ("correct", self.correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", JsonValue::Object(metrics)),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<Run, String> {
        let metrics = field(v, "metrics")?
            .as_object()
            .ok_or("\"metrics\" is not an object")?
            .iter()
            .map(|(k, m)| Ok((k.clone(), m.as_f64().ok_or("metric is not a number")?)))
            .collect::<Result<_, String>>()?;
        Ok(Run {
            workload: field(v, "workload")?
                .as_str()
                .ok_or("\"workload\" is not a string")?
                .to_string(),
            seed: number(v, "seed")? as u64,
            correct: field(v, "correct")? == &JsonValue::Bool(true),
            attempted: number(v, "attempted")?,
            failed: number(v, "failed")?,
            metrics,
            latency_ns: Vec::new(),
        })
    }
}

impl RunSet {
    /// Serialize, one run per line.
    pub fn to_json(&self) -> String {
        let host = JsonValue::Object(
            self.host
                .iter()
                .map(|(k, v)| (k.clone(), v.as_str().into()))
                .collect(),
        );
        let runs: Vec<String> = self.runs.iter().map(|r| r.to_json().to_json()).collect();
        format!(
            "{{\"host\": {}, \"seconds\": {}, \"runs\": [\n{}\n]}}\n",
            host.to_json(),
            self.seconds,
            runs.join(",\n")
        )
    }

    /// Parse a run set written by [`RunSet::to_json`].
    pub fn parse(text: &str) -> Result<RunSet, String> {
        let v = JsonValue::parse(text).map_err(|e| format!("run set: {e}"))?;
        let host = field(&v, "host")?
            .as_object()
            .ok_or("\"host\" is not an object")?
            .iter()
            .map(|(k, h)| (k.clone(), h.as_str().unwrap_or_default().to_string()))
            .collect();
        let runs = field(&v, "runs")?
            .as_array()
            .ok_or("\"runs\" is not an array")?
            .iter()
            .map(Run::from_json)
            .collect::<Result<_, _>>()?;
        Ok(RunSet {
            host,
            seconds: number(&v, "seconds")?,
            runs,
        })
    }

    /// Workload names in first-seen order.
    pub fn workloads(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for r in &self.runs {
            if !names.contains(&r.workload.as_str()) {
                names.push(&r.workload);
            }
        }
        names
    }

    /// `(seed, value)` of `metric` over the runs of `workload`.
    pub fn samples(&self, workload: &str, metric: &str) -> Vec<(u64, f64)> {
        self.runs
            .iter()
            .filter(|r| r.workload == workload)
            .filter_map(|r| r.metrics.get(metric).map(|&v| (r.seed, v)))
            .collect()
    }

    /// Failed ÷ attempted operations over the runs of `workload`.
    pub fn failed_ratio(&self, workload: &str) -> f64 {
        let (failed, attempted) = self
            .runs
            .iter()
            .filter(|r| r.workload == workload)
            .fold((0.0, 0.0), |(f, a), r| (f + r.failed, a + r.attempted));
        if attempted > 0.0 {
            failed / attempted
        } else {
            0.0
        }
    }
}

/// The outcome for one workload and metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better, by the gain rule.
    Improved,
    /// No worse than the bound allows, and no gain shown.
    WithinBound,
    /// Worse than the bound allows.
    Regressed,
    /// The runs spread wider than the bound, so no verdict holds.
    Unresolved,
}

impl Verdict {
    /// Lowercase label for tables.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare `(seed, value)` samples of a parent and a change.
pub fn verdict(
    parent: &[(u64, f64)],
    change: &[(u64, f64)],
    lower_is_better: bool,
    bound: f64,
) -> Verdict {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let better = |c: f64, p: f64| sign * (c - p) < 0.0;
    let p: Vec<f64> = parent.iter().map(|s| s.1).collect();
    let c: Vec<f64> = change.iter().map(|s| s.1).collect();
    let (pm, cm) = (median(&p), median(&c));

    let every_run_better = c.iter().all(|&cv| p.iter().all(|&pv| better(cv, pv)));
    if relative_spread(&p).max(relative_spread(&c)) > bound && !every_run_better {
        return Verdict::Unresolved;
    }
    if sign * (cm - pm) > bound * pm.abs() {
        return Verdict::Regressed;
    }
    // Pair runs by seed; with no seed in common, by position.
    let mut pairs: Vec<(f64, f64)> = change
        .iter()
        .filter_map(|&(s, cv)| {
            parent
                .iter()
                .find(|(ps, _)| *ps == s)
                .map(|&(_, pv)| (cv, pv))
        })
        .collect();
    if pairs.is_empty() {
        pairs = c.iter().copied().zip(p.iter().copied()).collect();
    }
    let wins = pairs.iter().filter(|(cv, pv)| better(*cv, *pv)).count();
    let [q1, _, q3] = quartiles(&p);
    if better(cm, pm) && wins * 10 >= pairs.len() * 9 && (cm - pm).abs() > q3 - q1 {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

/// Per workload and end-to-end metric: the median, quartiles and spread
/// of one run set.
pub fn summary(set: &RunSet, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{:<18} {:<16} {:>14} {:>14} {:>14} {:>8} {:>7} {:>3}\n",
        "workload", "metric", "median", "q1", "q3", "spread", "bound", "n"
    );
    for w in set.workloads() {
        for m in metrics {
            let v: Vec<f64> = set.samples(w, &m.name).iter().map(|s| s.1).collect();
            if v.is_empty() {
                continue;
            }
            let [q1, med, q3] = quartiles(&v);
            out.push_str(&format!(
                "{:<18} {:<16} {:>14.6} {:>14.6} {:>14.6} {:>8.4} {:>7.3} {:>3}\n",
                w,
                m.name,
                med,
                q1,
                q3,
                relative_spread(&v),
                bound(m),
                v.len()
            ));
        }
    }
    out
}

fn bound(m: &Metric) -> f64 {
    m.bound.expect("end-to-end metrics have a bound")
}

/// Compare two run sets by the end-to-end `metrics`; returns the report
/// and whether the change passes: every run of the change correct, no
/// regression, and no rise in the failed ratio.
pub fn compare(parent: &RunSet, change: &RunSet, metrics: &[Metric]) -> (String, bool) {
    let mut out = format!(
        "{:<18} {:<16} {:>14} {:>25} {:>14} {:>25}  verdict\n",
        "workload", "metric", "parent median", "parent q1..q3", "change median", "change q1..q3"
    );
    let mut pass = true;
    for r in change.runs.iter().filter(|r| !r.correct) {
        out.push_str(&format!(
            "{:<18} seed {}: the change's run is incorrect\n",
            r.workload, r.seed
        ));
        pass = false;
    }
    for w in parent.workloads() {
        for m in metrics {
            let (p, c) = (parent.samples(w, &m.name), change.samples(w, &m.name));
            if p.is_empty() || c.is_empty() {
                out.push_str(&format!("{w:<18} {:<16} missing on one side\n", m.name));
                pass = false;
                continue;
            }
            let v = verdict(&p, &c, m.lower_is_better, bound(m));
            pass &= v != Verdict::Regressed;
            let pv: Vec<f64> = p.iter().map(|s| s.1).collect();
            let cv: Vec<f64> = c.iter().map(|s| s.1).collect();
            let ([pq1, pm, pq3], [cq1, cm, cq3]) = (quartiles(&pv), quartiles(&cv));
            out.push_str(&format!(
                "{w:<18} {:<16} {pm:>14.6} {:>25} {cm:>14.6} {:>25}  {}\n",
                m.name,
                format!("{pq1:.6}..{pq3:.6}"),
                format!("{cq1:.6}..{cq3:.6}"),
                v.as_str()
            ));
        }
        let (pf, cf) = (parent.failed_ratio(w), change.failed_ratio(w));
        if cf > pf {
            out.push_str(&format!("{w:<18} failed ratio rose from {pf} to {cf}\n"));
            pass = false;
        }
    }
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;

    fn seeded(values: &[f64]) -> Vec<(u64, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64 + 1, v))
            .collect()
    }

    fn scaled(values: &[f64], f: f64) -> Vec<f64> {
        values.iter().map(|v| v * f).collect()
    }

    const STEADY: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3,
    ];

    #[test]
    fn clear_gain_is_improved() {
        let parent = seeded(&STEADY);
        let change = seeded(&scaled(&STEADY, 1.05));
        assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Improved);
        let faster = seeded(&scaled(&STEADY, 0.95));
        assert_eq!(verdict(&parent, &faster, true, 0.1), Verdict::Improved);
    }

    #[test]
    fn small_or_mixed_change_is_within_bound() {
        let parent = seeded(&STEADY);
        // Medians differ by less than the parent's quartile distance.
        let change = seeded(&scaled(&STEADY, 1.001));
        assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::WithinBound);
        // 5% worse against a 10% bound.
        let worse = seeded(&scaled(&STEADY, 0.95));
        assert_eq!(verdict(&parent, &worse, false, 0.1), Verdict::WithinBound);
    }

    #[test]
    fn worsening_past_the_bound_is_regressed() {
        let parent = seeded(&STEADY);
        let slower = seeded(&scaled(&STEADY, 0.85));
        assert_eq!(verdict(&parent, &slower, false, 0.1), Verdict::Regressed);
        let bigger = seeded(&scaled(&STEADY, 1.2));
        assert_eq!(verdict(&parent, &bigger, true, 0.1), Verdict::Regressed);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        let parent = seeded(&noisy);
        let change = seeded(&scaled(&noisy, 1.02));
        assert_eq!(verdict(&parent, &change, false, 0.1), Verdict::Unresolved);
        // Unless every run of the change beats every run of the parent.
        let far = seeded(&scaled(&noisy, 3.0));
        assert_eq!(verdict(&parent, &far, false, 0.1), Verdict::Improved);
    }

    #[test]
    fn run_sets_round_trip_and_compare() {
        let run = |seed: u64, pps: f64, failed: f64| Run {
            workload: "w".into(),
            seed,
            correct: true,
            attempted: 10.0,
            failed,
            metrics: [("points_per_s".to_string(), pps)].into_iter().collect(),
            latency_ns: Vec::new(),
        };
        let set = |failed: f64| RunSet {
            host: vec![("nproc".into(), "2".into())],
            seconds: 10.0,
            runs: (1..=10)
                .map(|s| run(s, STEADY[s as usize - 1], failed))
                .collect(),
        };
        let parent = RunSet::parse(&set(0.0).to_json()).expect("round trip");
        assert_eq!(parent.runs.len(), 10);
        assert_eq!(parent.host, [("nproc".to_string(), "2".to_string())]);
        let spec = Catalog::parse(
            r#"{"end_to_end": [{"name": "points_per_s", "unit": "points/s", "better": "higher", "bound": 0.1}],
                "per_layer": []}"#,
        )
        .expect("spec");
        let metrics = &spec.end_to_end;
        assert!(compare(&parent, &set(0.0), metrics).1);
        assert!(!compare(&parent, &set(1.0), metrics).1, "failed ratio rose");
        let mut wrong = set(0.0);
        wrong.runs[3].correct = false;
        assert!(!compare(&parent, &wrong, metrics).1, "an incorrect run");
    }
}
