//! Every metric the benchmark reports, with its unit, direction and
//! bound, read from `BENCHMARK.json` at the repository root. The file is
//! compiled in, so the metrics are declared in one place.
//!
//! Every workload reports every metric. A per-layer metric of a layer
//! that a workload does not run (the distributed runtime on a local
//! workload, the HTTP server on a batch workload) reads 0. Those
//! workload-specific layers are therefore reported as counts, rates and
//! shares, never as bare times, so that a time metric always measures
//! work that happened.

use std::sync::OnceLock;

use dasc_serve::json::JsonValue;

/// One declared metric.
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// End-to-end metrics: the largest tolerated worsening, as a share of
    /// the parent's median. Per-layer metrics have none.
    pub bound: Option<f64>,
}

/// The metric lists of a `BENCHMARK.json`.
pub struct Catalog {
    /// End-to-end metrics, measured with tracing off.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, from the separate traced run.
    pub per_layer: Vec<Metric>,
}

fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing \"{key}\""))
}

fn text(v: &JsonValue, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("\"{key}\" is not a string"))
}

fn metrics(spec: &JsonValue, list: &str, bounded: bool) -> Result<Vec<Metric>, String> {
    field(spec, list)?
        .as_array()
        .ok_or_else(|| format!("\"{list}\" is not an array"))?
        .iter()
        .map(|m| {
            let bound = match (bounded, m.get("bound")) {
                (true, Some(b)) => Some(b.as_f64().ok_or("\"bound\" is not a number")?),
                (true, None) => return Err("an end-to-end metric has no \"bound\"".to_string()),
                (false, _) => None,
            };
            Ok(Metric {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                lower_is_better: match text(m, "better")?.as_str() {
                    "lower" => true,
                    "higher" => false,
                    _ => return Err("\"better\" must be \"lower\" or \"higher\"".to_string()),
                },
                bound,
            })
        })
        .collect()
}

impl Catalog {
    /// Read the metric lists of a `BENCHMARK.json` text.
    pub fn parse(spec: &str) -> Result<Catalog, String> {
        let v = JsonValue::parse(spec).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(Catalog {
            end_to_end: metrics(&v, "end_to_end", true)?,
            per_layer: metrics(&v, "per_layer", false)?,
        })
    }
}

/// The repository's `BENCHMARK.json`, parsed once.
pub fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        Catalog::parse(include_str!("../../BENCHMARK.json"))
            .expect("the repository's BENCHMARK.json declares the metrics")
    })
}

/// End-to-end metrics of the repository's `BENCHMARK.json`.
pub fn end_to_end() -> &'static [Metric] {
    &catalog().end_to_end
}

/// Per-layer metrics of the repository's `BENCHMARK.json`.
pub fn per_layer() -> &'static [Metric] {
    &catalog().per_layer
}

/// The unit of a declared metric.
pub fn unit(name: &str) -> Option<&'static str> {
    end_to_end()
        .iter()
        .chain(per_layer())
        .find(|m| m.name == name)
        .map(|m| m.unit.as_str())
}
