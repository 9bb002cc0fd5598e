//! Span arithmetic: self times of the benchmark's own spans, and the
//! complete events of a Chrome trace written by the program.

use std::collections::HashMap;

use dasc_obs::SpanRecord;
use dasc_serve::json::JsonValue;

/// Self time of each span, in microseconds: its duration minus the
/// durations of its direct children. Parent links are per thread, so a
/// task a pool thread steals while it waits inside a span becomes that
/// span's child and is not billed to it.
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *children.entry(p).or_default() += s.dur_us;
        }
    }
    spans
        .iter()
        .map(|s| {
            s.dur_us
                .saturating_sub(children.get(&s.id).copied().unwrap_or(0))
        })
        .collect()
}

/// One complete (`"ph": "X"`) event of a Chrome trace.
pub struct Event {
    /// Span name.
    pub name: String,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// The complete events of a Chrome trace-event JSON array.
pub fn complete_events(trace_json: &str) -> Result<Vec<Event>, String> {
    let doc = JsonValue::parse(trace_json).map_err(|e| format!("trace JSON: {e}"))?;
    let events = doc.as_array().ok_or("trace JSON is not an array")?;
    Ok(events
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .filter_map(|e| {
            Some(Event {
                name: e.get("name")?.as_str()?.to_string(),
                dur_us: e.get("dur")?.as_f64()?,
            })
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, dur_us: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: format!("s{id}"),
            thread: 0,
            start_us: 0,
            dur_us,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(1, None, 100),
            span(2, Some(1), 30),
            span(3, Some(1), 20),
            span(4, Some(2), 10),
        ];
        assert_eq!(self_times(&spans), [50, 20, 20, 10]);
    }

    #[test]
    fn reads_complete_events() {
        let json = r#"[{"name":"process_name","ph":"M","pid":0,"args":{"name":"c"}},
            {"name":"task 3 queued","cat":"dasc","ph":"X","ts":5,"dur":40,"pid":0,"tid":0,"args":{"id":1}},
            {"name":"retry","cat":"dasc","ph":"i","s":"p","ts":9,"pid":0,"tid":0}]"#;
        let events = complete_events(json).expect("parses");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "task 3 queued");
        assert_eq!(events[0].dur_us, 40.0);
    }
}
