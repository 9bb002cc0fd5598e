//! The coordinator's HTTP sidecar: `GET /metrics` and `GET /workers`.
//!
//! External scrapers (Prometheus, `curl`) shouldn't need to speak the
//! binary RPC protocol to observe a cluster, so the coordinator can
//! also serve its *federated* metrics view — its own registry plus
//! every worker's heartbeat-shipped snapshot re-keyed with
//! `worker="<name>"` — over plain HTTP. [`respond`] is the request
//! handler; it runs on `dasc-serve`'s server loop ([`dasc_serve::serve`]).
//! `/workers` returns a JSON roster of live workers (id, name,
//! staleness, tasks completed) plus the names of dead workers whose
//! series are still federated.

use dasc_serve::http::Request;
use dasc_serve::json::{object, JsonValue};
use dasc_serve::Response;

use crate::coordinator::SharedState;

const TEXT_TYPE: &str = "text/plain; charset=utf-8";

/// Answer one sidecar request.
pub(crate) fn respond(request: &Request, state: &SharedState) -> Response {
    if request.method != "GET" {
        return (405, TEXT_TYPE, "only GET is supported\n".to_string());
    }
    match request.path.split('?').next().unwrap_or("") {
        "/metrics" => (
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            state.federated_metrics_text(),
        ),
        "/workers" => (200, "application/json", workers_json(state)),
        _ => (404, TEXT_TYPE, "try /metrics or /workers\n".to_string()),
    }
}

/// The worker roster: live workers with liveness/progress detail, plus
/// names that only survive through federated metrics (dead workers).
fn workers_json(state: &SharedState) -> String {
    let inner = state.inner.lock().expect("state");
    let mut live: Vec<JsonValue> = Vec::with_capacity(inner.workers.len());
    let mut ids: Vec<&u64> = inner.workers.keys().collect();
    ids.sort_unstable();
    for id in ids {
        let w = &inner.workers[id];
        let in_flight = inner
            .in_flight
            .values()
            .filter(|f| f.worker_id == *id)
            .count();
        live.push(object([
            ("id", JsonValue::Number(*id as f64)),
            ("name", JsonValue::String(w.name.clone())),
            (
                "last_seen_ms",
                JsonValue::Number(w.last_seen.elapsed().as_millis() as f64),
            ),
            ("tasks_done", JsonValue::Number(w.tasks_done as f64)),
            ("in_flight", JsonValue::Number(in_flight as f64)),
        ]));
    }
    let live_names: Vec<&str> = inner.workers.values().map(|w| w.name.as_str()).collect();
    let dead: Vec<JsonValue> = inner
        .worker_metrics
        .keys()
        .filter(|name| !live_names.contains(&name.as_str()))
        .map(|name| JsonValue::String(name.clone()))
        .collect();
    object([
        ("workers", JsonValue::Array(live)),
        ("dead_with_metrics", JsonValue::Array(dead)),
    ])
    .to_json()
}
