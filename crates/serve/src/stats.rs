//! Serving statistics on the unified observability layer.
//!
//! [`EndpointStats::registered`] binds an endpoint's latency histogram
//! and error counter to named series in a [`dasc_obs::Registry`]
//! (`dasc_serve_request_duration_us{endpoint="…"}`,
//! `dasc_serve_request_errors_total{endpoint="…"}`), which is how the
//! server's `/metrics` endpoint sees per-endpoint latency histograms
//! without any extra bookkeeping. Recording is two atomic increments on
//! the hot path.

use std::sync::Arc;
use std::time::Instant;

use dasc_obs::{Counter, Histogram, Registry};

/// Counters for one HTTP endpoint.
#[derive(Clone, Default)]
pub struct EndpointStats {
    /// Latency of successful requests, in microseconds.
    pub latency: Arc<Histogram>,
    errors: Arc<Counter>,
}

impl EndpointStats {
    /// Stats backed by named series of `registry`, so they appear in
    /// Prometheus exposition of that registry's snapshot.
    pub fn registered(registry: &Registry, endpoint: &str) -> Self {
        Self {
            latency: registry.histogram(&format!(
                "dasc_serve_request_duration_us{{endpoint=\"{endpoint}\"}}"
            )),
            errors: registry.counter(&format!(
                "dasc_serve_request_errors_total{{endpoint=\"{endpoint}\"}}"
            )),
        }
    }

    /// Record a successful request's duration.
    pub fn record_ok(&self, start: Instant) {
        self.latency.record(start.elapsed().as_micros() as u64);
    }

    /// Record a failed request.
    pub fn record_error(&self) {
        self.errors.inc();
    }

    /// Successful requests served.
    pub fn requests(&self) -> u64 {
        self.latency.count()
    }

    /// Failed requests.
    pub fn errors(&self) -> u64 {
        self.errors.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_stats_count_errors_separately() {
        let s = EndpointStats::default();
        s.record_ok(Instant::now());
        s.record_error();
        s.record_error();
        assert_eq!(s.requests(), 1);
        assert_eq!(s.errors(), 2);
    }

    #[test]
    fn registered_stats_surface_in_registry_snapshot() {
        let registry = Registry::new();
        let s = EndpointStats::registered(&registry, "assign");
        s.latency.record(5);
        s.record_error();

        let snap = registry.snapshot();
        let h = snap
            .histograms
            .get("dasc_serve_request_duration_us{endpoint=\"assign\"}")
            .expect("histogram series");
        assert_eq!(h.count, 1);
        assert_eq!(
            snap.counters
                .get("dasc_serve_request_errors_total{endpoint=\"assign\"}"),
            Some(&1)
        );
    }
}
