//! HTTP/1.1 serving: the workspace's one accept loop, and the
//! assignment service built on it.
//!
//! [`serve`] binds an address and answers every request with a
//! caller-supplied handler. One acceptor thread hands connections to a
//! fixed pool of worker threads over an `mpsc` channel; each worker
//! owns a connection for its keep-alive lifetime, so the pool size
//! bounds the threads a server ever runs. An idle keep-alive connection
//! is closed at its next read timeout when another connection is
//! waiting for a worker, so idle clients cannot starve new ones.
//! Requests that fail to parse get a 400 (413 when too large) and the
//! connection closes. The handler is a generic parameter, so each
//! server's request path is monomorphized: no dynamic dispatch per
//! request.
//!
//! [`Server`] is that loop plus the assignment routes over an
//! immutable [`AssignmentEngine`]. Request handling takes no locks —
//! the only shared mutable state is atomic counters. Endpoints (JSON
//! in, JSON out):
//!
//! | method | path            | body                      | reply |
//! |--------|-----------------|---------------------------|-------|
//! | POST   | `/assign`       | `{"point": [..]}`         | `{"cluster", "route", "sq_dist"}` |
//! | POST   | `/assign_batch` | `{"points": [[..], ..]}`  | `{"clusters": [..], "routes": [..], "count"}` |
//! | GET    | `/healthz`      | —                         | `{"status": "ok"}` |
//! | GET    | `/stats`        | —                         | uptime, per-endpoint latency/QPS, routing tiers |
//! | GET    | `/metrics`      | —                         | Prometheus text exposition (per-endpoint latency histograms, routing-tier counters, process-wide registry) |
//!
//! A batch runs on the worker thread that owns its connection.
//!
//! Shutdown is graceful: [`ServerHandle::shutdown`] (or dropping the
//! handle) stops the acceptor, lets every worker finish its in-flight
//! request, and joins all threads.

use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dasc_obs::Registry;

use crate::engine::AssignmentEngine;
use crate::http::{self, HttpError, Request};
use crate::json::{object, JsonValue};
use crate::stats::EndpointStats;

/// Idle read timeout per connection. It bounds shutdown latency, since
/// a worker parked on an idle connection re-checks the shutdown flag
/// each time the read times out, and how long a queued connection waits
/// for a worker held by an idle one.
const READ_TIMEOUT: Duration = Duration::from_millis(500);

/// A handler's reply: status, content type and body.
pub type Response = (u16, &'static str, String);

/// Where and how wide an assignment server runs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads (each owns one connection at a time).
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

/// An assignment service ready to bind.
pub struct Server {
    engine: AssignmentEngine,
    config: ServerConfig,
}

struct Shared {
    engine: AssignmentEngine,
    /// Per-server metrics registry backing the endpoint stats; merged
    /// with the process-wide [`dasc_obs::global`] registry on
    /// `/metrics` scrapes.
    registry: Registry,
    started: Instant,
    assign: EndpointStats,
    assign_batch: EndpointStats,
    healthz: EndpointStats,
    stats: EndpointStats,
    metrics: EndpointStats,
}

/// A running server: address + graceful-shutdown control. Dropping it
/// shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Wrap an engine with the given tuning.
    pub fn new(engine: AssignmentEngine, config: ServerConfig) -> Self {
        Self { engine, config }
    }

    /// Bind, spawn the acceptor and worker pool, and return a handle.
    /// Serving begins immediately.
    pub fn start(self) -> io::Result<ServerHandle> {
        let registry = Registry::new();
        let shared = Shared {
            engine: self.engine,
            started: Instant::now(),
            assign: EndpointStats::registered(&registry, "assign"),
            assign_batch: EndpointStats::registered(&registry, "assign_batch"),
            healthz: EndpointStats::registered(&registry, "healthz"),
            stats: EndpointStats::registered(&registry, "stats"),
            metrics: EndpointStats::registered(&registry, "metrics"),
            registry,
        };
        serve(&self.config.addr, self.config.workers, move |request| {
            route(&shared, request)
        })
    }
}

/// Bind `addr` (port 0 picks a free port) and answer every request with
/// `handler` on a pool of `workers` threads (at least one). Serving
/// begins immediately.
pub fn serve<H>(addr: &str, workers: usize, handler: H) -> io::Result<ServerHandle>
where
    H: Fn(&Request) -> Response + Send + Sync + 'static,
{
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    // Connections accepted but not yet taken by a worker.
    let queued = Arc::new(AtomicUsize::new(0));
    let handler = Arc::new(handler);
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));

    let workers: Vec<JoinHandle<()>> = (0..workers.max(1))
        .map(|_| {
            let rx = Arc::clone(&rx);
            let handler = Arc::clone(&handler);
            let shutdown = Arc::clone(&shutdown);
            let queued = Arc::clone(&queued);
            thread::spawn(move || loop {
                // Holding the lock only while receiving keeps the pool
                // work-stealing: any idle worker takes the next
                // connection.
                let conn = rx.lock().expect("worker rx lock").recv();
                match conn {
                    Ok(stream) => {
                        queued.fetch_sub(1, Ordering::SeqCst);
                        serve_connection(stream, &*handler, &shutdown, &queued)
                    }
                    Err(_) => return, // acceptor gone: drain done
                }
            })
        })
        .collect();

    let acceptor = {
        let shutdown = Arc::clone(&shutdown);
        thread::spawn(move || {
            for stream in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(s) => {
                        queued.fetch_add(1, Ordering::SeqCst);
                        if tx.send(s).is_err() {
                            break;
                        }
                    }
                    Err(_) => continue,
                }
            }
            // tx drops here; workers drain the queue and exit.
        })
    };

    Ok(ServerHandle {
        addr,
        shutdown,
        acceptor: Some(acceptor),
        workers,
    })
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block the calling thread until the server stops on its own
    /// (acceptor exits, e.g. on a fatal listener error). Used by the
    /// CLI `serve` command, which runs until the process is killed.
    pub fn wait(mut self) {
        self.join();
    }

    /// Stop accepting, finish in-flight requests, join all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.acceptor.is_none() {
            return; // already joined by `wait`
        }
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept with a self-connect.
        let _ = TcpStream::connect(self.addr);
        self.join();
    }

    fn join(&mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Serve one connection for its keep-alive lifetime, or until it is idle
/// for [`READ_TIMEOUT`] while `queued` connections wait for a worker.
fn serve_connection<H>(stream: TcpStream, handler: &H, shutdown: &AtomicBool, queued: &AtomicUsize)
where
    H: Fn(&Request) -> Response,
{
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);

    loop {
        let request = match http::read_request(&mut reader) {
            Ok(r) => r,
            Err(HttpError::ConnectionClosed) => return,
            Err(HttpError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle keep-alive wait: drop the connection if the
                // server is shutting down or another connection needs
                // this worker, otherwise keep waiting.
                if shutdown.load(Ordering::SeqCst) || queued.load(Ordering::SeqCst) > 0 {
                    return;
                }
                continue;
            }
            Err(e) => {
                let (status, message) = match e {
                    HttpError::TooLarge => (413, "request too large"),
                    _ => (400, "malformed HTTP request"),
                };
                let body = error_json(message);
                let _ =
                    http::write_response(&mut writer, status, JSON_TYPE, body.as_bytes(), false);
                return;
            }
        };

        let keep_alive = request.keep_alive() && !shutdown.load(Ordering::SeqCst);
        let (status, content_type, body) = handler(&request);
        if http::write_response(
            &mut writer,
            status,
            content_type,
            body.as_bytes(),
            keep_alive,
        )
        .is_err()
            || !keep_alive
        {
            return;
        }
    }
}

const JSON_TYPE: &str = "application/json";
/// Prometheus text exposition format version.
const METRICS_TYPE: &str = "text/plain; version=0.0.4";

/// Dispatch a request, recording per-endpoint stats.
fn route(shared: &Shared, request: &Request) -> Response {
    let start = Instant::now();
    let (stats, content_type, outcome) = match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/assign") => (&shared.assign, JSON_TYPE, handle_assign(shared, request)),
        ("POST", "/assign_batch") => (
            &shared.assign_batch,
            JSON_TYPE,
            handle_assign_batch(shared, request),
        ),
        ("GET", "/healthz") => (
            &shared.healthz,
            JSON_TYPE,
            Ok(object([("status", "ok".into())]).to_json()),
        ),
        ("GET", "/stats") => (&shared.stats, JSON_TYPE, Ok(stats_json(shared))),
        ("GET", "/metrics") => (&shared.metrics, METRICS_TYPE, Ok(metrics_text(shared))),
        (_, "/assign" | "/assign_batch" | "/healthz" | "/stats" | "/metrics") => {
            return (405, JSON_TYPE, error_json("method not allowed"));
        }
        _ => return (404, JSON_TYPE, error_json("no such endpoint")),
    };
    match outcome {
        Ok(body) => {
            stats.record_ok(start);
            (200, content_type, body)
        }
        Err(msg) => {
            stats.record_error();
            (400, JSON_TYPE, error_json(&msg))
        }
    }
}

fn parse_body(request: &Request) -> Result<JsonValue, String> {
    let text = std::str::from_utf8(&request.body).map_err(|_| "body is not UTF-8".to_string())?;
    JsonValue::parse(text).map_err(|e| e.to_string())
}

fn extract_point(v: &JsonValue, key: &str, dim: usize) -> Result<Vec<f64>, String> {
    let point = v
        .get(key)
        .ok_or_else(|| format!("missing \"{key}\""))?
        .as_point()
        .ok_or_else(|| format!("\"{key}\" must be a numeric array"))?;
    if point.len() != dim {
        return Err(format!("expected {dim} dimensions, got {}", point.len()));
    }
    Ok(point)
}

fn handle_assign(shared: &Shared, request: &Request) -> Result<String, String> {
    let v = parse_body(request)?;
    let point = extract_point(&v, "point", shared.engine.dimension())?;
    let a = shared.engine.assign(&point);
    Ok(object([
        ("cluster", a.cluster.into()),
        ("route", a.route.as_str().into()),
        ("sq_dist", a.sq_dist.into()),
    ])
    .to_json())
}

fn handle_assign_batch(shared: &Shared, request: &Request) -> Result<String, String> {
    let v = parse_body(request)?;
    let dim = shared.engine.dimension();
    let points: Vec<Vec<f64>> = v
        .get("points")
        .ok_or("missing \"points\"")?
        .as_array()
        .ok_or("\"points\" must be an array")?
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let p = item
                .as_point()
                .ok_or_else(|| format!("points[{i}] is not a numeric array"))?;
            if p.len() != dim {
                return Err(format!(
                    "points[{i}]: expected {dim} dimensions, got {}",
                    p.len()
                ));
            }
            Ok(p)
        })
        .collect::<Result<_, String>>()?;

    let assignments = shared.engine.assign_batch(&points);

    let clusters: Vec<JsonValue> = assignments.iter().map(|a| a.cluster.into()).collect();
    let routes: Vec<JsonValue> = assignments
        .iter()
        .map(|a| a.route.as_str().into())
        .collect();
    Ok(object([
        ("clusters", JsonValue::Array(clusters)),
        ("routes", JsonValue::Array(routes)),
        ("count", assignments.len().into()),
    ])
    .to_json())
}

fn endpoint_json(stats: &EndpointStats, uptime_secs: f64) -> JsonValue {
    let requests = stats.requests();
    let qps = if uptime_secs > 0.0 {
        requests as f64 / uptime_secs
    } else {
        0.0
    };
    object([
        ("requests", requests.into()),
        ("errors", stats.errors().into()),
        ("mean_us", stats.latency.mean().into()),
        ("p50_us", stats.latency.percentile(0.50).into()),
        ("p99_us", stats.latency.percentile(0.99).into()),
        ("qps", qps.into()),
    ])
}

fn stats_json(shared: &Shared) -> String {
    let uptime = shared.started.elapsed().as_secs_f64();
    let routing = shared.engine.routing_counts();
    object([
        ("uptime_seconds", uptime.into()),
        (
            "endpoints",
            object([
                ("assign", endpoint_json(&shared.assign, uptime)),
                ("assign_batch", endpoint_json(&shared.assign_batch, uptime)),
                ("healthz", endpoint_json(&shared.healthz, uptime)),
                ("stats", endpoint_json(&shared.stats, uptime)),
                ("metrics", endpoint_json(&shared.metrics, uptime)),
            ]),
        ),
        (
            "routing",
            object([
                ("exact", routing.exact.into()),
                ("one_bit_neighbor", routing.one_bit_neighbor.into()),
                ("global_fallback", routing.global_fallback.into()),
                ("total", routing.total().into()),
            ]),
        ),
        (
            "model",
            object([
                ("dimension", shared.engine.dimension().into()),
                ("num_clusters", shared.engine.num_clusters().into()),
                ("num_bits", shared.engine.num_bits().into()),
            ]),
        ),
    ])
    .to_json()
}

/// Prometheus exposition of the merged process-wide + per-server
/// snapshot.
///
/// Routing-tier counters and the uptime gauge are inserted at scrape
/// time from the engine's existing atomics rather than mirrored on the
/// assignment hot path, so `/metrics` adds zero per-request overhead.
fn metrics_text(shared: &Shared) -> String {
    let mut snap = dasc_obs::global()
        .snapshot()
        .merge(shared.registry.snapshot());
    let routing = shared.engine.routing_counts();
    for (tier, count) in [
        ("exact", routing.exact),
        ("one_bit_neighbor", routing.one_bit_neighbor),
        ("global_fallback", routing.global_fallback),
    ] {
        snap.counters
            .insert(format!("dasc_serve_route_total{{tier=\"{tier}\"}}"), count);
    }
    snap.gauges.insert(
        "dasc_serve_uptime_seconds".to_string(),
        shared.started.elapsed().as_secs() as i64,
    );
    dasc_obs::prometheus::render(&snap)
}

fn error_json(message: &str) -> String {
    object([("error", message.into())]).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ModelArtifact;
    use dasc_core::{Dasc, DascConfig};
    use dasc_kernel::Kernel;
    use dasc_lsh::LshConfig;
    use std::io::{Read, Write};

    fn test_engine() -> AssignmentEngine {
        let centers = [[0.1, 0.1], [0.9, 0.1], [0.1, 0.9], [0.9, 0.9]];
        let mut pts = Vec::new();
        for c in &centers {
            for i in 0..25 {
                pts.push(vec![
                    c[0] + (i % 7) as f64 * 0.004,
                    c[1] + (i % 5) as f64 * 0.004,
                ]);
            }
        }
        let cfg = DascConfig::for_dataset(pts.len(), 4)
            .kernel(Kernel::gaussian(0.15))
            .lsh(LshConfig::with_bits(2));
        let trained = Dasc::new(cfg).train(&pts);
        AssignmentEngine::new(&ModelArtifact::from_trained(&trained, &pts))
    }

    fn start_test_server() -> ServerHandle {
        Server::new(
            test_engine(),
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .start()
        .expect("bind test server")
    }

    /// Send one raw HTTP request over a fresh connection; return
    /// (status, body).
    fn roundtrip(addr: SocketAddr, raw: &str) -> (u16, String) {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(raw.as_bytes()).expect("send");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("recv");
        let status: u16 = response
            .split_whitespace()
            .nth(1)
            .expect("status")
            .parse()
            .expect("numeric status");
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
        roundtrip(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    /// Points routed so far, as `/stats` reports them.
    fn routed(addr: SocketAddr) -> f64 {
        let (_, body) = roundtrip(
            addr,
            "GET /stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        let v = JsonValue::parse(&body).unwrap();
        v.get("routing")
            .unwrap()
            .get("total")
            .unwrap()
            .as_f64()
            .unwrap()
    }

    #[test]
    fn healthz_and_stats_respond() {
        let server = start_test_server();
        let (status, body) = roundtrip(
            server.addr(),
            "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 200);
        assert_eq!(body, r#"{"status":"ok"}"#);

        let (status, body) = roundtrip(
            server.addr(),
            "GET /stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 200);
        let v = JsonValue::parse(&body).unwrap();
        assert!(v.get("uptime_seconds").unwrap().as_f64().unwrap() >= 0.0);
        assert_eq!(
            v.get("model").unwrap().get("dimension").unwrap().as_f64(),
            Some(2.0)
        );
        server.shutdown();
    }

    #[test]
    fn metrics_endpoint_exposes_prometheus_series() {
        let server = start_test_server();
        let addr = server.addr();
        // Traffic: two successes and one error on /assign.
        for _ in 0..2 {
            let (status, _) = post(addr, "/assign", r#"{"point":[0.1,0.1]}"#);
            assert_eq!(status, 200);
        }
        let (status, _) = post(addr, "/assign", "not json");
        assert_eq!(status, 400);

        let (status, body) = roundtrip(
            addr,
            "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 200);
        // Per-endpoint latency histogram series.
        assert!(
            body.contains("# TYPE dasc_serve_request_duration_us histogram"),
            "{body}"
        );
        assert!(body.contains("dasc_serve_request_duration_us_bucket{endpoint=\"assign\""));
        assert!(body.contains("dasc_serve_request_duration_us_count{endpoint=\"assign\"} 2"));
        // Error counter.
        assert!(body.contains("dasc_serve_request_errors_total{endpoint=\"assign\"} 1"));
        // Routing tiers inserted at scrape time from the engine.
        assert!(body.contains("dasc_serve_route_total{tier=\"exact\"} 2"));
        assert!(body.contains("dasc_serve_route_total{tier=\"global_fallback\"} 0"));
        // Uptime gauge and process-wide registry counters (training in
        // this process bumped dasc_runs_total).
        assert!(body.contains("dasc_serve_uptime_seconds"));
        assert!(body.contains("dasc_runs_total"));
        server.shutdown();
    }

    #[test]
    fn metrics_response_is_plaintext() {
        let server = start_test_server();
        let mut conn = TcpStream::connect(server.addr()).expect("connect");
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .expect("send");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("recv");
        let headers = response.split("\r\n\r\n").next().unwrap_or_default();
        assert!(
            headers.to_ascii_lowercase().contains("text/plain"),
            "{headers}"
        );
        server.shutdown();
    }

    #[test]
    fn assign_endpoint_clusters_points() {
        let server = start_test_server();
        let (status, body) = post(server.addr(), "/assign", r#"{"point":[0.1,0.1]}"#);
        assert_eq!(status, 200);
        let v = JsonValue::parse(&body).unwrap();
        assert!(v.get("cluster").unwrap().as_f64().unwrap() >= 0.0);
        assert_eq!(v.get("route").unwrap().as_str(), Some("exact"));
        assert_eq!(routed(server.addr()), 1.0);
        server.shutdown();
    }

    /// `/assign_batch` of the given points; returns the cluster ids.
    fn assign_batch(addr: SocketAddr, points: &[[f64; 2]]) -> Vec<JsonValue> {
        let points: Vec<String> = points
            .iter()
            .map(|p| format!("[{},{}]", p[0], p[1]))
            .collect();
        let (status, body) = post(
            addr,
            "/assign_batch",
            &format!(r#"{{"points":[{}]}}"#, points.join(",")),
        );
        assert_eq!(status, 200, "{body}");
        let v = JsonValue::parse(&body).unwrap();
        let clusters = v.get("clusters").unwrap().as_array().unwrap().to_vec();
        assert_eq!(
            v.get("count").unwrap().as_f64(),
            Some(clusters.len() as f64)
        );
        clusters
    }

    #[test]
    fn batch_endpoint_preserves_order() {
        let server = start_test_server();
        let addr = server.addr();
        let clusters = assign_batch(addr, &[[0.1, 0.1], [0.9, 0.9], [0.1, 0.1]]);
        assert_eq!(clusters.len(), 3);
        assert_eq!(clusters[0], clusters[2]);
        assert_ne!(clusters[0], clusters[1]);

        // Past 1024 points, in an irregular order over the four blobs:
        // every reply slot must hold its own point's cluster.
        let centers = [[0.1, 0.1], [0.9, 0.1], [0.1, 0.9], [0.9, 0.9]];
        let expected: Vec<JsonValue> = centers
            .iter()
            .map(|c| {
                let (_, body) = post(
                    addr,
                    "/assign",
                    &format!(r#"{{"point":[{},{}]}}"#, c[0], c[1]),
                );
                JsonValue::parse(&body)
                    .unwrap()
                    .get("cluster")
                    .unwrap()
                    .clone()
            })
            .collect();
        let order: Vec<usize> = (0..1500).map(|i| (i * i + i / 7) % 4).collect();
        let points: Vec<[f64; 2]> = order.iter().map(|&c| centers[c]).collect();
        let clusters = assign_batch(addr, &points);
        assert_eq!(clusters.len(), 1500);
        for (i, &c) in order.iter().enumerate() {
            assert_eq!(clusters[i], expected[c], "slot {i}");
        }
        server.shutdown();
    }

    #[test]
    fn bad_requests_get_400s_not_crashes() {
        let server = start_test_server();
        for (path, body) in [
            ("/assign", "not json"),
            ("/assign", r#"{"point":"nope"}"#),
            ("/assign", r#"{"point":[1,2,3]}"#), // wrong dimension
            ("/assign_batch", r#"{"points":[[1],[2,3]]}"#),
            ("/assign_batch", r#"{}"#),
        ] {
            let (status, reply) = post(server.addr(), path, body);
            assert_eq!(status, 400, "{path} {body} → {reply}");
            assert!(reply.contains("error"), "{reply}");
        }
        // Server still healthy afterwards.
        let (status, _) = roundtrip(
            server.addr(),
            "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn unknown_paths_and_methods() {
        let server = start_test_server();
        let (status, _) = roundtrip(
            server.addr(),
            "GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 404);
        let (status, _) = roundtrip(
            server.addr(),
            "GET /assign HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 405);
        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_multiple_requests() {
        let server = start_test_server();
        let mut conn = TcpStream::connect(server.addr()).expect("connect");
        for _ in 0..3 {
            let body = r#"{"point":[0.9,0.9]}"#;
            conn.write_all(
                format!(
                    "POST /assign HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .expect("send");
            // Read exactly one response (headers + fixed-length body).
            let mut buf = Vec::new();
            let mut byte = [0u8; 1];
            while !buf.ends_with(b"\r\n\r\n") {
                conn.read_exact(&mut byte).expect("headers");
                buf.push(byte[0]);
            }
            let text = String::from_utf8_lossy(&buf);
            let len: usize = text
                .lines()
                .find(|l| l.to_ascii_lowercase().starts_with("content-length:"))
                .and_then(|l| l.split(':').nth(1))
                .and_then(|v| v.trim().parse().ok())
                .expect("content-length");
            let mut body_buf = vec![0u8; len];
            conn.read_exact(&mut body_buf).expect("body");
            assert!(String::from_utf8_lossy(&body_buf).contains("cluster"));
        }
        drop(conn);
        assert_eq!(routed(server.addr()), 3.0);
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_are_isolated() {
        let server = start_test_server();
        let addr = server.addr();
        thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    for _ in 0..10 {
                        let (status, body) = post(
                            addr,
                            "/assign",
                            &format!(r#"{{"point":[0.{},0.1]}}"#, (t % 9) + 1),
                        );
                        assert_eq!(status, 200, "{body}");
                    }
                });
            }
        });
        assert_eq!(routed(addr), 40.0);
        server.shutdown();
    }

    #[test]
    fn dropping_the_handle_stops_the_server() {
        let addr = start_test_server().addr();
        assert!(TcpStream::connect(addr).is_err(), "{addr} still accepts");
    }

    #[test]
    fn shutdown_joins_quickly() {
        let server = start_test_server();
        // Leave a keep-alive connection idle to exercise the timeout
        // wake-up path.
        let _idle = TcpStream::connect(server.addr()).expect("connect");
        let begin = Instant::now();
        server.shutdown();
        assert!(
            begin.elapsed() < Duration::from_secs(5),
            "shutdown took {:?}",
            begin.elapsed()
        );
    }
}
