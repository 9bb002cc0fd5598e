//! The `serve_assign` workload: a model trained on the balanced mixture,
//! served by `dasc_serve::Server` with two worker threads, and driven
//! with `POST /assign` over one keep-alive connection.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use dasc_core::{Dasc, DascConfig};
use dasc_pool::Pool;
use dasc_serve::json::JsonValue;
use dasc_serve::{http, AssignmentEngine, ModelArtifact, Server, ServerConfig, ServerHandle};

use crate::data::Sample;
use crate::pipeline::{peak_rss, quality, timed, trace_pipeline, THREADS};
use crate::report::RunReport;
use crate::stats::percentile;
use crate::sys::affinity;

/// Server worker threads.
const SERVER_WORKERS: usize = 2;
/// Probes in the request stream, cycled.
const PROBES: usize = 6_000;
/// Untimed requests after start-up.
const WARMUP_REQUESTS: usize = 2_000;
/// Requests per second the latency buffer of a closed loop is sized for
/// up front, so that its growth does not show in peak RSS.
const MAX_RATE: f64 = 200_000.0;
/// Every this many requests, a reply is checked against the engine.
const CHECK_EVERY: usize = 64;
/// Offered rate of the open-loop phase of a traced run.
const OPEN_RATE: f64 = 20_000.0;
/// Length of the open-loop phase.
const OPEN_SECONDS: f64 = 3.0;
/// Length of each per-request cost loop of a traced run.
const MICRO_SECONDS: f64 = 0.5;

/// The request stream: two thirds training points, one sixth with one
/// coordinate pushed out of range (+2.5), one sixth with every fourth
/// coordinate pushed out, so that the neighbor and fallback routing
/// tiers also see traffic.
///
/// ARI and NMI of this workload compare the served cluster of each
/// unshifted probe with the cluster training gave that point: serving
/// must reproduce the model, and how well the model recovers the ground
/// truth is the batch workloads' measure. A shifted point has no such
/// reference (it may sit nearer another cluster).
struct Probes {
    points: Vec<Vec<f64>>,
    /// Training index of each unshifted probe, `None` for shifted ones.
    origin: Vec<Option<usize>>,
    requests: Vec<Vec<u8>>,
}

impl Probes {
    fn new(train: &Sample) -> Probes {
        let dim = train.points[0].len();
        let mut points = Vec::with_capacity(PROBES);
        let mut origin = Vec::with_capacity(PROBES);
        for i in 0..PROBES {
            let base = i % train.points.len();
            let mut p = train.points[base].clone();
            let shifted: Vec<usize> = match i % 6 {
                4 => vec![(i / 6) % dim],
                5 => ((i / 6) % 4..dim).step_by(4).collect(),
                _ => Vec::new(),
            };
            for &j in &shifted {
                p[j] += 2.5;
            }
            points.push(p);
            origin.push(shifted.is_empty().then_some(base));
        }
        let requests = points.iter().map(|p| assign_request(p)).collect();
        Probes {
            points,
            origin,
            requests,
        }
    }
}

/// `POST /assign` with the point written at full precision.
fn assign_request(point: &[f64]) -> Vec<u8> {
    let coords: Vec<String> = point.iter().map(f64::to_string).collect();
    let body = format!("{{\"point\":[{}]}}", coords.join(","));
    format!(
        "POST /assign HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Reads HTTP/1.1 responses off a stream, in order.
struct ResponseReader {
    inner: BufReader<TcpStream>,
    line: String,
}

impl ResponseReader {
    /// Read one response into `body`; returns its status code.
    fn read(&mut self, body: &mut Vec<u8>) -> io::Result<u16> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        self.line.clear();
        if self.inner.read_line(&mut self.line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let status = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut len = 0usize;
        loop {
            self.line.clear();
            self.inner.read_line(&mut self.line)?;
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        body.resize(len, 0);
        self.inner.read_exact(body)?;
        Ok(status)
    }
}

/// A keep-alive connection to the server.
struct Connection {
    writer: TcpStream,
    reader: ResponseReader,
}

impl Connection {
    fn open(addr: SocketAddr) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            writer: stream.try_clone()?,
            reader: ResponseReader {
                inner: BufReader::new(stream),
                line: String::new(),
            },
        })
    }

    fn call(&mut self, request: &[u8], body: &mut Vec<u8>) -> io::Result<u16> {
        self.writer.write_all(request)?;
        self.reader.read(body)
    }
}

fn cluster_of(body: &[u8]) -> Option<usize> {
    let v = JsonValue::parse(std::str::from_utf8(body).ok()?).ok()?;
    Some(v.get("cluster")?.as_f64()? as usize)
}

/// A trained model behind a running server.
struct Serving {
    artifact: ModelArtifact,
    /// The cluster training gave each training point.
    trained_labels: Vec<usize>,
    /// Where the client and the server threads run.
    placement: Placement,
    server: ServerHandle,
    conn: Connection,
}

/// CPU placement of the serving workload: the server threads on the last
/// CPU this thread may use, the client on the others, so that every
/// request and reply crosses CPUs, as a remote client's would. Left to the
/// scheduler, whether the client and the serving thread shared a CPU was
/// settled per process on a 2-vCPU VM, and a process's median latency
/// came out near 13.5 µs (shared) or 20 µs (crossed) at random. Placed
/// apart, ten processes ranged 29–37 µs; sharing, alternated with them,
/// 14–23 µs. The traced run measures the shared placement as a ratio.
struct Placement {
    /// The CPUs this thread could use before placement; empty when
    /// affinity is unavailable or there is one CPU, and nothing is pinned.
    all: Vec<usize>,
}

impl Placement {
    fn query() -> Placement {
        let all = affinity::get().unwrap_or_else(|e| {
            eprintln!("serve: running unpinned: {e}");
            Vec::new()
        });
        Placement {
            all: if all.len() > 1 { all } else { Vec::new() },
        }
    }

    /// The server's CPU.
    fn server(&self) -> &[usize] {
        &self.all[self.all.len().saturating_sub(1)..]
    }

    /// The client's CPUs: all but the server's.
    fn others(&self) -> &[usize] {
        &self.all[..self.all.len().saturating_sub(1)]
    }

    /// Restrict the calling thread to `cpus`; no-op when nothing is pinned.
    fn pin(cpus: &[usize]) -> Result<(), String> {
        if cpus.is_empty() {
            return Ok(());
        }
        affinity::set(cpus).map_err(|e| format!("pin to CPUs {cpus:?}: {e}"))
    }
}

impl Serving {
    /// Train, pin, start the server, connect and send the warm-up
    /// requests.
    fn start(
        pool: &Pool,
        train: &Sample,
        cfg: &DascConfig,
        probes: &Probes,
    ) -> Result<Serving, String> {
        let trained = pool.install(|| Dasc::new(cfg.clone()).train(&train.points));
        let artifact = ModelArtifact::from_trained(&trained, &train.points);
        let placement = Placement::query();
        let config = ServerConfig {
            workers: SERVER_WORKERS,
            ..ServerConfig::default()
        };
        // The server threads inherit this thread's affinity.
        Placement::pin(placement.server())?;
        let server = Server::new(AssignmentEngine::new(&artifact), config)
            .start()
            .map_err(|e| format!("server start: {e}"))?;
        Placement::pin(placement.others())?;
        let mut conn = Connection::open(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let mut body = Vec::new();
        for r in probes.requests.iter().cycle().take(WARMUP_REQUESTS) {
            let status = conn
                .call(r, &mut body)
                .map_err(|e| format!("warm-up: {e}"))?;
            if status != 200 {
                return Err(format!("warm-up request answered {status}"));
            }
        }
        Ok(Serving {
            artifact,
            trained_labels: trained.result.clustering.assignments,
            placement,
            server,
            conn,
        })
    }

    /// Close the connection, shut the server down and unpin.
    fn stop(self) -> Result<ModelArtifact, String> {
        drop(self.conn);
        self.server.shutdown();
        Placement::pin(&self.placement.all)?;
        Ok(self.artifact)
    }
}

/// Closed loop on the serving connection for `seconds`: returns each
/// request's latency in nanoseconds and the wall of the window. The first
/// full pass over the probes records every served cluster in `served`;
/// after it, every [`CHECK_EVERY`]th reply is checked against `engine`.
fn closed_loop(
    report: &mut RunReport,
    s: &mut Serving,
    probes: &Probes,
    engine: &AssignmentEngine,
    seconds: f64,
    served: &mut Vec<usize>,
) -> (Vec<f64>, f64) {
    let mut latencies = Vec::with_capacity(PROBES + (seconds * MAX_RATE) as usize);
    let mut body = Vec::new();
    let (mut failed, mut wrong) = (0u64, 0usize);
    let start = Instant::now();
    let mut i = 0usize;
    while i < PROBES || start.elapsed().as_secs_f64() < seconds {
        let p = i % PROBES;
        let t = Instant::now();
        let status = s.conn.call(&probes.requests[p], &mut body);
        latencies.push(t.elapsed().as_nanos() as f64);
        match status {
            Ok(200) => {
                if i < PROBES || i.is_multiple_of(CHECK_EVERY) {
                    let got = cluster_of(&body);
                    if i < PROBES {
                        served.push(got.unwrap_or(usize::MAX));
                    }
                    wrong += usize::from(got != Some(engine.assign(&probes.points[p]).cluster));
                }
            }
            Ok(status) => {
                eprintln!("request {i} answered {status}");
                failed += 1;
            }
            Err(e) => {
                eprintln!("request {i}: {e}");
                failed += 1;
                break;
            }
        }
        i += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    report.attempted += i as u64;
    report.failed += failed;
    report.check(wrong == 0, || {
        format!("{wrong} checked replies differ from AssignmentEngine::assign")
    });
    (latencies, wall)
}

/// End-to-end run in this process: set up (train, start the server,
/// warm up), then the closed loop for `seconds`.
pub fn run_serve(
    report: &mut RunReport,
    train: &Sample,
    cfg: &DascConfig,
    seconds: f64,
) -> Result<(), String> {
    let probes = Probes::new(train);
    let pool = Pool::new(THREADS);
    let (serving, setup_s) = timed(|| Serving::start(&pool, train, cfg, &probes));
    let mut serving = serving?;
    let engine = AssignmentEngine::new(&serving.artifact);

    let mut served = Vec::with_capacity(PROBES);
    let (latencies, wall) =
        closed_loop(report, &mut serving, &probes, &engine, seconds, &mut served);
    peak_rss(report);
    let (served, trained): (Vec<usize>, Vec<usize>) = served
        .iter()
        .zip(&probes.origin)
        .filter_map(|(&s, o)| o.map(|o| (s, serving.trained_labels[o])))
        .unzip();
    serving.stop()?;

    report.set("points_per_s", latencies.len() as f64 / wall);
    report.set_latencies(latencies);
    report.set("setup_s", setup_s);
    quality(report, &served, &trained);
    Ok(())
}

/// Calls per second of `op` over the probe indices, timed in batches of
/// a thousand calls so no single call is timed alone.
fn rate<T>(mut op: impl FnMut(usize) -> T) -> f64 {
    let (mut calls, mut secs) = (0usize, 0.0);
    let mut i = 0usize;
    while secs < MICRO_SECONDS {
        let t = Instant::now();
        for _ in 0..1000 {
            std::hint::black_box(op(i % PROBES));
            i += 1;
        }
        secs += t.elapsed().as_secs_f64();
        calls += 1000;
    }
    calls as f64 / secs
}

/// Open loop: send at [`OPEN_RATE`] from a spinning generator thread on
/// a second connection, read replies in order, and time each request
/// from when it was due. The generator keeps the other CPUs to itself;
/// replies are read on the server's CPU. Returns the latencies (ns), the
/// generator's worst lateness (s), and the achieved rate.
fn open_loop(
    addr: SocketAddr,
    probes: &Probes,
    placement: &Placement,
) -> io::Result<(Vec<f64>, f64, f64)> {
    let Connection {
        mut writer,
        mut reader,
    } = Connection::open(addr)?;
    let total = (OPEN_RATE * OPEN_SECONDS) as usize;
    let interval = Duration::from_secs_f64(1.0 / OPEN_RATE);
    let start = Instant::now() + Duration::from_millis(10);
    let due = |i: usize| start + interval.mul_f64(i as f64);
    Placement::pin(placement.others()).map_err(io::Error::other)?;
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> io::Result<f64> {
            let mut late_max = 0.0f64;
            for i in 0..total {
                while Instant::now() < due(i) {
                    std::hint::spin_loop();
                }
                late_max = late_max.max((Instant::now() - due(i)).as_secs_f64());
                writer.write_all(&probes.requests[i % PROBES])?;
            }
            Ok(late_max)
        });
        let mut latencies = Vec::with_capacity(total);
        let mut body = Vec::new();
        let mut received = Placement::pin(placement.server()).map_err(io::Error::other);
        for i in 0..total {
            if received.is_err() {
                break;
            }
            match reader.read(&mut body) {
                Ok(200) => latencies.push((Instant::now() - due(i)).as_nanos() as f64),
                Ok(status) => received = Err(io::Error::other(format!("status {status}"))),
                Err(e) => received = Err(e),
            }
        }
        let end = Instant::now();
        if received.is_err() {
            // Unblock a sender stuck on a full socket buffer.
            let _ = reader.inner.get_ref().shutdown(Shutdown::Both);
        }
        let late_max = sender.join().expect("open-loop sender panicked")?;
        received?;
        let achieved = total as f64 / (end - start).as_secs_f64();
        Ok((latencies, late_max, achieved))
    })
}

/// Traced run: a closed-loop window with the client on another CPU than
/// the server and one with it on the server's, the open loop, per-request
/// costs of the engine, JSON and HTTP layers timed outside the server,
/// the routing mix, and the traced training pipeline.
pub fn trace_serve(
    report: &mut RunReport,
    train: &Sample,
    cfg: &DascConfig,
    seconds: f64,
    trace_path: &Path,
) -> Result<(), String> {
    let probes = Probes::new(train);
    let pool = Pool::new(THREADS);
    let mut serving = Serving::start(&pool, train, cfg, &probes)?;
    let engine = AssignmentEngine::new(&serving.artifact);

    let window = (seconds / 6.0).max(1.0);
    let (closed, _) = closed_loop(
        report,
        &mut serving,
        &probes,
        &engine,
        window,
        &mut Vec::new(),
    );
    let closed_p50 = percentile(&closed, 0.5);
    report.set("serve.p99_over_p50", percentile(&closed, 0.99) / closed_p50);
    Placement::pin(serving.placement.server())?;
    let (shared, _) = closed_loop(
        report,
        &mut serving,
        &probes,
        &engine,
        window,
        &mut Vec::new(),
    );
    report.set(
        "serve.same_cpu_p50_over_cross",
        percentile(&shared, 0.5) / closed_p50,
    );

    let (open, late_max, achieved) = open_loop(serving.server.addr(), &probes, &serving.placement)
        .map_err(|e| format!("open loop: {e}"))?;
    report.attempted += open.len() as u64;
    let open_p50 = percentile(&open, 0.5);
    report.set("serve.openloop_p50_over_closed", open_p50 / closed_p50);
    report.set(
        "serve.openloop_p99_over_p50",
        percentile(&open, 0.99) / open_p50,
    );
    report.set("serve.openloop_achieved_ratio", achieved / OPEN_RATE);
    report.set("serve.openloop_late_max_intervals", late_max * OPEN_RATE);
    let artifact = serving.stop()?;

    let bodies: Vec<String> = probes
        .requests
        .iter()
        .map(|r| {
            let text = std::str::from_utf8(r).expect("requests are UTF-8");
            text[text.find("\r\n\r\n").expect("header end") + 4..].to_string()
        })
        .collect();
    report.set(
        "serve.engine_assigns_per_s",
        rate(|i| engine.assign(&probes.points[i])),
    );
    report.set(
        "serve.json_parses_per_s",
        rate(|i| JsonValue::parse(&bodies[i]).is_ok()),
    );
    report.set(
        "serve.http_parses_per_s",
        rate(|i| http::read_request(&mut &probes.requests[i][..]).is_ok()),
    );
    // The routing mix of one pass over the probe stream.
    let routing = AssignmentEngine::new(&artifact);
    for p in &probes.points {
        routing.assign(p);
    }
    let counts = routing.routing_counts();
    let total = counts.total() as f64;
    report.set("serve.route_exact_ratio", counts.exact as f64 / total);
    report.set(
        "serve.route_neighbor_ratio",
        counts.one_bit_neighbor as f64 / total,
    );
    report.set(
        "serve.route_fallback_ratio",
        counts.global_fallback as f64 / total,
    );

    let walls = trace_pipeline(report, &train.points, cfg, seconds / 3.0, trace_path);
    report.set(
        "obs.trace_overhead_pct",
        (walls.traced_s - walls.untraced_s) / walls.untraced_s * 100.0,
    );
    report.attempted += walls.runs;
    report.zero_layer("dist.");
    report.zero_layer("net.");
    report.zero_layer("store.");
    Ok(())
}
