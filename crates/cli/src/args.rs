//! Argument parsing for the `dasc` binary (hand-rolled; no external
//! dependencies).
//!
//! ```text
//! dasc cluster  --input pts.csv --k 8 [--algorithm dasc] [--sigma 0.2]
//!               [--bits M] [--seed 42] [--labels-last-column]
//!               [--output out.csv] [--dist local|host:port]
//! dasc generate --kind blobs|wiki|grid --n 1000 [--d 64] [--k 8]
//!               [--seed 42] --output pts.csv
//! dasc train    --input pts.csv --k 8 --model-out m.dasc [--sigma 0.2]
//!               [--bits M] [--seed 42] [--labels-last-column]
//! dasc serve    --model m.dasc [--port 7878] [--addr 127.0.0.1]
//!               [--workers N]
//! dasc assign   --model m.dasc --input new.csv [--output out.csv]
//!               [--labels-last-column]
//! ```

use std::fmt;

/// Which clustering algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// The paper's contribution.
    Dasc,
    /// Exact spectral clustering.
    Sc,
    /// Parallel spectral clustering (t-NN sparse).
    Psc,
    /// Nyström-extension spectral clustering.
    Nyst,
    /// Self-tuning spectral clustering (Zelnik-Manor local scaling).
    Stsc,
}

impl Algorithm {
    fn parse(s: &str) -> Result<Self, ParseError> {
        match s.to_ascii_lowercase().as_str() {
            "dasc" => Ok(Self::Dasc),
            "sc" => Ok(Self::Sc),
            "psc" => Ok(Self::Psc),
            "nyst" | "nystrom" => Ok(Self::Nyst),
            "stsc" | "self-tuning" => Ok(Self::Stsc),
            other => Err(ParseError::Invalid(format!("unknown algorithm '{other}'"))),
        }
    }
}

/// A fully-parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Cluster a CSV dataset or a packed `.dstr` store.
    Cluster {
        /// Input CSV path (exactly one of `--input` / `--data`).
        input: Option<String>,
        /// Packed `.dstr` store directory to cluster instead of a CSV.
        /// With `--dist <host:port>` the job is submitted *by
        /// reference*: tasks carry shard tables, not points.
        data: Option<String>,
        /// Output CSV path (`-` or empty = stdout).
        output: Option<String>,
        /// Number of clusters.
        k: usize,
        /// Algorithm choice.
        algorithm: Algorithm,
        /// Gaussian bandwidth; `None` = median heuristic.
        sigma: Option<f64>,
        /// LSH signature bits; `None` = paper default.
        bits: Option<usize>,
        /// Treat the last CSV column as a ground-truth label and report
        /// accuracy/NMI.
        labels_last_column: bool,
        /// Print a per-stage wall-time table after the run.
        stage_timings: bool,
        /// Write a Chrome trace-event JSON of the run's stage spans.
        trace_out: Option<String>,
        /// Run the DASC job on a coordinator and its workers: `local` =
        /// a coordinator plus four workers started in this process (the
        /// paper's lab cluster), anything else = the address of a
        /// running coordinator. Labels match a run without `--dist`.
        dist: Option<String>,
        /// RNG seed for every algorithm; `None` = each config's default.
        seed: Option<u64>,
    },
    /// Generate a demo dataset as CSV.
    Generate {
        /// `blobs`, `wiki`, or `grid`.
        kind: String,
        /// Number of points.
        n: usize,
        /// Dimensions (blobs/grid).
        d: usize,
        /// Clusters/categories.
        k: usize,
        /// RNG seed.
        seed: u64,
        /// Output CSV path.
        output: String,
    },
    /// Train a DASC model and persist it as a serving artifact.
    Train {
        /// Input CSV path.
        input: String,
        /// Artifact output path.
        model_out: String,
        /// Number of clusters.
        k: usize,
        /// Gaussian bandwidth; `None` = median heuristic.
        sigma: Option<f64>,
        /// LSH signature bits; `None` = paper default.
        bits: Option<usize>,
        /// RNG seed; `None` = config default.
        seed: Option<u64>,
        /// Strip a trailing ground-truth column and report accuracy/NMI.
        labels_last_column: bool,
        /// Print a per-stage wall-time table after the run.
        stage_timings: bool,
        /// Write a Chrome trace-event JSON of the run's stage spans.
        trace_out: Option<String>,
    },
    /// Serve a persisted model over HTTP.
    Serve {
        /// Artifact path.
        model: String,
        /// Bind host.
        addr: String,
        /// Bind port.
        port: u16,
        /// Worker threads; `None` = available parallelism.
        workers: Option<usize>,
    },
    /// Batch-assign a CSV of points with a persisted model.
    Assign {
        /// Artifact path.
        model: String,
        /// Input CSV path.
        input: String,
        /// Output CSV path (`-` or empty = stdout).
        output: Option<String>,
        /// Strip a trailing ground-truth column and report accuracy/NMI.
        labels_last_column: bool,
    },
    /// Run a DASC cluster coordinator daemon.
    Coordinator {
        /// Bind host.
        addr: String,
        /// Bind port (0 picks a free port).
        port: u16,
        /// HTTP observability port (`/metrics`, `/workers`); `None` =
        /// RPC port + 1.
        http_port: Option<u16>,
    },
    /// Run a DASC worker daemon attached to a coordinator.
    Worker {
        /// Coordinator address (`host:port`).
        coordinator: String,
        /// Worker name reported on registration.
        name: String,
    },
    /// Scrape a coordinator's Prometheus metrics over the wire protocol.
    DistMetrics {
        /// Coordinator address (`host:port`).
        coordinator: String,
    },
    /// Pack a CSV into a sharded on-disk `.dstr` store.
    Pack {
        /// Input CSV path.
        input: String,
        /// Output store directory.
        output: String,
        /// Rows per shard; `None` = format default.
        shard_rows: Option<usize>,
        /// Store the last CSV column as per-row labels.
        labels_last_column: bool,
    },
    /// Print a packed store's manifest and verify every shard checksum.
    Inspect {
        /// Store directory path.
        data: String,
    },
    /// Print usage.
    Help,
}

/// Parse failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Missing required flag.
    Missing(&'static str),
    /// Malformed value or unknown flag/command.
    Invalid(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Missing(flag) => write!(f, "missing required {flag}"),
            ParseError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Usage text.
pub const USAGE: &str = "\
dasc — distributed approximate spectral clustering

USAGE:
  dasc cluster  --input <csv>|--data <dstr> --k <K>
                [--algorithm dasc|sc|psc|nyst|stsc]
                [--sigma <f>] [--bits <M>] [--seed <S>] [--labels-last-column]
                [--output <csv>] [--stage-timings] [--trace-out <json>]
                [--dist local|<host:port>]
  dasc generate --kind blobs|wiki|grid --n <N> [--d <D>] [--k <K>]
                [--seed <S>] --output <csv>
  dasc pack     --input <csv> --output <dstr-dir> [--shard-rows <R>]
                [--labels-last-column]
  dasc inspect  --data <dstr-dir>
  dasc train    --input <csv> --k <K> --model-out <path> [--sigma <f>]
                [--bits <M>] [--seed <S>] [--labels-last-column]
                [--stage-timings] [--trace-out <json>]
  dasc serve    --model <path> [--port <P>] [--addr <host>] [--workers <N>]
  dasc assign   --model <path> --input <csv> [--output <csv>]
                [--labels-last-column]
  dasc coordinator [--addr <host>] [--port <P>] [--http-port <P>]
  dasc worker   --coordinator <host:port> [--name <id>]
  dasc dist-metrics --coordinator <host:port>
  dasc help
";

/// Parse an argv slice (excluding the program name).
pub fn parse(argv: &[String]) -> Result<Command, ParseError> {
    let mut it = argv.iter();
    let cmd = it.next().map(String::as_str).unwrap_or("help");
    match cmd {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "cluster" => parse_cluster(&argv[1..]),
        "generate" => parse_generate(&argv[1..]),
        "train" => parse_train(&argv[1..]),
        "serve" => parse_serve(&argv[1..]),
        "assign" => parse_assign(&argv[1..]),
        "coordinator" => parse_coordinator(&argv[1..]),
        "worker" => parse_worker(&argv[1..]),
        "dist-metrics" => parse_dist_metrics(&argv[1..]),
        "pack" => parse_pack(&argv[1..]),
        "inspect" => parse_inspect(&argv[1..]),
        other => Err(ParseError::Invalid(format!("unknown command '{other}'"))),
    }
}

struct Flags<'a> {
    pairs: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Flags<'a> {
    fn scan(argv: &'a [String], boolean: &[&str]) -> Result<Self, ParseError> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let flag = argv[i].as_str();
            if !flag.starts_with("--") {
                return Err(ParseError::Invalid(format!("unexpected argument '{flag}'")));
            }
            if boolean.contains(&flag) {
                pairs.push((flag, None));
                i += 1;
            } else {
                let value = argv
                    .get(i + 1)
                    .ok_or_else(|| ParseError::Invalid(format!("flag {flag} needs a value")))?;
                pairs.push((flag, Some(value.as_str())));
                i += 2;
            }
        }
        Ok(Self { pairs })
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, v)| *v)
    }

    fn has(&self, flag: &str) -> bool {
        self.pairs.iter().any(|(f, _)| *f == flag)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, ParseError> {
        match self.get(flag) {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|_| ParseError::Invalid(format!("bad value '{v}' for {flag}"))),
        }
    }
}

fn parse_cluster(argv: &[String]) -> Result<Command, ParseError> {
    let flags = Flags::scan(argv, &["--labels-last-column", "--stage-timings"])?;
    let input = flags.get("--input").map(str::to_string);
    let data = flags.get("--data").map(str::to_string);
    match (&input, &data) {
        (None, None) => return Err(ParseError::Missing("--input or --data")),
        (Some(_), Some(_)) => {
            return Err(ParseError::Invalid(
                "--input and --data are mutually exclusive".to_string(),
            ))
        }
        _ => {}
    }
    Ok(Command::Cluster {
        input,
        data,
        output: flags.get("--output").map(str::to_string),
        k: flags
            .parsed::<usize>("--k")?
            .ok_or(ParseError::Missing("--k"))?,
        algorithm: match flags.get("--algorithm") {
            Some(a) => Algorithm::parse(a)?,
            None => Algorithm::Dasc,
        },
        sigma: flags.parsed::<f64>("--sigma")?,
        bits: flags.parsed::<usize>("--bits")?,
        labels_last_column: flags.has("--labels-last-column"),
        stage_timings: flags.has("--stage-timings"),
        trace_out: flags.get("--trace-out").map(str::to_string),
        dist: flags.get("--dist").map(str::to_string),
        seed: flags.parsed::<u64>("--seed")?,
    })
}

fn parse_generate(argv: &[String]) -> Result<Command, ParseError> {
    let flags = Flags::scan(argv, &[])?;
    Ok(Command::Generate {
        kind: flags
            .get("--kind")
            .ok_or(ParseError::Missing("--kind"))?
            .to_string(),
        n: flags
            .parsed::<usize>("--n")?
            .ok_or(ParseError::Missing("--n"))?,
        d: flags.parsed::<usize>("--d")?.unwrap_or(64),
        k: flags.parsed::<usize>("--k")?.unwrap_or(8),
        seed: flags.parsed::<u64>("--seed")?.unwrap_or(42),
        output: flags
            .get("--output")
            .ok_or(ParseError::Missing("--output"))?
            .to_string(),
    })
}

fn parse_train(argv: &[String]) -> Result<Command, ParseError> {
    let flags = Flags::scan(argv, &["--labels-last-column", "--stage-timings"])?;
    Ok(Command::Train {
        input: flags
            .get("--input")
            .ok_or(ParseError::Missing("--input"))?
            .to_string(),
        model_out: flags
            .get("--model-out")
            .ok_or(ParseError::Missing("--model-out"))?
            .to_string(),
        k: flags
            .parsed::<usize>("--k")?
            .ok_or(ParseError::Missing("--k"))?,
        sigma: flags.parsed::<f64>("--sigma")?,
        bits: flags.parsed::<usize>("--bits")?,
        seed: flags.parsed::<u64>("--seed")?,
        labels_last_column: flags.has("--labels-last-column"),
        stage_timings: flags.has("--stage-timings"),
        trace_out: flags.get("--trace-out").map(str::to_string),
    })
}

fn parse_serve(argv: &[String]) -> Result<Command, ParseError> {
    let flags = Flags::scan(argv, &[])?;
    Ok(Command::Serve {
        model: flags
            .get("--model")
            .ok_or(ParseError::Missing("--model"))?
            .to_string(),
        addr: flags.get("--addr").unwrap_or("127.0.0.1").to_string(),
        port: flags.parsed::<u16>("--port")?.unwrap_or(7878),
        workers: flags.parsed::<usize>("--workers")?,
    })
}

fn parse_assign(argv: &[String]) -> Result<Command, ParseError> {
    let flags = Flags::scan(argv, &["--labels-last-column"])?;
    Ok(Command::Assign {
        model: flags
            .get("--model")
            .ok_or(ParseError::Missing("--model"))?
            .to_string(),
        input: flags
            .get("--input")
            .ok_or(ParseError::Missing("--input"))?
            .to_string(),
        output: flags.get("--output").map(str::to_string),
        labels_last_column: flags.has("--labels-last-column"),
    })
}

fn parse_coordinator(argv: &[String]) -> Result<Command, ParseError> {
    let flags = Flags::scan(argv, &[])?;
    Ok(Command::Coordinator {
        addr: flags.get("--addr").unwrap_or("127.0.0.1").to_string(),
        port: flags.parsed::<u16>("--port")?.unwrap_or(7979),
        http_port: flags.parsed::<u16>("--http-port")?,
    })
}

fn parse_worker(argv: &[String]) -> Result<Command, ParseError> {
    let flags = Flags::scan(argv, &[])?;
    Ok(Command::Worker {
        coordinator: flags
            .get("--coordinator")
            .ok_or(ParseError::Missing("--coordinator"))?
            .to_string(),
        name: flags
            .get("--name")
            .unwrap_or(&format!("worker-{}", std::process::id()))
            .to_string(),
    })
}

fn parse_dist_metrics(argv: &[String]) -> Result<Command, ParseError> {
    let flags = Flags::scan(argv, &[])?;
    Ok(Command::DistMetrics {
        coordinator: flags
            .get("--coordinator")
            .ok_or(ParseError::Missing("--coordinator"))?
            .to_string(),
    })
}

fn parse_pack(argv: &[String]) -> Result<Command, ParseError> {
    let flags = Flags::scan(argv, &["--labels-last-column"])?;
    let shard_rows = flags.parsed::<usize>("--shard-rows")?;
    if shard_rows == Some(0) {
        return Err(ParseError::Invalid(
            "--shard-rows must be positive".to_string(),
        ));
    }
    Ok(Command::Pack {
        input: flags
            .get("--input")
            .ok_or(ParseError::Missing("--input"))?
            .to_string(),
        output: flags
            .get("--output")
            .ok_or(ParseError::Missing("--output"))?
            .to_string(),
        shard_rows,
        labels_last_column: flags.has("--labels-last-column"),
    })
}

fn parse_inspect(argv: &[String]) -> Result<Command, ParseError> {
    let flags = Flags::scan(argv, &[])?;
    Ok(Command::Inspect {
        data: flags
            .get("--data")
            .ok_or(ParseError::Missing("--data"))?
            .to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_minimal_cluster() {
        let c = parse(&sv(&["cluster", "--input", "a.csv", "--k", "5"])).unwrap();
        assert_eq!(
            c,
            Command::Cluster {
                input: Some("a.csv".into()),
                data: None,
                output: None,
                k: 5,
                algorithm: Algorithm::Dasc,
                sigma: None,
                bits: None,
                labels_last_column: false,
                stage_timings: false,
                trace_out: None,
                dist: None,
                seed: None,
            }
        );
    }

    #[test]
    fn parses_full_cluster() {
        let c = parse(&sv(&[
            "cluster",
            "--input",
            "a.csv",
            "--k",
            "3",
            "--algorithm",
            "psc",
            "--sigma",
            "0.5",
            "--bits",
            "6",
            "--labels-last-column",
            "--output",
            "out.csv",
        ]))
        .unwrap();
        match c {
            Command::Cluster {
                algorithm,
                sigma,
                bits,
                labels_last_column,
                output,
                ..
            } => {
                assert_eq!(algorithm, Algorithm::Psc);
                assert_eq!(sigma, Some(0.5));
                assert_eq!(bits, Some(6));
                assert!(labels_last_column);
                assert_eq!(output.as_deref(), Some("out.csv"));
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parses_generate_with_defaults() {
        let c = parse(&sv(&[
            "generate", "--kind", "blobs", "--n", "100", "--output", "o.csv",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Generate {
                kind: "blobs".into(),
                n: 100,
                d: 64,
                k: 8,
                seed: 42,
                output: "o.csv".into(),
            }
        );
    }

    #[test]
    fn help_variants() {
        for h in [&["help"][..], &["--help"], &["-h"], &[]] {
            assert_eq!(parse(&sv(h)).unwrap(), Command::Help);
        }
    }

    #[test]
    fn parses_cluster_dist_and_seed() {
        let c = parse(&sv(&[
            "cluster",
            "--input",
            "a.csv",
            "--k",
            "4",
            "--dist",
            "127.0.0.1:7979",
            "--seed",
            "7",
        ]))
        .unwrap();
        match c {
            Command::Cluster { dist, seed, .. } => {
                assert_eq!(dist.as_deref(), Some("127.0.0.1:7979"));
                assert_eq!(seed, Some(7));
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parses_coordinator_defaults_and_overrides() {
        assert_eq!(
            parse(&sv(&["coordinator"])).unwrap(),
            Command::Coordinator {
                addr: "127.0.0.1".into(),
                port: 7979,
                http_port: None,
            }
        );
        assert_eq!(
            parse(&sv(&[
                "coordinator",
                "--addr",
                "0.0.0.0",
                "--port",
                "9000",
                "--http-port",
                "9001",
            ]))
            .unwrap(),
            Command::Coordinator {
                addr: "0.0.0.0".into(),
                port: 9000,
                http_port: Some(9001),
            }
        );
    }

    #[test]
    fn parses_worker() {
        let c = parse(&sv(&[
            "worker",
            "--coordinator",
            "127.0.0.1:7979",
            "--name",
            "w1",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Worker {
                coordinator: "127.0.0.1:7979".into(),
                name: "w1".into(),
            }
        );
        // Name defaults to a pid-derived identifier.
        match parse(&sv(&["worker", "--coordinator", "h:1"])).unwrap() {
            Command::Worker { name, .. } => assert!(name.starts_with("worker-")),
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn worker_requires_coordinator() {
        let e = parse(&sv(&["worker"])).unwrap_err();
        assert_eq!(e, ParseError::Missing("--coordinator"));
        let e = parse(&sv(&["dist-metrics"])).unwrap_err();
        assert_eq!(e, ParseError::Missing("--coordinator"));
    }

    #[test]
    fn missing_required_flag() {
        let e = parse(&sv(&["cluster", "--k", "2"])).unwrap_err();
        assert_eq!(e, ParseError::Missing("--input or --data"));
    }

    #[test]
    fn parses_cluster_data_store() {
        let c = parse(&sv(&["cluster", "--data", "pts.dstr", "--k", "4"])).unwrap();
        match c {
            Command::Cluster { input, data, .. } => {
                assert_eq!(input, None);
                assert_eq!(data.as_deref(), Some("pts.dstr"));
            }
            _ => panic!("wrong command"),
        }
        let e = parse(&sv(&[
            "cluster", "--input", "a.csv", "--data", "a.dstr", "--k", "2",
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("mutually exclusive"), "{e}");
    }

    #[test]
    fn parses_pack_and_inspect() {
        assert_eq!(
            parse(&sv(&[
                "pack",
                "--input",
                "a.csv",
                "--output",
                "a.dstr",
                "--shard-rows",
                "512",
                "--labels-last-column",
            ]))
            .unwrap(),
            Command::Pack {
                input: "a.csv".into(),
                output: "a.dstr".into(),
                shard_rows: Some(512),
                labels_last_column: true,
            }
        );
        assert_eq!(
            parse(&sv(&["pack", "--input", "a.csv", "--output", "a.dstr"])).unwrap(),
            Command::Pack {
                input: "a.csv".into(),
                output: "a.dstr".into(),
                shard_rows: None,
                labels_last_column: false,
            }
        );
        let e = parse(&sv(&[
            "pack",
            "--input",
            "a.csv",
            "--output",
            "a.dstr",
            "--shard-rows",
            "0",
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("positive"), "{e}");
        assert_eq!(
            parse(&sv(&["pack", "--input", "a.csv"])).unwrap_err(),
            ParseError::Missing("--output")
        );

        assert_eq!(
            parse(&sv(&["inspect", "--data", "a.dstr"])).unwrap(),
            Command::Inspect {
                data: "a.dstr".into(),
            }
        );
        assert_eq!(
            parse(&sv(&["inspect"])).unwrap_err(),
            ParseError::Missing("--data")
        );
    }

    #[test]
    fn bad_number() {
        let e = parse(&sv(&["cluster", "--input", "a", "--k", "two"])).unwrap_err();
        assert!(matches!(e, ParseError::Invalid(_)));
    }

    #[test]
    fn unknown_algorithm() {
        let e = parse(&sv(&[
            "cluster",
            "--input",
            "a",
            "--k",
            "2",
            "--algorithm",
            "magic",
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("unknown algorithm"));
    }

    #[test]
    fn unknown_command() {
        assert!(parse(&sv(&["frobnicate"])).is_err());
    }

    #[test]
    fn parses_train() {
        let c = parse(&sv(&[
            "train",
            "--input",
            "a.csv",
            "--k",
            "4",
            "--model-out",
            "m.dasc",
            "--bits",
            "10",
            "--seed",
            "9",
            "--labels-last-column",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Train {
                input: "a.csv".into(),
                model_out: "m.dasc".into(),
                k: 4,
                sigma: None,
                bits: Some(10),
                seed: Some(9),
                labels_last_column: true,
                stage_timings: false,
                trace_out: None,
            }
        );
    }

    #[test]
    fn parses_observability_flags() {
        let c = parse(&sv(&[
            "train",
            "--input",
            "a.csv",
            "--k",
            "4",
            "--model-out",
            "m.dasc",
            "--stage-timings",
            "--trace-out",
            "trace.json",
        ]))
        .unwrap();
        match c {
            Command::Train {
                stage_timings,
                trace_out,
                ..
            } => {
                assert!(stage_timings);
                assert_eq!(trace_out.as_deref(), Some("trace.json"));
            }
            _ => panic!("wrong command"),
        }

        let c = parse(&sv(&[
            "cluster",
            "--input",
            "a.csv",
            "--k",
            "2",
            "--trace-out",
            "t.json",
        ]))
        .unwrap();
        match c {
            Command::Cluster {
                stage_timings,
                trace_out,
                ..
            } => {
                assert!(!stage_timings);
                assert_eq!(trace_out.as_deref(), Some("t.json"));
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn train_requires_model_out() {
        let e = parse(&sv(&["train", "--input", "a.csv", "--k", "4"])).unwrap_err();
        assert_eq!(e, ParseError::Missing("--model-out"));
    }

    #[test]
    fn parses_serve_with_defaults() {
        let c = parse(&sv(&["serve", "--model", "m.dasc"])).unwrap();
        assert_eq!(
            c,
            Command::Serve {
                model: "m.dasc".into(),
                addr: "127.0.0.1".into(),
                port: 7878,
                workers: None,
            }
        );
    }

    #[test]
    fn parses_serve_overrides() {
        let c = parse(&sv(&[
            "serve",
            "--model",
            "m",
            "--port",
            "9000",
            "--addr",
            "0.0.0.0",
            "--workers",
            "3",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Serve {
                model: "m".into(),
                addr: "0.0.0.0".into(),
                port: 9000,
                workers: Some(3),
            }
        );
    }

    #[test]
    fn parses_assign() {
        let c = parse(&sv(&[
            "assign", "--model", "m.dasc", "--input", "new.csv", "--output", "o.csv",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Assign {
                model: "m.dasc".into(),
                input: "new.csv".into(),
                output: Some("o.csv".into()),
                labels_last_column: false,
            }
        );
    }

    #[test]
    fn assign_requires_model() {
        let e = parse(&sv(&["assign", "--input", "new.csv"])).unwrap_err();
        assert_eq!(e, ParseError::Missing("--model"));
    }

    #[test]
    fn dangling_flag_value() {
        let e = parse(&sv(&["cluster", "--input"])).unwrap_err();
        assert!(e.to_string().contains("needs a value"));
    }
}
