//! `benchmark` — run one workload, run a parent and a change in
//! alternating pairs, or compare two run sets.
//!
//! ```text
//! benchmark --workload W --seed S --seconds T --trace 0|1
//! benchmark pairs PARENT_EXE CHANGE_EXE --out DIR [--seeds 1-10] [--seconds T]
//! benchmark compare PARENT.json CHANGE.json
//! ```
//!
//! Run from the repository root (through `cargo run --release
//! --manifest-path perfbench/Cargo.toml --bin benchmark --`). A single
//! run prints a table and, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; it exits non-zero if
//! any correctness check failed. An end-to-end run starts itself again
//! as child processes with `--process I`, each measuring one share of
//! the run in that process.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use dasc_perfbench::catalog::end_to_end;
use dasc_perfbench::compare::{compare, summary, Run, RunSet};
use dasc_perfbench::pipeline::THREADS;
use dasc_perfbench::report::{aggregate, RunReport};
use dasc_perfbench::sys::host_facts;
use dasc_perfbench::workload::{self, Workload, PROCESSES};

/// Where runs write traces and the distributed workload its store.
const OUT_DIR: &str = "perfbench/out";
const USAGE: &str = "usage: benchmark --workload W --seed S --seconds T --trace 0|1\n       \
                     benchmark pairs PARENT_EXE CHANGE_EXE --out DIR [--seeds A-B] [--seconds T]\n       \
                     benchmark compare PARENT.json CHANGE.json";

fn main() -> ExitCode {
    // Every workload runs on two threads, including the process-wide
    // pool that distributed workers execute task bodies on.
    std::env::set_var("DASC_NUM_THREADS", THREADS.to_string());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("pairs") => pairs(&args[1..]),
        Some("compare") => compare_sets(&args[1..]),
        _ => single(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

/// `--flag value` pairs, rejecting anything not in `known`.
fn flags<'a>(args: &'a [String], known: &[&str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(name) = it.next() {
        if !known.contains(&name.as_str()) {
            return Err(format!("unexpected argument {name}"));
        }
        let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
        out.push((name.as_str(), value.as_str()));
    }
    Ok(out)
}

fn get<'a>(flags: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
    flags.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

fn seconds(flags: &[(&str, &str)]) -> Result<f64, String> {
    let s: f64 = get(flags, "--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if s > 0.0 {
        Ok(s)
    } else {
        Err("--seconds must be positive".to_string())
    }
}

fn single(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--process"],
    )?;
    let name = get(&f, "--workload").ok_or("--workload is required")?;
    let w = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed: u64 = get(&f, "--seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|_| "--seed takes a whole number")?;
    let trace = match get(&f, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let secs = seconds(&f)?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let out_dir = Path::new(OUT_DIR);
    let report = match (trace, get(&f, "--process")) {
        (true, _) => workload::run_here(w, seed, secs, true, true, out_dir)?,
        (false, Some(i)) => workload::run_here(w, seed, secs, false, i == "0", out_dir)?,
        (false, None) => spread_over_processes(w, seed, secs)?,
    };
    print!("{}", report.table());
    println!("{}", report.result_json());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// An end-to-end run: [`PROCESSES`] child processes in turn, each
/// setting up once and measuring its share of `secs`, combined.
fn spread_over_processes(w: Workload, seed: u64, secs: f64) -> Result<RunReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let share = (secs / PROCESSES as f64).to_string();
    let parts = (0..PROCESSES)
        .map(|i| {
            child_run(
                &exe,
                w,
                seed,
                &["--seconds", &share, "--process", &i.to_string()],
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(aggregate(&parts))
}

/// Run the benchmark executable `exe` on workload `w` and `seed`, plus
/// `args`, in a child process and read its result line.
fn child_run(exe: &Path, w: Workload, seed: u64, args: &[&str]) -> Result<Run, String> {
    let output = Command::new(exe)
        .args([
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--trace",
            "0",
        ])
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut run = Run::from_result_line(w.name(), seed, stdout.lines().last().unwrap_or(""))
        .map_err(|e| format!("{} seed {seed}: {e}", w.name()))?;
    run.correct &= output.status.success();
    Ok(run)
}

/// Run two benchmark executables, a parent's and a change's, on every
/// workload and seed in alternating pairs: for each seed both sides run
/// one after the other, and which side goes first swaps from one pair to
/// the next, so a slow stretch of the host falls on both. Writes
/// `parent.json` and `change.json` under `--out`, prints the spread of
/// each side and their comparison, and fails as `compare` does.
fn pairs(args: &[String]) -> Result<ExitCode, String> {
    let (exes, rest) = args.split_at(args.len().min(2));
    let [parent_exe, change_exe] = exes else {
        return Err("pairs needs PARENT_EXE and CHANGE_EXE".to_string());
    };
    let f = flags(rest, &["--out", "--seeds", "--seconds"])?;
    let out = Path::new(get(&f, "--out").ok_or("pairs needs --out DIR")?);
    let (first, last) = get(&f, "--seeds")
        .unwrap_or("1-10")
        .split_once('-')
        .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?)))
        .ok_or("--seeds takes a range A-B")?;
    let secs = seconds(&f)?;
    let secs_arg = secs.to_string();
    let sides = [Path::new(parent_exe), Path::new(change_exe)];
    let mut runs: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
    let mut pair = 0usize;
    for w in Workload::ALL {
        for seed in first..=last {
            let order = if pair.is_multiple_of(2) {
                [0, 1]
            } else {
                [1, 0]
            };
            pair += 1;
            for side in order {
                eprintln!(
                    "pairs: {} seed {seed} {}",
                    w.name(),
                    ["parent", "change"][side]
                );
                match child_run(sides[side], w, seed, &["--seconds", &secs_arg]) {
                    Ok(run) => runs[side].push(run),
                    Err(e) => eprintln!("pairs: {e}"),
                }
            }
        }
    }
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let host: Vec<(String, String)> = host_facts()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let [parent_runs, change_runs] = runs;
    let mut sets = Vec::new();
    for (name, runs) in [("parent", parent_runs), ("change", change_runs)] {
        let set = RunSet {
            host: host.clone(),
            seconds: secs,
            runs,
        };
        let path = out.join(format!("{name}.json"));
        std::fs::write(&path, set.to_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("{name}: {}", path.display());
        print!("{}", summary(&set, end_to_end()));
        sets.push(set);
    }
    let expected = Workload::ALL.len() * (first..=last).count();
    let complete = sets.iter().all(|s| s.runs.len() == expected);
    if !complete {
        println!("some runs failed to report; see the messages above");
    }
    let (text, pass) = compare(&sets[0], &sets[1], end_to_end());
    print!("{text}");
    Ok(if pass && complete {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_sets(args: &[String]) -> Result<ExitCode, String> {
    let [parent, change] = args else {
        return Err("compare needs PARENT.json and CHANGE.json".to_string());
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"));
    let (text, pass) = compare(
        &RunSet::parse(&read(parent)?)?,
        &RunSet::parse(&read(change)?)?,
        end_to_end(),
    );
    print!("{text}");
    Ok(if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
