//! Black-box tests of the compiled `dasc` CLI binary: spawn the real
//! executable and assert on its stdout/stderr/exit codes.

use std::process::Command;

/// The `dasc` binary, built by cargo before this test runs.
fn dasc_bin() -> &'static str {
    env!("CARGO_BIN_EXE_dasc")
}

fn tmp(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("dasc-bin-test-{}-{name}", std::process::id()));
    p.to_string_lossy().into_owned()
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = Command::new(dasc_bin())
        .arg("help")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"), "stdout: {text}");
}

#[test]
fn bad_command_exits_nonzero_with_usage() {
    let out = Command::new(dasc_bin())
        .arg("frobnicate")
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "stderr: {err}");
    assert!(err.contains("USAGE"), "stderr: {err}");
}

#[test]
fn generate_and_cluster_end_to_end() {
    let data = tmp("e2e.csv");
    let assignments = tmp("e2e-assign.csv");

    let out = Command::new(dasc_bin())
        .args([
            "generate", "--kind", "blobs", "--n", "150", "--d", "8", "--k", "3", "--seed", "7",
            "--output", &data,
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = Command::new(dasc_bin())
        .args([
            "cluster",
            "--input",
            &data,
            "--k",
            "3",
            "--labels-last-column",
            "--output",
            &assignments,
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("accuracy:"), "report: {report}");

    let written = std::fs::read_to_string(&assignments).expect("assignments file");
    assert_eq!(written.lines().count(), 151); // header + 150 rows

    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_file(&assignments);
}

#[test]
fn cluster_labels_agree_across_kernel_backends() {
    // Pipeline-level backend equivalence: the same clustering run under
    // DASC_KERNEL=scalar and DASC_KERNEL=auto must emit identical
    // labels. Distances differ by a few ULPs between backends, but the
    // spectral fixtures have no near-exact ties for those ULPs to flip.
    // Each backend gets its own process because the backend is resolved
    // once per process.
    let data = tmp("backend.csv");
    let out = Command::new(dasc_bin())
        .args([
            "generate", "--kind", "blobs", "--n", "200", "--d", "8", "--k", "4", "--seed", "11",
            "--output", &data,
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut assignment_files = Vec::new();
    for backend in ["scalar", "auto"] {
        let assignments = tmp(&format!("backend-assign-{backend}.csv"));
        let out = Command::new(dasc_bin())
            .env("DASC_KERNEL", backend)
            .args([
                "cluster",
                "--input",
                &data,
                "--k",
                "4",
                "--labels-last-column",
                "--output",
                &assignments,
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "DASC_KERNEL={backend}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assignment_files.push(assignments);
    }

    let scalar_labels = std::fs::read_to_string(&assignment_files[0]).expect("scalar labels");
    let auto_labels = std::fs::read_to_string(&assignment_files[1]).expect("auto labels");
    assert_eq!(
        scalar_labels, auto_labels,
        "clustering labels diverged between scalar and auto kernel backends"
    );

    let _ = std::fs::remove_file(&data);
    for f in assignment_files {
        let _ = std::fs::remove_file(&f);
    }
}

#[test]
fn missing_file_reports_cleanly() {
    let out = Command::new(dasc_bin())
        .args(["cluster", "--input", "/definitely/not/here.csv", "--k", "2"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("open"), "stderr: {err}");
}

#[test]
fn out_of_range_bits_exit_2_with_a_typed_error() {
    let data = tmp("bits.csv");
    let model = tmp("bits.dasc");
    let out = Command::new(dasc_bin())
        .args([
            "generate", "--kind", "blobs", "--n", "40", "--d", "4", "--k", "2", "--output", &data,
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    for bits in ["0", "65"] {
        let runs: [&[&str]; 3] = [
            &["cluster", "--input", &data, "--k", "2", "--bits", bits],
            &[
                "cluster", "--input", &data, "--k", "2", "--dist", "local", "--bits", bits,
            ],
            &[
                "train",
                "--input",
                &data,
                "--k",
                "2",
                "--model-out",
                &model,
                "--bits",
                bits,
            ],
        ];
        for args in runs {
            let out = Command::new(dasc_bin())
                .args(args)
                .output()
                .expect("binary runs");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
            assert!(
                err.starts_with("error: --bits must be in 1..=64"),
                "{args:?}: {err}"
            );
        }
    }
    assert!(!std::path::Path::new(&model).exists());
    let _ = std::fs::remove_file(&data);
}
