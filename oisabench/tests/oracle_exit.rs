//! The oracle check decides the exit code: a run whose results match
//! prints a result line and exits 0; the same run with one output bit
//! flipped exits 1 and prints no metrics.

use std::process::Command;

fn run(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_oisabench"))
        .args([
            "--workload",
            "camera_stream",
            "--seed",
            "3",
            "--seconds",
            "0.2",
        ])
        .args(["--trace", "0"])
        .args(extra)
        .output()
        .expect("the benchmark binary runs")
}

#[test]
fn a_clean_run_prints_a_result_line() {
    let out = run(&[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("output");
    assert!(last.starts_with("{\"correct\":true,"), "{last}");
    assert!(last.contains("\"latency_p90_ms\":{\"value\":"), "{last}");
}

#[test]
fn a_corrupted_output_exits_non_zero_without_metrics() {
    let out = run(&["--corrupt-one-output"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"metrics\""));
    assert!(String::from_utf8_lossy(&out.stderr).contains("differs from"));
}
