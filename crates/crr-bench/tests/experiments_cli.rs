//! The `experiments` binary refuses what it does not know: an unknown
//! experiment name or flag exits non-zero with a usage line instead of
//! being skipped, so a mistyped CI gate fails rather than passing
//! vacuously.

// Test harness: panicking on a failed spawn is the failure mode we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn the experiments binary")
}

/// Asserts a usage failure naming `what`, and that nothing ran.
fn assert_usage_error(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(what), "stderr: {stderr}");
    assert!(stderr.contains("usage: experiments"), "stderr: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "a rejected command line ran something"
    );
}

#[test]
fn unknown_experiment_fails_before_running_anything() {
    // `fig2` is valid, but the whole command line is checked first.
    let out = experiments(&["--scale", "0.01", "fig2", "fig2x"]);
    assert_usage_error(&out, "unknown experiment 'fig2x'");
}

#[test]
fn mistyped_check_flag_fails() {
    let out = experiments(&["--chek", "BENCH_discovery.json"]);
    assert_usage_error(&out, "unknown flag '--chek'");
}

#[test]
fn retired_check_aliases_fail() {
    for alias in [
        "--check-bench",
        "--check-metrics",
        "--check-analysis",
        "--check-serving",
        "--check-stream",
    ] {
        let out = experiments(&[alias, "BENCH_discovery.json"]);
        assert_usage_error(&out, &format!("unknown flag '{alias}'"));
    }
}

#[test]
fn check_rejects_a_file_without_a_schema() {
    let path = std::env::temp_dir().join(format!("crr-no-schema-{}.json", std::process::id()));
    std::fs::write(&path, "{\"records\": []}").unwrap();
    let out = experiments(&["--check", path.to_str().unwrap()]);
    std::fs::remove_file(&path).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("no 'schema' tag"), "stderr: {stderr}");
}
