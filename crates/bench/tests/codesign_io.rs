//! The `codesign` binary reports unwritable output paths as one `error:`
//! line and exit code 1 — never a panic, never a silent exit 0 — and its
//! `--lint=deny` / `--lint=deny-warnings` policies decide the exit code,
//! and `--lint=fix` fails only an unsound repair.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("printed-bench-io-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn codesign(args: &[&str], trace: Option<&str>) -> Output {
    let mut command = Command::new(env!("CARGO_BIN_EXE_codesign"));
    command.args(args).env_remove("PRINTED_TRACE_LIVE");
    match trace {
        Some(path) => command.env("PRINTED_TRACE", path),
        None => command.env_remove("PRINTED_TRACE"),
    };
    command.output().expect("codesign runs")
}

/// Asserts exit 1 with exactly one stderr line, which contains `needle`.
fn assert_one_error_line(output: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "stderr: {stderr}");
    assert!(lines[0].starts_with("error: "), "stderr: {stderr}");
    assert!(lines[0].contains(needle), "stderr: {stderr}");
}

#[test]
fn an_unopenable_checkpoint_fails_before_the_sweep() {
    let output = codesign(
        &["seeds", "--quick", "--resume", "/nonexistent/dir/ck.ndjson"],
        None,
    );
    assert_one_error_line(
        &output,
        "cannot open checkpoint file /nonexistent/dir/ck.ndjson",
    );
}

#[test]
fn an_unopenable_campaign_checkpoint_fails_before_the_sweep() {
    // The sweep checkpoint is writable; its `.robust` sibling is a
    // directory, which cannot be opened for appending.
    let path = scratch("ck.ndjson");
    let campaign = PathBuf::from(format!("{}.robust", path.display()));
    std::fs::create_dir_all(&campaign).unwrap();
    let output = codesign(
        &[
            "seeds",
            "--quick",
            "--robust",
            "--resume",
            path.to_str().unwrap(),
        ],
        None,
    );
    assert_one_error_line(
        &output,
        &format!("cannot open checkpoint file {}", campaign.display()),
    );
}

#[test]
fn an_unwritable_trace_path_exits_non_zero() {
    let output = codesign(&["seeds", "--quick"], Some("/nonexistent/dir/t.ndjson"));
    assert_one_error_line(
        &output,
        "PRINTED_TRACE: cannot write /nonexistent/dir/t.ndjson",
    );
}

#[test]
fn lint_deny_passes_a_design_with_warnings_only() {
    let output = codesign(&["seeds", "--quick", "--lint=deny"], None);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("whole-grid lint: "), "stdout: {stdout}");
}

#[test]
fn lint_deny_warnings_fails_on_the_grid_warnings() {
    // The Seeds quick grid has warnings but no errors, so only the
    // stricter policy fails the run.
    let output = codesign(&["seeds", "--quick", "--lint=deny-warnings"], None);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    let errors = stderr
        .lines()
        .filter(|line| line.starts_with("error: lint found"))
        .count();
    assert_eq!(errors, 1, "stderr: {stderr}");
}

#[test]
fn lint_fix_passes_a_sound_repair_that_leaves_warnings() {
    // On the Cardio quick grid the fix releases the dead comparators and
    // proves equivalence exhaustively; only U002 warnings, which the
    // rewriter never touches, remain in the re-lint.
    let output = codesign(&["cardio", "--quick", "--lint=fix"], None);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("equivalence: proven exhaustively"),
        "stdout: {stdout}"
    );
    let relint = stdout.split_once("re-lint:").map_or("", |(_, rest)| rest);
    assert!(relint.contains("U002 warning"), "stdout: {stdout}");
}
