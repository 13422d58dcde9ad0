//! A binary whose stdout is closed before it writes a byte (`codesign
//! seeds --lint | head -0`) ends quietly: the run's own exit status, 0
//! here, and nothing on stderr.

use std::process::{Command, Stdio};

/// Runs `exe args` with the read end of its stdout pipe closed before
/// the process starts, so its very first write meets a closed pipe.
fn run_with_closed_stdout(exe: &str, args: &[&str]) -> std::process::Output {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    Command::new(exe)
        .args(args)
        .env_remove("PRINTED_TRACE")
        .env_remove("PRINTED_TRACE_LIVE")
        .stdin(Stdio::null())
        .stdout(writer)
        .output()
        .expect("binary runs")
}

#[test]
fn codesign_ends_quietly_on_a_closed_stdout() {
    let output = run_with_closed_stdout(env!("CARGO_BIN_EXE_codesign"), &["seeds", "--lint"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn table1_ends_quietly_on_a_closed_stdout() {
    let output = run_with_closed_stdout(env!("CARGO_BIN_EXE_table1"), &[]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}
