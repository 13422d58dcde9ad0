//! The accuracy-loss budget `codesign` prints is the one it selects
//! under: the printed baseline is the reference the budget is measured
//! from, on the quick grid too.

use std::process::Command;

/// The first `{:.1}%` accuracy on the line starting with `prefix`.
fn printed_accuracy(stdout: &str, prefix: &str) -> f64 {
    let line = stdout
        .lines()
        .find(|line| line.starts_with(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{stdout}"));
    let percent = line.find("% accuracy").expect("an accuracy figure");
    let start = line[..percent].rfind(' ').map_or(0, |i| i + 1);
    line[start..percent].parse().expect("a percentage")
}

#[test]
fn quick_codesign_stays_within_loss_of_the_printed_baseline() {
    let loss = 0.01;
    let output = Command::new(env!("CARGO_BIN_EXE_codesign"))
        .args(["balance-scale", "--quick", "--loss", &loss.to_string()])
        .env_remove("PRINTED_TRACE")
        .output()
        .expect("codesign runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    let baseline = printed_accuracy(&stdout, "baseline [2]:");
    let codesign = printed_accuracy(&stdout, "co-design (");
    // Both figures are rounded to 0.1 pt; allow half a unit each.
    assert!(
        codesign >= baseline - loss * 100.0 - 0.05,
        "co-design {codesign}% is more than {}% below the baseline {baseline}%:\n{stdout}",
        loss * 100.0
    );
}
