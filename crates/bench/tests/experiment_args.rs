//! Every table/figure binary rejects an unknown argument before it does
//! any work: exit 2, nothing on stdout, and one `error:` line naming the
//! flag and the usage.

use std::process::Command;

#[test]
fn unknown_arguments_exit_2_before_any_work() {
    for (name, exe) in [
        ("table1", env!("CARGO_BIN_EXE_table1")),
        ("table2", env!("CARGO_BIN_EXE_table2")),
        ("fig3", env!("CARGO_BIN_EXE_fig3")),
        ("fig4", env!("CARGO_BIN_EXE_fig4")),
        ("fig5", env!("CARGO_BIN_EXE_fig5")),
        ("precision", env!("CARGO_BIN_EXE_precision")),
        ("ablations", env!("CARGO_BIN_EXE_ablations")),
    ] {
        let output = Command::new(exe)
            .arg("--bogus")
            .env_remove("PRINTED_TRACE")
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{name}: {stderr}");
        assert!(
            output.stdout.is_empty(),
            "{name} printed before rejecting its arguments"
        );
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 1, "{name}: {stderr}");
        assert!(
            lines[0].starts_with("error: unknown flag --bogus (usage: ") && lines[0].contains(name),
            "{name}: {stderr}"
        );
    }
}
