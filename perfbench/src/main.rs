//! The benchmark's command line.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-flow --seed 0 --seconds 20 --trace 0
//! ```
//!
//! Prints a human-readable report, then one JSON result line:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
//! `--emit-pins` instead prints the canonical output lines of every seed
//! variant of the workload, the format of `pins.txt`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::check::{canonical_lines, Pins};
use perfbench::run::{run, Options};
use perfbench::workload::{Plan, Size, Workload, SEED_VARIANTS};

const USAGE: &str = "usage: perfbench --workload <paper-flow|robust-adaptive|robust-exhaustive> \
     [--seed N] [--seconds S] [--trace 0|1] [--emit-pins]";

struct Args {
    options: Options,
    emit_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut emit_pins = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--emit-pins" => emit_pins = true,
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or(USAGE)?;
    Ok(Args {
        options: Options {
            plan: Plan::new(workload, Size::Paper, seed),
            seconds,
            trace,
            out_dir: PathBuf::from(".bench_out"),
        },
        emit_pins,
    })
}

/// Prints the canonical lines of one pass of every seed variant.
fn emit_pins(plan: &Plan) -> Result<(), String> {
    println!("# {}", plan.workload.name());
    for variant in 0..SEED_VARIANTS {
        for line in canonical_lines(&Plan::new(plan.workload, plan.size, variant))? {
            println!("{line}");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.emit_pins {
            return emit_pins(&args.options.plan);
        }
        let result = run(&args.options, &Pins::builtin())?;
        for line in &result.report {
            println!("{line}");
        }
        for failure in &result.failures {
            eprintln!("FAILED {failure}");
        }
        println!("{}", result.to_json());
        Ok(())
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
