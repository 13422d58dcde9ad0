//! Full-suite baseline generator: runs the traced paper flow once on
//! all eight registry benchmarks and condenses each to one `bench_stats`
//! NDJSON record.
//!
//! ```sh
//! cargo run --release -p printed-bench --bin bench_all -- --out BENCH_all.ndjson
//! ```
//!
//! The deterministic metrics (Gini evals, area, power, comparators) are
//! what `printed-trace diff` gates; they replay bit for bit, so one run
//! is the whole measurement. The record also carries the run's wall time
//! and peak RSS, which the gate shows but does not judge: timing belongs
//! to the repository benchmark (`BENCHMARK.json`).
//!
//! Arguments:
//! * `--out <path>` — output NDJSON file (default `BENCH_all.ndjson`),
//!   one `bench_stats` record per benchmark.
//! * `--paper` — the full paper τ×depth grid instead of the quick grid
//!   (the committed baselines use the quick grid).
//!
//! Each run is the traced [`CodesignFlow`] that `codesign <benchmark>
//! --quick` runs, with the same title, selection at 1% accuracy loss and
//! records, so a `bench_all` record gates a `PRINTED_TRACE`d `codesign`
//! run of the same dataset with 0.0% deterministic drift.

use std::process::ExitCode;

use printed_bench::{outln, stderr_progress, BITS};
use printed_codesign::{CodesignFlow, ExplorationConfig};
use printed_datasets::Benchmark;
use printed_report::BenchRecord;
use printed_telemetry::FlowTrace;

/// The selection constraint every baseline records — the paper's 1%.
const LOSS: f64 = 0.01;

struct Args {
    out: String,
    paper: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: "BENCH_all.ndjson".to_owned(),
        paper: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--out" => args.out = argv.next().ok_or("--out needs a path")?,
            "--paper" => args.paper = true,
            "--help" | "-h" => return Err("usage: bench_all [--out PATH] [--paper]".into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// One traced run of the paper flow on a benchmark: `codesign
/// <benchmark> --quick --loss 0.01` under `PRINTED_TRACE`.
fn run_once(benchmark: Benchmark, grid: &ExplorationConfig) -> Result<FlowTrace, String> {
    let (train, test) = benchmark
        .load_quantized(BITS)
        .map_err(|e| format!("{benchmark}: load: {e}"))?;
    let progress = stderr_progress();
    let outcome = CodesignFlow::new(&train, &test)
        .accuracy_loss(LOSS)
        .grid(grid.clone())
        .title(benchmark.to_string())
        .progress(&progress)
        .traced()
        .run();
    Ok(outcome.trace.expect("a traced flow carries its trace"))
}

fn run(args: &Args) -> Result<(), String> {
    let grid = if args.paper {
        ExplorationConfig::paper()
    } else {
        ExplorationConfig::quick()
    };
    let mut lines = String::new();
    for benchmark in Benchmark::ALL {
        eprintln!("bench_all: {benchmark}");
        let record = BenchRecord::from_trace(&run_once(benchmark, &grid)?);
        outln!(
            "{:<14} wall {:>8} µs  gini {:>8}  area {:.3} mm²  power {:.3} mW",
            record.key,
            record.value("wall_us"),
            record.value("gini_evals"),
            record.value("area_mm2"),
            record.value("power_mw")
        );
        lines.push_str(&record.to_json());
        lines.push('\n');
    }
    std::fs::write(&args.out, lines).map_err(|e| format!("{}: {e}", args.out))?;
    eprintln!(
        "wrote {} bench_stats record(s) to {}",
        Benchmark::ALL.len(),
        args.out
    );
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
