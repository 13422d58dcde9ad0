//! Hot-kernel throughput baseline generator: drives the six
//! instrumented kernels (Gini scan, node partition, BFS truncate,
//! thermometer encode, cube merge, netlist synthesis) in isolation on
//! all eight registry benchmarks and writes one `kernel_stats` record
//! per `(benchmark, kernel)` pair.
//!
//! ```sh
//! cargo run --release -p printed-bench --bin bench_hot -- --out BENCH_hotpath.ndjson
//! ```
//!
//! Arguments:
//! * `--out <path>` — output NDJSON file (default `BENCH_hotpath.ndjson`).
//!
//! Each benchmark runs [`RUNS`] times. The invocation and item counts
//! are deterministic: they are the baseline `printed-trace diff` gates
//! exactly, and a count that differs between the repeat runs aborts the
//! whole generation. The record's `tp_median` is the median throughput
//! of the runs, shown by the gate but not judged: timing belongs to the
//! repository benchmark (`BENCHMARK.json`).
//!
//! ## What one run measures
//!
//! Per benchmark, one run executes the paper pipeline at the full depth
//! cap inside a single `KernelScope`: Algorithm 1 training (the Gini
//! scan), prefix-shared truncation to every shallower cap (BFS
//! truncate), the unary transform (thermometer encode + cube merge),
//! and netlist synthesis. The kernels nest — `from_tree` calls
//! `Sop::simplified` internally — but the timer attributes *self* time
//! to each level, so every kernel's throughput (items per second of its
//! own nanoseconds) is measured in isolation even when invoked from
//! inside another kernel.
//!
//! The post-training drivers take only microseconds per invocation —
//! far too short to time stably — so each run repeats them a fixed
//! [`AMORTIZE`] times. The repeat count is a constant, which keeps the
//! per-run invocation/item counts deterministic (the gate pins them
//! exactly) while giving every kernel milliseconds of accumulated self
//! time to derive its throughput from.

use std::process::ExitCode;

use printed_bench::{outln, BITS, DEPTH_CAP};
use printed_codesign::train::{train_adc_aware_annotated, AdcAwareConfig};
use printed_codesign::UnaryClassifier;
use printed_datasets::Benchmark;
use printed_report::{Axis, BenchRecord, Metric};
use printed_telemetry::{Kernel, KernelScope, Recorder, RunManifest};

/// Repeat runs per benchmark: the determinism check compares them, and
/// the recorded throughput is their median.
const RUNS: usize = 3;

fn parse_args() -> Result<String, String> {
    let mut out = "BENCH_hotpath.ndjson".to_owned();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--out" => out = argv.next().ok_or("--out needs a path")?,
            "--help" | "-h" => return Err("usage: bench_hot [--out PATH]".into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(out)
}

/// Fixed repeat count for the microsecond-scale post-training drivers
/// (truncate sweep, unary transform, netlist synthesis). Constant so the
/// per-run invocation/item counts stay deterministic; large enough that
/// each kernel accumulates milliseconds of self time per run, which the
/// throughput median can be derived from without cross-process
/// scheduling noise dominating the signal.
const AMORTIZE: usize = 16;

/// One kernel's tallies from one isolated driver run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Tally {
    calls: u64,
    items: u64,
    ns: u64,
}

impl Tally {
    /// Items per second of the kernel's own (self) time; 0 when the
    /// kernel never accumulated a single nanosecond.
    fn throughput(self) -> u64 {
        if self.ns == 0 {
            return 0;
        }
        ((self.items as f64) * 1e9 / (self.ns as f64)) as u64
    }
}

/// Runs the paper pipeline once under a kernel scope and returns the
/// six kernels' tallies, aligned with [`Kernel::ALL`].
fn run_once(benchmark: Benchmark) -> Result<Vec<Tally>, String> {
    let (train, _test) = benchmark
        .load_quantized(BITS)
        .map_err(|e| format!("{benchmark}: load: {e}"))?;
    let recorder = Recorder::collecting().0;
    let scope = KernelScope::enter(&recorder);
    let config = AdcAwareConfig {
        max_depth: DEPTH_CAP,
        tau: 0.0,
        ..AdcAwareConfig::default()
    };
    // The span/counter recorder stays disabled — only the TLS kernel
    // timers run, so the measurement carries no span overhead.
    let annotated = train_adc_aware_annotated(&train, &config, &Recorder::disabled());
    for _ in 0..AMORTIZE {
        for depth in 2..DEPTH_CAP {
            let _ = annotated.truncated(depth);
        }
    }
    let mut classifier = None;
    for _ in 0..AMORTIZE {
        classifier = Some(UnaryClassifier::from_tree(&annotated.tree));
    }
    let classifier = classifier.expect("AMORTIZE >= 1");
    for _ in 0..AMORTIZE {
        let _ = classifier.to_netlist();
    }
    drop(scope);
    let snapshot = recorder
        .snapshot()
        .ok_or_else(|| format!("{benchmark}: collecting recorder yielded no snapshot"))?;
    Ok(Kernel::ALL
        .iter()
        .map(|k| Tally {
            calls: snapshot.counters.get(k.calls_key()).copied().unwrap_or(0),
            items: snapshot.counters.get(k.items_key()).copied().unwrap_or(0),
            ns: snapshot.counters.get(k.ns_key()).copied().unwrap_or(0),
        })
        .collect())
}

fn run(out: &str) -> Result<(), String> {
    let manifest = RunManifest::capture("hotpath");
    let mut lines = String::new();
    for benchmark in Benchmark::ALL {
        eprintln!("bench_hot: {benchmark} — {RUNS} runs");
        let first = run_once(benchmark)?;
        let mut throughputs: Vec<Vec<u64>> = first.iter().map(|t| vec![t.throughput()]).collect();
        for _ in 1..RUNS {
            let tallies = run_once(benchmark)?;
            for (i, (tally, kernel)) in tallies.iter().zip(Kernel::ALL).enumerate() {
                // The work counts are deterministic; a drift between
                // repeat runs means the measurement itself is broken.
                if (tally.calls, tally.items) != (first[i].calls, first[i].items) {
                    return Err(format!(
                        "{benchmark}/{}: nondeterministic tallies across runs \
                         (calls {} vs {}, items {} vs {})",
                        kernel.name(),
                        first[i].calls,
                        tally.calls,
                        first[i].items,
                        tally.items,
                    ));
                }
                throughputs[i].push(tally.throughput());
            }
        }
        for (i, kernel) in Kernel::ALL.iter().enumerate() {
            throughputs[i].sort_unstable();
            let tp = throughputs[i][RUNS / 2];
            let (calls, items) = (first[i].calls, first[i].items);
            let key = format!("{benchmark}/{}", kernel.name());
            let metrics = vec![
                Metric::new("calls", calls),
                Metric::new("items", items),
                Metric::new("tp_median", tp),
            ];
            let record = BenchRecord::new(Axis::Kernel, &key, manifest.clone(), metrics);
            outln!(
                "{key:<29} calls {calls:>5}  items {items:>8}  {tp:>12} items/s (median of {RUNS})"
            );
            lines.push_str(&record.to_json());
            lines.push('\n');
        }
    }
    std::fs::write(out, lines).map_err(|e| format!("{out}: {e}"))?;
    eprintln!(
        "wrote {} kernel_stats record(s) to {out}",
        Benchmark::ALL.len() * Kernel::ALL.len(),
    );
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|out| run(&out)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
