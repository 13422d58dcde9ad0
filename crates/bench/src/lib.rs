//! # printed-bench
//!
//! Experiment harness regenerating every table and figure of the paper.
//! The binaries:
//!
//! * `table1` — baseline bespoke decision trees (accuracy, #comparators,
//!   #inputs, ADC/total area and power) for all eight benchmarks.
//! * `fig3` — bespoke ADC area/power vs number and position of output
//!   unary digits.
//! * `fig4` — area/power reduction of the unary architecture + bespoke
//!   ADCs over the baseline (ADC-unaware training).
//! * `fig5` — additional gains from ADC-aware training at 0%/1%/5%
//!   accuracy loss.
//! * `table2` — the final co-design vs baselines \[2\] and \[7\], with the
//!   2 mW self-powering verdict.
//! * `ablations` — objective ablations of Algorithm 1 and Monte-Carlo
//!   mismatch robustness.
//! * `codesign` and `bench_all` — the co-design CLI and the suite-baseline
//!   generator, both thin shells over `printed_codesign::CodesignFlow`.
//!
//! Shared helpers live in this library crate: row formatting, dataset
//! loading, sweep selection, live progress rendering, the
//! `PRINTED_TRACE` observability hook every binary honors, and the
//! [`out!`]/[`outln!`] stdout writers that end quietly on a closed pipe.
//!
//! ## Tracing a run
//!
//! ```sh
//! PRINTED_TRACE=table2.ndjson cargo run --release -p printed-bench --bin table2
//! ```
//!
//! writes one NDJSON line per span/event/counter/gauge to `table2.ndjson`
//! and prints a human-readable wall-time summary to stderr. Without the
//! variable, instrumentation is fully disabled (no sink, no clock reads).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{IsTerminal, Write};
use std::path::PathBuf;

use printed_codesign::explore::{explore_instrumented, Exploration, ExplorationConfig};
use printed_codesign::CandidateDesign;
use printed_datasets::{Benchmark, QuantizedDataset};
use printed_dtree::cart::{train_depth_selected, TrainedModel};
use printed_dtree::{synthesize_baseline, BaselineDesign};
use printed_logic::report::AnalysisConfig;
use printed_pdk::{AnalogModel, CellLibrary};
use printed_telemetry::{FlowTrace, Progress, Recorder, RunManifest};

pub use printed_telemetry::fmt_duration;

/// Depth cap used across the paper's evaluation.
pub const DEPTH_CAP: usize = 8;

/// Input precision used across the paper's evaluation.
pub const BITS: u32 = 4;

/// Span name the binaries use for one benchmark's worth of work (field:
/// `dataset`).
pub const BENCHMARK_SPAN: &str = "benchmark";

/// Loads a benchmark at the paper's 4-bit precision.
///
/// # Panics
///
/// Panics if the benchmark pipeline fails (it cannot for built-ins).
pub fn load(benchmark: Benchmark) -> (QuantizedDataset, QuantizedDataset) {
    benchmark
        .load_quantized(BITS)
        .expect("benchmark pipeline is infallible for built-ins")
}

/// Trains the paper's baseline model (ADC-unaware, depth-selected) for a
/// benchmark.
///
/// # Panics
///
/// Panics if the benchmark pipeline fails (it cannot for built-ins).
pub fn baseline_model(benchmark: Benchmark) -> TrainedModel {
    let (train, test) = load(benchmark);
    train_depth_selected(&train, &test, DEPTH_CAP)
}

/// Trains and synthesizes the full baseline system for a benchmark.
pub fn baseline_design(benchmark: Benchmark) -> (TrainedModel, BaselineDesign) {
    let model = baseline_model(benchmark);
    let design = synthesize_baseline(&model.tree);
    (model, design)
}

/// [`Exploration::choose`] as a free function, the form the `perfbench/`
/// package calls: the most efficient design within `loss` of the
/// reference, falling back to the most accurate candidate when even the
/// reference accuracy is unreachable (noisy datasets).
///
/// # Panics
///
/// Panics on an empty sweep (cannot happen for validated grids).
pub fn choose(sweep: &Exploration, loss: f64) -> &CandidateDesign {
    sweep.choose(loss)
}

/// Runs the τ×depth sweep under the default EGFET technology, wired to a
/// recorder and an optional progress callback — what the binaries call
/// instead of `explore` so `PRINTED_TRACE` sees every grid point. Each
/// sweep runs under its own `stage:sweep` span.
pub fn explore_traced(
    train: &QuantizedDataset,
    test: &QuantizedDataset,
    config: &ExplorationConfig,
    recorder: &Recorder,
    progress: Option<&(dyn Fn(Progress) + Send + Sync)>,
) -> Exploration {
    let stage = recorder.span(printed_telemetry::keys::STAGE_SWEEP);
    let sweep = explore_instrumented(
        train,
        test,
        config,
        &CellLibrary::egfet(),
        &AnalogModel::egfet(),
        &AnalysisConfig::printed_20hz(),
        recorder,
        progress,
    );
    stage.finish();
    sweep
}

/// A live `k/N candidates done` renderer for the sweep. Rewrites one
/// stderr line while a terminal is attached; silent when stderr is
/// redirected, so piped table output stays clean.
pub fn stderr_progress() -> impl Fn(Progress) + Send + Sync {
    let tty = std::io::stderr().is_terminal();
    move |p: Progress| {
        if !tty {
            return;
        }
        let mut err = std::io::stderr().lock();
        let _ = write!(err, "\r{p}");
        if p.is_done() {
            let _ = write!(err, "\r\x1b[K");
        }
        let _ = err.flush();
    }
}

/// Parses the command line of a table/figure binary and returns its
/// `--resume` prefix. Only the sweep binaries (`resumable`) take an
/// argument, `--resume <prefix>`: checkpoint each benchmark's sweep to
/// `<prefix>-<dataset>.ndjson` and resume the grid points completed there.
/// Any other argument exits 2 with one `error:` line naming it and the
/// usage, so call this before any work starts.
pub fn experiment_args(bin: &str, resumable: bool) -> Option<String> {
    let usage = if resumable {
        format!("{bin} [--resume PREFIX]")
    } else {
        bin.to_owned()
    };
    let mut prefix = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--resume" if resumable => match argv.next() {
                Some(p) => prefix = Some(p),
                None => {
                    eprintln!("error: --resume needs a path prefix");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown flag {other} (usage: {usage})");
                std::process::exit(2);
            }
        }
    }
    prefix
}

/// The `PRINTED_TRACE` observability hook shared by every binary.
///
/// `PRINTED_TRACE=<path>` installs a collecting recorder; when the binary
/// finishes, the trace is dumped to `<path>` as NDJSON and a human-readable
/// wall-time summary is printed to stderr. Adding `PRINTED_TRACE_LIVE=1`
/// upgrades the recorder to a streaming one: every span and event is flushed
/// to `<path>` the moment it happens, so `printed-trace watch <path>` can
/// tail the run; [`TraceHook::finish`] then overwrites the stream with
/// the flow dump, which repeats every streamed line after a new header
/// (the watcher sees the file's start change and re-reads it). With the
/// variable unset the recorder is the disabled one: no store, no
/// allocation, no clock reads.
#[derive(Debug)]
pub struct TraceHook {
    title: String,
    recorder: Recorder,
    path: Option<PathBuf>,
    manifest: Option<RunManifest>,
}

impl TraceHook {
    /// Builds the hook for a binary from the `PRINTED_TRACE` (path) and
    /// `PRINTED_TRACE_LIVE` (streaming) environment variables.
    pub fn from_env(title: &str) -> Self {
        let path = std::env::var_os("PRINTED_TRACE").map(PathBuf::from);
        let live = std::env::var_os("PRINTED_TRACE_LIVE").is_some_and(|v| v == "1");
        let recorder = match &path {
            Some(p) if live => match std::fs::File::create(p) {
                Ok(file) => Recorder::streaming(file),
                Err(e) => {
                    eprintln!(
                        "PRINTED_TRACE_LIVE: cannot stream to {}: {e}; collecting instead",
                        p.display()
                    );
                    Recorder::collecting().0
                }
            },
            Some(_) => Recorder::collecting().0,
            None => Recorder::disabled(),
        };
        Self {
            title: title.to_owned(),
            recorder,
            path,
            manifest: None,
        }
    }

    /// A hook writing to an explicit path (used by tests).
    pub fn to_path(title: &str, path: impl Into<PathBuf>) -> Self {
        Self {
            title: title.to_owned(),
            recorder: Recorder::collecting().0,
            path: Some(path.into()),
            manifest: None,
        }
    }

    /// Overrides the provenance manifest stamped into the dump. Binaries
    /// that know their grid call this with a fully-filled manifest;
    /// without it, [`TraceHook::finish`] captures a default one (git SHA +
    /// timestamp + the hook's title as dataset).
    pub fn set_manifest(&mut self, manifest: RunManifest) {
        self.manifest = Some(manifest);
    }

    /// The recorder to thread through the binary's work.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Whether tracing is active for this run.
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_enabled()
    }

    /// Finalizes the hook: snapshot, dump NDJSON, summarize to stderr.
    /// No-op when tracing is off.
    ///
    /// # Errors
    ///
    /// `PRINTED_TRACE: cannot write <path>: <reason>` when the dump cannot
    /// be written.
    pub fn finish(self) -> Result<(), String> {
        let Some(path) = self.path else {
            return Ok(());
        };
        printed_codesign::record_process_gauges(&self.recorder);
        let Some(snapshot) = self.recorder.snapshot() else {
            return Ok(());
        };
        let manifest = self
            .manifest
            .unwrap_or_else(|| RunManifest::capture(&self.title));
        let trace = FlowTrace::from_snapshot(&self.title, &snapshot).with_manifest(manifest);
        let mut ndjson = trace.to_ndjson();
        ndjson.push('\n');
        std::fs::write(&path, ndjson)
            .map_err(|e| format!("PRINTED_TRACE: cannot write {}: {e}", path.display()))?;
        eprintln!("{}trace written to {}", trace.render_text(), path.display());
        Ok(())
    }

    /// [`TraceHook::finish`] as a binary's last step: a failed dump is
    /// reported as one `error:` line on stderr and exits 1.
    pub fn finish_or_exit(self) {
        if let Err(message) = self.finish() {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    }
}

/// Formats a `Benchmark` name padded to the table column width.
pub fn row_label(benchmark: Benchmark) -> String {
    format!("{:<14}", benchmark.to_string())
}

/// Prints a horizontal rule of the given width.
pub fn hrule(width: usize) {
    crate::outln!("{}", "-".repeat(width));
}

/// Writes formatted text to stdout, the one writer behind [`out!`] and
/// [`outln!`]. A closed pipe is the end of the output, not an error: the
/// text is dropped and the run goes on, so `codesign seeds | head -1`
/// ends with the run's own exit status and nothing on stderr.
///
/// # Panics
///
/// Panics, as `print!` does, on any other write error.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    match std::io::stdout().lock().write_fmt(args) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            panic!("failed printing to stdout: {e}")
        }
        _ => {}
    }
}

/// `print!` through [`write_stdout`]: quiet on a closed stdout.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`]: quiet on a closed stdout.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_hook_reports_an_unwritable_path() {
        let missing = std::env::temp_dir()
            .join(format!("printed-bench-missing-{}", std::process::id()))
            .join("t.ndjson");
        let hook = TraceHook::to_path("t", &missing);
        hook.recorder().add("test.counter", 1);
        let err = hook.finish().unwrap_err();
        assert!(
            err.starts_with("PRINTED_TRACE: cannot write ") && err.contains("t.ndjson"),
            "{err}"
        );
        assert!(!missing.exists());
    }

    #[test]
    fn baseline_model_trains_quickly_on_small_benchmark() {
        let model = baseline_model(Benchmark::Seeds);
        assert!(model.test_accuracy > 0.7);
        assert!(model.depth <= DEPTH_CAP);
    }

    #[test]
    fn row_label_pads() {
        assert_eq!(row_label(Benchmark::Seeds).len(), 14);
    }

    #[test]
    fn choose_falls_back_to_most_accurate() {
        let (train, test) = load(Benchmark::Seeds);
        let sweep = explore_traced(
            &train,
            &test,
            &ExplorationConfig::quick(),
            &Recorder::disabled(),
            None,
        );
        // An impossible constraint (no candidate loses < -1, i.e. gains
        // accuracy over an already-selected reference on every dataset)
        // still yields a design via the fallback.
        let chosen = choose(&sweep, 0.05);
        assert!(sweep
            .candidates
            .iter()
            .any(|c| c.test_accuracy == chosen.test_accuracy));
    }

    #[test]
    fn trace_hook_dumps_ndjson() {
        let dir = std::env::temp_dir().join("printed-bench-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hook.ndjson");
        let hook = TraceHook::to_path("unit", &path);
        assert!(hook.is_enabled());
        let (train, test) = load(Benchmark::Seeds);
        let grid = ExplorationConfig {
            taus: vec![0.0],
            depths: vec![2],
            seed: 1,
            ..ExplorationConfig::quick()
        };
        let _ = explore_traced(&train, &test, &grid, hook.recorder(), None);
        hook.finish().expect("the dump is written");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(r#"{"kind":"flow","title":"unit""#));
        assert!(text.contains(r#""kind":"manifest""#));
        assert!(text.contains(r#"{"kind":"span","name":"candidate","#));
        assert!(text.contains(r#"{"kind":"counter","name":"train.gini_evals","#));
        let kinds = ["flow", "manifest", "span", "event", "counter", "gauge"];
        for line in text.lines() {
            assert!(
                kinds
                    .iter()
                    .any(|kind| line.starts_with(&format!(r#"{{"kind":"{kind}","#))),
                "{line}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disabled_hook_is_inert() {
        // from_env with the variable unset must hand out the no-op
        // recorder (tests cannot mutate the environment safely, so only
        // exercise the unset path if it really is unset).
        if std::env::var_os("PRINTED_TRACE").is_none() {
            let hook = TraceHook::from_env("unit");
            assert!(!hook.is_enabled());
            assert_eq!(hook.finish(), Ok(()));
        }
    }
}
