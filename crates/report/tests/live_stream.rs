//! The live-stream contract between the trace writers and the readers,
//! pinned with real writer output: a quick-grid Seeds flow with its
//! whole-grid lint and a robustness campaign, streamed through
//! `Recorder::streaming` (what `PRINTED_TRACE_LIVE=1` installs), then finalized
//! through `FlowTrace::to_ndjson` (what replaces the stream when the run
//! ends).

use std::io::Write;
use std::sync::{Arc, Mutex, OnceLock};

use printed_codesign::{CodesignFlow, ExplorationConfig, RobustnessCampaign};
use printed_datasets::Benchmark;
use printed_report::json::{parse as parse_json, JsonValue};
use printed_report::{parse_trace, CostReport, WatchState, Watcher};
use printed_telemetry::{keys, FlowTrace, Recorder, RunManifest};

/// A `Write` handle over a shared buffer, so the stream can be read back
/// while the recorder still owns its writer.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The live stream of a traced quick-grid Seeds flow with a campaign and
/// the trace the run finalized, computed once per test binary.
fn live_seeds() -> &'static (String, FlowTrace) {
    static RUN: OnceLock<(String, FlowTrace)> = OnceLock::new();
    RUN.get_or_init(|| {
        let (train, test) = Benchmark::Seeds.load_quantized(4).unwrap();
        let (_, analog_test) = Benchmark::Seeds.load_split().unwrap();
        let buf = SharedBuf::default();
        let outcome = CodesignFlow::new(&train, &test)
            .accuracy_loss(0.05)
            .grid(ExplorationConfig::quick())
            .title("Seeds")
            .robustness(RobustnessCampaign::quick(), &analog_test)
            .recorder(Recorder::streaming(buf.clone()))
            .run();
        let trace = outcome
            .trace()
            .expect("a streaming recorder snapshots")
            .clone();
        let stream = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        (stream, trace)
    })
}

/// The record kind of an NDJSON line.
fn kind_of(line: &str) -> String {
    let value = parse_json(line).expect("every line is JSON");
    value
        .get("kind")
        .and_then(JsonValue::as_str)
        .expect("every line has a kind")
        .to_owned()
}

/// The record name of an NDJSON line (empty for the header and manifest).
fn name_of(line: &str) -> String {
    let value = parse_json(line).expect("every line is JSON");
    value
        .get("name")
        .and_then(JsonValue::as_str)
        .unwrap_or_default()
        .to_owned()
}

#[test]
fn every_streamed_line_appears_verbatim_in_the_final_dump() {
    let (stream, trace) = live_seeds();
    let dump = trace
        .clone()
        .with_manifest(RunManifest::default())
        .to_ndjson();
    let dumped: Vec<&str> = dump.lines().collect();
    // The dump is the snapshot in six record kinds, all of them present.
    let kinds = ["flow", "manifest", "span", "event", "counter", "gauge"];
    for line in &dumped {
        assert!(kinds.contains(&kind_of(line).as_str()), "{line}");
    }
    for kind in kinds {
        assert!(dumped.iter().any(|l| kind_of(l) == kind), "no {kind} line");
    }
    // Every streamed line is a span or an event, verbatim in the dump ...
    for line in stream.lines() {
        assert!(matches!(kind_of(line).as_str(), "span" | "event"), "{line}");
        assert!(dumped.contains(&line), "{line}\nmissing from the dump");
    }
    // ... and the stream misses none of the dump's spans and events.
    let span_or_event = dumped
        .iter()
        .filter(|l| matches!(kind_of(l).as_str(), "span" | "event"))
        .count();
    assert_eq!(stream.lines().count(), span_or_event);
    // Stages, sweep and campaign grid points, lint verdicts and kernel
    // tallies all ride those kinds.
    let streamed_names: Vec<String> = stream.lines().map(name_of).collect();
    for name in [
        keys::STAGE_SWEEP,
        keys::STAGE_ROBUSTNESS,
        keys::CANDIDATE_SPAN,
        keys::ROBUST_SPAN,
        keys::LINT_CANDIDATE_EVENT,
        keys::SELECTED_EVENT,
    ] {
        assert!(
            streamed_names.iter().any(|n| n == name),
            "no {name} streamed"
        );
    }
    assert!(
        !trace.kernels().is_empty(),
        "the flow runs in a kernel scope"
    );
    let kernel_counters = dumped
        .iter()
        .filter(|l| kind_of(l) == "counter" && name_of(l).starts_with(keys::KERNEL_PREFIX))
        .count();
    assert!(kernel_counters >= 3 * trace.kernels().len(), "{dump}");
}

#[test]
fn the_final_dump_parses_back_to_the_trace() {
    let (_, trace) = live_seeds();
    let trace = trace.clone().with_manifest(RunManifest::default());
    let parsed = parse_trace(&trace.to_ndjson());
    assert!(parsed.is_clean(), "warnings: {:?}", parsed.warnings);
    assert_eq!(parsed.trace, trace);
    assert_eq!(parsed.trace.kernels(), trace.kernels());
}

#[test]
fn a_killed_live_stream_parses_like_the_snapshot() {
    let (stream, trace) = live_seeds();
    // A run killed before finalizing leaves only the streamed lines: no
    // flow header, no manifest, no counters.
    let parsed = parse_trace(stream);
    assert!(parsed.is_clean(), "warnings: {:?}", parsed.warnings);
    assert_eq!(parsed.trace.spans, trace.spans);
    assert_eq!(parsed.trace.sweep, trace.sweep);
    assert_eq!(parsed.trace.events, trace.events);
    assert_eq!(parsed.trace.wall_us, trace.wall_us);
    assert_eq!(parsed.trace.sweep.total_candidates, 9);
    assert!(parsed.trace.counters.is_empty());
}

#[test]
fn watcher_counts_every_grid_point_of_a_real_stream() {
    let (stream, _) = live_seeds();
    let mut watcher = Watcher::new();
    // Poll at arbitrary byte offsets, torn lines (and split multi-byte
    // characters) included, as a tailing reader would see the file grow.
    let bytes = stream.as_bytes();
    for end in (0..bytes.len()).step_by(97).chain([bytes.len()]) {
        assert!(!watcher.update(&bytes[..end]), "growth is not a rewrite");
    }
    let state = watcher.state();
    assert_eq!(state.done(), 9);
    assert_eq!(state.lint_done(), 9);
    assert_eq!(state.robust_done(), 9);
    assert!(state.notes.is_empty(), "{:?}", state.notes);
    assert!(!state.finalized);
}

#[test]
fn watcher_notices_the_final_dump_replacing_the_stream() {
    let (stream, trace) = live_seeds();
    let mut watcher = Watcher::new();
    assert!(!watcher.update(stream.as_bytes()));
    assert!(!watcher.state().finalized);
    // The run finishes: the dump replaces the stream. It is longer than
    // the stream, so only its changed start reveals the rewrite.
    let dump = format!("{}\n", trace.to_ndjson());
    assert!(dump.len() > stream.len());
    assert!(watcher.update(dump.as_bytes()), "rewrite not detected");
    let state = watcher.state();
    assert!(state.finalized);
    assert!(state.selected.is_some());
    assert_eq!(state.done(), 9);
    assert_eq!(state.lint_done(), 9);
    assert_eq!(state.robust_done(), 9);
    assert!(state.notes.is_empty(), "{:?}", state.notes);
}

/// The counts a watch reports, in one comparable tuple.
fn counts(state: &WatchState) -> [u64; 7] {
    [
        state.done() as u64,
        state.robust_done() as u64,
        state.robust_pruned(),
        state.lint_done() as u64,
        state.lint_errors(),
        state.lint_warnings(),
        state.alerts.len() as u64,
    ]
}

#[test]
fn watch_and_report_agree_on_a_finished_trace() {
    let (_, trace) = live_seeds();
    let dump = format!("{}\n", trace.to_ndjson());
    let report = CostReport::from_trace(&parse_trace(&dump).trace);
    let mut watcher = Watcher::new();
    let bytes = dump.as_bytes();
    let mut seen = Vec::new();
    for end in (0..bytes.len()).step_by(97).chain([bytes.len()]) {
        assert!(!watcher.update(&bytes[..end]), "growth is not a rewrite");
        seen.push(counts(watcher.state()));
    }
    let state = watcher.state();
    assert!(state.finalized);
    assert!(state.notes.is_empty(), "{:?}", state.notes);
    // Both readers fold the same records to the same totals.
    let lint = &report.sweep_lint;
    assert_eq!(state.lint_done() as u64, lint.candidates);
    assert_eq!(state.lint_errors(), lint.errors);
    assert_eq!(state.lint_warnings(), lint.warnings);
    assert_eq!(report.robustness.len(), 9);
    assert_eq!(state.robust_done(), report.robustness.len());
    let selected = report.selected.as_ref().expect("the run selects a design");
    let line = state.selected.as_deref().expect("the dump has a selection");
    let expected = format!("selected τ={}, depth {} (", selected.tau, selected.depth);
    assert!(line.starts_with(&expected), "{line} vs {expected}");
    // A growing file's counts never fall back and never overshoot.
    let last = counts(state);
    for (before, after) in seen.iter().zip(&seen[1..]) {
        assert!(
            before.iter().zip(after).all(|(b, a)| b <= a),
            "{before:?} > {after:?}"
        );
    }
    for prefix in &seen {
        assert!(
            prefix.iter().zip(&last).all(|(p, l)| p <= l),
            "{prefix:?} > {last:?}"
        );
    }
}
