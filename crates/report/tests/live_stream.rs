//! The live-stream contract between the trace writers and the readers,
//! pinned with real writer output: a quick-grid Seeds flow streamed
//! through `StreamSink` (what `PRINTED_TRACE_LIVE=1` installs), then
//! finalized through `FlowTrace::to_ndjson` (what replaces the stream when
//! the run ends).

use std::io::Write;
use std::sync::{Arc, Mutex, OnceLock};

use printed_codesign::{CodesignFlow, ExplorationConfig};
use printed_datasets::Benchmark;
use printed_report::{parse_trace, Watcher};
use printed_telemetry::{FlowTrace, Recorder, Sink, StreamSink};

/// A `Write` handle over a shared buffer, so the stream can be read back
/// while the sink still owns its writer.
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

/// The live stream of a traced quick-grid Seeds flow and the trace the
/// run finalized, computed once per test binary.
fn live_seeds() -> &'static (String, FlowTrace) {
    static RUN: OnceLock<(String, FlowTrace)> = OnceLock::new();
    RUN.get_or_init(|| {
        let (train, test) = Benchmark::Seeds.load_quantized(4).unwrap();
        let buf = SharedBuf::default();
        let sink: Arc<dyn Sink> = Arc::new(StreamSink::new(buf.clone()));
        let outcome = CodesignFlow::new(&train, &test)
            .grid(ExplorationConfig::quick())
            .title("Seeds")
            .recorder(Recorder::with_sink(sink))
            .run();
        let trace = outcome.trace().expect("stream sink snapshots").clone();
        let stream = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        (stream, trace)
    })
}

/// Whether a dump line is a span or event record (the kinds the live
/// stream carries).
fn is_span_or_event(line: &str) -> bool {
    ["stage", "candidate", "span", "event", "lint_candidate"]
        .iter()
        .any(|kind| line.starts_with(&format!(r#"{{"kind":"{kind}","#)))
}

#[test]
fn every_streamed_line_appears_verbatim_in_the_final_dump() {
    let (stream, trace) = live_seeds();
    let dump = trace.to_ndjson();
    let dumped: Vec<&str> = dump.lines().collect();
    for line in stream.lines() {
        assert!(dumped.contains(&line), "{line}\nmissing from the dump");
    }
    // ... and the stream misses none of the dump's spans and events.
    let span_or_event = dumped.iter().filter(|l| is_span_or_event(l)).count();
    assert_eq!(stream.lines().count(), span_or_event);
    assert!(stream.lines().all(is_span_or_event), "{stream}");
}

#[test]
fn a_killed_live_stream_parses_like_the_snapshot() {
    let (stream, trace) = live_seeds();
    // A run killed before finalizing leaves only the streamed lines: no
    // flow header, no manifest, no counters.
    let parsed = parse_trace(stream);
    assert!(parsed.is_clean(), "warnings: {:?}", parsed.warnings);
    assert_eq!(parsed.trace.stages, trace.stages);
    assert_eq!(parsed.trace.sweep, trace.sweep);
    assert_eq!(parsed.trace.spans, trace.spans);
    assert_eq!(parsed.trace.events, trace.events);
    assert_eq!(parsed.trace.wall_us, trace.wall_us);
    assert_eq!(parsed.trace.sweep.total_candidates, 9);
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
}
