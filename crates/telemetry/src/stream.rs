//! Live NDJSON streaming: a [`StreamSink`] that writes each span and
//! event the moment it is submitted, for tailing with
//! `printed-trace watch` while the run is still in flight.
//!
//! The sink is a superset of [`CollectingSink`]: everything is still
//! collected in memory (so the run can finalize a [`crate::FlowTrace`]
//! with counters and gauges at the end), but span and event records are
//! *also* rendered and flushed to the writer immediately, each as exactly
//! the line the finalized [`crate::FlowTrace::to_ndjson`] dump will
//! contain (one encoder per record, shared with the dump). A watcher
//! polling the file sees candidates, progress events, and failure alerts
//! as they happen; when the run finishes and overwrites the file with the
//! flow dump, the bytes the watcher already read stop being a prefix of
//! the file, and it re-reads from the top.
//!
//! Lines are written whole (single `write_all` + flush per record), so a
//! reader can at worst observe one torn line at the tail — the same
//! contract the sweep checkpoint writer honors.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

use crate::sink::{CollectingSink, Sink, TraceSnapshot};
use crate::span::{EventRecord, SpanRecord};
use crate::trace::{event_line, span_line};

/// A sink that collects like [`CollectingSink`] *and* streams every span
/// and event to a writer as one flushed NDJSON line each.
pub struct StreamSink {
    inner: CollectingSink,
    out: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for StreamSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSink").finish_non_exhaustive()
    }
}

impl StreamSink {
    /// Streams to an arbitrary writer.
    pub fn new(out: impl Write + Send + 'static) -> Self {
        Self {
            inner: CollectingSink::new(),
            out: Mutex::new(Box::new(out)),
        }
    }

    /// Streams to a file (created/truncated at `path`).
    pub fn to_file(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self::new(std::fs::File::create(path)?))
    }

    /// A point-in-time copy of everything collected so far.
    pub fn snapshot(&self) -> TraceSnapshot {
        self.inner.snapshot()
    }

    /// Writes `line` and then `collect`s its record while holding the
    /// writer lock, so the stream and the collected snapshot list records
    /// in the same order.
    fn write_line(&self, line: &str, collect: impl FnOnce()) {
        // Best-effort, like the checkpoint writer: a full disk must not
        // kill the instrumented run, only the live view.
        let mut out = self.out.lock().expect("stream sink writer poisoned");
        let _ = out.write_all(line.as_bytes());
        let _ = out.write_all(b"\n");
        let _ = out.flush();
        collect();
    }
}

impl Sink for StreamSink {
    fn span(&self, record: SpanRecord) {
        self.write_line(&span_line(&record), || self.inner.span(record));
    }

    fn event(&self, record: EventRecord) {
        self.write_line(&event_line(&record), || self.inner.event(record));
    }

    fn counter(&self, name: &str) -> Option<Arc<AtomicU64>> {
        self.inner.counter(name)
    }

    fn gauge(&self, name: &str) -> Option<Arc<AtomicU64>> {
        self.inner.gauge(name)
    }

    fn snapshot(&self) -> Option<TraceSnapshot> {
        Some(self.inner.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys;
    use crate::recorder::Recorder;
    use crate::span::FieldValue;

    /// A `Write` handle over a shared buffer, so the test can inspect what
    /// was streamed while the sink still owns its writer.
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

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    #[test]
    fn spans_and_events_stream_immediately() {
        let buf = SharedBuf::default();
        let sink = Arc::new(StreamSink::new(buf.clone()));
        let recorder = Recorder::with_sink(Arc::clone(&sink) as Arc<dyn Sink>);
        recorder
            .span(keys::CANDIDATE_SPAN)
            .field("depth", 4u64)
            .finish();
        recorder.event(
            keys::PROGRESS_EVENT,
            vec![
                ("done".into(), FieldValue::U64(1)),
                ("total".into(), FieldValue::U64(9)),
            ],
        );
        // Streamed before any snapshot/finalization happened.
        let text = buf.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].starts_with(r#"{"kind":"candidate","name":"candidate""#));
        assert!(lines[0].contains(r#""depth":4"#));
        assert!(lines[1].contains(r#""name":"progress""#));
        assert!(lines[1].contains(r#""done":1"#));
    }

    #[test]
    fn still_collects_for_the_final_snapshot() {
        let buf = SharedBuf::default();
        let sink = Arc::new(StreamSink::new(buf));
        let recorder = Recorder::with_sink(Arc::clone(&sink) as Arc<dyn Sink>);
        recorder.span(keys::STAGE_SWEEP).finish();
        recorder.add(keys::GINI_EVALS, 50);
        recorder.set_gauge(keys::PEAK_RSS_KB, 777);
        let snap = recorder.snapshot().expect("stream sink snapshots");
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.counter(keys::GINI_EVALS), 50);
        assert_eq!(snap.gauge(keys::PEAK_RSS_KB), 777);
    }

    #[test]
    fn streamed_lines_are_parse_compatible() {
        // The live format is the flow dump's format: a stage streams as
        // the dump's `stage` record, name prefix stripped. Assert the
        // shape contract `printed-report`'s parser relies on here, on the
        // producer side.
        let buf = SharedBuf::default();
        let sink = Arc::new(StreamSink::new(buf.clone()));
        let recorder = Recorder::with_sink(Arc::clone(&sink) as Arc<dyn Sink>);
        recorder.span(keys::STAGE_SWEEP).finish();
        let text = buf.text();
        assert!(text.contains(r#"{"kind":"stage","name":"sweep""#), "{text}");
    }

    #[test]
    fn every_record_kind_streams_as_its_dump_line() {
        let buf = SharedBuf::default();
        let sink = Arc::new(StreamSink::new(buf.clone()));
        let recorder = Recorder::with_sink(Arc::clone(&sink) as Arc<dyn Sink>);
        let stage = recorder.span(keys::STAGE_SWEEP);
        recorder
            .span(keys::CANDIDATE_SPAN)
            .field("depth", 2u64)
            .field("tau", 0.01)
            .finish();
        recorder
            .span(keys::TRAIN_SPAN)
            .field("nodes", 3u64)
            .finish();
        recorder.event(
            keys::LINT_CANDIDATE_EVENT,
            vec![("errors".into(), FieldValue::U64(0))],
        );
        recorder.event(keys::SELECTED_EVENT, vec![("µ τ".into(), "\"q\"".into())]);
        stage.finish();
        recorder.add(keys::GINI_EVALS, 5);
        let streamed = buf.text();
        let snapshot = recorder.snapshot().expect("stream sink snapshots");
        let dump = crate::FlowTrace::from_snapshot("unit", &snapshot).to_ndjson();
        let dumped: Vec<&str> = dump.lines().collect();
        assert_eq!(streamed.lines().count(), 5, "{streamed}");
        for line in streamed.lines() {
            assert!(dumped.contains(&line), "{line} missing from\n{dump}");
        }
        for kind in ["stage", "candidate", "span", "lint_candidate", "event"] {
            let tag = format!(r#"{{"kind":"{kind}","#);
            assert!(streamed.contains(&tag), "no {kind} line in\n{streamed}");
        }
    }
}
