//! Live NDJSON streaming: a [`StreamSink`] that writes each span and
//! event the moment it is submitted, for tailing with
//! `printed-trace watch` while the run is still in flight.
//!
//! The sink is a superset of [`CollectingSink`]: everything is still
//! collected in memory (so the run can finalize a [`crate::FlowTrace`]
//! with counters, gauges, and histograms at the end), but span and event
//! records are *also* rendered as snapshot-format NDJSON lines and
//! flushed to the writer immediately. A watcher polling the file sees
//! candidates, progress events, and failure alerts as they happen; when
//! the run finishes and overwrites the file with the canonical flow dump,
//! the watcher observes the truncation and re-reads from the top.
//!
//! Lines are written whole (single `write_all` + flush per record), so a
//! reader can at worst observe one torn line at the tail — the same
//! contract the sweep checkpoint writer honors.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

use crate::json::JsonLine;
use crate::metric::HistogramCore;
use crate::sink::{CollectingSink, Sink, TraceSnapshot};
use crate::span::{EventRecord, SpanRecord};

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

    fn write_line(&self, line: &str) {
        // Best-effort, like the checkpoint writer: a full disk must not
        // kill the instrumented run, only the live view.
        let mut out = self.out.lock().expect("stream sink writer poisoned");
        let _ = out.write_all(line.as_bytes());
        let _ = out.write_all(b"\n");
        let _ = out.flush();
    }
}

impl Sink for StreamSink {
    fn span(&self, record: SpanRecord) {
        let mut line = JsonLine::new()
            .str("kind", "span")
            .str("name", &record.name)
            .u64("start_us", record.start_us)
            .u64("duration_us", record.duration_us);
        for (key, value) in &record.fields {
            line = line.field(key, value);
        }
        self.write_line(&line.finish());
        self.inner.span(record);
    }

    fn event(&self, record: EventRecord) {
        let mut line = JsonLine::new()
            .str("kind", "event")
            .str("name", &record.name)
            .u64("at_us", record.at_us);
        for (key, value) in &record.fields {
            line = line.field(key, value);
        }
        self.write_line(&line.finish());
        self.inner.event(record);
    }

    fn counter(&self, name: &str) -> Option<Arc<AtomicU64>> {
        self.inner.counter(name)
    }

    fn histogram(&self, name: &str) -> Option<Arc<HistogramCore>> {
        self.inner.histogram(name)
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
        assert!(lines[0].starts_with(r#"{"kind":"span","name":"candidate""#));
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
        // The live format is the snapshot format: no flow header, full
        // span names. `printed-report`'s parser accepts it — assert the
        // shape contract it relies on here, on the producer side.
        let buf = SharedBuf::default();
        let sink = Arc::new(StreamSink::new(buf.clone()));
        let recorder = Recorder::with_sink(Arc::clone(&sink) as Arc<dyn Sink>);
        recorder.span(keys::STAGE_SWEEP).finish();
        let text = buf.text();
        assert!(text.contains(r#""name":"stage:sweep""#), "{text}");
    }
}
