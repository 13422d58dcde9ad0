//! Where telemetry goes: the one store, [`CollectingSink`], which keeps
//! every span and event, the counter and gauge values, and the epoch the
//! records are timed from.
//!
//! A store built by [`crate::Recorder::streaming`] also writes each span
//! and event to a live writer the moment it is submitted, for tailing
//! with `printed-trace watch` while the run is still in flight. Each line
//! is exactly the line the finalized [`crate::FlowTrace::to_ndjson`] dump
//! will contain (one encoder per record, shared with the dump); when the
//! run finishes and overwrites the file with the flow dump, the bytes a
//! watcher already read stop being a prefix of the file, and it re-reads
//! from the top. Lines are written whole (one `write_all` and a flush per
//! record), so a reader can at worst observe one torn line at the tail,
//! the same contract the sweep checkpoint writer honors.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

use crate::span::{EventRecord, SpanRecord};
use crate::trace::{event_line, span_line};

/// The in-memory store behind an enabled [`crate::Recorder`]: it keeps
/// every span and event and aggregates counters and gauges, for
/// snapshotting into a [`crate::FlowTrace`], and streams spans and events
/// to a live writer if it has one.
///
/// Thread-safe: the sweep submits spans and updates counters from scoped
/// worker threads concurrently, each under its store's lock.
pub struct CollectingSink {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    events: Mutex<Vec<EventRecord>>,
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, u64>>,
    live: Option<Mutex<Box<dyn Write + Send>>>,
}

impl std::fmt::Debug for CollectingSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollectingSink")
            .field("live", &self.live.is_some())
            .finish_non_exhaustive()
    }
}

impl CollectingSink {
    /// An empty store timed from now, streaming to `live` if given.
    pub(crate) fn new(live: Option<Box<dyn Write + Send>>) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::default(),
            events: Mutex::default(),
            counters: Mutex::default(),
            gauges: Mutex::default(),
            live: live.map(Mutex::new),
        }
    }

    /// Microseconds elapsed since this store's epoch.
    pub(crate) fn elapsed_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// A point-in-time copy of everything recorded so far.
    ///
    /// Spans are returned sorted by start offset: workers finish out of
    /// order, but traces read best in timeline order.
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut spans = self
            .spans
            .lock()
            .expect("telemetry span store poisoned")
            .clone();
        spans.sort_by_key(|s| (s.start_us, s.duration_us));
        TraceSnapshot {
            spans,
            events: self
                .events
                .lock()
                .expect("telemetry event store poisoned")
                .clone(),
            counters: self
                .counters
                .lock()
                .expect("telemetry counter store poisoned")
                .clone(),
            gauges: self
                .gauges
                .lock()
                .expect("telemetry gauge store poisoned")
                .clone(),
        }
    }

    /// Stores a finished span.
    pub(crate) fn span(&self, record: SpanRecord) {
        store(&self.live, &self.spans, record, span_line);
    }

    /// Stores an instant event.
    pub(crate) fn event(&self, record: EventRecord) {
        store(&self.live, &self.events, record, event_line);
    }

    /// Adds `n` to the named counter, registering it on first use.
    pub(crate) fn add(&self, name: &str, n: u64) {
        update(&self.counters, name, |v| *v = v.wrapping_add(n));
    }

    /// Sets the named gauge, registering it on first use.
    pub(crate) fn set_gauge(&self, name: &str, value: u64) {
        update(&self.gauges, name, |v| *v = value);
    }
}

/// Pushes `record` onto `records`, first writing its `line` to the live
/// writer if there is one. The writer lock is held until the record is
/// stored, so the stream and the snapshot list records in one order.
fn store<T>(
    live: &Option<Mutex<Box<dyn Write + Send>>>,
    records: &Mutex<Vec<T>>,
    record: T,
    line: fn(&T) -> String,
) {
    let _writer = live.as_ref().map(|out| {
        let mut out = out.lock().expect("telemetry live writer poisoned");
        let mut text = line(&record);
        text.push('\n');
        // Best-effort, like the checkpoint writer: a full disk must not
        // kill the instrumented run, only the live view.
        let _ = out.write_all(text.as_bytes());
        let _ = out.flush();
        out
    });
    records
        .lock()
        .expect("telemetry record store poisoned")
        .push(record);
}

/// Applies `f` to the named value in `map`, inserting a zero first if
/// the name is new.
fn update(map: &Mutex<BTreeMap<String, u64>>, name: &str, f: impl FnOnce(&mut u64)) {
    let mut map = map.lock().expect("telemetry value store poisoned");
    match map.get_mut(name) {
        Some(value) => f(value),
        None => f(map.entry(name.to_owned()).or_insert(0)),
    }
}

/// A point-in-time copy of a [`CollectingSink`]'s contents; render it
/// through [`crate::FlowTrace::from_snapshot`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSnapshot {
    /// Finished spans, sorted by start offset.
    pub spans: Vec<SpanRecord>,
    /// Instant events, in submission order.
    pub events: Vec<EventRecord>,
    /// Final counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Final gauge readings by name.
    pub gauges: BTreeMap<String, u64>,
}

impl TraceSnapshot {
    /// The value of a named counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The reading of a named gauge (zero if never set).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// All spans with the given name, in start order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// All events with the given name, in submission order.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a EventRecord> {
        self.events.iter().filter(move |e| e.name == name)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::keys;
    use crate::recorder::Recorder;
    use crate::span::FieldValue;

    fn sample_span(name: &str, start_us: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            start_us,
            duration_us: 5,
            fields: vec![("depth".into(), FieldValue::U64(3))],
            ..SpanRecord::default()
        }
    }

    /// A `Write` handle over a shared buffer, so the test can inspect what
    /// was streamed while the store still owns its writer.
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

    /// A writer whose every `write` and `flush` fails, like a full disk.
    struct FullDisk;

    impl Write for FullDisk {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("no space left on device"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("no space left on device"))
        }
    }

    #[test]
    fn snapshot_sorts_spans_by_start() {
        let sink = CollectingSink::new(None);
        sink.span(sample_span("b", 20));
        sink.span(sample_span("a", 10));
        let snap = sink.snapshot();
        assert_eq!(snap.spans[0].name, "a");
        assert_eq!(snap.spans[1].name, "b");
        assert_eq!(snap.spans_named("a").count(), 1);
    }

    #[test]
    fn counters_are_shared_per_name() {
        let (recorder, sink) = Recorder::collecting();
        let clone = recorder.clone();
        recorder.add("x", 3);
        clone.add("x", 4);
        assert_eq!(sink.snapshot().counter("x"), 7);
        assert_eq!(sink.snapshot().counter("missing"), 0);
    }

    #[test]
    fn gauges_are_shared_last_write_wins_and_render() {
        let (recorder, sink) = Recorder::collecting();
        recorder.set_gauge("process.peak_rss_kb", 4096);
        recorder.clone().set_gauge("process.peak_rss_kb", 8192);
        let snap = sink.snapshot();
        assert_eq!(snap.gauge("process.peak_rss_kb"), 8192);
        assert_eq!(snap.gauge("missing"), 0);
        let text = crate::FlowTrace::from_snapshot("", &snap).to_ndjson();
        assert!(
            text.contains(r#"{"kind":"gauge","name":"process.peak_rss_kb","value":8192}"#),
            "{text}"
        );
    }

    #[test]
    fn spans_and_events_stream_immediately() {
        let buf = SharedBuf::default();
        let recorder = Recorder::streaming(buf.clone());
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
        assert!(lines[0].starts_with(r#"{"kind":"span","name":"candidate","#));
        assert!(lines[0].contains(r#""depth":4"#));
        assert!(lines[1].starts_with(r#"{"kind":"event","name":"progress","#));
        assert!(lines[1].contains(r#""done":1"#));
    }

    #[test]
    fn still_collects_for_the_final_snapshot() {
        let recorder = Recorder::streaming(SharedBuf::default());
        recorder.span(keys::STAGE_SWEEP).finish();
        recorder.add(keys::GINI_EVALS, 50);
        recorder.set_gauge(keys::PEAK_RSS_KB, 777);
        let snap = recorder.snapshot().expect("a streaming recorder snapshots");
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.counter(keys::GINI_EVALS), 50);
        assert_eq!(snap.gauge(keys::PEAK_RSS_KB), 777);
    }

    #[test]
    fn a_failing_writer_loses_only_the_live_view() {
        let recorder = Recorder::streaming(FullDisk);
        recorder
            .span(keys::CANDIDATE_SPAN)
            .field("depth", 2u64)
            .finish();
        recorder.event(
            keys::PROGRESS_EVENT,
            vec![("done".into(), FieldValue::U64(1))],
        );
        recorder.add(keys::GINI_EVALS, 9);
        recorder.set_gauge(keys::PEAK_RSS_KB, 64);
        let snap = recorder.snapshot().expect("a streaming recorder snapshots");
        assert_eq!(snap.spans_named(keys::CANDIDATE_SPAN).count(), 1);
        assert_eq!(snap.events_named(keys::PROGRESS_EVENT).count(), 1);
        assert_eq!(snap.counter(keys::GINI_EVALS), 9);
        assert_eq!(snap.gauge(keys::PEAK_RSS_KB), 64);
    }

    #[test]
    fn streamed_lines_are_parse_compatible() {
        // The live format is the flow dump's format: a stage streams as
        // the dump's `span` record, under its full `stage:` name. Assert
        // the shape contract `printed-report`'s parser relies on here, on
        // the producer side.
        let buf = SharedBuf::default();
        let recorder = Recorder::streaming(buf.clone());
        recorder.span(keys::STAGE_SWEEP).finish();
        let text = buf.text();
        assert!(
            text.starts_with(r#"{"kind":"span","name":"stage:sweep","#),
            "{text}"
        );
    }

    #[test]
    fn every_record_kind_streams_as_its_dump_line() {
        let buf = SharedBuf::default();
        let recorder = Recorder::streaming(buf.clone());
        let stage = recorder.span(keys::STAGE_SWEEP);
        {
            let _scope = crate::KernelScope::enter(&recorder);
            crate::KernelTimer::start(crate::Kernel::GiniScan).finish(40);
            recorder
                .span(keys::CANDIDATE_SPAN)
                .field("depth", 2u64)
                .field("tau", 0.01)
                .finish();
        }
        recorder
            .span(keys::TRAIN_SPAN)
            .field("nodes", 3u64)
            .finish();
        recorder
            .span(keys::ROBUST_SPAN)
            .field("depth", 2u64)
            .finish();
        recorder.event(
            keys::LINT_CANDIDATE_EVENT,
            vec![("errors".into(), FieldValue::U64(0))],
        );
        recorder.event(keys::SELECTED_EVENT, vec![("µ τ".into(), "\"q\"".into())]);
        stage.finish();
        recorder.add(keys::GINI_EVALS, 5);
        recorder.set_gauge(keys::PEAK_RSS_KB, 64);
        let streamed = buf.text();
        let snapshot = recorder.snapshot().expect("a streaming recorder snapshots");
        let dump = crate::FlowTrace::from_snapshot("unit", &snapshot)
            .with_manifest(crate::RunManifest::default())
            .to_ndjson();
        let dumped: Vec<&str> = dump.lines().collect();
        let kind_of = |line: &str| {
            let rest = line.strip_prefix(r#"{"kind":""#).expect("kind leads");
            rest[..rest.find('"').expect("kind closes")].to_owned()
        };
        // The stream holds only spans and events, each verbatim in the dump
        // and together all of the dump's spans and events.
        assert_eq!(streamed.lines().count(), 6, "{streamed}");
        for line in streamed.lines() {
            assert!(dumped.contains(&line), "{line} missing from\n{dump}");
            assert!(matches!(kind_of(line).as_str(), "span" | "event"), "{line}");
        }
        let spans_and_events = dumped
            .iter()
            .filter(|l| matches!(kind_of(l).as_str(), "span" | "event"))
            .count();
        assert_eq!(spans_and_events, 6, "{dump}");
        // The dump holds the six kinds and no others; the kernel tallies
        // are plain counters.
        for line in &dumped {
            let kind = kind_of(line);
            assert!(
                ["flow", "manifest", "span", "event", "counter", "gauge"].contains(&kind.as_str()),
                "{line}"
            );
        }
        for kind in ["flow", "manifest", "span", "event", "counter", "gauge"] {
            assert!(
                dumped.iter().any(|l| kind_of(l) == kind),
                "no {kind} in\n{dump}"
            );
        }
        assert!(
            dump.contains(r#"{"kind":"counter","name":"kernel.gini_scan.items","value":40}"#),
            "{dump}"
        );
        for name in ["stage:sweep", "candidate", "train", "robust_candidate"] {
            let tag = format!(r#"{{"kind":"span","name":"{name}","#);
            assert!(streamed.contains(&tag), "no {name} span in\n{streamed}");
        }
        for name in ["lint_candidate", "selected"] {
            let tag = format!(r#"{{"kind":"event","name":"{name}","#);
            assert!(streamed.contains(&tag), "no {name} event in\n{streamed}");
        }
    }
}
