//! Where telemetry goes: the [`Sink`] trait, the no-op [`NullSink`], and
//! the in-memory [`CollectingSink`].

use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

use crate::json::JsonLine;
use crate::metric::{HistogramCore, HistogramSnapshot};
use crate::span::{EventRecord, SpanRecord};

/// Destination for telemetry produced through a [`crate::Recorder`].
///
/// Implementations must be thread-safe: the sweep submits spans and
/// resolves counters from scoped worker threads concurrently. Counter and
/// histogram handles are resolved once per name and then updated
/// lock-free, so only registration and span submission may take a lock.
pub trait Sink: Send + Sync {
    /// Whether this sink records anything. `false` lets the recorder hand
    /// out inert spans/handles that skip clock reads and allocation.
    fn enabled(&self) -> bool {
        true
    }

    /// Accepts a finished span.
    fn span(&self, record: SpanRecord);

    /// Accepts an instant event.
    fn event(&self, record: EventRecord);

    /// Resolves (registering on first use) the shared cell behind a named
    /// counter. `None` means counting is off for this sink.
    fn counter(&self, name: &str) -> Option<Arc<AtomicU64>>;

    /// Resolves (registering on first use) the shared core behind a named
    /// histogram. `None` means histograms are off for this sink.
    fn histogram(&self, name: &str) -> Option<Arc<HistogramCore>>;

    /// Resolves (registering on first use) the shared cell behind a named
    /// gauge (last-value-wins level, e.g. peak RSS). Defaults to `None`
    /// (gauges off) so pre-gauge sink implementations keep compiling.
    fn gauge(&self, _name: &str) -> Option<Arc<AtomicU64>> {
        None
    }

    /// A point-in-time copy of everything recorded so far, if the sink
    /// keeps anything to copy.
    fn snapshot(&self) -> Option<TraceSnapshot> {
        None
    }
}

/// The do-nothing sink behind [`crate::Recorder::disabled`].
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn span(&self, _record: SpanRecord) {}

    fn event(&self, _record: EventRecord) {}

    fn counter(&self, _name: &str) -> Option<Arc<AtomicU64>> {
        None
    }

    fn histogram(&self, _name: &str) -> Option<Arc<HistogramCore>> {
        None
    }
}

/// An in-memory sink that keeps every span and event and aggregates
/// counters/histograms, for snapshotting into a [`crate::FlowTrace`] or
/// NDJSON dump.
#[derive(Debug, Default)]
pub struct CollectingSink {
    spans: Mutex<Vec<SpanRecord>>,
    events: Mutex<Vec<EventRecord>>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
}

impl CollectingSink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
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
                .iter()
                .map(|(name, cell)| {
                    (
                        name.clone(),
                        cell.load(std::sync::atomic::Ordering::Relaxed),
                    )
                })
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("telemetry gauge store poisoned")
                .iter()
                .map(|(name, cell)| {
                    (
                        name.clone(),
                        cell.load(std::sync::atomic::Ordering::Relaxed),
                    )
                })
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("telemetry histogram store poisoned")
                .iter()
                .map(|(name, core)| (name.clone(), core.snapshot()))
                .collect(),
        }
    }
}

impl Sink for CollectingSink {
    fn span(&self, record: SpanRecord) {
        self.spans
            .lock()
            .expect("telemetry span store poisoned")
            .push(record);
    }

    fn event(&self, record: EventRecord) {
        self.events
            .lock()
            .expect("telemetry event store poisoned")
            .push(record);
    }

    fn counter(&self, name: &str) -> Option<Arc<AtomicU64>> {
        let mut map = self
            .counters
            .lock()
            .expect("telemetry counter store poisoned");
        if let Some(cell) = map.get(name) {
            return Some(Arc::clone(cell));
        }
        let cell = Arc::new(AtomicU64::new(0));
        map.insert(name.to_owned(), Arc::clone(&cell));
        Some(cell)
    }

    fn histogram(&self, name: &str) -> Option<Arc<HistogramCore>> {
        let mut map = self
            .histograms
            .lock()
            .expect("telemetry histogram store poisoned");
        if let Some(core) = map.get(name) {
            return Some(Arc::clone(core));
        }
        let core = Arc::new(HistogramCore::default());
        map.insert(name.to_owned(), Arc::clone(&core));
        Some(core)
    }

    fn gauge(&self, name: &str) -> Option<Arc<AtomicU64>> {
        let mut map = self.gauges.lock().expect("telemetry gauge store poisoned");
        if let Some(cell) = map.get(name) {
            return Some(Arc::clone(cell));
        }
        let cell = Arc::new(AtomicU64::new(0));
        map.insert(name.to_owned(), Arc::clone(&cell));
        Some(cell)
    }

    fn snapshot(&self) -> Option<TraceSnapshot> {
        Some(CollectingSink::snapshot(self))
    }
}

/// A serializable point-in-time copy of a [`CollectingSink`]'s contents.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSnapshot {
    /// Finished spans, sorted by start offset.
    pub spans: Vec<SpanRecord>,
    /// Instant events, in submission order.
    pub events: Vec<EventRecord>,
    /// Final counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Final gauge readings by name (absent on pre-gauge snapshots).
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
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

    /// The snapshot of a named histogram, if one was recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// All spans with the given name, in start order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// All events with the given name, in submission order.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a EventRecord> {
        self.events.iter().filter(move |e| e.name == name)
    }

    /// Renders the snapshot as NDJSON: one `{"kind":...}` object per span,
    /// event, counter, and histogram. No trailing newline.
    pub fn to_ndjson(&self) -> String {
        let mut lines = Vec::new();
        for span in &self.spans {
            let mut line = JsonLine::new()
                .str("kind", "span")
                .str("name", &span.name)
                .u64("start_us", span.start_us)
                .u64("duration_us", span.duration_us);
            for (key, value) in &span.fields {
                line = line.field(key, value);
            }
            lines.push(line.finish());
        }
        for event in &self.events {
            let mut line = JsonLine::new()
                .str("kind", "event")
                .str("name", &event.name)
                .u64("at_us", event.at_us);
            for (key, value) in &event.fields {
                line = line.field(key, value);
            }
            lines.push(line.finish());
        }
        for (name, value) in &self.counters {
            lines.push(
                JsonLine::new()
                    .str("kind", "counter")
                    .str("name", name)
                    .u64("value", *value)
                    .finish(),
            );
        }
        for (name, value) in &self.gauges {
            lines.push(
                JsonLine::new()
                    .str("kind", "gauge")
                    .str("name", name)
                    .u64("value", *value)
                    .finish(),
            );
        }
        for (name, hist) in &self.histograms {
            let buckets =
                crate::json::array(hist.buckets.iter().map(|&(hi, n)| format!("[{hi},{n}]")));
            lines.push(
                JsonLine::new()
                    .str("kind", "histogram")
                    .str("name", name)
                    .u64("count", hist.count)
                    .u64("sum_us", hist.sum_us)
                    .u64("min_us", hist.min_us)
                    .u64("max_us", hist.max_us)
                    .f64("mean_us", hist.mean_us())
                    .raw("buckets", &buckets)
                    .finish(),
            );
        }
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::FieldValue;

    fn sample_span(name: &str, start_us: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            start_us,
            duration_us: 5,
            fields: vec![("depth".into(), FieldValue::U64(3))],
        }
    }

    #[test]
    fn snapshot_sorts_spans_by_start() {
        let sink = CollectingSink::new();
        sink.span(sample_span("b", 20));
        sink.span(sample_span("a", 10));
        let snap = sink.snapshot();
        assert_eq!(snap.spans[0].name, "a");
        assert_eq!(snap.spans[1].name, "b");
        assert_eq!(snap.spans_named("a").count(), 1);
    }

    #[test]
    fn counters_are_shared_per_name() {
        let sink = CollectingSink::new();
        let a = Sink::counter(&sink, "x").unwrap();
        let b = Sink::counter(&sink, "x").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        a.fetch_add(3, std::sync::atomic::Ordering::Relaxed);
        b.fetch_add(4, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(sink.snapshot().counter("x"), 7);
        assert_eq!(sink.snapshot().counter("missing"), 0);
    }

    #[test]
    fn ndjson_lists_every_record_kind() {
        let sink = CollectingSink::new();
        sink.span(sample_span("candidate", 1));
        sink.event(EventRecord {
            name: "selected".into(),
            at_us: 9,
            fields: vec![],
        });
        Sink::counter(&sink, "train.gini_evals")
            .unwrap()
            .fetch_add(12, std::sync::atomic::Ordering::Relaxed);
        Sink::histogram(&sink, "sweep.candidate_us")
            .unwrap()
            .snapshot(); // register only
        let text = sink.snapshot().to_ndjson();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains(r#""kind":"span""#));
        assert!(lines[0].contains(r#""depth":3"#));
        assert!(lines[1].contains(r#""kind":"event""#));
        assert!(lines[2].contains(r#""value":12"#));
        assert!(lines[3].contains(r#""kind":"histogram""#));
    }

    #[test]
    fn null_sink_reports_disabled() {
        let sink = NullSink;
        assert!(!sink.enabled());
        assert!(Sink::counter(&sink, "x").is_none());
        assert!(Sink::histogram(&sink, "x").is_none());
        assert!(Sink::gauge(&sink, "x").is_none());
        assert!(Sink::snapshot(&sink).is_none());
    }

    #[test]
    fn gauges_are_shared_last_write_wins_and_render() {
        let sink = CollectingSink::new();
        let a = Sink::gauge(&sink, "process.peak_rss_kb").unwrap();
        let b = Sink::gauge(&sink, "process.peak_rss_kb").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        a.store(4096, std::sync::atomic::Ordering::Relaxed);
        b.store(8192, std::sync::atomic::Ordering::Relaxed);
        let snap = sink.snapshot();
        assert_eq!(snap.gauge("process.peak_rss_kb"), 8192);
        assert_eq!(snap.gauge("missing"), 0);
        let text = snap.to_ndjson();
        assert!(
            text.contains(r#"{"kind":"gauge","name":"process.peak_rss_kb","value":8192}"#),
            "{text}"
        );
    }
}
