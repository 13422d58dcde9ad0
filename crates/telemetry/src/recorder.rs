//! The [`Recorder`]: the handle instrumented code holds.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::sink::{CollectingSink, NullSink, Sink, TraceSnapshot};
use crate::span::{EventRecord, FieldValue, Span, SpanInner};

/// Entry point for producing telemetry.
///
/// A `Recorder` pairs a shared [`Sink`] with an epoch instant; all span and
/// event offsets are measured from that epoch so traces from scoped worker
/// threads line up on one timeline. Cloning is cheap (one `Arc` bump) and
/// clones share the sink *and* the epoch.
///
/// The default recorder is [`disabled`](Recorder::disabled): spans skip
/// even the clock reads and counter/gauge updates are no-ops, so
/// instrumented hot paths cost ~nothing until a real sink is installed.
#[derive(Clone)]
pub struct Recorder {
    sink: Arc<dyn Sink>,
    epoch: Instant,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::disabled()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Recorder {
    /// The no-op recorder. All handles share one static [`NullSink`], so
    /// this never allocates.
    pub fn disabled() -> Self {
        static NULL: OnceLock<Arc<NullSink>> = OnceLock::new();
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        let sink = Arc::clone(NULL.get_or_init(|| Arc::new(NullSink)));
        Self {
            sink,
            epoch: *EPOCH.get_or_init(Instant::now),
        }
    }

    /// A recorder feeding a fresh in-memory [`CollectingSink`], returned
    /// alongside it so the caller can snapshot what was recorded.
    pub fn collecting() -> (Self, Arc<CollectingSink>) {
        let sink = Arc::new(CollectingSink::new());
        (Self::with_sink(Arc::clone(&sink) as Arc<dyn Sink>), sink)
    }

    /// A recorder feeding an arbitrary sink, with its epoch set to now.
    pub fn with_sink(sink: Arc<dyn Sink>) -> Self {
        Self {
            sink,
            epoch: Instant::now(),
        }
    }

    /// Whether this recorder's sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.sink.enabled()
    }

    /// Microseconds elapsed since this recorder's epoch.
    pub fn elapsed_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Opens a [`Span`]. The record is submitted when the span is finished
    /// or dropped. Inert (no clock read, no allocation) when disabled.
    pub fn span(&self, name: &'static str) -> Span {
        if !self.is_enabled() {
            return Span::noop();
        }
        Span {
            inner: Some(Box::new(SpanInner {
                sink: Arc::clone(&self.sink),
                name,
                start_us: self.elapsed_us(),
                begun: Instant::now(),
                fields: Vec::new(),
            })),
        }
    }

    /// Adds `n` to the named counter (a monotonically accumulating
    /// total).
    pub fn add(&self, name: &str, n: u64) {
        if let Some(cell) = self.sink.counter(name) {
            cell.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Sets the named gauge (a last-value-wins level such as peak RSS)
    /// to `value`.
    pub fn set_gauge(&self, name: &str, value: u64) {
        if let Some(cell) = self.sink.gauge(name) {
            cell.store(value, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Submits an instant event with attributes.
    pub fn event(&self, name: &str, fields: Vec<(String, FieldValue)>) {
        if self.is_enabled() {
            self.sink.event(EventRecord {
                name: name.to_owned(),
                at_us: self.elapsed_us(),
                fields,
            });
        }
    }

    /// Snapshot of the sink's contents, if it keeps any.
    pub fn snapshot(&self) -> Option<TraceSnapshot> {
        self.sink.snapshot()
    }
}

/// Live progress of a sweep: `done` of `total` grid points finished.
///
/// Handed to progress callbacks from worker threads as each candidate
/// completes, so a caller can render `k/N candidates done` without polling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Candidates finished so far (1-based by the time the callback runs).
    pub done: usize,
    /// Total candidates in the grid.
    pub total: usize,
}

impl Progress {
    /// Whether the sweep is finished.
    pub fn is_done(&self) -> bool {
        self.done >= self.total
    }
}

impl std::fmt::Display for Progress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{} candidates done", self.done, self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys;
    use std::thread;

    #[test]
    fn disabled_recorder_is_inert() {
        let recorder = Recorder::default();
        assert!(!recorder.is_enabled());
        let span = recorder.span("x");
        assert!(!span.is_enabled());
        span.finish();
        recorder.add("c", 5);
        recorder.set_gauge("g", 9);
        assert!(recorder.snapshot().is_none());
    }

    #[test]
    fn gauges_round_trip_through_a_collecting_recorder() {
        let (recorder, sink) = Recorder::collecting();
        recorder.set_gauge("process.peak_rss_kb", 1234);
        recorder.set_gauge("process.peak_rss_kb", 5000);
        assert_eq!(sink.snapshot().gauge("process.peak_rss_kb"), 5000);
    }

    #[test]
    fn collecting_recorder_round_trips_the_doc_example() {
        let (recorder, sink) = Recorder::collecting();
        let span = recorder.span(keys::CANDIDATE_SPAN).field("depth", 4u64);
        recorder.add(keys::GINI_EVALS, 128);
        span.finish();
        let snapshot = sink.snapshot();
        assert_eq!(snapshot.counter(keys::GINI_EVALS), 128);
        assert_eq!(snapshot.spans_named(keys::CANDIDATE_SPAN).count(), 1);
        let span = &snapshot.spans[0];
        assert_eq!(span.field("depth").and_then(FieldValue::as_u64), Some(4));
    }

    #[test]
    fn dropping_a_span_still_submits_it() {
        let (recorder, sink) = Recorder::collecting();
        {
            let _span = recorder.span("scoped");
        }
        assert_eq!(sink.snapshot().spans.len(), 1);
    }

    #[test]
    fn eight_threads_hammering_one_recorder_lose_nothing() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let (recorder, sink) = Recorder::collecting();
        thread::scope(|scope| {
            for t in 0..THREADS {
                let recorder = recorder.clone();
                scope.spawn(move || {
                    for _ in 0..PER_THREAD {
                        recorder.add(keys::GINI_EVALS, 1);
                    }
                    recorder
                        .span(keys::CANDIDATE_SPAN)
                        .field("thread", t)
                        .finish();
                });
            }
        });
        let snapshot = sink.snapshot();
        assert_eq!(
            snapshot.counter(keys::GINI_EVALS),
            THREADS as u64 * PER_THREAD
        );
        assert_eq!(snapshot.spans_named(keys::CANDIDATE_SPAN).count(), THREADS);
    }

    #[test]
    fn progress_formats_and_fractions() {
        let p = Progress { done: 3, total: 9 };
        assert_eq!(p.to_string(), "3/9 candidates done");
        assert!(!p.is_done());
        assert!(Progress { done: 9, total: 9 }.is_done());
    }
}
