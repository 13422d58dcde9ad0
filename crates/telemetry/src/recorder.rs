//! The [`Recorder`]: the handle instrumented code holds.

use std::io::Write;
use std::sync::Arc;

use crate::sink::{CollectingSink, TraceSnapshot};
use crate::span::{EventRecord, FieldValue, Span};

/// Entry point for producing telemetry.
///
/// An enabled `Recorder` holds a shared [`CollectingSink`], whose epoch
/// every span and event offset is measured from, so traces from scoped
/// worker threads line up on one timeline. Cloning is cheap (one `Arc`
/// bump) and clones share the store *and* the epoch.
///
/// The default recorder is [`disabled`](Recorder::disabled) and holds no
/// store at all: spans skip even the clock reads and counter/gauge
/// updates are no-ops, so instrumented hot paths cost ~nothing.
#[derive(Clone, Default)]
pub struct Recorder {
    sink: Option<Arc<CollectingSink>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Recorder {
    /// The no-op recorder: no store, no allocation, no clock reads.
    pub fn disabled() -> Self {
        Self { sink: None }
    }

    /// A recorder feeding a fresh in-memory [`CollectingSink`], returned
    /// alongside it so the caller can snapshot what was recorded.
    pub fn collecting() -> (Self, Arc<CollectingSink>) {
        let sink = Arc::new(CollectingSink::new(None));
        let recorder = Self {
            sink: Some(Arc::clone(&sink)),
        };
        (recorder, sink)
    }

    /// A collecting recorder that also writes every span and event to
    /// `out` as one flushed NDJSON line the moment it is submitted, each
    /// exactly its line in the final [`crate::FlowTrace::to_ndjson`] dump.
    /// Write errors are ignored: they cost the live view, never the run or
    /// the snapshot.
    pub fn streaming(out: impl Write + Send + 'static) -> Self {
        Self {
            sink: Some(Arc::new(CollectingSink::new(Some(Box::new(out))))),
        }
    }

    /// Whether this recorder records anything.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Opens a [`Span`] under this thread's open span. The record is
    /// submitted when the span is finished or dropped. Inert (no clock
    /// read, no id, no allocation) when disabled.
    pub fn span(&self, name: &'static str) -> Span {
        self.sink
            .as_ref()
            .map_or_else(Span::noop, |sink| Span::open(sink, name))
    }

    /// Adds `n` to the named counter (a monotonically accumulating
    /// total).
    pub fn add(&self, name: &str, n: u64) {
        if let Some(sink) = &self.sink {
            sink.add(name, n);
        }
    }

    /// Sets the named gauge (a last-value-wins level such as peak RSS)
    /// to `value`.
    pub fn set_gauge(&self, name: &str, value: u64) {
        if let Some(sink) = &self.sink {
            sink.set_gauge(name, value);
        }
    }

    /// Submits an instant event with attributes.
    pub fn event(&self, name: &str, fields: Vec<(String, FieldValue)>) {
        if let Some(sink) = &self.sink {
            sink.event(EventRecord {
                name: name.to_owned(),
                at_us: sink.elapsed_us(),
                fields,
            });
        }
    }

    /// Snapshot of everything recorded so far (`None` when disabled).
    pub fn snapshot(&self) -> Option<TraceSnapshot> {
        self.sink.as_ref().map(|sink| sink.snapshot())
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
    fn spans_record_the_open_span_on_their_thread_or_its_handoff() {
        let (recorder, sink) = Recorder::collecting();
        let stage = recorder.span(keys::STAGE_SWEEP);
        let handoff = Span::current_id();
        // A disabled recorder's span touches no thread state.
        Recorder::disabled().span("inert").finish();
        assert_eq!(Span::current_id(), handoff);
        thread::scope(|scope| {
            scope.spawn(|| {
                Span::adopt(handoff);
                let candidate = recorder.span(keys::CANDIDATE_SPAN);
                recorder.span(keys::TRAIN_SPAN).finish();
                candidate.finish();
                recorder.span(keys::ROBUST_SPAN).finish();
            });
        });
        stage.finish();
        assert_eq!(Span::current_id(), None);
        recorder.span(keys::STAGE_LINT).finish();
        let snapshot = sink.snapshot();
        let named = |name| snapshot.spans_named(name).next().expect(name);
        let stage = named(keys::STAGE_SWEEP);
        assert_eq!((Some(stage.id), stage.parent), (handoff, None));
        assert_eq!(named(keys::CANDIDATE_SPAN).parent, Some(stage.id));
        assert_eq!(
            named(keys::TRAIN_SPAN).parent,
            Some(named(keys::CANDIDATE_SPAN).id)
        );
        assert_eq!(named(keys::ROBUST_SPAN).parent, Some(stage.id));
        assert_eq!(named(keys::STAGE_LINT).parent, None);
        let mut ids: Vec<u64> = snapshot.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 5);
        assert!(!ids.contains(&0));
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
