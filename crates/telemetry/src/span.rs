//! Spans (timed regions), events (instant marks), and their records.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::sink::CollectingSink;

/// A typed attribute attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Free text.
    Str(String),
}

impl FieldValue {
    /// The value as `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            FieldValue::F64(v) => Some(*v),
            FieldValue::U64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as text, if it is text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v.into())
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// A finished span as stored in a trace: name, offset from the recorder's
/// epoch, duration, its place in the span tree, and attributes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpanRecord {
    /// Span name (see [`crate::keys`] for the workspace conventions).
    pub name: String,
    /// Start offset from the recorder epoch, µs.
    pub start_us: u64,
    /// Wall-clock duration, µs.
    pub duration_us: u64,
    /// Unique within a trace (0 when the writer recorded none).
    pub id: u64,
    /// The `id` of the span that was open when this one opened: on the
    /// same thread, or on the thread that handed its work to this one.
    /// `None` for a root.
    pub parent: Option<u64>,
    /// Attributes in insertion order.
    pub fields: Vec<(String, FieldValue)>,
}

impl SpanRecord {
    /// Looks up an attribute by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Duration as a [`Duration`].
    pub fn duration(&self) -> Duration {
        Duration::from_micros(self.duration_us)
    }

    /// End offset from the recorder epoch, µs.
    pub fn end_us(&self) -> u64 {
        self.start_us + self.duration_us
    }
}

/// An instant mark in a trace (no duration).
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Event name.
    pub name: String,
    /// Offset from the recorder epoch, µs.
    pub at_us: u64,
    /// Attributes in insertion order.
    pub fields: Vec<(String, FieldValue)>,
}

impl EventRecord {
    /// Looks up an attribute by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Span ids come from one process-wide counter, so a parent opened under
/// another recorder is never mistaken for one of this trace's spans.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The id of the innermost span open on this thread.
    static OPEN: Cell<Option<u64>> = const { Cell::new(None) };
}

/// A live timed region. Created by [`crate::Recorder::span`]; submits a
/// [`SpanRecord`] to the recorder's store when finished (or dropped).
/// Its parent is the span open on this thread when it opened, and until
/// it closes it is the parent of the spans this thread opens; spans close
/// innermost first.
///
/// Spans from disabled recorders skip the clock reads, the id and every
/// allocation, so leaving instrumentation in hot paths is free.
pub struct Span {
    /// The store the record goes to, and the record so far: all but its
    /// duration, which is read off the store's epoch at the end.
    inner: Option<Box<(Arc<CollectingSink>, SpanRecord)>>,
}

impl Span {
    /// An inert span (what disabled recorders hand out).
    pub fn noop() -> Self {
        Self { inner: None }
    }

    /// Opens a span in `sink` under this thread's open span.
    pub(crate) fn open(sink: &Arc<CollectingSink>, name: &'static str) -> Self {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let record = SpanRecord {
            name: name.to_owned(),
            start_us: sink.elapsed_us(),
            id,
            parent: OPEN.replace(Some(id)),
            ..SpanRecord::default()
        };
        Self {
            inner: Some(Box::new((Arc::clone(sink), record))),
        }
    }

    /// The id of the innermost span open on this thread, for a worker
    /// thread to [`adopt`](Span::adopt).
    pub fn current_id() -> Option<u64> {
        OPEN.get()
    }

    /// Makes `parent` (a [`current_id`](Span::current_id) taken on the
    /// thread that hands out the work) the parent of the spans this
    /// thread opens next.
    pub fn adopt(parent: Option<u64>) {
        OPEN.set(parent);
    }

    /// Whether this span will actually record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches an attribute (builder style). No-op when disabled.
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        self.record(key, value);
        self
    }

    /// Attaches an attribute to a live span. No-op when disabled.
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(inner) = &mut self.inner {
            inner.1.fields.push((key.to_owned(), value.into()));
        }
    }

    /// Ends the span, submits it to the store, and returns its duration
    /// ([`Duration::ZERO`] when disabled).
    pub fn finish(mut self) -> Duration {
        self.submit()
    }

    fn submit(&mut self) -> Duration {
        let Some((sink, mut record)) = self.inner.take().map(|inner| *inner) else {
            return Duration::ZERO;
        };
        record.duration_us = sink.elapsed_us().saturating_sub(record.start_us);
        // A span finished on another thread leaves that thread's open
        // span alone.
        if OPEN.get() == Some(record.id) {
            OPEN.set(record.parent);
        }
        let duration = record.duration();
        sink.span(record);
        duration
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.submit();
    }
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => write!(f, "Span({:?}, live)", inner.1.name),
            None => write!(f, "Span(disabled)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_lookup_and_conversions() {
        let record = SpanRecord {
            name: "candidate".into(),
            start_us: 10,
            duration_us: 25,
            id: 1,
            parent: None,
            fields: vec![
                ("depth".into(), 4usize.into()),
                ("tau".into(), 0.01.into()),
                ("dataset".into(), "Seeds".into()),
                ("ok".into(), true.into()),
            ],
        };
        assert_eq!(record.field("depth").and_then(FieldValue::as_u64), Some(4));
        assert_eq!(record.field("tau").and_then(FieldValue::as_f64), Some(0.01));
        assert_eq!(
            record.field("dataset").and_then(FieldValue::as_str),
            Some("Seeds")
        );
        assert_eq!(record.field("missing"), None);
        assert_eq!(record.end_us(), 35);
        assert_eq!(record.duration(), Duration::from_micros(25));
    }

    #[test]
    fn noop_span_is_inert() {
        let mut span = Span::noop();
        assert!(!span.is_enabled());
        span.record("k", 1u64);
        let span = span.field("j", 2u64);
        assert_eq!(span.finish(), Duration::ZERO);
    }
}
