//! Spans (timed regions), events (instant marks), and their records.

use std::sync::Arc;
use std::time::{Duration, Instant};

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
/// epoch, duration, and attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (see [`crate::keys`] for the workspace conventions).
    pub name: String,
    /// Start offset from the recorder epoch, µs.
    pub start_us: u64,
    /// Wall-clock duration, µs.
    pub duration_us: u64,
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

pub(crate) struct SpanInner {
    pub(crate) sink: Arc<CollectingSink>,
    pub(crate) name: &'static str,
    pub(crate) start_us: u64,
    pub(crate) begun: Instant,
    pub(crate) fields: Vec<(String, FieldValue)>,
}

/// A live timed region. Created by [`crate::Recorder::span`]; submits a
/// [`SpanRecord`] to the recorder's store when finished (or dropped).
///
/// Spans from disabled recorders skip the clock reads and every
/// allocation, so leaving instrumentation in hot paths is free.
pub struct Span {
    pub(crate) inner: Option<Box<SpanInner>>,
}

impl Span {
    /// An inert span (what disabled recorders hand out).
    pub fn noop() -> Self {
        Self { inner: None }
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
            inner.fields.push((key.to_owned(), value.into()));
        }
    }

    /// Ends the span, submits it to the store, and returns its duration
    /// ([`Duration::ZERO`] when disabled).
    pub fn finish(mut self) -> Duration {
        self.submit()
    }

    fn submit(&mut self) -> Duration {
        match self.inner.take() {
            Some(inner) => {
                let elapsed = inner.begun.elapsed();
                inner.sink.span(SpanRecord {
                    name: inner.name.to_owned(),
                    start_us: inner.start_us,
                    duration_us: elapsed.as_micros() as u64,
                    fields: inner.fields,
                });
                elapsed
            }
            None => Duration::ZERO,
        }
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
            Some(inner) => write!(f, "Span({:?}, live)", inner.name),
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
