//! The benchmark's own spans: name, start, end and parent, kept in memory
//! around each call into a layer's public functions and written out when
//! the run ends. Nothing inside the program is instrumented by them, and
//! the program's own `Recorder` spans carry no parent, which self time needs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Index of the span in its tracer.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer name, `<module>.<call>` or a grouping name (`pass`).
    pub name: &'static str,
    /// Start, in nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's origin.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span recorder. A tracer that is off records nothing and
/// reads no clock: its spans cost one branch.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            origin: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer whose timestamps count from `origin`.
    pub fn on(origin: Instant) -> Self {
        Self {
            origin: Some(origin),
            ..Self::off()
        }
    }

    fn now_ns(origin: Instant) -> u64 {
        u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let Some(origin) = self.origin else {
            return SpanId(None);
        };
        let id = self.spans.len();
        self.spans.push(SpanRecord {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: Self::now_ns(origin),
            end_ns: 0,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span opened by [`enter`](Self::enter).
    ///
    /// # Panics
    ///
    /// Panics if `span` is not the innermost open span.
    pub fn exit(&mut self, span: SpanId) {
        let (Some(origin), Some(id)) = (self.origin, span.0) else {
            return;
        };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = Self::now_ns(origin);
    }

    /// Runs `f` under a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name);
        let value = f();
        self.exit(span);
        value
    }

    /// The finished spans, in start order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the part its child spans cover, summed over spans of that name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for span in &self.spans {
            let own = (span.end_ns - span.start_ns).saturating_sub(child_ns[span.id]);
            *out.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as NDJSON, one object per line, each tagged with the
    /// run phase that produced it.
    pub fn to_ndjson(&self, phase: &str) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"phase":"{phase}","id":{},"parent":{parent},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                span.id, span.name, span.start_ns, span.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::on(Instant::now());
        let outer = tracer.enter("outer");
        tracer.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        tracer.exit(outer);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        let own = tracer.self_seconds();
        assert!(own["inner"] >= 0.02);
        assert!(own["outer"] < own["inner"]);
        assert!((own["outer"] + own["inner"] - spans[0].seconds()).abs() < 1e-9);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut tracer = Tracer::off();
        let span = tracer.enter("outer");
        assert_eq!(tracer.time("inner", || 7), 7);
        tracer.exit(span);
        assert!(tracer.spans().is_empty());
        assert!(tracer.to_ndjson("pass").is_empty());
    }
}
