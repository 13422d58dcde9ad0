//! Structured summaries of a co-design run: a [`FlowTrace`] is a
//! [`TraceSnapshot`] with a title, a wall time and a provenance manifest,
//! plus NDJSON and human-readable renderers.
//!
//! The NDJSON file is the snapshot itself, in six record kinds: a `flow`
//! header, an optional `manifest`, one `span` line per span (in start
//! order, under its full name: `stage:sweep`, `candidate`, ...; with its
//! `id` and, unless it is a root, its parent's as `parent`), one `event`
//! line per event, and one `counter` or `gauge` line per value.
//! Kernel totals stay the `kernel.<name>.{calls,items,ns}` counters they
//! are recorded as; [`FlowTrace::kernels`] derives the per-kernel view.
//! [`span_line`] and [`event_line`] are the one encoding of a span and an
//! event, shared by [`FlowTrace::to_ndjson`] and the live lines a
//! [`crate::Recorder::streaming`] recorder writes as the run goes, so the
//! stream's lines
//! reappear verbatim in the dump.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::clock::fmt_duration;
use crate::json::JsonLine;
use crate::keys;
use crate::manifest::RunManifest;
use crate::sink::TraceSnapshot;
use crate::span::{EventRecord, FieldValue, SpanRecord};

/// Per-kernel profiling totals read from the
/// `kernel.<name>.{calls,items,ns}` counters: one record per kernel that
/// ran inside a [`crate::KernelScope`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KernelRecord {
    /// Kernel name (`gini_scan`, `thermo_encode`, `bfs_truncate`,
    /// `cube_merge`, `netlist_synth`).
    pub name: String,
    /// Invocations.
    pub calls: u64,
    /// Items processed across all invocations (candidates scored, cubes
    /// merged, gates placed, ...).
    pub items: u64,
    /// Cumulative self time, ns (nested-kernel time excluded).
    pub ns: u64,
}

impl KernelRecord {
    /// Derived throughput: items per second of self time (zero when no
    /// time was recorded).
    pub fn items_per_sec(&self) -> f64 {
        if self.ns == 0 {
            0.0
        } else {
            self.items as f64 * 1e9 / self.ns as f64
        }
    }
}

/// The sweep portion of a trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepTrace {
    /// Candidate spans recorded, i.e. `FlowTrace::candidates().count()`.
    /// This is the grid size (`taus.len() × depths.len()`) only for a
    /// fresh sweep with no failures: grid points restored from a
    /// checkpoint record no candidate span, and a point whose evaluation
    /// panics records one only if the panic came after its span opened, so
    /// a resumed or failing sweep can report fewer.
    pub total_candidates: usize,
}

/// A serializable summary of one co-design flow run, built from a
/// [`TraceSnapshot`] by [`FlowTrace::from_snapshot`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlowTrace {
    /// What ran (benchmark name, binary name, ...).
    pub title: String,
    /// End offset of the last span/event, µs from the recorder epoch.
    pub wall_us: u64,
    /// The τ×depth sweep's size, if one ran.
    pub sweep: SweepTrace,
    /// Final counter values by name (kernel tallies included).
    pub counters: BTreeMap<String, u64>,
    /// Final gauge readings by name (peak RSS).
    pub gauges: BTreeMap<String, u64>,
    /// Instant events (e.g. [`keys::SELECTED_EVENT`]), in submission
    /// order.
    pub events: Vec<EventRecord>,
    /// Every span (flow stages, sweep candidates, per-tree, ...), in
    /// start order.
    pub spans: Vec<SpanRecord>,
    /// Provenance: what revision/dataset/grid produced this trace.
    pub manifest: Option<RunManifest>,
}

impl FlowTrace {
    /// Wraps a raw snapshot: its spans, events, counters and gauges ride
    /// along unchanged, the wall time is the end of its last record, and
    /// [`SweepTrace::total_candidates`] counts its `candidate` spans.
    pub fn from_snapshot(title: impl Into<String>, snapshot: &TraceSnapshot) -> Self {
        let wall_us = snapshot
            .spans
            .iter()
            .map(SpanRecord::end_us)
            .chain(snapshot.events.iter().map(|e| e.at_us))
            .max()
            .unwrap_or(0);
        Self {
            title: title.into(),
            wall_us,
            sweep: SweepTrace {
                total_candidates: snapshot.spans_named(keys::CANDIDATE_SPAN).count(),
            },
            counters: snapshot.counters.clone(),
            gauges: snapshot.gauges.clone(),
            events: snapshot.events.clone(),
            spans: snapshot.spans.clone(),
            manifest: None,
        }
    }

    /// Attaches a provenance manifest (builder style).
    pub fn with_manifest(mut self, manifest: RunManifest) -> Self {
        self.manifest = Some(manifest);
        self
    }

    /// Final value of a named counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Final reading of a named gauge (zero if never set).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Flow-stage spans (`stage:*`), in start order.
    pub fn stages(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(keys::STAGE_PREFIX))
    }

    /// The stage span with the given name, if it ran.
    pub fn stage(&self, name: &str) -> Option<&SpanRecord> {
        self.stages().find(|s| s.name == name)
    }

    /// Sweep grid-point spans (`candidate`; fields: `tau`, `depth`,
    /// `accuracy`, `comparators`), in start order.
    pub fn candidates(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(|s| s.name == keys::CANDIDATE_SPAN)
    }

    /// Per-kernel profiling totals, kernel name ascending, read from the
    /// `kernel.<name>.{calls,items,ns}` counters. A `kernel.*` counter
    /// with any other suffix is not a kernel metric and is left out.
    pub fn kernels(&self) -> Vec<KernelRecord> {
        let mut by_name: BTreeMap<&str, KernelRecord> = BTreeMap::new();
        for (key, &value) in &self.counters {
            let Some((name, metric)) = key
                .strip_prefix(keys::KERNEL_PREFIX)
                .and_then(|rest| rest.rsplit_once('.'))
            else {
                continue;
            };
            if !matches!(metric, "calls" | "items" | "ns") {
                continue;
            }
            let record = by_name.entry(name).or_insert_with(|| KernelRecord {
                name: name.to_owned(),
                ..KernelRecord::default()
            });
            match metric {
                "calls" => record.calls = value,
                "items" => record.items = value,
                _ => record.ns = value,
            }
        }
        by_name.into_values().collect()
    }

    /// Algorithm 1 split selections by cost class: `(S_Z, S_M, S_H)`.
    pub fn split_selections(&self) -> (u64, u64, u64) {
        (
            self.counter(keys::SPLIT_ZERO),
            self.counter(keys::SPLIT_MEDIUM),
            self.counter(keys::SPLIT_HIGH),
        )
    }

    /// Renders the trace as NDJSON: a `{"kind":"flow"}` header line
    /// (`candidates` is [`SweepTrace::total_candidates`]), an optional
    /// `{"kind":"manifest"}` provenance line, then one `span` line per
    /// span, one `event` line per event, and one `counter`/`gauge` line per
    /// value. Spans and events use the same encoders as the live lines of
    /// a [`crate::Recorder::streaming`] recorder. No trailing newline.
    pub fn to_ndjson(&self) -> String {
        let mut lines = vec![JsonLine::new()
            .str("kind", "flow")
            .str("title", &self.title)
            .u64("wall_us", self.wall_us)
            .u64("candidates", self.sweep.total_candidates as u64)
            .finish()];
        if let Some(manifest) = &self.manifest {
            lines.push(manifest.to_json_line());
        }
        lines.extend(self.spans.iter().map(span_line));
        lines.extend(self.events.iter().map(event_line));
        for (kind, values) in [("counter", &self.counters), ("gauge", &self.gauges)] {
            for (name, value) in values {
                lines.push(
                    JsonLine::new()
                        .str("kind", kind)
                        .str("name", name)
                        .u64("value", *value)
                        .finish(),
                );
            }
        }
        lines.join("\n")
    }

    /// Renders a short human-readable report: wall time, per-stage split,
    /// sweep shape, and Algorithm 1 tallies.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace: {} ({} wall)\n",
            self.title,
            fmt_duration(Duration::from_micros(self.wall_us))
        ));
        if let Some(m) = &self.manifest {
            out.push_str(&format!(
                "  manifest: {} @ {}  grid {}τ×{}d seed {}\n",
                m.dataset,
                m.short_sha(),
                m.taus.len(),
                m.depths.len(),
                m.seed,
            ));
        }
        for stage in self.stages() {
            let name = &stage.name[keys::STAGE_PREFIX.len()..];
            let share = if self.wall_us == 0 {
                0.0
            } else {
                100.0 * stage.duration_us as f64 / self.wall_us as f64
            };
            out.push_str(&format!(
                "  {name:<20} {:>9}  ({share:4.1}%)\n",
                fmt_duration(stage.duration())
            ));
        }
        if self.sweep.total_candidates > 0 {
            // With the sweep fanned out over N cores, the candidates' summed
            // wall time exceeds the sweep stage's ~N-fold.
            let cpu_us: u64 = self.candidates().map(|c| c.duration_us).sum();
            out.push_str(&format!(
                "  sweep: {} candidates, {} cpu-time",
                self.sweep.total_candidates,
                fmt_duration(Duration::from_micros(cpu_us)),
            ));
            if let Some(slowest) = self.candidates().max_by_key(|c| c.duration_us) {
                out.push_str(&format!(
                    ", slowest {} (depth={} tau={})",
                    fmt_duration(slowest.duration()),
                    slowest
                        .field("depth")
                        .and_then(FieldValue::as_u64)
                        .map_or_else(|| "?".into(), |v| v.to_string()),
                    slowest
                        .field("tau")
                        .and_then(FieldValue::as_f64)
                        .map_or_else(|| "?".into(), |v| format!("{v:.3}")),
                ));
            }
            out.push('\n');
        }
        let (s_z, s_m, s_h) = self.split_selections();
        if s_z + s_m + s_h > 0 {
            out.push_str(&format!(
                "  splits: {s_z} S_Z / {s_m} S_M / {s_h} S_H ({} gini evals, {} trees)\n",
                self.counter(keys::GINI_EVALS),
                self.counter(keys::TREES_TRAINED),
            ));
        }
        let shared = self.counter(keys::TREES_SHARED);
        if shared > 0 {
            let trained = self.counter(keys::TREES_TRAINED);
            out.push_str(&format!(
                "  sharing: {shared} of {} candidates derived by truncation ({trained} trained)\n",
                trained + shared,
            ));
        }
        let kernels = self.kernels();
        if !kernels.is_empty() {
            let total_ns: u64 = kernels.iter().map(|k| k.ns).sum();
            out.push_str("  kernels (self time):\n");
            out.push_str(&format!(
                "    {:<14} {:>9} {:>12} {:>10} {:>6} {:>14}\n",
                "name", "calls", "items", "self", "share", "items/sec"
            ));
            for kernel in &kernels {
                let share = if total_ns == 0 {
                    0.0
                } else {
                    100.0 * kernel.ns as f64 / total_ns as f64
                };
                out.push_str(&format!(
                    "    {:<14} {:>9} {:>12} {:>10} {share:>5.1}% {:>14.0}\n",
                    kernel.name,
                    kernel.calls,
                    kernel.items,
                    fmt_duration(Duration::from_nanos(kernel.ns)),
                    kernel.items_per_sec(),
                ));
            }
        }
        let rss_kb = self.gauge(keys::PEAK_RSS_KB);
        if rss_kb > 0 {
            out.push_str(&format!(
                "  memory: {:.1} MiB peak RSS\n",
                rss_kb as f64 / 1024.0
            ));
        }
        let trials = self.counter(keys::MC_TRIALS);
        if trials > 0 {
            out.push_str(&format!(
                "  monte-carlo: {trials} trials, {} failures\n",
                self.counter(keys::MC_FAILURES),
            ));
        }
        for event in &self.events {
            if event.name == keys::SELECTED_EVENT {
                out.push_str("  selected:");
                for (key, value) in &event.fields {
                    match value {
                        FieldValue::F64(v) => out.push_str(&format!(" {key}={v:.4}")),
                        other => out.push_str(&format!(
                            " {key}={}",
                            other
                                .as_str()
                                .map(str::to_owned)
                                .or_else(|| other.as_u64().map(|v| v.to_string()))
                                .unwrap_or_default()
                        )),
                    }
                }
                out.push('\n');
            }
        }
        out
    }
}

/// The one NDJSON encoding of a span: a `span` record under the span's
/// full name, with its `id` and, unless it is a root, its `parent`.
pub(crate) fn span_line(span: &SpanRecord) -> String {
    let mut line = JsonLine::new()
        .str("kind", "span")
        .str("name", &span.name)
        .u64("start_us", span.start_us)
        .u64("duration_us", span.duration_us)
        .u64("id", span.id);
    if let Some(parent) = span.parent {
        line = line.u64("parent", parent);
    }
    for (key, value) in &span.fields {
        line = line.field(key, value);
    }
    line.finish()
}

/// The one NDJSON encoding of an event: an `event` record under the
/// event's name.
pub(crate) fn event_line(event: &EventRecord) -> String {
    let mut line = JsonLine::new()
        .str("kind", "event")
        .str("name", &event.name)
        .u64("at_us", event.at_us);
    for (key, value) in &event.fields {
        line = line.field(key, value);
    }
    line.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn traced_run() -> FlowTrace {
        let (recorder, sink) = Recorder::collecting();
        let stage = recorder.span(keys::STAGE_SWEEP);
        for depth in [2u64, 4] {
            recorder
                .span(keys::CANDIDATE_SPAN)
                .field("depth", depth)
                .field("tau", 0.005)
                .finish();
        }
        recorder.add(keys::SPLIT_ZERO, 3);
        recorder.add(keys::SPLIT_HIGH, 5);
        recorder.add(keys::GINI_EVALS, 250);
        recorder.add(keys::TREES_TRAINED, 2);
        recorder.event(
            keys::SELECTED_EVENT,
            vec![
                ("depth".into(), FieldValue::U64(4)),
                ("accuracy".into(), FieldValue::F64(0.9)),
            ],
        );
        stage.finish();
        FlowTrace::from_snapshot("unit", &sink.snapshot())
    }

    #[test]
    fn from_snapshot_keeps_the_spans_and_filters_by_name() {
        let trace = traced_run();
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.stages().count(), 1);
        assert!(trace.stage(keys::STAGE_SWEEP).is_some());
        assert_eq!(trace.sweep.total_candidates, 2);
        assert_eq!(trace.candidates().count(), 2);
        assert_eq!(trace.split_selections(), (3, 0, 5));
        assert!(trace.wall_us >= trace.stage(keys::STAGE_SWEEP).unwrap().end_us());
    }

    #[test]
    fn ndjson_has_header_plus_one_line_per_record() {
        let trace = traced_run();
        let text = trace.to_ndjson();
        let lines: Vec<&str> = text.lines().collect();
        // header + 3 spans (1 stage + 2 candidates) + 1 event + 4 counters
        assert_eq!(lines.len(), 9);
        assert!(lines[0].starts_with(r#"{"kind":"flow""#));
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        // Spans keep their full names; then the event.
        let count = |prefix: &str| lines.iter().filter(|l| l.starts_with(prefix)).count();
        assert_eq!(count(r#"{"kind":"span","name":"stage:sweep","#), 1);
        assert_eq!(count(r#"{"kind":"span","name":"candidate","#), 2);
        assert!(lines[4].starts_with(r#"{"kind":"event","name":"selected","#));
        assert!(text.contains(r#"{"kind":"counter","name":"train.gini_evals","value":250}"#));
        for kind in ["stage", "candidate", "lint_candidate", "kernel"] {
            assert!(!text.contains(&format!(r#""kind":"{kind}""#)), "{text}");
        }
    }

    #[test]
    fn text_report_mentions_the_essentials() {
        let trace = traced_run();
        let text = trace.render_text();
        assert!(text.contains("trace: unit"));
        assert!(text.contains("sweep"));
        assert!(text.contains("2 candidates"));
        assert!(text.contains("3 S_Z / 0 S_M / 5 S_H"));
        assert!(text.contains("selected:"));
        assert!(text.contains("accuracy=0.9000"));
    }

    #[test]
    fn manifest_rides_along_in_both_renderers() {
        let trace = traced_run().with_manifest(RunManifest {
            git_sha: "0123456789abcdef".into(),
            dataset: "Seeds".into(),
            taus: vec![0.0, 0.01],
            depths: vec![2, 4],
            seed: 42,
            accuracy_loss: 0.01,
            unix_secs: 1_750_000_000,
            ..RunManifest::default()
        });
        let ndjson = trace.to_ndjson();
        let lines: Vec<&str> = ndjson.lines().collect();
        assert!(lines[1].starts_with(r#"{"kind":"manifest""#));
        assert!(lines[1].contains(r#""dataset":"Seeds""#));
        let text = trace.render_text();
        assert!(text.contains("manifest: Seeds @ 01234567  grid 2τ×2d seed 42"));
    }

    #[test]
    fn gauges_ride_along_in_both_renderers() {
        let (recorder, sink) = Recorder::collecting();
        recorder.span(keys::STAGE_SWEEP).finish();
        recorder.set_gauge(keys::PEAK_RSS_KB, 10_240);
        let trace = FlowTrace::from_snapshot("unit", &sink.snapshot());
        assert_eq!(trace.gauge(keys::PEAK_RSS_KB), 10_240);
        assert!(trace
            .to_ndjson()
            .contains(r#"{"kind":"gauge","name":"process.peak_rss_kb","value":10240}"#));
        assert!(trace.render_text().contains("memory: 10.0 MiB peak RSS"));
    }

    #[test]
    fn kernel_counters_stay_counters_and_derive_records() {
        let (recorder, sink) = Recorder::collecting();
        {
            let _scope = crate::KernelScope::enter(&recorder);
            let timer = crate::KernelTimer::start(crate::Kernel::GiniScan);
            timer.finish(250);
        }
        recorder.span(keys::STAGE_SWEEP).finish();
        recorder.add("kernel.gini_scan.extra", 7); // unknown metric suffix
        recorder.add("kernel.orphan.extra", 1); // no known metric at all
        let trace = FlowTrace::from_snapshot("unit", &sink.snapshot());
        // The three known metrics stay in the counter map ...
        assert_eq!(trace.counter("kernel.gini_scan.calls"), 1);
        assert_eq!(trace.counter("kernel.gini_scan.items"), 250);
        // ... and the kernel view is derived from them; unknown suffixes
        // are plain counters that make no record.
        let kernels = trace.kernels();
        assert_eq!(kernels.len(), 1, "{kernels:?}");
        assert_eq!(kernels[0].name, "gini_scan");
        assert_eq!((kernels[0].calls, kernels[0].items), (1, 250));
        assert_eq!(trace.counter("kernel.gini_scan.extra"), 7);
        let ndjson = trace.to_ndjson();
        assert!(
            ndjson.contains(r#"{"kind":"counter","name":"kernel.gini_scan.items","value":250}"#),
            "{ndjson}"
        );
        assert!(!ndjson.contains(r#""kind":"kernel""#), "{ndjson}");
        let text = trace.render_text();
        assert!(text.contains("kernels (self time):"), "{text}");
        assert!(text.contains("gini_scan"), "{text}");
        assert!(!text.contains("orphan"), "{text}");
    }

    #[test]
    fn empty_trace_renders_without_panicking() {
        let trace = FlowTrace::default();
        assert_eq!(trace.wall_us, 0);
        assert_eq!(trace.split_selections(), (0, 0, 0));
        assert!(trace.to_ndjson().starts_with(r#"{"kind":"flow""#));
        assert!(trace.render_text().starts_with("trace:"));
    }
}
