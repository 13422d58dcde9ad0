//! Structured summaries of a co-design run: [`FlowTrace`] and
//! [`SweepTrace`], with NDJSON and human-readable renderers.
//!
//! The NDJSON schema has one encoder per record: [`span_line`] and
//! [`event_line`] render every span and event, both for the finalized
//! [`FlowTrace::to_ndjson`] dump and for the lines a live
//! [`crate::StreamSink`] writes as the run goes, so the stream's lines
//! reappear verbatim in the dump.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::clock::fmt_duration;
use crate::json::JsonLine;
use crate::keys;
use crate::manifest::RunManifest;
use crate::sink::TraceSnapshot;
use crate::span::{EventRecord, FieldValue, SpanRecord};

/// Per-kernel profiling totals lifted out of the raw
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
    /// time was recorded). Recomputed on demand — never stored — so NDJSON
    /// round trips stay lossless.
    pub fn items_per_sec(&self) -> f64 {
        if self.ns == 0 {
            0.0
        } else {
            self.items as f64 * 1e9 / self.ns as f64
        }
    }
}

/// The sweep portion of a trace: one span per τ×depth grid point the run
/// evaluated.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepTrace {
    /// Candidate spans recorded, i.e. `candidates.len()`. This is the grid
    /// size (`taus.len() × depths.len()`) only for a fresh sweep with no
    /// failures: grid points restored from a checkpoint record no
    /// candidate span, and a point whose evaluation panics records one
    /// only if the panic came after its span opened, so a resumed or
    /// failing sweep can report fewer.
    pub total_candidates: usize,
    /// One record per evaluated grid point, in start order (fields: `tau`,
    /// `depth`, `accuracy`, `comparators`).
    pub candidates: Vec<SpanRecord>,
}

impl SweepTrace {
    /// Sum of per-candidate wall time. With the sweep fanned out over N
    /// cores this exceeds the sweep stage's wall time ~N-fold.
    pub fn cpu_time(&self) -> Duration {
        Duration::from_micros(self.candidates.iter().map(|c| c.duration_us).sum())
    }

    /// The slowest grid point, if any were recorded.
    pub fn slowest(&self) -> Option<&SpanRecord> {
        self.candidates.iter().max_by_key(|c| c.duration_us)
    }
}

/// A serializable summary of one co-design flow run, built from a
/// [`TraceSnapshot`] by [`FlowTrace::from_snapshot`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlowTrace {
    /// What ran (benchmark name, binary name, ...).
    pub title: String,
    /// End offset of the last span/event, µs from the recorder epoch.
    pub wall_us: u64,
    /// Flow-stage spans (`stage:*`), in start order.
    pub stages: Vec<SpanRecord>,
    /// The τ×depth sweep, if one ran.
    pub sweep: SweepTrace,
    /// Final counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Final gauge readings by name (peak RSS, allocation totals; absent
    /// on pre-gauge traces).
    pub gauges: BTreeMap<String, u64>,
    /// Per-kernel profiling totals, by kernel name ascending (absent on
    /// traces recorded without a kernel scope).
    pub kernels: Vec<KernelRecord>,
    /// Instant events (e.g. [`keys::SELECTED_EVENT`]), in submission
    /// order.
    pub events: Vec<EventRecord>,
    /// Spans that are neither stages nor sweep candidates (per-benchmark,
    /// per-tree, ...), in start order.
    pub spans: Vec<SpanRecord>,
    /// Provenance: what revision/dataset/grid produced this trace.
    pub manifest: Option<RunManifest>,
}

impl FlowTrace {
    /// Splits a raw snapshot into the flow-shaped summary: `stage:*` spans
    /// become [`FlowTrace::stages`], `candidate` spans become the
    /// [`SweepTrace`], every other span lands in [`FlowTrace::spans`], and
    /// counters/gauges/events ride along unchanged (kernel counters lifted
    /// into [`FlowTrace::kernels`]).
    pub fn from_snapshot(title: impl Into<String>, snapshot: &TraceSnapshot) -> Self {
        let mut stages = Vec::new();
        let mut candidates = Vec::new();
        let mut spans = Vec::new();
        for span in &snapshot.spans {
            if span.name.starts_with(keys::STAGE_PREFIX) {
                stages.push(span.clone());
            } else if span.name == keys::CANDIDATE_SPAN {
                candidates.push(span.clone());
            } else {
                spans.push(span.clone());
            }
        }
        let wall_us = snapshot
            .spans
            .iter()
            .map(SpanRecord::end_us)
            .chain(snapshot.events.iter().map(|e| e.at_us))
            .max()
            .unwrap_or(0);
        let mut counters = snapshot.counters.clone();
        let kernels = lift_kernels(&mut counters);
        Self {
            title: title.into(),
            wall_us,
            stages,
            sweep: SweepTrace {
                total_candidates: candidates.len(),
                candidates,
            },
            counters,
            gauges: snapshot.gauges.clone(),
            kernels,
            events: snapshot.events.clone(),
            spans,
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

    /// The profiling record of a named kernel, if that kernel ran.
    pub fn kernel(&self, name: &str) -> Option<&KernelRecord> {
        self.kernels.iter().find(|k| k.name == name)
    }

    /// Algorithm 1 split selections by cost class: `(S_Z, S_M, S_H)`.
    pub fn split_selections(&self) -> (u64, u64, u64) {
        (
            self.counter(keys::SPLIT_ZERO),
            self.counter(keys::SPLIT_MEDIUM),
            self.counter(keys::SPLIT_HIGH),
        )
    }

    /// The stage span with the given name, if it ran.
    pub fn stage(&self, name: &str) -> Option<&SpanRecord> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Renders the trace as NDJSON: a `{"kind":"flow"}` header line
    /// (`candidates` is [`SweepTrace::total_candidates`]), an optional
    /// `{"kind":"manifest"}` provenance line, then one object per stage,
    /// candidate, other span, event, counter, gauge, and kernel. Spans and
    /// events use the same encoders as [`crate::StreamSink`]'s live lines.
    /// No trailing newline.
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
        let spans = self.stages.iter().chain(&self.sweep.candidates);
        lines.extend(spans.chain(&self.spans).map(span_line));
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
        for kernel in &self.kernels {
            lines.push(
                JsonLine::new()
                    .str("kind", "kernel")
                    .str("name", &kernel.name)
                    .u64("calls", kernel.calls)
                    .u64("items", kernel.items)
                    .u64("ns", kernel.ns)
                    .f64("items_per_sec", kernel.items_per_sec())
                    .finish(),
            );
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
        for stage in &self.stages {
            let name = stage
                .name
                .strip_prefix(keys::STAGE_PREFIX)
                .unwrap_or(&stage.name);
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
            out.push_str(&format!(
                "  sweep: {} candidates, {} cpu-time",
                self.sweep.total_candidates,
                fmt_duration(self.sweep.cpu_time()),
            ));
            if let Some(slowest) = self.sweep.slowest() {
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
        if !self.kernels.is_empty() {
            let total_ns: u64 = self.kernels.iter().map(|k| k.ns).sum();
            out.push_str("  kernels (self time):\n");
            out.push_str(&format!(
                "    {:<14} {:>9} {:>12} {:>10} {:>6} {:>14}\n",
                "name", "calls", "items", "self", "share", "items/sec"
            ));
            for kernel in &self.kernels {
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
                "  memory: {:.1} MiB peak RSS",
                rss_kb as f64 / 1024.0
            ));
            let allocs = self.gauge(keys::ALLOC_COUNT);
            if allocs > 0 {
                out.push_str(&format!(
                    ", {allocs} allocations ({:.1} MiB requested)",
                    self.gauge(keys::ALLOC_BYTES) as f64 / (1024.0 * 1024.0),
                ));
            }
            out.push('\n');
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

/// Moves the `kernel.<name>.{calls,items,ns}` counters out of `counters`
/// and folds them into per-kernel records, kernel name ascending. Only the
/// three known metric suffixes are lifted; any other `kernel.*` counter
/// stays in the map untouched.
fn lift_kernels(counters: &mut BTreeMap<String, u64>) -> Vec<KernelRecord> {
    let lifted: Vec<String> = counters
        .keys()
        .filter(|key| {
            key.strip_prefix(keys::KERNEL_PREFIX)
                .and_then(|rest| rest.rsplit_once('.'))
                .is_some_and(|(_, metric)| matches!(metric, "calls" | "items" | "ns"))
        })
        .cloned()
        .collect();
    let mut by_name: BTreeMap<String, KernelRecord> = BTreeMap::new();
    for key in lifted {
        let value = counters.remove(&key).unwrap_or(0);
        let rest = &key[keys::KERNEL_PREFIX.len()..];
        let (name, metric) = rest.rsplit_once('.').expect("filtered above");
        let record = by_name
            .entry(name.to_owned())
            .or_insert_with(|| KernelRecord {
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

/// The one NDJSON encoding of a span. The kind follows the name: flow
/// stages are `stage` records named without their `stage:` prefix, sweep
/// grid points are `candidate` records, and every other span is a `span`
/// record under its own name.
pub(crate) fn span_line(span: &SpanRecord) -> String {
    let (kind, name) = match span.name.strip_prefix(keys::STAGE_PREFIX) {
        Some(stage) => ("stage", stage),
        None if span.name == keys::CANDIDATE_SPAN => ("candidate", span.name.as_str()),
        None => ("span", span.name.as_str()),
    };
    let mut line = JsonLine::new()
        .str("kind", kind)
        .str("name", name)
        .u64("start_us", span.start_us)
        .u64("duration_us", span.duration_us);
    for (key, value) in &span.fields {
        line = line.field(key, value);
    }
    line.finish()
}

/// The one NDJSON encoding of an event. Whole-grid lint verdicts get
/// their own `lint_candidate` kind so consumers (report, watch) dispatch
/// on the kind without sniffing event names; every other event is an
/// `event` record.
pub(crate) fn event_line(event: &EventRecord) -> String {
    let kind = if event.name == keys::LINT_CANDIDATE_EVENT {
        keys::LINT_CANDIDATE_EVENT
    } else {
        "event"
    };
    let mut line = JsonLine::new()
        .str("kind", kind)
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
    fn from_snapshot_partitions_spans() {
        let trace = traced_run();
        assert_eq!(trace.stages.len(), 1);
        assert!(trace.stage(keys::STAGE_SWEEP).is_some());
        assert_eq!(trace.sweep.total_candidates, 2);
        assert_eq!(trace.sweep.candidates.len(), 2);
        assert_eq!(trace.split_selections(), (3, 0, 5));
        assert!(trace.wall_us >= trace.stages[0].end_us());
    }

    #[test]
    fn ndjson_has_header_plus_one_line_per_record() {
        let trace = traced_run();
        let text = trace.to_ndjson();
        let lines: Vec<&str> = text.lines().collect();
        // header + 1 stage + 2 candidates + 1 event + 4 counters
        assert_eq!(lines.len(), 9);
        assert!(lines[0].starts_with(r#"{"kind":"flow""#));
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(text.contains(r#""kind":"candidate""#));
        assert!(text.contains(r#""name":"train.gini_evals","value":250"#));
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
    fn kernel_counters_lift_into_records() {
        let (recorder, sink) = Recorder::collecting();
        {
            let _scope = crate::KernelScope::enter(&recorder);
            let timer = crate::KernelTimer::start(crate::Kernel::GiniScan);
            timer.finish(250);
        }
        recorder.span(keys::STAGE_SWEEP).finish();
        recorder.add("kernel.gini_scan.extra", 7); // unknown metric suffix
        let trace = FlowTrace::from_snapshot("unit", &sink.snapshot());
        // The three known metrics are lifted out of the counter map ...
        assert!(!trace.counters.contains_key("kernel.gini_scan.calls"));
        let record = trace.kernel("gini_scan").expect("kernel record");
        assert_eq!((record.calls, record.items), (1, 250));
        // ... while unknown kernel.* counters stay behind untouched.
        assert_eq!(trace.counter("kernel.gini_scan.extra"), 7);
        let ndjson = trace.to_ndjson();
        assert!(
            ndjson.contains(r#""kind":"kernel","name":"gini_scan","calls":1,"items":250"#),
            "{ndjson}"
        );
        let text = trace.render_text();
        assert!(text.contains("kernels (self time):"), "{text}");
        assert!(text.contains("gini_scan"), "{text}");
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
