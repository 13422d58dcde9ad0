//! NDJSON trace ingestion: text → [`FlowTrace`], warn-and-skip on damage.
//!
//! Accepts both dump formats the workspace produces:
//!
//! * **Flow format** ([`FlowTrace::to_ndjson`]): a `{"kind":"flow"}` header,
//!   optional `{"kind":"manifest"}`, then `stage`/`candidate`/`span` lines
//!   (stage names prefix-stripped) and `event`/`counter`/`histogram` lines.
//! * **Snapshot format** ([`printed_telemetry::TraceSnapshot::to_ndjson`]):
//!   no header, every span under `{"kind":"span"}` with its full name
//!   (`stage:*` prefixes intact).
//!
//! Damaged input — a truncated final line, a corrupted record, an unknown
//! kind from a newer writer — is *skipped with a warning*, never a panic or
//! a hard error: a 2-hour sweep's trace should not be unreadable because
//! the run was Ctrl-C'd mid-write.

use std::collections::BTreeMap;

use printed_telemetry::keys::{CANDIDATE_SPAN, CANDIDATE_US, STAGE_PREFIX};
use printed_telemetry::{
    EventRecord, FieldValue, FlowTrace, HistogramSnapshot, KernelRecord, RunManifest, SpanRecord,
    SweepTrace,
};

use printed_telemetry::json::{parse as parse_json, JsonValue};

/// The result of parsing an NDJSON dump: the reconstructed trace plus one
/// warning per line that had to be skipped or repaired.
#[derive(Debug, Clone, Default)]
pub struct ParsedTrace {
    /// The reconstructed trace.
    pub trace: FlowTrace,
    /// Human-readable notes about skipped/malformed lines (empty for a
    /// clean dump).
    pub warnings: Vec<String>,
}

impl ParsedTrace {
    /// Whether every line parsed cleanly.
    pub fn is_clean(&self) -> bool {
        self.warnings.is_empty()
    }
}

/// Parses an NDJSON trace dump. Never fails: unparseable lines become
/// [`ParsedTrace::warnings`] and the rest of the file is still used.
pub fn parse_trace(text: &str) -> ParsedTrace {
    let mut out = ParsedTrace::default();
    let mut saw_flow_header = false;
    let mut stages: Vec<SpanRecord> = Vec::new();
    let mut candidates: Vec<SpanRecord> = Vec::new();
    let mut spans: Vec<SpanRecord> = Vec::new();
    let mut events: Vec<EventRecord> = Vec::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut gauges: BTreeMap<String, u64> = BTreeMap::new();
    let mut kernels: Vec<KernelRecord> = Vec::new();
    let mut histograms: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();

    for (index, line) in text.lines().enumerate() {
        let lineno = index + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let value = match parse_json(line) {
            Ok(value) => value,
            Err(e) => {
                out.warnings.push(format!("line {lineno}: skipped ({e})"));
                continue;
            }
        };
        let Some(kind) = value.get("kind").and_then(JsonValue::as_str) else {
            out.warnings
                .push(format!("line {lineno}: skipped (no \"kind\" field)"));
            continue;
        };
        let outcome = match kind {
            "flow" => {
                saw_flow_header = true;
                out.trace.title = value
                    .get("title")
                    .and_then(JsonValue::as_str)
                    .unwrap_or_default()
                    .to_owned();
                out.trace.wall_us = value
                    .get("wall_us")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0);
                Ok(())
            }
            "manifest" => parse_manifest(&value).map(|m| {
                out.trace.manifest = Some(m);
            }),
            "stage" => parse_span(&value).map(|mut span| {
                // The flow writer strips the prefix for readability;
                // restore it so `FlowTrace::stage` lookups by key work.
                if !span.name.starts_with(STAGE_PREFIX) {
                    span.name = format!("{STAGE_PREFIX}{}", span.name);
                }
                stages.push(span);
            }),
            "candidate" => parse_span(&value).map(|mut span| {
                span.name = CANDIDATE_SPAN.to_owned();
                candidates.push(span);
            }),
            "span" => parse_span(&value).map(|span| {
                // Snapshot-format dumps route everything through "span";
                // partition exactly like `FlowTrace::from_snapshot`.
                if span.name.starts_with(STAGE_PREFIX) {
                    stages.push(span);
                } else if span.name == CANDIDATE_SPAN {
                    candidates.push(span);
                } else {
                    spans.push(span);
                }
            }),
            "event" => parse_event(&value).map(|event| events.push(event)),
            // Finalized dumps lift whole-grid lint verdicts to their own
            // kind; structurally they are still events (name retained).
            "lint_candidate" => parse_event(&value).map(|event| events.push(event)),
            "counter" => parse_counter(&value).map(|(name, v)| {
                counters.insert(name, v);
            }),
            "gauge" => parse_counter(&value).map(|(name, v)| {
                gauges.insert(name, v);
            }),
            "kernel" => parse_kernel(&value).map(|k| kernels.push(k)),
            "histogram" => parse_histogram(&value).map(|(name, h)| {
                histograms.insert(name, h);
            }),
            other => Err(format!("unknown kind {other:?}")),
        };
        if let Err(reason) = outcome {
            out.warnings
                .push(format!("line {lineno}: skipped {kind} ({reason})"));
        }
    }

    if !saw_flow_header {
        out.trace.wall_us = stages
            .iter()
            .chain(&candidates)
            .chain(&spans)
            .map(SpanRecord::end_us)
            .chain(events.iter().map(|e| e.at_us))
            .max()
            .unwrap_or(0);
    }
    out.trace.sweep = SweepTrace {
        total_candidates: candidates.len(),
        candidate_us: histograms.get(CANDIDATE_US).cloned(),
        candidates,
    };
    out.trace.stages = stages;
    out.trace.spans = spans;
    out.trace.events = events;
    out.trace.counters = counters;
    out.trace.gauges = gauges;
    out.trace.kernels = kernels;
    out.trace.histograms = histograms;
    out
}

/// The JSON object keys that are structural (not span/event attributes).
const RESERVED: &[&str] = &["kind", "name", "start_us", "duration_us", "at_us"];

fn parse_fields(value: &JsonValue) -> Result<Vec<(String, FieldValue)>, String> {
    let members = value.members().ok_or("not an object")?;
    let mut fields = Vec::new();
    for (key, v) in members {
        if RESERVED.contains(&key.as_str()) {
            continue;
        }
        let field = match v {
            JsonValue::Int(n) => FieldValue::U64(*n),
            JsonValue::Float(f) => FieldValue::F64(*f),
            JsonValue::Bool(b) => FieldValue::Bool(*b),
            JsonValue::Str(s) => FieldValue::Str(s.clone()),
            // The writer renders NaN/±inf as null; there is no faithful
            // FieldValue for it, so drop the attribute.
            JsonValue::Null => continue,
            JsonValue::Arr(_) | JsonValue::Obj(_) => {
                return Err(format!("field {key:?} has a nested value"));
            }
        };
        fields.push((key.clone(), field));
    }
    Ok(fields)
}

fn parse_span(value: &JsonValue) -> Result<SpanRecord, String> {
    Ok(SpanRecord {
        name: value
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("missing name")?
            .to_owned(),
        start_us: value
            .get("start_us")
            .and_then(JsonValue::as_u64)
            .ok_or("missing start_us")?,
        duration_us: value
            .get("duration_us")
            .and_then(JsonValue::as_u64)
            .ok_or("missing duration_us")?,
        fields: parse_fields(value)?,
    })
}

fn parse_event(value: &JsonValue) -> Result<EventRecord, String> {
    Ok(EventRecord {
        name: value
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("missing name")?
            .to_owned(),
        at_us: value
            .get("at_us")
            .and_then(JsonValue::as_u64)
            .ok_or("missing at_us")?,
        fields: parse_fields(value)?,
    })
}

fn parse_counter(value: &JsonValue) -> Result<(String, u64), String> {
    Ok((
        value
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("missing name")?
            .to_owned(),
        value
            .get("value")
            .and_then(JsonValue::as_u64)
            .ok_or("missing value")?,
    ))
}

fn parse_kernel(value: &JsonValue) -> Result<KernelRecord, String> {
    let u = |key: &str| -> Result<u64, String> {
        value
            .get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("missing {key}"))
    };
    Ok(KernelRecord {
        name: value
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("missing name")?
            .to_owned(),
        calls: u("calls")?,
        items: u("items")?,
        ns: u("ns")?,
        // items_per_sec is derived at emission, never stored.
    })
}

fn parse_histogram(value: &JsonValue) -> Result<(String, HistogramSnapshot), String> {
    let name = value
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or("missing name")?
        .to_owned();
    let u = |key: &str| -> Result<u64, String> {
        value
            .get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("missing {key}"))
    };
    let mut buckets = Vec::new();
    for item in value
        .get("buckets")
        .and_then(JsonValue::as_arr)
        .ok_or("missing buckets")?
    {
        let pair = item.as_arr().ok_or("bucket is not a pair")?;
        match pair {
            [hi, n] => buckets.push((
                hi.as_u64().ok_or("bucket bound not an integer")?,
                n.as_u64().ok_or("bucket count not an integer")?,
            )),
            _ => return Err("bucket is not a pair".into()),
        }
    }
    Ok((
        name,
        HistogramSnapshot {
            count: u("count")?,
            sum_us: u("sum_us")?,
            min_us: u("min_us")?,
            max_us: u("max_us")?,
            buckets,
        },
    ))
}

fn parse_manifest(value: &JsonValue) -> Result<RunManifest, String> {
    let nums = |key: &str| -> Result<Vec<JsonValue>, String> {
        Ok(value
            .get(key)
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| format!("missing {key}"))?
            .to_vec())
    };
    let mut taus = Vec::new();
    for v in nums("taus")? {
        taus.push(v.as_f64().ok_or("tau is not a number")?);
    }
    let mut depths = Vec::new();
    for v in nums("depths")? {
        depths.push(v.as_u64().ok_or("depth is not an integer")?);
    }
    Ok(RunManifest {
        git_sha: value
            .get("git_sha")
            .and_then(JsonValue::as_str)
            .ok_or("missing git_sha")?
            .to_owned(),
        dataset: value
            .get("dataset")
            .and_then(JsonValue::as_str)
            .ok_or("missing dataset")?
            .to_owned(),
        taus,
        depths,
        seed: value.get("seed").and_then(JsonValue::as_u64).unwrap_or(0),
        accuracy_loss: value
            .get("accuracy_loss")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0),
        unix_secs: value
            .get("unix_secs")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0),
        // Environment fingerprint, absent on pre-calibration manifests.
        cpus: value.get("cpus").and_then(JsonValue::as_u64).unwrap_or(0),
        threads: value
            .get("threads")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0),
        build: value
            .get("build")
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use printed_telemetry::{keys, Recorder};

    fn sample_trace() -> FlowTrace {
        let (recorder, sink) = Recorder::collecting();
        let stage = recorder.span(keys::STAGE_SWEEP);
        for depth in [2u64, 4] {
            let hist = recorder.histogram(keys::CANDIDATE_US);
            let span = recorder
                .span(keys::CANDIDATE_SPAN)
                .field("depth", depth)
                .field("tau", 0.005)
                .field("accuracy", 0.875);
            hist.observe_us(100 + depth);
            span.finish();
        }
        recorder
            .span(keys::TRAIN_SPAN)
            .field("nodes", 7u64)
            .finish();
        recorder.add(keys::GINI_EVALS, 321);
        recorder.add(keys::HW_COMPARATORS_RETAINED, 9);
        recorder.set_gauge(keys::PEAK_RSS_KB, 2048);
        // Kernel tallies ride the counter namespace and are lifted into
        // KernelRecords by FlowTrace::from_snapshot — the round trip must
        // reconstruct them from the {"kind":"kernel"} lines.
        recorder.add("kernel.gini_scan.calls", 7);
        recorder.add("kernel.gini_scan.items", 250);
        recorder.add("kernel.gini_scan.ns", 1_250_000);
        recorder.event(
            keys::SELECTED_EVENT,
            vec![
                ("tau".into(), FieldValue::F64(0.0)),
                ("depth".into(), FieldValue::U64(4)),
                ("accuracy".into(), FieldValue::F64(0.9)),
            ],
        );
        stage.finish();
        FlowTrace::from_snapshot("round-trip", &sink.snapshot()).with_manifest(RunManifest {
            git_sha: "deadbeefdeadbeefdeadbeefdeadbeefdeadbeef".into(),
            dataset: "Seeds".into(),
            taus: vec![0.0, 0.005],
            depths: vec![2, 4],
            seed: 0x0ADC,
            accuracy_loss: 0.01,
            unix_secs: 1_754_000_000,
            cpus: 8,
            threads: 2,
            build: "release".into(),
        })
    }

    #[test]
    fn flow_ndjson_round_trips_identically() {
        let original = sample_trace();
        assert_eq!(original.kernels.len(), 1, "sample carries a kernel record");
        let parsed = parse_trace(&original.to_ndjson());
        assert!(parsed.is_clean(), "warnings: {:?}", parsed.warnings);
        assert_eq!(parsed.trace, original);
    }

    #[test]
    fn snapshot_format_is_accepted_too() {
        let (recorder, sink) = Recorder::collecting();
        let stage = recorder.span(keys::STAGE_REFERENCE);
        recorder
            .span(keys::CANDIDATE_SPAN)
            .field("depth", 3u64)
            .finish();
        recorder.add(keys::TREES_TRAINED, 1);
        stage.finish();
        let snapshot = sink.snapshot();
        let parsed = parse_trace(&snapshot.to_ndjson());
        assert!(parsed.is_clean(), "warnings: {:?}", parsed.warnings);
        // Same partition as FlowTrace::from_snapshot, minus the title.
        let reference = FlowTrace::from_snapshot("", &snapshot);
        assert_eq!(parsed.trace.stages, reference.stages);
        assert_eq!(parsed.trace.sweep, reference.sweep);
        assert_eq!(parsed.trace.counters, reference.counters);
        assert_eq!(parsed.trace.wall_us, reference.wall_us);
    }

    #[test]
    fn malformed_lines_warn_and_skip() {
        let original = sample_trace();
        let mut ndjson = original.to_ndjson();
        ndjson.push_str("\nnot json at all\n{\"kind\":\"mystery\",\"x\":1}\n{\"kind\":\"stage\"}");
        let parsed = parse_trace(&ndjson);
        assert_eq!(parsed.warnings.len(), 3, "warnings: {:?}", parsed.warnings);
        // Everything before the damage still parsed.
        assert_eq!(parsed.trace, original);
        assert!(parsed.warnings[0].contains("not json") || parsed.warnings[0].contains("skipped"));
        assert!(parsed.warnings[1].contains("mystery"));
        assert!(parsed.warnings[2].contains("missing name"));
    }

    #[test]
    fn truncated_final_line_does_not_lose_the_rest() {
        let original = sample_trace();
        let ndjson = original.to_ndjson();
        // Simulate a Ctrl-C mid-write: chop the last line in half.
        let cut = ndjson.len() - ndjson.lines().last().unwrap().len() / 2;
        let parsed = parse_trace(&ndjson[..cut]);
        assert_eq!(parsed.warnings.len(), 1);
        assert_eq!(parsed.trace.title, original.title);
        assert_eq!(parsed.trace.stages, original.stages);
        assert_eq!(parsed.trace.sweep.candidates, original.sweep.candidates);
    }

    #[test]
    fn empty_input_yields_empty_trace() {
        let parsed = parse_trace("");
        assert!(parsed.is_clean());
        assert_eq!(parsed.trace, FlowTrace::default());
    }
}
