//! NDJSON trace ingestion: text → [`FlowTrace`], warn-and-skip on damage.
//!
//! The workspace writes one trace schema, [`FlowTrace::to_ndjson`]'s,
//! which is the recorder's [`TraceSnapshot`] line by line: a
//! `{"kind":"flow"}` header, optional `{"kind":"manifest"}`, then `span`,
//! `event`, `counter` and `gauge` lines. [`parse_line`] decodes one line
//! into a typed [`Record`]; [`parse_trace`] folds the records back into a
//! snapshot and hands it to [`FlowTrace::from_snapshot`], keeping the
//! header's title and wall time and the manifest. `printed-trace watch`
//! folds the same records ([`crate::watch`]). A live stream
//! ([`printed_telemetry::Recorder::streaming`]) writes the same span and event
//! lines as the run goes; a stream whose run was killed before finalizing
//! has no header and no totals, so its wall time is the last record's end
//! and its spans, which arrive in finish order, are put back in start
//! order, as the recorder's snapshot has them.
//!
//! Damaged input — a truncated final line, a corrupted record, an unknown
//! kind from a newer writer — is *skipped with a warning*, never a panic or
//! a hard error: a 2-hour sweep's trace should not be unreadable because
//! the run was Ctrl-C'd mid-write.

use printed_telemetry::{
    EventRecord, FieldValue, FlowTrace, RunManifest, SpanRecord, TraceSnapshot,
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
    let mut warnings = Vec::new();
    let mut snapshot = TraceSnapshot::default();
    let (mut title, mut wall_us, mut manifest) = (String::new(), None, None);
    for (lineno, record) in records(text) {
        match record {
            Ok(Record::Flow {
                title: t,
                wall_us: w,
                ..
            }) => (title, wall_us) = (t, w),
            Ok(Record::Manifest(m)) => manifest = Some(m),
            Ok(Record::Span(span)) => snapshot.spans.push(span),
            Ok(Record::Event(event)) => snapshot.events.push(event),
            Ok(Record::Counter(name, value)) => {
                snapshot.counters.insert(name, value);
            }
            Ok(Record::Gauge(name, value)) => {
                snapshot.gauges.insert(name, value);
            }
            Ok(Record::Other { kind: None, .. }) => {
                warnings.push(format!("line {lineno}: skipped (no \"kind\" field)"));
            }
            Ok(Record::Other {
                kind: Some(kind), ..
            }) => warnings.push(format!(
                "line {lineno}: skipped {kind} (unknown kind {kind:?})"
            )),
            Err(reason) => warnings.push(format!("line {lineno}: {reason}")),
        }
    }

    // A live stream's spans arrive in finish order; the snapshot's order
    // (which a finalized dump already has) is start order.
    snapshot.spans.sort_by_key(|s| (s.start_us, s.duration_us));
    let mut trace = FlowTrace::from_snapshot(title, &snapshot);
    trace.wall_us = wall_us.unwrap_or(trace.wall_us);
    trace.manifest = manifest;
    ParsedTrace { trace, warnings }
}

/// One decoded trace line.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// The `flow` header that opens a finalized dump.
    Flow {
        /// The run's title (empty when absent).
        title: String,
        /// The run's wall time, µs.
        wall_us: Option<u64>,
        /// Grid points the sweep evaluated.
        candidates: Option<u64>,
    },
    /// The run's provenance.
    Manifest(RunManifest),
    /// A finished span.
    Span(SpanRecord),
    /// An instant event.
    Event(EventRecord),
    /// A counter's value: name, value.
    Counter(String, u64),
    /// A gauge's value: name, value.
    Gauge(String, u64),
    /// A JSON value of a kind outside the trace schema, such as a
    /// checkpoint journal's `sweep_ckpt` line, or of no kind.
    Other {
        /// The `kind` field, if it has a text one.
        kind: Option<String>,
        /// Its scalar fields; nested and null members are dropped.
        fields: Vec<(String, FieldValue)>,
    },
}

/// The decoded non-blank lines of `text`, each with its 1-based line
/// number.
pub fn records(text: &str) -> impl Iterator<Item = (usize, Result<Record, String>)> + '_ {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(index, line)| (index + 1, parse_line(line)))
}

/// Decodes one trace line. The error says why the line is skipped, e.g.
/// `skipped span (missing name)`.
pub fn parse_line(line: &str) -> Result<Record, String> {
    let value = parse_json(line.trim()).map_err(|e| format!("skipped ({e})"))?;
    let kind = value.get("kind").and_then(JsonValue::as_str);
    decode(&value, kind)
        .map_err(|reason| format!("skipped {} ({reason})", kind.unwrap_or_default()))
}

fn decode(value: &JsonValue, kind: Option<&str>) -> Result<Record, String> {
    let name = || required(value, "name", JsonValue::as_str).map(str::to_owned);
    let number = |key| required(value, key, JsonValue::as_u64);
    Ok(match kind.unwrap_or_default() {
        "flow" => Record::Flow {
            title: value
                .get("title")
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_owned(),
            wall_us: number("wall_us").ok(),
            candidates: number("candidates").ok(),
        },
        "manifest" => Record::Manifest(parse_manifest(value)?),
        "span" => Record::Span(SpanRecord {
            name: name()?,
            start_us: number("start_us")?,
            duration_us: number("duration_us")?,
            // A pre-`id` writer's span has neither: a root.
            id: number("id").unwrap_or(0),
            parent: number("parent").ok(),
            fields: parse_fields(value, true)?,
        }),
        "event" => Record::Event(EventRecord {
            name: name()?,
            at_us: number("at_us")?,
            fields: parse_fields(value, true)?,
        }),
        "counter" => Record::Counter(name()?, number("value")?),
        "gauge" => Record::Gauge(name()?, number("value")?),
        _ => Record::Other {
            kind: kind.map(str::to_owned),
            fields: parse_fields(value, false).unwrap_or_default(),
        },
    })
}

/// `value[key]` as `read` reads it, or why a record cannot do without it.
fn required<'v, T>(
    value: &'v JsonValue,
    key: &str,
    read: fn(&'v JsonValue) -> Option<T>,
) -> Result<T, String> {
    value
        .get(key)
        .and_then(read)
        .ok_or_else(|| format!("missing {key}"))
}

/// The JSON object keys that are structural (not span/event attributes).
const RESERVED: &[&str] = &[
    "kind",
    "name",
    "start_us",
    "duration_us",
    "id",
    "parent",
    "at_us",
];

/// The object's attribute members. The writer renders NaN/±inf as null,
/// which has no faithful [`FieldValue`], so null members are dropped; a
/// nested member is an error when `strict`, else dropped too.
fn parse_fields(value: &JsonValue, strict: bool) -> Result<Vec<(String, FieldValue)>, String> {
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
            JsonValue::Arr(_) | JsonValue::Obj(_) if strict => {
                return Err(format!("field {key:?} has a nested value"));
            }
            JsonValue::Null | JsonValue::Arr(_) | JsonValue::Obj(_) => continue,
        };
        fields.push((key.clone(), field));
    }
    Ok(fields)
}

fn parse_manifest(value: &JsonValue) -> Result<RunManifest, String> {
    let taus = required(value, "taus", JsonValue::as_arr)?
        .iter()
        .map(|v| v.as_f64().ok_or("tau is not a number"))
        .collect::<Result<_, _>>()?;
    let depths = required(value, "depths", JsonValue::as_arr)?
        .iter()
        .map(|v| v.as_u64().ok_or("depth is not an integer"))
        .collect::<Result<_, _>>()?;
    let text = |key| required(value, key, JsonValue::as_str).map(str::to_owned);
    let number = |key| value.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
    Ok(RunManifest {
        git_sha: text("git_sha")?,
        dataset: text("dataset")?,
        taus,
        depths,
        seed: number("seed"),
        accuracy_loss: value
            .get("accuracy_loss")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0),
        unix_secs: number("unix_secs"),
        // Environment fingerprint, absent on older manifests.
        cpus: number("cpus"),
        threads: number("threads"),
        build: text("build").unwrap_or_default(),
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
            recorder
                .span(keys::CANDIDATE_SPAN)
                .field("depth", depth)
                .field("tau", 0.005)
                .field("accuracy", 0.875)
                .finish();
        }
        recorder
            .span(keys::TRAIN_SPAN)
            .field("nodes", 7u64)
            .finish();
        recorder.add(keys::GINI_EVALS, 321);
        recorder.add(keys::HW_COMPARATORS_RETAINED, 9);
        recorder.set_gauge(keys::PEAK_RSS_KB, 2048);
        // Kernel tallies ride the counter namespace and are written as
        // plain counters; the round trip must bring back the kernel view
        // derived from them.
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
        assert_eq!(original.kernels().len(), 1, "sample carries a kernel");
        let parsed = parse_trace(&original.to_ndjson());
        assert!(parsed.is_clean(), "warnings: {:?}", parsed.warnings);
        assert_eq!(parsed.trace, original);
        assert_eq!(parsed.trace.kernels(), original.kernels());
    }

    #[test]
    fn span_ids_and_parents_round_trip_as_structure() {
        let original = sample_trace();
        let sweep = original.stage(keys::STAGE_SWEEP).expect("sweep stage");
        let lines = original.to_ndjson();
        let spans: Vec<SpanRecord> = lines
            .lines()
            .filter_map(|line| match parse_line(line) {
                Ok(Record::Span(span)) => Some(span),
                _ => None,
            })
            .collect();
        assert_eq!(spans, original.spans);
        for span in spans.iter().filter(|s| s.name != keys::STAGE_SWEEP) {
            assert_eq!(span.parent, Some(sweep.id), "{span:?}");
            assert!(span.field("id").is_none() && span.field("parent").is_none());
        }
    }

    #[test]
    fn a_span_line_without_ids_parses_clean_as_a_root() {
        let line = r#"{"kind":"span","name":"candidate","start_us":3,"duration_us":4,"depth":2}"#;
        let parsed = parse_trace(line);
        assert!(parsed.is_clean(), "{:?}", parsed.warnings);
        let span = &parsed.trace.spans[0];
        assert_eq!((span.id, span.parent), (0, None));
        assert_eq!(span.field("depth").and_then(FieldValue::as_u64), Some(2));
        let profile = crate::Profile::from_trace(&parsed.trace);
        assert_eq!(profile.roots[0].name, "candidate");
    }

    #[test]
    fn malformed_lines_warn_and_skip() {
        let original = sample_trace();
        let mut ndjson = original.to_ndjson();
        ndjson.push_str(concat!(
            "\nnot json at all",
            "\n{\"kind\":\"mystery\",\"x\":1}",
            "\n{\"kind\":\"span\"}",
            "\n{\"kind\":\"event\",\"name\":\"selected\"}",
            // The kinds the schema no longer has are unknown kinds.
            "\n{\"kind\":\"kernel\",\"name\":\"gini_scan\",\"calls\":1,\"items\":2,\"ns\":3}",
            "\n{\"kind\":\"stage\",\"name\":\"sweep\",\"start_us\":0,\"duration_us\":1}",
        ));
        let parsed = parse_trace(&ndjson);
        assert_eq!(parsed.warnings.len(), 6, "warnings: {:?}", parsed.warnings);
        // Everything before the damage still parsed.
        assert_eq!(parsed.trace, original);
        assert!(parsed.warnings[0].contains("not json") || parsed.warnings[0].contains("skipped"));
        assert!(parsed.warnings[1].contains("mystery"));
        assert!(parsed.warnings[2].contains("skipped span (missing name)"));
        assert!(parsed.warnings[3].contains("skipped event (missing at_us)"));
        assert!(parsed.warnings[4].contains("unknown kind \"kernel\""));
        assert!(parsed.warnings[5].contains("unknown kind \"stage\""));
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
        assert_eq!(parsed.trace.spans, original.spans);
        assert_eq!(parsed.trace.sweep, original.sweep);
    }

    #[test]
    fn empty_input_yields_empty_trace() {
        let parsed = parse_trace("");
        assert!(parsed.is_clean());
        assert_eq!(parsed.trace, FlowTrace::default());
    }
}
