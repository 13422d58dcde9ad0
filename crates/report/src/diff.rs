//! Regression gating: one record type for every bench axis, one gate.
//!
//! A [`BenchRecord`] is one line of a committed baseline suite: an
//! [`Axis`], a key, the producing run's provenance and its [`Metric`]s.
//! The three axes are `bench_stats` (`BENCH_all.ndjson`, the quick-grid
//! flow per benchmark), `kernel_stats` (`BENCH_hotpath.ndjson`, one hot
//! kernel per benchmark, keyed `dataset/kernel`) and `robust_stats`
//! (`BENCH_robust.ndjson`, the robust selection per benchmark). What an
//! axis means is data, not code: one constant table per axis below says
//! which JSON field holds which metric and which policy gates it.
//! [`diff`] pairs two suites by key under a strict bijection and gates
//! every pair into a [`Verdict`]; the `printed-trace diff` subcommand
//! turns a failed verdict into exit 1.
//!
//! ## Only what replays exactly is gated
//!
//! Every gated metric is a deterministic function of the code and the
//! data: work counts, the selected design's hardware numbers, the
//! campaign's selection and its trial spend. They replay bit for bit on
//! any host, so a gate on them never flakes. Timings (wall time, kernel
//! throughput, campaign wall, peak RSS) are shown with their Δ and never
//! gated here: the repository benchmark (`BENCHMARK.json`, perfbench)
//! owns wall, cpu and RSS, measured end to end on repeated runs.

use printed_telemetry::{keys, FieldValue, FlowTrace, JsonLine, RunManifest};

use printed_telemetry::json::{parse as parse_json, JsonValue};

/// Slack of exact float comparisons. Floats round-trip bit-exactly
/// through NDJSON, so this is pure defence.
const EXACT_EPS: f64 = 1e-9;

/// Which suite a record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Axis {
    /// `bench_stats`: the traced quick-grid flow of one benchmark.
    Bench,
    /// `kernel_stats`: one hot kernel driven on one benchmark.
    Kernel,
    /// `robust_stats`: the robust selection of one benchmark.
    Robust,
}

/// How the gate judges one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Policy {
    /// Must match exactly, both directions; the text names what the
    /// metric is (`"work count"`).
    Exact(&'static str),
    /// A relative change past `max_regress` either way fails.
    Drift,
    /// Relative growth past `max_regress` fails; a drop past it is noted.
    Regress,
    /// Shown with its Δ, never gated.
    Info,
}

/// One metric of an axis: its JSON field, its name in verdict lines, and
/// its gate.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spec {
    /// JSON field of the value.
    field: &'static str,
    /// Name in `FAIL:`/`note:` lines.
    label: &'static str,
    /// How the gate judges it.
    policy: Policy,
}

const fn spec(field: &'static str, label: &'static str, policy: Policy) -> Spec {
    Spec {
        field,
        label,
        policy,
    }
}

/// Everything the record codec, the gate and the history know about one
/// axis.
pub(crate) struct AxisSpec {
    /// `kind` of a baseline line and of a history line.
    pub(crate) kind: &'static str,
    pub(crate) history_kind: &'static str,
    /// JSON fields that make up the key, joined by `/`.
    key: &'static [&'static str],
    /// Whether baseline lines carry the sweep grid (`taus`, `depths`).
    grid: bool,
    /// Metrics in gate order.
    metrics: &'static [Spec],
    /// History-line fields, in line order.
    pub(crate) history: &'static [&'static str],
    /// History fields rendered with a per-step Δ column, and its label.
    pub(crate) trend: &'static [(&'static str, &'static str)],
    /// Title of a history table.
    pub(crate) history_title: &'static str,
    /// Suite summary: `{0}: k/n {1} passed`.
    summary: (&'static str, &'static str),
}

const CAMPAIGN: Policy = Policy::Exact("campaign metric");

const AXES: [AxisSpec; 3] = [
    AxisSpec {
        kind: "bench_stats",
        history_kind: "bench_history",
        key: &["dataset"],
        grid: true,
        metrics: &[
            spec("wall_us", "wall time", Policy::Info),
            spec("gini_evals", "gini evals", Policy::Regress),
            spec("trees", "trees", Policy::Info),
            spec("trees_shared", "trees shared", Policy::Info),
            spec("area_mm2", "area (mm²)", Policy::Drift),
            spec("power_mw", "power (mW)", Policy::Drift),
            spec("comparators", "comparators", Policy::Drift),
            spec("peak_rss_kb", "peak RSS (kB)", Policy::Info),
        ],
        history: &[
            "wall_us",
            "gini_evals",
            "trees",
            "trees_shared",
            "area_mm2",
            "power_mw",
            "comparators",
            "peak_rss_kb",
        ],
        trend: &[("wall_us", "wall"), ("peak_rss_kb", "rss")],
        history_title: "history",
        summary: ("suite", "benchmarks"),
    },
    AxisSpec {
        kind: "kernel_stats",
        history_kind: "kernel_history",
        key: &["dataset", "kernel"],
        grid: false,
        metrics: &[
            spec("calls", "calls", Policy::Exact("invocation count")),
            spec("items", "items", Policy::Exact("work count")),
            spec("tp_median", "throughput", Policy::Info),
        ],
        history: &["calls", "items", "tp_median"],
        trend: &[("tp_median", "tp")],
        history_title: "kernel history",
        summary: ("hotpath", "kernels"),
    },
    AxisSpec {
        kind: "robust_stats",
        history_kind: "robust_history",
        key: &["dataset"],
        grid: false,
        metrics: &[
            spec("tau", "selected τ", CAMPAIGN),
            spec("nominal", "nominal accuracy", CAMPAIGN),
            spec("robust_accuracy", "robust accuracy", CAMPAIGN),
            spec("yield", "yield", CAMPAIGN),
            spec("worst_fault", "worst-fault accuracy", CAMPAIGN),
            spec("droop_margin", "droop margin", CAMPAIGN),
            spec("depth", "selected depth", CAMPAIGN),
            spec("pruned_points", "pruned points", CAMPAIGN),
            spec("trials_budget", "trial budget", CAMPAIGN),
            spec("trials_median", "trials spent", Policy::Regress),
            spec("wall_us_median", "campaign wall", Policy::Info),
        ],
        history: &[
            "tau",
            "depth",
            "yield",
            "worst_fault",
            "trials_median",
            "trials_budget",
            "pruned_points",
        ],
        trend: &[("trials_median", "trials")],
        history_title: "robust history",
        summary: ("robustness", "benchmarks"),
    },
];

impl Axis {
    pub(crate) fn spec(self) -> &'static AxisSpec {
        &AXES[self as usize]
    }

    /// The `kind` of the axis' baseline lines (`"bench_stats"`, …).
    pub fn kind(self) -> &'static str {
        self.spec().kind
    }

    fn metric(self, field: &str) -> Option<&'static Spec> {
        self.spec().metrics.iter().find(|s| s.field == field)
    }
}

/// One measured number of a record.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// JSON field, which names the metric in its axis table.
    pub field: &'static str,
    /// The value, `U64` or `F64` as written.
    pub value: FieldValue,
}

impl Metric {
    /// The metric of JSON field `field`.
    pub fn new(field: &'static str, value: impl Into<FieldValue>) -> Self {
        Self {
            field,
            value: value.into(),
        }
    }
}

/// One line of a baseline suite (or of the history file).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Which suite the record belongs to.
    pub axis: Axis,
    /// The dataset, or `dataset/kernel` on the kernel axis.
    pub key: String,
    /// The producing run: git SHA, timestamp, `cpus/threads/build` and,
    /// on the bench axis, the sweep grid.
    pub provenance: RunManifest,
    /// Metrics in line order.
    pub metrics: Vec<Metric>,
}

impl BenchRecord {
    /// The one constructor `bench_all`, `bench_hot` and `bench_robust` use.
    pub fn new(
        axis: Axis,
        key: impl Into<String>,
        provenance: RunManifest,
        metrics: Vec<Metric>,
    ) -> Self {
        Self {
            axis,
            key: key.into(),
            provenance,
            metrics,
        }
    }

    /// Condenses a flow trace to its bench record: wall time, sweep
    /// counters, the selected design's area/power/comparators and the
    /// peak RSS (when recorded).
    pub fn from_trace(trace: &FlowTrace) -> Self {
        let selected = trace.events.iter().find(|e| e.name == keys::SELECTED_EVENT);
        let field = |key: &str| selected.and_then(|e| e.field(key));
        let float = |key: &str| field(key).and_then(FieldValue::as_f64).unwrap_or(0.0);
        let int = |key: &str| field(key).and_then(FieldValue::as_u64).unwrap_or(0);
        let mut metrics = vec![
            Metric::new("wall_us", trace.wall_us),
            Metric::new("gini_evals", trace.counter(keys::GINI_EVALS)),
            Metric::new("trees", trace.counter(keys::TREES_TRAINED)),
            Metric::new("trees_shared", trace.counter(keys::TREES_SHARED)),
            Metric::new("area_mm2", float("area_mm2")),
            Metric::new("power_mw", float("power_mw")),
            Metric::new("comparators", int("comparators")),
        ];
        let rss = trace.gauge(keys::PEAK_RSS_KB);
        if rss > 0 {
            metrics.push(Metric::new("peak_rss_kb", rss));
        }
        let key = match &trace.manifest {
            Some(manifest) => manifest.dataset.clone(),
            None => trace.title.clone(),
        };
        let provenance = trace.manifest.clone().unwrap_or_default();
        Self::new(Axis::Bench, key, provenance, metrics)
    }

    /// Replaces metric `metric.field`, or appends it (builder style).
    pub fn with(mut self, metric: Metric) -> Self {
        match self.metrics.iter_mut().find(|m| m.field == metric.field) {
            Some(slot) => *slot = metric,
            None => self.metrics.push(metric),
        }
        self
    }

    /// The metric stored under `field`.
    pub fn metric(&self, field: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.field == field)
    }

    /// The value of `field` as `f64` (0 when absent, as in old records).
    pub fn value(&self, field: &str) -> f64 {
        self.metric(field)
            .and_then(|m| m.value.as_f64())
            .unwrap_or(0.0)
    }

    /// The first eight characters of the git SHA, `unknown` when empty.
    pub(crate) fn short_sha(&self) -> &str {
        match self.provenance.short_sha() {
            "" => "unknown",
            sha => sha,
        }
    }

    /// The value of `field` as verdict lines print it (0 when absent).
    fn shown(&self, field: &str) -> String {
        match self.metric(field).map(|m| &m.value) {
            Some(FieldValue::F64(v)) => v.to_string(),
            value => value.and_then(FieldValue::as_u64).unwrap_or(0).to_string(),
        }
    }

    /// Parses every baseline line of `text`, of any axis, plus one
    /// warning per unparseable line. Other record kinds are skipped.
    pub fn parse_all(text: &str) -> (Vec<Self>, Vec<String>) {
        parse_lines(text, false)
    }

    /// Serializes to one baseline line, in the field order the bench
    /// binaries have always written: kind, key, SHA, grid, metrics,
    /// environment, timestamp.
    pub fn to_json(&self) -> String {
        let spec = self.axis.spec();
        let mut line = self
            .key_fields(JsonLine::new().str("kind", spec.kind))
            .str("git_sha", &self.provenance.git_sha);
        if spec.grid {
            let taus: Vec<String> = self.provenance.taus.iter().map(|t| float(*t)).collect();
            let depths: Vec<String> = self.provenance.depths.iter().map(u64::to_string).collect();
            line = line
                .raw("taus", &format!("[{}]", taus.join(",")))
                .raw("depths", &format!("[{}]", depths.join(",")));
        }
        for metric in &self.metrics {
            line = line.field(metric.field, &metric.value);
        }
        let p = &self.provenance;
        if p.cpus > 0 || !p.build.is_empty() {
            line = line
                .u64("cpus", p.cpus)
                .u64("threads", p.threads)
                .str("build", &p.build);
        }
        if p.unix_secs > 0 {
            line = line.u64("unix_secs", p.unix_secs);
        }
        line.finish()
    }

    /// Appends the key fields (`dataset`, then `kernel` on that axis).
    pub(crate) fn key_fields(&self, mut line: JsonLine) -> JsonLine {
        let fields = self.axis.spec().key;
        for (field, part) in fields.iter().zip(self.key.splitn(fields.len(), '/')) {
            line = line.str(field, part);
        }
        line
    }

    fn from_json(value: &JsonValue, history: bool) -> Option<Self> {
        let kind = value.get("kind")?.as_str()?;
        let axis = [Axis::Bench, Axis::Kernel, Axis::Robust]
            .into_iter()
            .find(|a| {
                let spec = a.spec();
                kind == if history {
                    spec.history_kind
                } else {
                    spec.kind
                }
            })?;
        let get = |key: &str| value.get(key);
        let text = |key: &str| get(key).and_then(JsonValue::as_str).unwrap_or_default();
        let int = |key: &str| get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        let list = |key: &str| get(key).and_then(JsonValue::as_arr).unwrap_or_default();
        let key: Vec<&str> = axis.spec().key.iter().map(|k| text(k)).collect();
        let provenance = RunManifest {
            git_sha: text("git_sha").to_owned(),
            dataset: key[0].to_owned(),
            taus: list("taus").iter().filter_map(JsonValue::as_f64).collect(),
            depths: list("depths")
                .iter()
                .filter_map(JsonValue::as_u64)
                .collect(),
            unix_secs: int("unix_secs"),
            cpus: int("cpus"),
            threads: int("threads"),
            build: text("build").to_owned(),
            ..RunManifest::default()
        };
        let metrics = value
            .members()?
            .iter()
            .filter_map(|(name, number)| {
                let spec = axis.metric(name)?;
                let value = match number {
                    JsonValue::Int(n) => FieldValue::U64(*n),
                    JsonValue::Float(f) => FieldValue::F64(*f),
                    _ => return None,
                };
                Some(Metric::new(spec.field, value))
            })
            .collect();
        Some(Self::new(axis, key.join("/"), provenance, metrics))
    }
}

/// Parses every baseline (or, with `history`, history) line of `text`.
pub(crate) fn parse_lines(text: &str, history: bool) -> (Vec<BenchRecord>, Vec<String>) {
    let mut records = Vec::new();
    let mut warnings = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse_json(line) {
            Ok(value) => records.extend(BenchRecord::from_json(&value, history)),
            Err(e) => warnings.push(format!("line {}: unparseable ({e:?})", i + 1)),
        }
    }
    (records, warnings)
}

/// A float as the NDJSON writer renders it (integral values keep `.0`).
fn float(value: f64) -> String {
    let text = value.to_string();
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

/// Tolerance of the percentage gates: drift of the hardware numbers,
/// growth of Gini evals and of trials spent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffConfig {
    /// Allowed relative change. Default 5%.
    pub max_regress: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        Self { max_regress: 0.05 }
    }
}

/// The outcome of gating one current record against its baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The committed reference record.
    pub baseline: BenchRecord,
    /// The fresh run's record.
    pub current: BenchRecord,
    /// One line per gate failure (empty = pass).
    pub violations: Vec<String>,
    /// Non-fatal observations (improvements, skipped checks).
    pub notes: Vec<String>,
}

impl Verdict {
    /// Gates `current` against `baseline`: config drift first, then every
    /// metric of the baseline's axis in table order.
    pub fn new(baseline: &BenchRecord, current: &BenchRecord, config: DiffConfig) -> Self {
        let mut verdict = Self {
            baseline: baseline.clone(),
            current: current.clone(),
            violations: Vec::new(),
            notes: Vec::new(),
        };
        // Different datasets or grids are apples to oranges: fail before
        // any number is looked at.
        if !baseline.key.is_empty() && !current.key.is_empty() && baseline.key != current.key {
            verdict.violations.push(format!(
                "config drift: baseline ran {:?}, current ran {:?}",
                baseline.key, current.key
            ));
        }
        let (b, c) = (&baseline.provenance, &current.provenance);
        if !b.taus.is_empty() && !c.taus.is_empty() && (b.taus != c.taus || b.depths != c.depths) {
            verdict.violations.push(format!(
                "config drift: grid changed ({}τ×{}d → {}τ×{}d)",
                b.taus.len(),
                b.depths.len(),
                c.taus.len(),
                c.depths.len(),
            ));
        }
        for spec in baseline.axis.spec().metrics {
            verdict.check(spec, config.max_regress);
        }
        verdict
    }

    /// Whether the gate passes (no violations).
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    fn check(&mut self, spec: &Spec, tolerance: f64) {
        let base = self.baseline.value(spec.field);
        let cur = self.current.value(spec.field);
        match spec.policy {
            // Counts stay far below 2^53, so they compare exactly as f64.
            Policy::Exact(what) if (base - cur).abs() > EXACT_EPS => {
                self.violations.push(format!(
                    "{} changed: {} → {} (deterministic {what} must match exactly)",
                    spec.label,
                    self.baseline.shown(spec.field),
                    self.current.shown(spec.field),
                ));
            }
            Policy::Drift => self.drift(spec.label, base, cur, tolerance),
            Policy::Regress => self.regress(spec.label, base, cur, tolerance),
            Policy::Exact(_) | Policy::Info => {}
        }
    }

    fn regress(&mut self, label: &str, base: f64, cur: f64, tolerance: f64) {
        if base <= 0.0 {
            self.notes
                .push(format!("{label}: no baseline value, check skipped"));
            return;
        }
        let ratio = cur / base - 1.0;
        if ratio > tolerance {
            self.violations.push(format!(
                "{label} regressed {:.1}% ({base:.0} → {cur:.0}, tolerance {:.1}%)",
                ratio * 100.0,
                tolerance * 100.0,
            ));
        } else if ratio < -tolerance {
            self.notes
                .push(format!("{label} improved {:.1}%", -ratio * 100.0));
        }
    }

    fn drift(&mut self, label: &str, base: f64, cur: f64, tolerance: f64) {
        if base == 0.0 && cur == 0.0 {
            return;
        }
        if base == 0.0 {
            self.violations
                .push(format!("{label} appeared ({cur:.4}) with no baseline"));
            return;
        }
        let ratio = (cur - base).abs() / base;
        if ratio > tolerance {
            self.violations.push(format!(
                "{label} drifted {:.1}% ({base:.4} → {cur:.4}, tolerance {:.1}%)",
                ratio * 100.0,
                tolerance * 100.0,
            ));
        }
    }

    /// Renders the comparison as one block: header, metric table, notes,
    /// failures, verdict.
    pub fn render_text(&self) -> String {
        let (b, c) = (&self.baseline, &self.current);
        let (b_sha, c_sha) = (b.short_sha(), c.short_sha());
        let mut out = format!(
            "diff: {} (baseline {b_sha}) vs {} (current {c_sha})\n",
            b.key, c.key
        );
        out.push_str("  metric                baseline        current     delta\n");
        for spec in b.axis.spec().metrics {
            if b.metric(spec.field).is_none() && c.metric(spec.field).is_none() {
                continue;
            }
            let (base, cur) = (b.value(spec.field), c.value(spec.field));
            out.push_str(&format!(
                "  {:<15} {base:>14.4} {cur:>14.4} {:>9}\n",
                spec.field,
                percent(base, cur)
            ));
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        for violation in &self.violations {
            out.push_str(&format!("  FAIL: {violation}\n"));
        }
        out.push_str(if self.passed() {
            "  verdict: PASS\n"
        } else {
            "  verdict: REGRESSION\n"
        });
        out
    }

    /// The one-line suite summary: `suite: 7/8 benchmarks passed (1
    /// REGRESSED)`, worded per axis.
    pub fn summary(verdicts: &[Verdict]) -> String {
        let Some(first) = verdicts.first() else {
            return String::new();
        };
        let (prefix, noun) = first.baseline.axis.spec().summary;
        let failures = verdicts.iter().filter(|v| !v.passed()).count();
        let regressed = if failures > 0 {
            format!(" ({failures} REGRESSED)")
        } else {
            String::new()
        };
        format!(
            "{prefix}: {}/{} {noun} passed{regressed}",
            verdicts.len() - failures,
            verdicts.len()
        )
    }
}

/// `+12.3%` from `base` to `cur`, `n/a` when there is no base.
fn percent(base: f64, cur: f64) -> String {
    if base == 0.0 {
        "n/a".to_owned()
    } else {
        format!("{:+.1}%", 100.0 * (cur - base) / base)
    }
}

/// Gates a current suite against a baseline suite, paired by key under a
/// strict bijection: a record present on one side and missing on the
/// other is a hard `Err`, never a silent skip — a benchmark or kernel
/// falling out of a suite is exactly the regression the gate exists to
/// catch. A key that appears twice on either side is an `Err` too: only
/// one of its records could be paired, and the other would go ungated.
pub fn diff(
    baselines: &[BenchRecord],
    currents: &[BenchRecord],
    config: DiffConfig,
) -> Result<Vec<Verdict>, String> {
    if baselines.is_empty() || currents.is_empty() {
        return Err("empty stats set (nothing to compare)".to_owned());
    }
    fn find<'a>(suite: &'a [BenchRecord], key: &str) -> Option<&'a BenchRecord> {
        suite.iter().find(|r| r.key == key)
    }
    let describe = |r: &BenchRecord| match r.axis {
        Axis::Kernel => format!("kernel {}", r.key),
        _ => format!("dataset {:?}", r.key),
    };
    for (side, suite) in [("baseline", baselines), ("current", currents)] {
        for (i, record) in suite.iter().enumerate() {
            if find(&suite[..i], &record.key).is_some() {
                return Err(format!(
                    "{side} {} has more than one record",
                    describe(record)
                ));
            }
        }
    }
    let mut verdicts = Vec::new();
    let mut missing = Vec::new();
    for baseline in baselines {
        match find(currents, &baseline.key) {
            Some(current) => verdicts.push(Verdict::new(baseline, current, config)),
            None => missing.push(format!(
                "baseline {} missing from the current run",
                describe(baseline)
            )),
        }
    }
    for current in currents {
        if find(baselines, &current.key).is_none() {
            missing.push(format!(
                "current {} has no baseline record",
                describe(current)
            ));
        }
    }
    if missing.is_empty() {
        Ok(verdicts)
    } else {
        Err(missing.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHA: &str = "0123456789abcdef0123456789abcdef01234567";

    /// Overwrites the value of `field`.
    fn set(mut record: BenchRecord, field: &str, value: impl Into<FieldValue>) -> BenchRecord {
        let metric = record.metrics.iter_mut().find(|m| m.field == field);
        metric.expect("metric present").value = value.into();
        record
    }

    fn env(mut record: BenchRecord, cpus: u64) -> BenchRecord {
        record.provenance.cpus = cpus;
        record
    }

    fn stats() -> BenchRecord {
        let provenance = RunManifest {
            git_sha: SHA.into(),
            dataset: "Seeds".into(),
            taus: vec![0.0, 0.005],
            depths: vec![2, 4],
            ..RunManifest::default()
        };
        let metrics = vec![
            Metric::new("wall_us", 100_000u64),
            Metric::new("gini_evals", 4_000u64),
            Metric::new("trees", 4u64),
            Metric::new("trees_shared", 12u64),
            Metric::new("area_mm2", 12.5),
            Metric::new("power_mw", 1.25),
            Metric::new("comparators", 9u64),
        ];
        BenchRecord::new(Axis::Bench, "Seeds", provenance, metrics)
    }

    /// [`stats`] with the optional fields: peak RSS, environment and
    /// timestamp.
    fn full() -> BenchRecord {
        let mut s = stats().with(Metric::new("peak_rss_kb", 40_000u64));
        s.provenance.cpus = 8;
        s.provenance.build = "release".into();
        s.provenance.unix_secs = 1_750_000_000;
        s
    }

    fn gate(baseline: &BenchRecord, current: &BenchRecord) -> Verdict {
        Verdict::new(baseline, current, DiffConfig::default())
    }

    #[test]
    fn identical_runs_pass() {
        let s = stats();
        let report = gate(&s, &s);
        assert!(report.passed(), "{:?}", report.violations);
        assert!(report.render_text().contains("verdict: PASS"));
    }

    #[test]
    fn timings_are_shown_never_gated() {
        let base = full();
        // 100× slower, on another host class, with 10× the RSS.
        let cur = set(env(full(), 2), "wall_us", 10_000_000u64);
        let cur = set(cur, "peak_rss_kb", 400_000u64);
        let report = gate(&base, &cur);
        assert!(report.passed(), "{:?}", report.violations);
        assert!(report.notes.is_empty(), "{:?}", report.notes);
        let text = report.render_text();
        assert!(text.contains("wall_us"), "{text}");
        assert!(text.contains("+9900.0%"), "{text}");
        // Deterministic metrics still fire on the same pair.
        assert!(!gate(&base, &set(cur, "area_mm2", 20.0)).passed());
    }

    #[test]
    fn gini_growth_past_tolerance_fails_and_a_drop_is_a_note() {
        let base = stats();
        let report = gate(&base, &set(stats(), "gini_evals", 4_240u64)); // +6% > 5%
        assert!(!report.passed());
        assert!(
            report.violations[0].contains("gini evals regressed"),
            "{:?}",
            report.violations
        );
        assert!(gate(&base, &set(stats(), "gini_evals", 4_160u64)).passed());
        let report = gate(&base, &set(stats(), "gini_evals", 2_000u64));
        assert!(report.passed());
        assert!(report.notes.iter().any(|n| n.contains("improved")));
    }

    #[test]
    fn hardware_drift_fails_in_both_directions() {
        let base = stats();
        for area in [11.0, 14.0] {
            let cur = set(stats(), "area_mm2", area);
            let report = gate(&base, &cur);
            assert!(!report.passed(), "area {area} should violate");
            assert!(report.violations[0].contains("area"));
        }
    }

    #[test]
    fn dataset_and_grid_drift_are_violations() {
        let base = stats();
        let mut cur = stats();
        cur.key = "Vertebral".into();
        assert!(!gate(&base, &cur).passed());
        let mut cur = stats();
        cur.provenance.depths = vec![2, 4, 6];
        assert!(!gate(&base, &cur).passed());
    }

    #[test]
    fn stats_json_round_trips() {
        let original = stats();
        let json = original.to_json();
        let (parsed, warnings) = BenchRecord::parse_all(&json);
        assert!(warnings.is_empty());
        assert_eq!(parsed, vec![original]);
    }

    #[test]
    fn full_stats_json_round_trips() {
        let original = full();
        let json = original.to_json();
        assert!(json.contains(r#""peak_rss_kb":40000"#), "{json}");
        assert!(json.contains(r#""build":"release""#), "{json}");
        assert!(json.contains(r#""unix_secs":1750000000"#), "{json}");
        let (parsed, _) = BenchRecord::parse_all(&json);
        assert_eq!(parsed, vec![original]);
    }

    #[test]
    fn plain_json_omits_the_optional_fields() {
        let json = stats().to_json();
        assert!(!json.contains("peak_rss_kb"), "{json}");
        assert!(!json.contains("cpus"), "{json}");
        assert!(!json.contains("unix_secs"), "{json}");
    }

    #[test]
    fn calibration_fields_of_older_files_are_dropped() {
        let line = concat!(
            r#"{"kind":"bench_stats","dataset":"Seeds","git_sha":"abc","#,
            r#""wall_us":1214,"wall_us_median":1214,"wall_us_mad":21,"calib_runs":5,"#,
            r#""gini_evals":2231,"cpus":1,"threads":0,"build":"release"}"#
        );
        let (parsed, warnings) = BenchRecord::parse_all(line);
        assert!(warnings.is_empty());
        assert_eq!(parsed[0].value("wall_us"), 1214.0);
        assert_eq!(parsed[0].value("gini_evals"), 2231.0);
        let json = parsed[0].to_json();
        assert!(!json.contains("mad"), "{json}");
        assert!(!json.contains("calib_runs"), "{json}");
    }

    #[test]
    fn parse_all_reads_a_whole_suite() {
        let a = full();
        let mut b = full();
        b.key = "Cardio".into();
        let file = format!("{}\n{}\n", a.to_json(), b.to_json());
        let (suite, warnings) = BenchRecord::parse_all(&file);
        assert!(warnings.is_empty());
        assert_eq!(suite.len(), 2);
        assert_eq!(suite[0].key, "Seeds");
        assert_eq!(suite[1].key, "Cardio");
    }

    #[test]
    fn diff_requires_an_exact_bijection() {
        let a = stats();
        let mut b = stats();
        b.key = "Cardio".into();
        let mut c = stats();
        c.key = "Pendigits".into();
        // Exact match passes.
        let reports = diff(
            &[a.clone(), b.clone()],
            &[a.clone(), b.clone()],
            DiffConfig::default(),
        )
        .expect("bijection");
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(Verdict::passed));
        // Missing on the current side is a hard error, not a skip.
        let err = diff(&[a.clone(), b], &[a, c], DiffConfig::default()).unwrap_err();
        assert!(
            err.contains("\"Cardio\" missing from the current run"),
            "{err}"
        );
        assert!(
            err.contains("\"Pendigits\" has no baseline record"),
            "{err}"
        );
    }

    #[test]
    fn diff_rejects_a_duplicate_key_on_either_side() {
        let a = stats();
        let divergent = set(stats(), "area_mm2", 99.0);
        let config = DiffConfig::default();
        let err = diff(
            std::slice::from_ref(&a),
            &[a.clone(), divergent.clone()],
            config,
        )
        .unwrap_err();
        assert_eq!(err, "current dataset \"Seeds\" has more than one record");
        let err = diff(&[a.clone(), divergent], &[a], config).unwrap_err();
        assert_eq!(err, "baseline dataset \"Seeds\" has more than one record");
        let k = kernel("Seeds", "gini_scan");
        let err = diff(&[k.clone(), k.clone()], &[k], config).unwrap_err();
        assert_eq!(
            err,
            "baseline kernel Seeds/gini_scan has more than one record"
        );
    }

    #[test]
    fn from_trace_condenses_a_trace_dump() {
        use printed_telemetry::{Recorder, RunManifest};
        let (recorder, sink) = Recorder::collecting();
        let span = recorder.span(keys::STAGE_SWEEP);
        recorder.add(keys::GINI_EVALS, 777);
        recorder.set_gauge(keys::PEAK_RSS_KB, 31_000);
        recorder.event(
            keys::SELECTED_EVENT,
            vec![
                ("area_mm2".into(), FieldValue::F64(3.25)),
                ("power_mw".into(), FieldValue::F64(0.5)),
                ("comparators".into(), FieldValue::U64(6)),
            ],
        );
        span.finish();
        let trace =
            FlowTrace::from_snapshot("Seeds", &sink.snapshot()).with_manifest(RunManifest {
                dataset: "Seeds".into(),
                cpus: 8,
                build: "release".into(),
                ..RunManifest::default()
            });
        let parsed = crate::parse_trace(&trace.to_ndjson()).trace;
        let record = BenchRecord::from_trace(&parsed);
        assert_eq!(record.key, "Seeds");
        assert_eq!(record.value("gini_evals"), 777.0);
        assert_eq!(record.value("comparators"), 6.0);
        assert!((record.value("area_mm2") - 3.25).abs() < 1e-12);
        assert_eq!(record.value("peak_rss_kb"), 31_000.0);
        assert_eq!(record.provenance.cpus, 8);
        assert_eq!(record.provenance.build, "release");
    }

    #[test]
    fn garbage_lines_are_warnings_not_records() {
        let (records, warnings) = BenchRecord::parse_all("definitely not json");
        assert!(records.is_empty());
        assert_eq!(warnings.len(), 1);
    }

    fn kernel(dataset: &str, name: &'static str) -> BenchRecord {
        let provenance = RunManifest {
            git_sha: SHA.into(),
            dataset: dataset.into(),
            cpus: 8,
            build: "release".into(),
            unix_secs: 1_754_000_000,
            ..RunManifest::default()
        };
        let metrics = vec![
            Metric::new("calls", 7u64),
            Metric::new("items", 1_610u64),
            Metric::new("tp_median", 1_000_000u64),
        ];
        BenchRecord::new(
            Axis::Kernel,
            format!("{dataset}/{name}"),
            provenance,
            metrics,
        )
    }

    fn diff_one(base: &BenchRecord, cur: &BenchRecord) -> Vec<Verdict> {
        diff(
            std::slice::from_ref(base),
            std::slice::from_ref(cur),
            DiffConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn kernel_stats_json_round_trips() {
        let original = kernel("Seeds", "gini_scan");
        let json = original.to_json();
        assert!(json.starts_with(r#"{"kind":"kernel_stats""#), "{json}");
        let (parsed, _) = BenchRecord::parse_all(&json);
        assert_eq!(parsed, vec![original]);
        // A bench line parses onto its own axis, never the kernel one.
        let (parsed, _) = BenchRecord::parse_all(r#"{"kind":"bench_stats"}"#);
        assert_eq!(parsed[0].axis, Axis::Bench);
    }

    #[test]
    fn kernel_count_drift_blocks_in_both_directions() {
        let base = kernel("Seeds", "gini_scan");
        for calls in [6u64, 8] {
            let reports = diff_one(&base, &set(kernel("Seeds", "gini_scan"), "calls", calls));
            assert!(!reports[0].passed(), "calls {calls} should violate");
            assert!(reports[0].violations[0].contains("calls changed"));
        }
        for items in [1_609u64, 1_611] {
            let reports = diff_one(&base, &set(kernel("Seeds", "gini_scan"), "items", items));
            assert!(!reports[0].passed(), "items {items} should violate");
            assert!(reports[0].violations[0].contains("items changed"));
        }
    }

    #[test]
    fn kernel_throughput_is_shown_never_gated() {
        let base = kernel("Seeds", "gini_scan");
        let cur = set(env(kernel("Seeds", "gini_scan"), 2), "tp_median", 1u64);
        let reports = diff_one(&base, &cur);
        assert!(reports[0].passed(), "{:?}", reports[0].violations);
        assert!(reports[0].notes.is_empty(), "{:?}", reports[0].notes);
        assert!(reports[0].render_text().contains("tp_median"));
        // The deterministic counts still fire on the same pair.
        let reports = diff_one(&base, &set(cur, "items", 999u64));
        assert!(!reports[0].passed());
    }

    #[test]
    fn kernel_suites_require_a_dataset_kernel_bijection() {
        let a = kernel("Seeds", "gini_scan");
        let b = kernel("Seeds", "cube_merge");
        let c = kernel("Cardio", "gini_scan");
        let reports = diff(
            &[a.clone(), b.clone()],
            &[b.clone(), a.clone()],
            DiffConfig::default(),
        )
        .expect("bijection");
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(Verdict::passed));
        // Same kernel on a different dataset is NOT a counterpart.
        let err = diff(&[a.clone(), b], &[a, c], DiffConfig::default()).unwrap_err();
        assert!(err.contains("Seeds/cube_merge missing"), "{err}");
        assert!(err.contains("Cardio/gini_scan has no baseline"), "{err}");
    }

    fn robust(dataset: &str) -> BenchRecord {
        let provenance = RunManifest {
            git_sha: SHA.into(),
            dataset: dataset.into(),
            cpus: 8,
            build: "release".into(),
            unix_secs: 1_754_000_000,
            ..RunManifest::default()
        };
        let metrics = vec![
            Metric::new("tau", 0.01),
            Metric::new("depth", 4u64),
            Metric::new("nominal", 0.9143),
            Metric::new("robust_accuracy", 0.9021),
            Metric::new("yield", 0.96),
            Metric::new("worst_fault", 0.55),
            Metric::new("droop_margin", 0.32),
            Metric::new("pruned_points", 3u64),
            Metric::new("trials_budget", 384u64),
            Metric::new("trials_median", 120u64),
            Metric::new("wall_us_median", 80_000u64),
        ];
        BenchRecord::new(Axis::Robust, dataset, provenance, metrics)
    }

    #[test]
    fn robust_stats_json_round_trips() {
        let original = robust("Seeds");
        let json = original.to_json();
        assert!(json.starts_with(r#"{"kind":"robust_stats""#), "{json}");
        let (parsed, _) = BenchRecord::parse_all(&json);
        assert_eq!(parsed, vec![original]);
    }

    #[test]
    fn robust_deterministic_metrics_gate_exactly_in_both_directions() {
        let base = robust("Seeds");
        // Yield drift fails even when it *improves*.
        for yield_est in [0.90, 0.99] {
            let reports = diff_one(&base, &set(robust("Seeds"), "yield", yield_est));
            assert!(!reports[0].passed(), "yield {yield_est} should violate");
            assert!(
                reports[0].violations[0].contains("yield changed"),
                "{:?}",
                reports[0].violations
            );
        }
        // Selection drift is a violation.
        let reports = diff_one(&base, &set(robust("Seeds"), "depth", 2u64));
        assert!(!reports[0].passed());
        assert!(reports[0].violations[0].contains("selected depth"));
        // So is a changed pruned-point count.
        let reports = diff_one(&base, &set(robust("Seeds"), "pruned_points", 0u64));
        assert!(!reports[0].passed());
        assert!(
            reports[0].violations[0].contains("pruned points"),
            "{:?}",
            reports[0].violations
        );
        assert!(reports[0].render_text().contains("verdict: REGRESSION"));
        // An identical run passes.
        let reports = diff_one(&base, &base);
        assert!(reports[0].passed(), "{:?}", reports[0].violations);
    }

    #[test]
    fn robust_trials_gate_fires_upward_only() {
        let base = robust("Seeds"); // 120 trials: +4.2% passes, +5.8% fails.
        let reports = diff_one(&base, &set(robust("Seeds"), "trials_median", 125u64));
        assert!(reports[0].passed(), "{:?}", reports[0].violations);
        let reports = diff_one(&base, &set(robust("Seeds"), "trials_median", 127u64));
        assert!(!reports[0].passed());
        assert!(
            reports[0].violations[0].contains("trials spent regressed"),
            "{:?}",
            reports[0].violations
        );
        // Fewer trials is an improvement note, not a violation.
        let reports = diff_one(&base, &set(robust("Seeds"), "trials_median", 60u64));
        assert!(reports[0].passed());
        assert!(reports[0].notes.iter().any(|n| n.contains("improved")));
    }

    #[test]
    fn robust_campaign_wall_is_shown_never_gated() {
        let base = robust("Seeds");
        let cur = set(env(robust("Seeds"), 2), "wall_us_median", 10_000_000u64);
        let reports = diff_one(&base, &cur);
        assert!(reports[0].passed(), "{:?}", reports[0].violations);
        assert!(reports[0].render_text().contains("wall_us_median"));
        let reports = diff_one(&base, &set(cur, "yield", 0.5));
        assert!(!reports[0].passed());
    }

    #[test]
    fn robust_suites_require_a_dataset_bijection() {
        let a = robust("Seeds");
        let b = robust("Cardio");
        let c = robust("Pendigits");
        let reports = diff(
            &[a.clone(), b.clone()],
            &[b.clone(), a.clone()],
            DiffConfig::default(),
        )
        .expect("bijection");
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(Verdict::passed));
        let err = diff(&[a.clone(), b], &[a, c], DiffConfig::default()).unwrap_err();
        assert!(err.contains("\"Cardio\" missing"), "{err}");
        assert!(err.contains("\"Pendigits\" has no baseline"), "{err}");
    }

    const COMMITTED: [&str; 3] = [
        include_str!("../../../BENCH_all.ndjson"),
        include_str!("../../../BENCH_hotpath.ndjson"),
        include_str!("../../../BENCH_robust.ndjson"),
    ];

    #[test]
    fn committed_baselines_re_encode_byte_for_byte() {
        for suite in COMMITTED {
            let (records, warnings) = BenchRecord::parse_all(suite);
            assert!(warnings.is_empty(), "{warnings:?}");
            assert_eq!(records.len(), suite.lines().count());
            for (record, line) in records.iter().zip(suite.lines()) {
                assert_eq!(record.to_json(), line);
            }
        }
    }

    #[test]
    fn bench_binary_records_match_the_committed_line_shapes() {
        // The field order bench_hot and bench_robust construct records in
        // reproduces the committed lines exactly.
        let hot = COMMITTED[1].lines().next().unwrap();
        let (parsed, _) = BenchRecord::parse_all(hot);
        let metrics = vec![
            Metric::new("calls", parsed[0].value("calls") as u64),
            Metric::new("items", parsed[0].value("items") as u64),
            Metric::new("tp_median", parsed[0].value("tp_median") as u64),
        ];
        let built = BenchRecord::new(
            Axis::Kernel,
            &parsed[0].key,
            parsed[0].provenance.clone(),
            metrics,
        );
        assert_eq!(built.to_json(), hot);

        let robust = COMMITTED[2].lines().next().unwrap();
        let (parsed, _) = BenchRecord::parse_all(robust);
        let r = &parsed[0];
        let metrics = vec![
            Metric::new("tau", r.value("tau")),
            Metric::new("depth", r.value("depth") as u64),
            Metric::new("nominal", r.value("nominal")),
            Metric::new("robust_accuracy", r.value("robust_accuracy")),
            Metric::new("yield", r.value("yield")),
            Metric::new("worst_fault", r.value("worst_fault")),
            Metric::new("droop_margin", r.value("droop_margin")),
            Metric::new("pruned_points", r.value("pruned_points") as u64),
            Metric::new("trials_budget", r.value("trials_budget") as u64),
            Metric::new("trials_median", r.value("trials_median") as u64),
            Metric::new("wall_us_median", r.value("wall_us_median") as u64),
        ];
        let built = BenchRecord::new(Axis::Robust, &r.key, r.provenance.clone(), metrics);
        assert_eq!(built.to_json(), robust);
    }
}
