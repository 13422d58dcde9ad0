//! Regression gating: one record type for every bench axis, one gate.
//!
//! A [`BenchRecord`] is one line of a committed baseline suite: an
//! [`Axis`], a key, the producing run's provenance and its [`Metric`]s.
//! The three axes are `bench_stats` (`BENCH_all.ndjson`, the quick-grid
//! flow per benchmark), `kernel_stats` (`BENCH_hotpath.ndjson`, one hot
//! kernel per benchmark, keyed `dataset/kernel`) and `robust_stats`
//! (`BENCH_robust.ndjson`, the robust selection per benchmark). What an
//! axis means is data, not code: one constant table per axis below says
//! which JSON field holds which metric, where its noise calibration
//! lives, and which policy gates it. [`diff`] pairs two suites by key
//! under a strict bijection and gates every pair into a [`Verdict`]; the
//! `printed-trace diff` subcommand turns a failed verdict into exit 1.
//!
//! ## Noise-calibrated gating
//!
//! A 5% gate on a 2.5 ms run fires on 125 µs of scheduler jitter, so
//! timings carry a [`Calibration`] (median and MAD of `k` repeat runs)
//! and gate at an absolute threshold drawn from that noise, floored so a
//! near-zero MAD cannot make it hair-trigger (see `Bound`). Wall and
//! throughput gates refuse to judge a run from a different environment
//! class (`cpus/threads/build`) and say so in a note; every other metric
//! is still gated.

use printed_telemetry::{keys, FieldValue, FlowTrace, JsonLine, RunManifest};

use printed_telemetry::json::{parse as parse_json, JsonValue};

/// Absolute floor of the calibrated wall gates, µs.
const WALL_FLOOR_US: u64 = 50_000;
/// MAD multiplier of every calibrated gate. 8 MADs ≈ 5.4σ for Gaussian
/// noise: far enough out that scheduler jitter essentially never fires
/// it, close enough that a real 2× regression always does.
const MAD_Z: f64 = 8.0;
/// Relative floor of the throughput and trials gates. Isolated kernel
/// drivers run for milliseconds, where cross-process load shifts of
/// 10–20% are routine and invisible to an in-process MAD; the
/// regressions worth gating are step changes, not jitter.
const REL_FLOOR: f64 = 0.25;
/// Slack of exact float comparisons. Floats round-trip bit-exactly
/// through NDJSON, so this is pure defence.
const EXACT_EPS: f64 = 1e-9;
/// JSON field of the calibration's repeat-run count.
const RUNS_FIELD: &str = "calib_runs";

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
    /// Gated against the baseline's repeat-run noise.
    Noise(Noise),
    /// Shown, never gated.
    Info,
}

/// A calibrated gate: where the baseline's median and MAD live, and how
/// the threshold is drawn from them.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Noise {
    /// JSON field of the calibration median (may be the value's own).
    median: &'static str,
    /// JSON field of the calibration MAD.
    mad: &'static str,
    /// Threshold shape.
    bound: Bound,
    /// Unit suffix of the values in verdict lines.
    unit: &'static str,
    /// The gate's name in an environment-class refusal; `None` = never
    /// refused.
    refused_as: Option<&'static str>,
    /// Whether a pass leaves a "within calibrated threshold" note.
    within_note: bool,
    /// Whether an uncalibrated baseline falls back to [`Policy::Regress`]
    /// instead of skipping the check.
    regress_uncalibrated: bool,
}

/// Threshold shapes of [`Noise`] gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bound {
    /// µs; fails above `median + max(WALL_FLOOR_US, MAD_Z·MAD)`.
    Wall,
    /// items/s; fails below `median − max(MAD_Z·MAD, REL_FLOOR·median)`.
    Throughput,
    /// Trials; fails above `median + max(MAD_Z·MAD, REL_FLOOR·median)`,
    /// and a lower value is noted against the record's `trials_budget`.
    Trials,
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
    /// What a refused timing gate leaves gated.
    still_gated: &'static str,
}

const BENCH_WALL: Policy = Policy::Noise(Noise {
    median: "wall_us_median",
    mad: "wall_us_mad",
    bound: Bound::Wall,
    unit: " µs",
    refused_as: Some("wall-time gate"),
    within_note: true,
    regress_uncalibrated: true,
});

const THROUGHPUT: Policy = Policy::Noise(Noise {
    median: "tp_median",
    mad: "tp_mad",
    bound: Bound::Throughput,
    unit: " items/s",
    refused_as: Some("throughput gate"),
    within_note: true,
    regress_uncalibrated: false,
});

const TRIALS: Policy = Policy::Noise(Noise {
    median: "trials_median",
    mad: "trials_mad",
    bound: Bound::Trials,
    unit: "",
    refused_as: None,
    within_note: false,
    regress_uncalibrated: false,
});

const CAMPAIGN_WALL: Policy = Policy::Noise(Noise {
    median: "wall_us_median",
    mad: "wall_us_mad",
    bound: Bound::Wall,
    unit: " µs",
    refused_as: Some("campaign wall gate"),
    within_note: false,
    regress_uncalibrated: false,
});

const CAMPAIGN: Policy = Policy::Exact("campaign metric");

const AXES: [AxisSpec; 3] = [
    AxisSpec {
        kind: "bench_stats",
        history_kind: "bench_history",
        key: &["dataset"],
        grid: true,
        metrics: &[
            spec("wall_us", "wall time", BENCH_WALL),
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
        still_gated: "deterministic metrics",
    },
    AxisSpec {
        kind: "kernel_stats",
        history_kind: "kernel_history",
        key: &["dataset", "kernel"],
        grid: false,
        metrics: &[
            spec("calls", "calls", Policy::Exact("invocation count")),
            spec("items", "items", Policy::Exact("work count")),
            spec("tp_median", "throughput", THROUGHPUT),
        ],
        history: &["calls", "items", "tp_median"],
        trend: &[("tp_median", "tp")],
        history_title: "kernel history",
        summary: ("hotpath", "kernels"),
        still_gated: "kernel work counts",
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
            spec("trials_median", "trials spent", TRIALS),
            spec("wall_us_median", "campaign wall", CAMPAIGN_WALL),
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
        still_gated: "deterministic metrics",
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

/// A noise calibration from `runs` repeat runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Calibration {
    /// Median of the samples.
    pub median: u64,
    /// Median absolute deviation of the samples.
    pub mad: u64,
    /// Number of samples (0 = uncalibrated).
    pub runs: u64,
}

impl Calibration {
    /// Calibrates from repeat-run samples via [`median_mad`].
    pub fn of(samples: &[u64]) -> Self {
        let (median, mad) = median_mad(samples);
        Self {
            median,
            mad,
            runs: samples.len() as u64,
        }
    }
}

/// One measured number of a record.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// JSON field, which names the metric in its axis table.
    pub field: &'static str,
    /// The value, `U64` or `F64` as written.
    pub value: FieldValue,
    /// Repeat-run noise, for metrics gated against it.
    pub calibration: Option<Calibration>,
}

impl Metric {
    /// An uncalibrated metric.
    pub fn new(field: &'static str, value: impl Into<FieldValue>) -> Self {
        Self {
            field,
            value: value.into(),
            calibration: None,
        }
    }

    /// A calibrated metric whose value is the calibration median.
    pub fn calibrated(field: &'static str, calibration: Calibration) -> Self {
        Self {
            field,
            value: FieldValue::U64(calibration.median),
            calibration: Some(calibration),
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
    /// The producing run: git SHA, timestamp, environment class and, on
    /// the bench axis, the sweep grid.
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
    /// peak RSS (when recorded). Uncalibrated.
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
    /// binaries have always written: kind, key, SHA, grid, metrics (each
    /// followed by its calibration), environment, timestamp.
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
        // Calibrations of one record share a single run count, written
        // once after the last calibrated metric.
        let last = self.metrics.iter().rposition(|m| m.calibration.is_some());
        for (i, metric) in self.metrics.iter().enumerate() {
            line = line.field(metric.field, &metric.value);
            let noise = self.axis.metric(metric.field).map(|s| s.policy);
            if let (Some(c), Some(Policy::Noise(noise))) = (metric.calibration, noise) {
                if noise.median != metric.field {
                    line = line.u64(noise.median, c.median);
                }
                line = line.u64(noise.mad, c.mad);
                if last == Some(i) {
                    line = line.u64(RUNS_FIELD, c.runs);
                }
            }
        }
        let p = &self.provenance;
        if p.env_class().is_some() {
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
                // A noise metric is calibrated exactly when its MAD is recorded.
                let calibration = match spec.policy {
                    Policy::Noise(noise) if get(noise.mad).is_some() => Some(Calibration {
                        median: int(noise.median),
                        mad: int(noise.mad),
                        runs: int(RUNS_FIELD),
                    }),
                    _ => None,
                };
                Some(Metric {
                    field: spec.field,
                    value,
                    calibration,
                })
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

/// Median and median-absolute-deviation of a sample, both in the
/// sample's unit. Even-length samples average the middle pair (rounding
/// down). Empty samples return `(0, 0)`.
pub fn median_mad(samples: &[u64]) -> (u64, u64) {
    fn median(sorted: &[u64]) -> u64 {
        match sorted.len() {
            0 => 0,
            n if n % 2 == 1 => sorted[n / 2],
            n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2,
        }
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let med = median(&sorted);
    let mut deviations: Vec<u64> = sorted.iter().map(|&x| x.abs_diff(med)).collect();
    deviations.sort_unstable();
    (med, median(&deviations))
}

/// Tolerance of the percentage gates: drift of the hardware numbers,
/// growth of Gini evals and of an uncalibrated bench wall time.
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
    /// Non-fatal observations (refusals, improvements, skipped checks).
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
            Policy::Noise(noise) => self.noise(spec, noise, tolerance),
            Policy::Exact(_) | Policy::Info => {}
        }
    }

    fn noise(&mut self, spec: &Spec, noise: Noise, tolerance: f64) {
        let label = spec.label;
        let cur = self.current.value(spec.field) as u64;
        let calibration = self
            .baseline
            .metric(spec.field)
            .and_then(|m| m.calibration)
            .filter(|c| c.runs > 0 && c.median > 0);
        let Some(Calibration { median, mad, runs }) = calibration else {
            if noise.regress_uncalibrated {
                let base = self.baseline.value(spec.field);
                let unit = noise.unit.trim();
                self.regress(&format!("{label} ({unit})"), base, cur as f64, tolerance);
            } else {
                self.notes
                    .push(format!("{label}: no calibrated baseline, check skipped"));
            }
            return;
        };
        let envs = (
            self.baseline.provenance.env_class(),
            self.current.provenance.env_class(),
        );
        if let (Some(gate), (Some(base_env), Some(cur_env))) = (noise.refused_as, envs) {
            if base_env != cur_env {
                self.notes.push(format!(
                    "{gate} REFUSED: environment class mismatch \
                     (baseline {base_env}, current {cur_env}) — {} still gated",
                    self.baseline.axis.spec().still_gated
                ));
                return;
            }
        }
        let scaled = (MAD_Z * mad as f64) as u64;
        let relative = (REL_FLOOR * median as f64) as u64;
        let floor_pct = REL_FLOOR * 100.0;
        let (threshold, failed, op, formula) = match noise.bound {
            Bound::Wall => {
                let threshold = median + WALL_FLOOR_US.max(scaled);
                let formula = format!("+ max({WALL_FLOOR_US} floor, {MAD_Z:.0}×MAD {mad})");
                (threshold, cur > threshold, ">", formula)
            }
            Bound::Throughput => {
                let threshold = median.saturating_sub(scaled.max(relative));
                let formula = format!("− max({MAD_Z:.0}×MAD {mad}, {floor_pct:.0}% floor)");
                (threshold, cur < threshold, "<", formula)
            }
            Bound::Trials => {
                let threshold = median + scaled.max(relative);
                let formula = format!("+ max({MAD_Z:.0}×MAD {mad}, {floor_pct:.0}% floor)");
                (threshold, cur > threshold, ">", formula)
            }
        };
        let unit = noise.unit;
        if failed {
            self.violations.push(format!(
                "{label} regressed: {cur}{unit} {op} {threshold}{unit} \
                 (median {median} {formula} from {runs} calibration runs)"
            ));
        } else if noise.within_note {
            self.notes.push(format!(
                "{label} {cur}{unit} within calibrated threshold {threshold}{unit} \
                 ({runs} runs, median {median}, MAD {mad})"
            ));
        } else if noise.bound == Bound::Trials && cur < median {
            self.notes.push(format!(
                "{label} improved: {median} → {cur} (budget {})",
                self.current.value("trials_budget")
            ));
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

    /// Renders verdicts as one GitHub-flavored markdown table, one row
    /// per key: the key fields, the current value of every deterministic
    /// metric, and baseline → current with Δ for every calibrated one.
    /// Meant for CI step summaries.
    pub fn render_table(verdicts: &[Verdict]) -> String {
        let Some(first) = verdicts.first() else {
            return String::new();
        };
        let spec = first.baseline.axis.spec();
        let mut header: Vec<String> = spec.key.iter().map(|k| k.to_string()).collect();
        let mut align = vec!["---"; header.len()];
        for metric in spec.metrics {
            if let Policy::Noise(noise) = metric.policy {
                let unit = noise.unit;
                header.extend([
                    format!("baseline{unit}"),
                    format!("current{unit}"),
                    "Δ".into(),
                ]);
                align.extend(["---:"; 3]);
            } else {
                header.push(metric.field.into());
                align.push("---:");
            }
        }
        let mut out = format!(
            "| {} | verdict |\n|{}|---|\n",
            header.join(" | "),
            align.join("|")
        );
        for verdict in verdicts {
            let (b, c) = (&verdict.baseline, &verdict.current);
            let mut row: Vec<String> = b.key.split('/').map(str::to_owned).collect();
            for metric in spec.metrics {
                let (base, cur) = (b.value(metric.field), c.value(metric.field));
                if let Policy::Noise(_) = metric.policy {
                    row.extend([base as u64, cur as u64].map(|v| v.to_string()));
                    row.push(percent(base, cur));
                } else {
                    row.push(c.shown(metric.field));
                }
            }
            let passed = if verdict.passed() {
                "pass"
            } else {
                "REGRESSION"
            };
            out.push_str(&format!("| {} | {passed} |\n", row.join(" | ")));
        }
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
/// catch.
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

    /// Overwrites the value of `field`, keeping its calibration.
    fn set(mut record: BenchRecord, field: &str, value: impl Into<FieldValue>) -> BenchRecord {
        let metric = record.metrics.iter_mut().find(|m| m.field == field);
        metric.expect("metric present").value = value.into();
        record
    }

    /// Overwrites the calibration of `field`.
    fn calibrate(mut record: BenchRecord, field: &str, c: Option<Calibration>) -> BenchRecord {
        let metric = record.metrics.iter_mut().find(|m| m.field == field);
        metric.expect("metric present").calibration = c;
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

    fn calibrated() -> BenchRecord {
        let wall = Calibration::of(&[98_000, 100_000, 101_000, 104_000, 99_000]);
        let mut s = stats()
            .with(Metric::calibrated("wall_us", wall))
            .with(Metric::new("peak_rss_kb", 40_000u64));
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
    fn wall_regression_past_tolerance_fails() {
        let base = stats();
        let cur = set(stats(), "wall_us", 106_000u64); // +6% > 5%
        let report = gate(&base, &cur);
        assert!(!report.passed());
        assert!(
            report.violations[0].contains("wall time"),
            "{:?}",
            report.violations
        );
        // Within tolerance passes.
        let cur = set(stats(), "wall_us", 104_000u64);
        assert!(gate(&base, &cur).passed());
    }

    #[test]
    fn faster_is_a_note_not_a_violation() {
        let base = stats();
        let cur = set(stats(), "wall_us", 50_000u64);
        let report = gate(&base, &cur);
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
    fn median_mad_handles_odd_even_and_empty() {
        assert_eq!(median_mad(&[]), (0, 0));
        assert_eq!(median_mad(&[7]), (7, 0));
        assert_eq!(median_mad(&[1, 3]), (2, 1));
        // Median 100, deviations [2,1,0,1,4] → sorted [0,1,1,2,4] → MAD 1.
        assert_eq!(median_mad(&[98, 99, 100, 101, 104]), (100, 1));
    }

    #[test]
    fn calibration_fills_the_trio_and_the_value() {
        let c = Calibration::of(&[98_000, 100_000, 101_000, 104_000, 99_000]);
        assert_eq!(
            c,
            Calibration {
                median: 100_000,
                mad: 1_000,
                runs: 5
            }
        );
        let metric = Metric::calibrated("wall_us", c);
        assert_eq!(metric.value, FieldValue::U64(100_000));
        // Empty samples calibrate nothing.
        assert_eq!(Calibration::of(&[]), Calibration::default());
    }

    #[test]
    fn calibrated_gate_uses_the_mad_threshold() {
        let base = calibrated(); // median 100_000, MAD 1_000
                                 // Threshold = 100_000 + max(50_000 floor, 8×1_000) = 150_000.
        assert!(gate(&base, &set(calibrated(), "wall_us", 150_000u64)).passed());
        let report = gate(&base, &set(calibrated(), "wall_us", 150_001u64));
        assert!(!report.passed());
        assert!(
            report.violations[0].contains("calibration runs"),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn mad_dominates_when_above_the_floor() {
        let wide = Calibration {
            median: 100_000,
            mad: 20_000, // 8×20_000 = 160_000 > 50_000 floor
            runs: 5,
        };
        let base = calibrate(calibrated(), "wall_us", Some(wide));
        // Under 100_000 + 160_000.
        assert!(gate(&base, &set(calibrated(), "wall_us", 255_000u64)).passed());
        assert!(!gate(&base, &set(calibrated(), "wall_us", 265_000u64)).passed());
    }

    #[test]
    fn env_mismatch_refuses_the_wall_gate_but_keeps_deterministic_gates() {
        let base = calibrated();
        // Way past any threshold — but unjudgeable.
        let cur = env(set(calibrated(), "wall_us", 10_000_000u64), 2);
        let report = gate(&base, &cur);
        assert!(report.passed(), "{:?}", report.violations);
        assert!(
            report.notes.iter().any(|n| n.contains("REFUSED")),
            "{:?}",
            report.notes
        );
        // Deterministic metrics still fire on the mismatched-env pair.
        assert!(!gate(&base, &set(cur, "area_mm2", 20.0)).passed());
    }

    #[test]
    fn uncalibrated_baseline_falls_back_to_percentage() {
        let base = stats(); // no calibration
        assert!(!gate(&base, &set(stats(), "wall_us", 106_000u64)).passed());
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
    fn calibrated_stats_json_round_trips() {
        let original = calibrated();
        let json = original.to_json();
        assert!(json.contains(r#""wall_us_median":100000"#), "{json}");
        assert!(json.contains(r#""calib_runs":5"#), "{json}");
        assert!(json.contains(r#""peak_rss_kb":40000"#), "{json}");
        assert!(json.contains(r#""build":"release""#), "{json}");
        let (parsed, _) = BenchRecord::parse_all(&json);
        assert_eq!(parsed, vec![original]);
    }

    #[test]
    fn uncalibrated_json_omits_the_new_fields() {
        let json = stats().to_json();
        assert!(!json.contains("wall_us_median"), "{json}");
        assert!(!json.contains("peak_rss_kb"), "{json}");
        assert!(!json.contains("cpus"), "{json}");
    }

    #[test]
    fn parse_all_reads_a_whole_suite() {
        let a = calibrated();
        let mut b = calibrated();
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
        assert_eq!(
            record.provenance.env_class().as_deref(),
            Some("8cpu/auto/release")
        );
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
        // Median 1_000_000, deviations [20k, 10k, 0, 10k, 30k] → MAD 10k.
        let tp = Calibration::of(&[980_000, 990_000, 1_000_000, 1_010_000, 1_030_000]);
        let metrics = vec![
            Metric::new("calls", 7u64),
            Metric::new("items", 1_610u64),
            Metric::calibrated("tp_median", tp),
        ];
        BenchRecord::new(
            Axis::Kernel,
            format!("{dataset}/{name}"),
            provenance,
            metrics,
        )
    }

    fn tp_mad(record: BenchRecord, mad: u64) -> BenchRecord {
        let c = record.metric("tp_median").unwrap().calibration.unwrap();
        calibrate(record, "tp_median", Some(Calibration { mad, ..c }))
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
    fn kernel_table_renders_one_markdown_row_per_pair() {
        let base = kernel("Seeds", "gini_scan");
        let cur = set(kernel("Seeds", "gini_scan"), "tp_median", 2_000_000u64); // 2×
        let table = Verdict::render_table(&diff_one(&base, &cur));
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3, "header + separator + one row:\n{table}");
        assert!(lines[0].starts_with("| dataset | kernel |"));
        assert!(lines[2].contains("| Seeds | gini_scan |"));
        assert!(lines[2].contains("| 1000000 | 2000000 | +100.0% | pass |"));
        // A regressed pair renders its verdict in the same row shape.
        let base = tp_mad(kernel("Seeds", "gini_scan"), 0);
        let cur = set(kernel("Seeds", "gini_scan"), "tp_median", 100_000u64);
        let table = Verdict::render_table(&diff_one(&base, &cur));
        assert!(table.contains("| -90.0% | REGRESSION |"), "{table}");
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
    fn kernel_throughput_gates_at_median_minus_mad_slack() {
        // Median 1_000_000; 8×40_000 = 320_000 > 25% floor 250_000.
        let base = tp_mad(kernel("Seeds", "gini_scan"), 40_000);
        let cur = set(kernel("Seeds", "gini_scan"), "tp_median", 680_000u64);
        let reports = diff_one(&base, &cur);
        assert!(reports[0].passed(), "{:?}", reports[0].violations);
        let cur = set(kernel("Seeds", "gini_scan"), "tp_median", 679_999u64);
        let reports = diff_one(&base, &cur);
        assert!(!reports[0].passed());
        assert!(
            reports[0].violations[0].contains("throughput regressed"),
            "{:?}",
            reports[0].violations
        );
        assert!(reports[0].render_text().contains("verdict: REGRESSION"));
        // A faster run sails through.
        let cur = set(kernel("Seeds", "gini_scan"), "tp_median", 2_000_000u64);
        assert!(diff_one(&base, &cur)[0].passed());
    }

    #[test]
    fn kernel_relative_floor_dominates_a_tiny_mad() {
        // 8×0 = 0 < 25%×1_000_000 = 250_000 floor.
        let base = tp_mad(kernel("Seeds", "gini_scan"), 0);
        let cur = set(kernel("Seeds", "gini_scan"), "tp_median", 750_000u64);
        let reports = diff_one(&base, &cur);
        assert!(reports[0].passed(), "{:?}", reports[0].violations);
        let cur = set(kernel("Seeds", "gini_scan"), "tp_median", 749_999u64);
        assert!(!diff_one(&base, &cur)[0].passed());
    }

    #[test]
    fn kernel_env_mismatch_refuses_throughput_but_keeps_counts() {
        let base = kernel("Seeds", "gini_scan");
        // Absurdly slow — but unjudgeable cross-env.
        let cur = env(set(kernel("Seeds", "gini_scan"), "tp_median", 1u64), 2);
        let reports = diff_one(&base, &cur);
        assert!(reports[0].passed(), "{:?}", reports[0].violations);
        assert!(
            reports[0].notes.iter().any(|n| n.contains("REFUSED")),
            "{:?}",
            reports[0].notes
        );
        // The deterministic counts still fire on the mismatched pair.
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

    #[test]
    fn kernel_uncalibrated_baseline_skips_throughput() {
        let base = set(
            calibrate(kernel("Seeds", "gini_scan"), "tp_median", None),
            "tp_median",
            0u64,
        );
        let cur = set(kernel("Seeds", "gini_scan"), "tp_median", 1u64);
        let reports = diff_one(&base, &cur);
        assert!(reports[0].passed());
        assert!(reports[0].notes.iter().any(|n| n.contains("skipped")));
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
        // trials median 120 MAD 0; wall median 80_000 MAD 1_000.
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
            Metric::calibrated("trials_median", Calibration::of(&[120, 120, 120])),
            Metric::calibrated("wall_us_median", Calibration::of(&[79_000, 80_000, 81_000])),
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
        let base = robust("Seeds"); // trials median 120, MAD 0
                                    // Threshold = 120 + max(8×0, 25%×120 = 30) = 150.
        let reports = diff_one(&base, &set(robust("Seeds"), "trials_median", 150u64));
        assert!(reports[0].passed(), "{:?}", reports[0].violations);
        let reports = diff_one(&base, &set(robust("Seeds"), "trials_median", 151u64));
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
    fn robust_wall_gate_is_calibrated_and_env_refused() {
        let base = robust("Seeds"); // wall median 80_000, MAD 1_000
                                    // Threshold = 80_000 + max(50_000 floor, 8×1_000) = 130_000.
        let reports = diff_one(&base, &set(robust("Seeds"), "wall_us_median", 130_000u64));
        assert!(reports[0].passed(), "{:?}", reports[0].violations);
        let reports = diff_one(&base, &set(robust("Seeds"), "wall_us_median", 130_001u64));
        assert!(!reports[0].passed());
        assert!(
            reports[0].violations[0].contains("campaign wall regressed"),
            "{:?}",
            reports[0].violations
        );
        // Cross-environment: the wall gate refuses, deterministic gates stay.
        let cur = env(set(robust("Seeds"), "wall_us_median", 10_000_000u64), 2);
        let reports = diff_one(&base, &cur);
        assert!(reports[0].passed(), "{:?}", reports[0].violations);
        assert!(reports[0].notes.iter().any(|n| n.contains("REFUSED")));
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

    #[test]
    fn robust_uncalibrated_baseline_skips_timing_gates() {
        let mut base = robust("Seeds");
        for field in ["trials_median", "wall_us_median"] {
            base = set(calibrate(base, field, None), field, 0u64);
        }
        let cur = set(robust("Seeds"), "trials_median", 1_000_000u64);
        let cur = set(cur, "wall_us_median", 1_000_000u64);
        let reports = diff_one(&base, &cur);
        assert!(reports[0].passed(), "{:?}", reports[0].violations);
        assert_eq!(
            reports[0]
                .notes
                .iter()
                .filter(|n| n.contains("skipped"))
                .count(),
            2
        );
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
        let tp = parsed[0].metric("tp_median").unwrap().calibration.unwrap();
        let metrics = vec![
            Metric::new("calls", parsed[0].value("calls") as u64),
            Metric::new("items", parsed[0].value("items") as u64),
            Metric::calibrated("tp_median", tp),
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
        let calibration = |f: &str| r.metric(f).unwrap().calibration.unwrap();
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
            Metric::calibrated("trials_median", calibration("trials_median")),
            Metric::calibrated("wall_us_median", calibration("wall_us_median")),
        ];
        let built = BenchRecord::new(Axis::Robust, &r.key, r.provenance.clone(), metrics);
        assert_eq!(built.to_json(), robust);
    }
}
