//! # printed-lint
//!
//! Static analysis over synthesized co-designs.
//!
//! The co-design flow emits structural artifacts — per-class two-level
//! covers over unary literals, a prefix-shared netlist, a bespoke ADC
//! bank, and a cost report — whose correctness rests on invariants the
//! paper argues but nothing re-checks per design: thermometer
//! monotonicity (`U_k ⇒ U_j` for `j < k`), retained-tap sufficiency,
//! one-hot class outputs, and the component-sum cost identity. This crate
//! proves (or refutes) those invariants *statically* for one design at a
//! time, the way a compiler lints its IR.
//!
//! * [`LintTarget`] — the design under analysis (tree, netlist, bank,
//!   literals, covers, reported cost, grid).
//! * [`Lint`] — one analysis pass; [`Linter`] is the registry of the
//!   built-in suite, each pass reporting at its own severity.
//! * [`Diagnostic`] / [`LintReport`] — findings with code, severity,
//!   locus, message, and suggestion, renderable as a text table or NDJSON.
//! * [`fix::fix`] — a fixpoint rewriter that consumes A002/C001
//!   diagnostics, drops the dead comparators, re-derives the cost, and
//!   proves the repaired design equivalent on the feasible domain.
//!
//! ## Diagnostic codes
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | U001 | warning  | cube contradictory under thermometer monotonicity (unreachable, wasted area) |
//! | U002 | warning  | literal dominated by a same-feature literal in the same cube |
//! | A001 | error    | netlist/cover reads a tap with no retained comparator |
//! | A002 | warning  | retained comparator never read by any cube (dead hardware) |
//! | C001 | error    | reported ADC cost drifts from the component sum |
//! | L001 | error    | two class outputs can assert together on a thermometer-feasible input |
//! | T001 | error    | tree path not reflected in the covers, or netlist differs from the tree on the feasible domain |
//! | G001 | warning  | exploration-grid hygiene (duplicate τ after `to_bits`, empty ranges, seed collisions) |
//! | P001 | error    | pruned-ladder tap voltages (MNA-solved) drift from the ideal references, or bank/model resolutions disagree |
//! | P002 | error    | comparator reference ordering disagrees with the retained thresholds or the netlist wiring |
//! | P003 | warning  | a retained reference lacks margin under worst-case supply sag |
//!
//! One-hot checking (L001) needs no SAT solver: under thermometer
//! monotonicity a cube constrains each feature to an interval
//! `max(positive taps) ≤ x < min(negative taps)`, so a cube pair
//! intersects on the feasible domain iff every per-feature interval is
//! non-empty. Each cube's intervals are built once per run as a box
//! sorted by feature, and each cross-class pair is a merge walk over two
//! boxes — an `O(cubes² · features)` scan with no allocation per pair.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fix;
pub mod passes;

use printed_adc::{AdcCost, BespokeAdcBank};
use printed_dtree::DecisionTree;
use printed_logic::netlist::Netlist;
use printed_logic::sop::Sop;
use printed_pdk::AnalogModel;
use printed_telemetry::JsonLine;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not wrong: wasted hardware, hygiene issues.
    Warning,
    /// The design violates an invariant the system depends on.
    Error,
}

impl Severity {
    /// Lower-case label used in renderings.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// The lint policy: every pass reports at its built-in severity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintConfig;

impl LintConfig {
    /// The default (and only) policy.
    pub fn new() -> Self {
        Self
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code (`U001`, `A002`, …).
    pub code: String,
    /// How bad the finding is (the emitting pass's severity).
    pub severity: Severity,
    /// Where in the design the finding anchors (`class0 cube2`,
    /// `adc x3 tap 9`, `grid`).
    pub locus: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when the pass knows.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Builds a diagnostic without a suggestion.
    pub fn new(
        code: &str,
        severity: Severity,
        locus: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Self {
            code: code.to_owned(),
            severity,
            locus: locus.into(),
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attaches a fix suggestion (builder-style).
    pub fn suggest(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }
}

/// The design under analysis. Passes read only what they need; optional
/// fields gate the passes that require them (no tree → no T001, no grid →
/// no G001, no reported cost → no C001).
pub struct LintTarget<'a> {
    /// The trained decision tree the design was synthesized from.
    pub tree: Option<&'a DecisionTree>,
    /// The synthesized gate-level netlist (inputs named `u{feature}_{tap}`
    /// in `literals` order, one output per class).
    pub netlist: &'a Netlist,
    /// The bespoke ADC bank feeding the netlist.
    pub bank: &'a BespokeAdcBank,
    /// Variable order of the covers: variable `v` is the unary digit
    /// `U_tap` of `feature`, ascending by `(feature, tap)`.
    pub literals: &'a [(usize, u8)],
    /// One two-level cover per class, over the variables above.
    pub class_sops: &'a [Sop],
    /// The ADC cost the design reports (checked against the component
    /// sum by C001).
    pub reported_adc: Option<&'a AdcCost>,
    /// Analog model used to price the bank.
    pub model: &'a AnalogModel,
    /// The exploration grid that produced the design (G001).
    pub grid: Option<GridRef<'a>>,
    /// Worst-case supply-droop parameters (P003). `None` skips the
    /// sag-margin pass.
    pub droop: Option<DroopRef>,
    /// Cap on the feasible patterns T001's equivalence leg checks.
    /// `None` runs the full budget (exhaustive up to 2^16 patterns,
    /// 4096 seeded samples beyond). In-flow whole-grid linting sets a
    /// small cap so per-candidate cost stays bounded — the selected
    /// design is always re-checked at full budget by the flow's lint
    /// stage.
    pub equiv_budget: Option<usize>,
}

/// Worst-case supply-droop parameters, decoupled from
/// `printed-codesign`'s `SupplyDroopModel` so the linter stays upstream
/// of it. All values are normalized to the full supply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DroopRef {
    /// Largest supply sag fraction the harvester allows
    /// (`1 − V_min / V_full`).
    pub max_sag: f64,
    /// Reference-voltage leak per unit sag: a normalized threshold `t`
    /// droops to `t · (1 − vref_leak · sag)`.
    pub vref_leak: f64,
    /// Comparator offset drift per unit sag, in full-scale units.
    pub offset_per_sag: f64,
}

/// A borrowed view of an exploration grid, decoupled from
/// `printed-codesign`'s config type so the linter stays upstream of it.
#[derive(Debug, Clone, Copy)]
pub struct GridRef<'a> {
    /// Gini-slack values of the sweep.
    pub taus: &'a [f64],
    /// Depth caps of the sweep.
    pub depths: &'a [usize],
    /// Base RNG seed of the sweep.
    pub seed: u64,
}

/// One analysis pass.
pub trait Lint {
    /// Stable diagnostic code this pass emits (`U001`, …).
    fn code(&self) -> &'static str;
    /// One-line description of what the pass checks.
    fn description(&self) -> &'static str;
    /// Severity the pass's findings carry.
    fn default_severity(&self) -> Severity;
    /// Runs the pass, appending findings to `out`.
    fn run(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>);
}

/// The pass registry: the built-in suite.
pub struct Linter {
    passes: Vec<Box<dyn Lint>>,
}

impl Default for Linter {
    fn default() -> Self {
        Self::new()
    }
}

impl Linter {
    /// All built-in passes at their default severities.
    pub fn new() -> Self {
        Self {
            passes: passes::builtin(),
        }
    }

    /// All built-in passes under `config` (the same as [`Linter::new`]).
    pub fn with_config(_config: LintConfig) -> Self {
        Self::new()
    }

    /// Runs every pass over `target` and returns the report.
    pub fn run(&self, target: &LintTarget<'_>) -> LintReport {
        let mut diagnostics = Vec::new();
        for pass in &self.passes {
            pass.run(target, &mut diagnostics);
        }
        LintReport { diagnostics }
    }
}

/// The findings of one [`Linter::run`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintReport {
    /// All findings, in pass-registration order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// True when any error-severity finding exists.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// The findings carrying `code`.
    pub fn with_code<'s>(&'s self, code: &'s str) -> impl Iterator<Item = &'s Diagnostic> + 's {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Renders the report as an aligned text table (one line per finding,
    /// suggestions indented under their finding).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "lint: {} diagnostic(s) ({} error(s), {} warning(s))\n",
            self.diagnostics.len(),
            self.error_count(),
            self.warning_count(),
        ));
        let locus_width = self
            .diagnostics
            .iter()
            .map(|d| d.locus.len())
            .max()
            .unwrap_or(0);
        for d in &self.diagnostics {
            out.push_str(&format!(
                "  {} {:<7} {:<locus_width$}  {}\n",
                d.code,
                d.severity.label(),
                d.locus,
                d.message,
            ));
            if let Some(suggestion) = &d.suggestion {
                out.push_str(&format!(
                    "  {:locus_width$}           suggestion: {}\n",
                    "", suggestion,
                ));
            }
        }
        out
    }

    /// Serializes the report as NDJSON, one `{"kind":"lint",…}` line per
    /// finding, through the workspace's JSON codec
    /// ([`printed_telemetry::json`]).
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let mut line = JsonLine::new()
                .str("kind", "lint")
                .str("code", &d.code)
                .str("severity", d.severity.label())
                .str("locus", &d.locus)
                .str("message", &d.message);
            if let Some(suggestion) = &d.suggestion {
                line = line.str("suggestion", suggestion);
            }
            out.push_str(&line.finish());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(code: &str, severity: Severity) -> Diagnostic {
        Diagnostic::new(code, severity, "here", "something")
    }

    #[test]
    fn report_counts_and_rendering() {
        let report = LintReport {
            diagnostics: vec![
                diag("A001", Severity::Error).suggest("retain the comparator"),
                diag("U002", Severity::Warning),
            ],
        };
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.warning_count(), 1);
        assert!(report.has_errors());
        assert_eq!(report.with_code("A001").count(), 1);
        let text = report.render_text();
        assert!(
            text.contains("2 diagnostic(s) (1 error(s), 1 warning(s))"),
            "{text}"
        );
        assert!(text.contains("A001 error"), "{text}");
        assert!(text.contains("suggestion: retain the comparator"), "{text}");
        let ndjson = report.to_ndjson();
        assert_eq!(ndjson.lines().count(), 2);
        assert!(ndjson.contains(r#""kind":"lint""#), "{ndjson}");
        assert!(ndjson.contains(r#""code":"A001""#), "{ndjson}");
        assert!(ndjson.contains(r#""suggestion":"retain the comparator""#));
        // The warning line omits the absent suggestion key entirely.
        assert!(!ndjson.lines().nth(1).unwrap().contains("suggestion"));
    }

    #[test]
    fn ndjson_lines_parse_back_with_every_field_intact() {
        use printed_telemetry::json::{parse, JsonValue};

        let tricky = "quote \" backslash \\ newline\n tab\t 2.5 µW";
        let report = LintReport {
            diagnostics: vec![
                Diagnostic::new("P003", Severity::Error, "ladder \"tap\" 3\\7", tricky)
                    .suggest("lower vref by 40 µV\nthen re-lint"),
                Diagnostic::new("U002", Severity::Warning, "class µ", "plain"),
            ],
        };
        let ndjson = report.to_ndjson();
        let lines: Vec<&str> = ndjson.lines().collect();
        assert_eq!(lines.len(), report.diagnostics.len(), "{ndjson}");
        for (line, d) in lines.iter().zip(&report.diagnostics) {
            let value = parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            let field = |key: &str| value.get(key).and_then(JsonValue::as_str);
            assert_eq!(field("kind"), Some("lint"));
            assert_eq!(field("code"), Some(d.code.as_str()));
            assert_eq!(field("severity"), Some(d.severity.label()));
            assert_eq!(field("locus"), Some(d.locus.as_str()));
            assert_eq!(field("message"), Some(d.message.as_str()));
            assert_eq!(field("suggestion"), d.suggestion.as_deref());
        }
    }

    #[test]
    fn empty_report_is_clean() {
        let report = LintReport::default();
        assert!(!report.has_errors());
        assert!(report.render_text().contains("0 diagnostic(s)"));
        assert_eq!(report.to_ndjson(), "");
    }

    #[test]
    fn registry_lists_the_documented_codes() {
        let codes: Vec<&str> = passes::builtin().iter().map(|p| p.code()).collect();
        for expected in [
            "U001", "U002", "A001", "A002", "C001", "L001", "T001", "G001", "P001", "P002", "P003",
        ] {
            assert!(codes.contains(&expected), "missing {expected}");
        }
        assert_eq!(codes.len(), 11);
    }
}
