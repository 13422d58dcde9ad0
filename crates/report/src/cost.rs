//! Hardware-cost attribution: who spends the foil area and the harvested
//! microwatts.
//!
//! A [`CostReport`] breaks the selected design down along the two axes the
//! paper optimizes — the bespoke ADC bank (per-input comparator share) and
//! the two-level unary classifier (per-class cover size, AND/OR tallies) —
//! and renders the verdict against the printed energy harvester's 2 mW
//! budget ([`printed_pdk::HARVESTER_BUDGET`]).
//!
//! The report has one construction path, [`CostReport::from_trace`]: it
//! reads a recorded [`FlowTrace`] — a live run's (`FlowOutcome::trace` of a
//! traced flow) or one parsed back from NDJSON by
//! [`crate::parse::parse_trace`], which is what the `printed-trace` CLI
//! uses.

use printed_pdk::HARVESTER_BUDGET;
use printed_telemetry::{keys, EventRecord, FieldValue, FlowTrace};

/// One bespoke ADC (one tree input feature) and its share of the bank.
#[derive(Debug, Clone, PartialEq)]
pub struct AdcRow {
    /// Input feature index.
    pub feature: u64,
    /// Distinct thresholds the tree compares this feature against.
    pub taps: u64,
    /// Comparators retained for this input.
    pub comparators: u64,
    /// This input's area share, mm².
    pub area_mm2: f64,
    /// This input's static-power share, µW.
    pub power_uw: f64,
}

/// One class output of the unary classifier and its two-level cover size.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassRow {
    /// Class label index.
    pub class: u64,
    /// Product terms (cubes) in the class's sum-of-products cover.
    pub cubes: u64,
    /// Total literals across those cubes — the gate-input cost proxy.
    pub literals: u64,
}

/// One sweep candidate's robustness-campaign profile.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustRow {
    /// Gini slack τ of the profiled candidate.
    pub tau: f64,
    /// Depth cap of the profiled candidate.
    pub depth: u64,
    /// Accuracy with ideal thresholds on the analog test split.
    pub nominal: f64,
    /// Mean accuracy over the mismatch Monte-Carlo trials.
    pub mean_mismatch: f64,
    /// Accuracy under the most damaging single stuck-at fault.
    pub worst_fault: f64,
    /// Largest relative supply sag tolerated.
    pub droop_margin: f64,
    /// Parametric-yield estimate.
    pub yield_est: f64,
}

/// One static-analysis finding over the selected design.
#[derive(Debug, Clone, PartialEq)]
pub struct LintRow {
    /// Diagnostic code (`U001`, `A002`, …).
    pub code: String,
    /// Severity label (`"error"` or `"warning"`).
    pub severity: String,
    /// Where the finding anchors (cube, input name, bank, …).
    pub locus: String,
    /// Human-readable explanation.
    pub message: String,
}

/// One cell of the sweep-wide lint matrix: a diagnostic code, its
/// severity, and its grid-wide tally.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepLintRow {
    /// Diagnostic code (`U001`, `A002`, …).
    pub code: String,
    /// Severity label (`"error"` or `"warning"`).
    pub severity: String,
    /// Total findings with this code across every linted grid candidate.
    pub findings: u64,
    /// How many grid candidates fired this code at least once.
    pub candidates: u64,
}

/// The grid candidate with the most findings (errors first, then
/// warnings; ties resolve to the smallest `(depth, τ)`).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepLintWorst {
    /// Gini slack τ of the worst candidate.
    pub tau: f64,
    /// Depth cap of the worst candidate.
    pub depth: u64,
    /// Error-severity findings on that candidate.
    pub errors: u64,
    /// Warning-severity findings on that candidate.
    pub warnings: u64,
}

/// Rollup of the whole-grid in-flow lint the sweep workers performed:
/// per-candidate verdict totals plus the code × severity matrix.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepLint {
    /// Grid candidates the sweep linted in-flow.
    pub candidates: u64,
    /// Error-severity findings across the whole grid.
    pub errors: u64,
    /// Warning-severity findings across the whole grid.
    pub warnings: u64,
    /// Code × severity tallies, ascending by code then severity.
    pub matrix: Vec<SweepLintRow>,
    /// The noisiest candidate, absent when every candidate linted clean.
    pub worst: Option<SweepLintWorst>,
}

impl SweepLint {
    /// Considers one candidate's verdict for the worst-candidate slot.
    /// Deterministic regardless of visit order: more errors wins, then
    /// more warnings, then the smaller `(depth, τ)` coordinate.
    fn consider_worst(&mut self, tau: f64, depth: u64, errors: u64, warnings: u64) {
        if errors == 0 && warnings == 0 {
            return;
        }
        let replace = match &self.worst {
            None => true,
            Some(w) => {
                use std::cmp::Ordering;
                match (errors, warnings).cmp(&(w.errors, w.warnings)) {
                    Ordering::Greater => true,
                    Ordering::Less => false,
                    Ordering::Equal => {
                        (depth, tau.to_bits()).cmp(&(w.depth, w.tau.to_bits())) == Ordering::Less
                    }
                }
            }
        };
        if replace {
            self.worst = Some(SweepLintWorst {
                tau,
                depth,
                errors,
                warnings,
            });
        }
    }
}

/// The selected grid point's headline numbers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectedDesign {
    /// Gini slack τ.
    pub tau: f64,
    /// Depth cap.
    pub depth: u64,
    /// Test accuracy.
    pub accuracy: f64,
    /// Total system area, mm².
    pub area_mm2: f64,
    /// Total system power, mW.
    pub power_mw: f64,
    /// Retained comparators.
    pub comparators: u64,
}

/// The assembled attribution report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostReport {
    /// Run title (benchmark or binary name).
    pub title: String,
    /// The chosen design's headline numbers, if a selection was recorded.
    pub selected: Option<SelectedDesign>,
    /// Per-input ADC breakdown, in feature order.
    pub adcs: Vec<AdcRow>,
    /// Per-class logic breakdown, in class order.
    pub classes: Vec<ClassRow>,
    /// Comparators the bespoke bank keeps.
    pub comparators_retained: u64,
    /// Flash-ADC comparators the pruning eliminated (`inputs × (2^b − 1)`
    /// minus retained).
    pub comparators_dropped: u64,
    /// Printed resistors in the shared pruned reference ladder.
    pub ladder_resistors: u64,
    /// AND-family gates (AND/NAND 2–4) in the synthesized classifier.
    pub and_gates: u64,
    /// OR-family gates (OR/NOR 2–4) in the synthesized classifier.
    pub or_gates: u64,
    /// Algorithm 1 split selections by cost class `(S_Z, S_M, S_H)`.
    pub splits: (u64, u64, u64),
    /// Gini evaluations across the whole sweep.
    pub gini_evals: u64,
    /// Trees trained across the whole sweep.
    pub trees: u64,
    /// Candidates derived by truncating a shared per-τ tree instead of
    /// training (the prefix-shared sweep engine's savings).
    pub trees_shared: u64,
    /// Robustness-campaign profiles, in `(depth, τ)` order; empty when no
    /// campaign ran.
    pub robustness: Vec<RobustRow>,
    /// Sweep grid points that panicked and were isolated.
    pub failed_candidates: u64,
    /// Static-analysis findings over the selected design; empty when the
    /// lint stage found nothing (or never ran).
    pub lint: Vec<LintRow>,
    /// Error-severity findings among [`CostReport::lint`].
    pub lint_errors: u64,
    /// The whole-grid in-flow lint rollup (zero candidates when the
    /// sweep predates grid lint or was never traced).
    pub sweep_lint: SweepLint,
}

impl CostReport {
    /// Builds the report from a recorded trace (counters + `adc` /
    /// `class_logic` / `selected` events). Fields that were never
    /// recorded stay at their zero/empty defaults.
    pub fn from_trace(trace: &FlowTrace) -> Self {
        let u64_of =
            |e: &EventRecord, key: &str| e.field(key).and_then(FieldValue::as_u64).unwrap_or(0);
        let f64_of =
            |e: &EventRecord, key: &str| e.field(key).and_then(FieldValue::as_f64).unwrap_or(0.0);
        let adcs = trace
            .events
            .iter()
            .filter(|e| e.name == keys::ADC_EVENT)
            .map(|e| AdcRow {
                feature: u64_of(e, "feature"),
                taps: u64_of(e, "taps"),
                comparators: u64_of(e, "comparators"),
                area_mm2: f64_of(e, "area_mm2"),
                power_uw: f64_of(e, "power_uw"),
            })
            .collect();
        let classes = trace
            .events
            .iter()
            .filter(|e| e.name == keys::CLASS_EVENT)
            .map(|e| ClassRow {
                class: u64_of(e, "class"),
                cubes: u64_of(e, "cubes"),
                literals: u64_of(e, "literals"),
            })
            .collect();
        let selected = trace
            .events
            .iter()
            .find(|e| e.name == keys::SELECTED_EVENT)
            .map(|e| SelectedDesign {
                tau: f64_of(e, "tau"),
                depth: u64_of(e, "depth"),
                accuracy: f64_of(e, "accuracy"),
                area_mm2: f64_of(e, "area_mm2"),
                power_mw: f64_of(e, "power_mw"),
                comparators: u64_of(e, "comparators"),
            });
        let span_u64 = |s: &printed_telemetry::SpanRecord, key: &str| {
            s.field(key).and_then(FieldValue::as_u64).unwrap_or(0)
        };
        let span_f64 = |s: &printed_telemetry::SpanRecord, key: &str| {
            s.field(key).and_then(FieldValue::as_f64).unwrap_or(0.0)
        };
        let mut robustness: Vec<RobustRow> = trace
            .spans
            .iter()
            .filter(|s| s.name == keys::ROBUST_SPAN)
            .map(|s| RobustRow {
                tau: span_f64(s, "tau"),
                depth: span_u64(s, "depth"),
                nominal: span_f64(s, "nominal"),
                mean_mismatch: span_f64(s, "mean_mismatch"),
                worst_fault: span_f64(s, "worst_fault"),
                droop_margin: span_f64(s, "droop_margin"),
                yield_est: span_f64(s, "yield_est"),
            })
            .collect();
        // Campaign workers finish in parallel order; present grid order.
        robustness.sort_by(|a, b| a.depth.cmp(&b.depth).then(a.tau.total_cmp(&b.tau)));
        let str_of = |e: &EventRecord, key: &str| {
            e.field(key)
                .and_then(FieldValue::as_str)
                .unwrap_or("")
                .to_owned()
        };
        let lint: Vec<LintRow> = trace
            .events
            .iter()
            .filter(|e| e.name == keys::LINT_EVENT)
            .map(|e| LintRow {
                code: str_of(e, "code"),
                severity: str_of(e, "severity"),
                locus: str_of(e, "locus"),
                message: str_of(e, "message"),
            })
            .collect();
        let mut sweep_lint = SweepLint::default();
        let mut matrix: std::collections::BTreeMap<(String, String), (u64, u64)> =
            std::collections::BTreeMap::new();
        for e in trace
            .events
            .iter()
            .filter(|e| e.name == keys::LINT_CANDIDATE_EVENT)
        {
            let errors = u64_of(e, "errors");
            let warnings = u64_of(e, "warnings");
            sweep_lint.candidates += 1;
            sweep_lint.errors += errors;
            sweep_lint.warnings += warnings;
            sweep_lint.consider_worst(f64_of(e, "tau"), u64_of(e, "depth"), errors, warnings);
            // The `codes` field is the compact per-candidate tally:
            // `code:severity=count` entries joined with `;`.
            for entry in str_of(e, "codes").split(';').filter(|s| !s.is_empty()) {
                let Some((key, count)) = entry.split_once('=') else {
                    continue;
                };
                let Some((code, severity)) = key.split_once(':') else {
                    continue;
                };
                let count: u64 = count.parse().unwrap_or(0);
                let cell = matrix
                    .entry((code.to_owned(), severity.to_owned()))
                    .or_insert((0, 0));
                cell.0 += count;
                cell.1 += 1;
            }
        }
        sweep_lint.matrix = matrix
            .into_iter()
            .map(|((code, severity), (findings, candidates))| SweepLintRow {
                code,
                severity,
                findings,
                candidates,
            })
            .collect();
        Self {
            title: trace.title.clone(),
            selected,
            adcs,
            classes,
            comparators_retained: trace.counter(keys::HW_COMPARATORS_RETAINED),
            comparators_dropped: trace.counter(keys::HW_COMPARATORS_DROPPED),
            ladder_resistors: trace.counter(keys::HW_LADDER_RESISTORS),
            and_gates: trace.counter(keys::HW_AND_GATES),
            or_gates: trace.counter(keys::HW_OR_GATES),
            splits: trace.split_selections(),
            gini_evals: trace.counter(keys::GINI_EVALS),
            trees: trace.counter(keys::TREES_TRAINED),
            trees_shared: trace.counter(keys::TREES_SHARED),
            robustness,
            failed_candidates: trace.counter(keys::SWEEP_FAILED),
            lint,
            lint_errors: trace.counter(keys::LINT_ERRORS),
            sweep_lint,
        }
    }

    /// Whether the selected design fits the printed harvester's budget
    /// (`None` when no selection was recorded).
    pub fn within_harvester_budget(&self) -> Option<bool> {
        self.selected
            .as_ref()
            .map(|s| s.power_mw <= HARVESTER_BUDGET.mw())
    }

    /// Renders the report as aligned text tables.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("hardware cost: {}\n", self.title));
        if let Some(s) = &self.selected {
            out.push_str(&format!(
                "  selected: τ={} depth={}  {:.1}% accuracy  {:.2} mm²  {:.3} mW  {} comparators\n",
                s.tau,
                s.depth,
                s.accuracy * 100.0,
                s.area_mm2,
                s.power_mw,
                s.comparators,
            ));
        }
        out.push_str(&format!(
            "  comparators: {} retained / {} dropped vs flash  ladder: {} resistors\n",
            self.comparators_retained, self.comparators_dropped, self.ladder_resistors,
        ));
        if self.and_gates + self.or_gates > 0 {
            out.push_str(&format!(
                "  logic: {} AND-family / {} OR-family gates\n",
                self.and_gates, self.or_gates,
            ));
        }
        let (s_z, s_m, s_h) = self.splits;
        if s_z + s_m + s_h > 0 {
            out.push_str(&format!(
                "  splits: {s_z} S_Z / {s_m} S_M / {s_h} S_H  ({} gini evals, {} trees)\n",
                self.gini_evals, self.trees,
            ));
        }
        if self.trees_shared > 0 {
            let total = self.trees + self.trees_shared;
            out.push_str(&format!(
                "  sharing: {}/{} candidates derived by prefix truncation ({:.0}% of the grid)\n",
                self.trees_shared,
                total,
                100.0 * self.trees_shared as f64 / total as f64,
            ));
        }
        if !self.adcs.is_empty() {
            out.push_str(&format!(
                "  {:<10} {:>5} {:>12} {:>11} {:>11}\n",
                "adc", "taps", "comparators", "area mm²", "power µW"
            ));
            for row in &self.adcs {
                out.push_str(&format!(
                    "  x{:<9} {:>5} {:>12} {:>11.4} {:>11.3}\n",
                    row.feature, row.taps, row.comparators, row.area_mm2, row.power_uw,
                ));
            }
        }
        if !self.classes.is_empty() {
            out.push_str(&format!(
                "  {:<10} {:>5} {:>12}\n",
                "class", "cubes", "literals"
            ));
            for row in &self.classes {
                out.push_str(&format!(
                    "  c{:<9} {:>5} {:>12}\n",
                    row.class, row.cubes, row.literals,
                ));
            }
        }
        if self.failed_candidates > 0 {
            out.push_str(&format!(
                "  failed candidates: {} grid point(s) panicked and were isolated\n",
                self.failed_candidates,
            ));
        }
        if !self.robustness.is_empty() {
            out.push_str(&format!(
                "  {:<14} {:>8} {:>9} {:>11} {:>7} {:>7}\n",
                "robustness", "nominal", "mismatch", "worst-fault", "droop", "yield"
            ));
            for row in &self.robustness {
                out.push_str(&format!(
                    "  τ={:<5} d={:<3} {:>7.1}% {:>8.1}% {:>10.1}% {:>6.0}% {:>6.0}%\n",
                    row.tau,
                    row.depth,
                    row.nominal * 100.0,
                    row.mean_mismatch * 100.0,
                    row.worst_fault * 100.0,
                    row.droop_margin * 100.0,
                    row.yield_est * 100.0,
                ));
            }
        }
        if !self.lint.is_empty() {
            out.push_str(&format!(
                "  lint: {} finding(s), {} error(s)\n",
                self.lint.len(),
                self.lint_errors,
            ));
            for row in &self.lint {
                out.push_str(&format!(
                    "  {} [{}] {}: {}\n",
                    row.severity, row.code, row.locus, row.message,
                ));
            }
        }
        if self.sweep_lint.candidates > 0 {
            out.push_str(&format!(
                "  sweep lint: {} candidate(s), {} error(s) / {} warning(s)\n",
                self.sweep_lint.candidates, self.sweep_lint.errors, self.sweep_lint.warnings,
            ));
            if !self.sweep_lint.matrix.is_empty() {
                out.push_str(&format!(
                    "  {:<8} {:>8} {:>9} {:>11}\n",
                    "code", "severity", "findings", "candidates"
                ));
                for row in &self.sweep_lint.matrix {
                    out.push_str(&format!(
                        "  {:<8} {:>8} {:>9} {:>11}\n",
                        row.code, row.severity, row.findings, row.candidates,
                    ));
                }
            }
            if let Some(worst) = &self.sweep_lint.worst {
                out.push_str(&format!(
                    "  worst candidate: τ={} depth={} — {} error(s) / {} warning(s)\n",
                    worst.tau, worst.depth, worst.errors, worst.warnings,
                ));
            }
        }
        if let Some(fits) = self.within_harvester_budget() {
            let s = self.selected.as_ref().expect("selected is present");
            out.push_str(&format!(
                "  harvester budget: {:.3} mW of {:.1} mW — {}\n",
                s.power_mw,
                HARVESTER_BUDGET.mw(),
                if fits { "SELF-POWERED" } else { "OVER BUDGET" },
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use printed_codesign::ExplorationConfig;
    use printed_codesign::{CodesignFlow, FlowOutcome};
    use printed_datasets::Benchmark;
    use printed_pdk::AnalogModel;

    fn traced_outcome() -> FlowOutcome {
        let (train, test) = Benchmark::Seeds.load_quantized(4).unwrap();
        CodesignFlow::new(&train, &test)
            .grid(ExplorationConfig::quick())
            .title("Seeds")
            .traced()
            .run()
    }

    /// The report read back from a live run's trace holds exactly what
    /// the run's outcome says about the chosen design and the grid.
    #[test]
    fn trace_report_matches_the_live_outcome() {
        let outcome = traced_outcome();
        let model = AnalogModel::egfet();
        let report = CostReport::from_trace(outcome.trace().expect("traced run"));
        let system = &outcome.chosen.system;
        let bank = system.classifier.adc_bank();
        let adcs: Vec<AdcRow> = bank
            .iter()
            .map(|(feature, taps)| {
                let cost = bank.input_cost(feature, &model);
                AdcRow {
                    feature: feature as u64,
                    taps: taps.len() as u64,
                    comparators: cost.comparators as u64,
                    area_mm2: cost.area.mm2(),
                    power_uw: cost.power.uw(),
                }
            })
            .collect();
        assert_eq!(report.adcs, adcs);
        let classes: Vec<ClassRow> = (0..system.classifier.n_classes())
            .map(|class| {
                let sop = system.classifier.class_sop(class);
                ClassRow {
                    class: class as u64,
                    cubes: sop.cubes().len() as u64,
                    literals: sop.literal_count() as u64,
                }
            })
            .collect();
        assert_eq!(report.classes, classes);
        let retained = system.comparator_count() as u64;
        let full = (bank.input_count() * ((1usize << bank.bits()) - 1)) as u64;
        assert_eq!(report.comparators_retained, retained);
        assert_eq!(report.comparators_dropped, full - retained);
        assert_eq!(
            report.ladder_resistors,
            bank.distinct_taps().len() as u64 + 1
        );
        let (mut and_gates, mut or_gates) = (0u64, 0u64);
        for &(kind, n) in &system.digital.histogram {
            use printed_pdk::CellKind::*;
            match kind {
                And2 | And3 | And4 | Nand2 | Nand3 | Nand4 => and_gates += n as u64,
                Or2 | Or3 | Or4 | Nor2 | Nor3 | Nor4 => or_gates += n as u64,
                _ => {}
            }
        }
        assert!(and_gates > 0);
        assert_eq!(report.and_gates, and_gates);
        assert_eq!(report.or_gates, or_gates);
        let lint: Vec<LintRow> = outcome
            .lint
            .diagnostics
            .iter()
            .map(|d| LintRow {
                code: d.code.clone(),
                severity: d.severity.label().to_owned(),
                locus: d.locus.clone(),
                message: d.message.clone(),
            })
            .collect();
        assert_eq!(report.lint, lint);
        assert_eq!(report.lint_errors, outcome.lint.error_count() as u64);
        assert_eq!(report.lint_errors, 0, "clean design must lint clean");
        // The whole-grid rollup read from the lint_candidate records equals
        // the one rebuilt from the outcome's per-candidate lint reports.
        let mut sweep_lint = SweepLint::default();
        let mut matrix = std::collections::BTreeMap::<(String, String), (u64, u64)>::new();
        for candidate in &outcome.sweep.lint {
            let errors = candidate.report.error_count() as u64;
            let warnings = candidate.report.warning_count() as u64;
            sweep_lint.candidates += 1;
            sweep_lint.errors += errors;
            sweep_lint.warnings += warnings;
            sweep_lint.consider_worst(candidate.tau, candidate.depth as u64, errors, warnings);
            let mut per_candidate = std::collections::BTreeMap::<(String, String), u64>::new();
            for d in &candidate.report.diagnostics {
                *per_candidate
                    .entry((d.code.clone(), d.severity.label().to_owned()))
                    .or_insert(0) += 1;
            }
            for (key, count) in per_candidate {
                let cell = matrix.entry(key).or_insert((0, 0));
                cell.0 += count;
                cell.1 += 1;
            }
        }
        sweep_lint.matrix = matrix
            .into_iter()
            .map(|((code, severity), (findings, candidates))| SweepLintRow {
                code,
                severity,
                findings,
                candidates,
            })
            .collect();
        assert_eq!(report.sweep_lint, sweep_lint);
        assert_eq!(
            report.sweep_lint.candidates,
            outcome.sweep.candidates.len() as u64,
            "every grid candidate was linted in-flow"
        );
        assert_eq!(report.sweep_lint.errors, 0, "grid must lint error-free");
        // The NDJSON round trip (kind:"lint_candidate" lines) preserves it.
        let parsed = crate::parse::parse_trace(&outcome.trace().unwrap().to_ndjson());
        assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
        let reparsed = CostReport::from_trace(&parsed.trace);
        assert_eq!(reparsed.sweep_lint, report.sweep_lint);
        let selected = report.selected.expect("selected event");
        assert_eq!(selected.depth, outcome.chosen.depth as u64);
        assert_eq!(selected.comparators, retained);
        assert!((selected.area_mm2 - system.total_area().mm2()).abs() < 1e-9);
        assert!((selected.power_mw - system.total_power().mw()).abs() < 1e-9);
    }

    #[test]
    fn per_input_shares_cover_the_system_adc_cost() {
        let outcome = traced_outcome();
        let model = AnalogModel::egfet();
        let report = CostReport::from_trace(outcome.trace().expect("traced run"));
        let system = &outcome.chosen.system;
        let bank = system.classifier.adc_bank();
        let bank_cost = bank.cost(&model);
        // Per-input rows plus the shared ladder reproduce the bank cost.
        let rows_area: f64 = report.adcs.iter().map(|r| r.area_mm2).sum();
        let rows_power: f64 = report.adcs.iter().map(|r| r.power_uw).sum();
        let ladder_area = bank_cost.area.mm2() - rows_area;
        let ladder_power = bank_cost.power.uw() - rows_power;
        assert!(ladder_area > 0.0, "shared ladder has area");
        assert!(ladder_power >= 0.0);
        let comparators: u64 = report.adcs.iter().map(|r| r.comparators).sum();
        assert_eq!(comparators, system.comparator_count() as u64);
    }

    #[test]
    fn render_text_includes_tables_and_verdict() {
        let outcome = traced_outcome();
        let report = CostReport::from_trace(outcome.trace().expect("traced run"));
        let text = report.render_text();
        assert!(text.contains("selected: τ="), "{text}");
        assert!(text.contains("comparators"), "{text}");
        assert!(text.contains("harvester budget:"), "{text}");
        assert!(
            text.contains("SELF-POWERED") || text.contains("OVER BUDGET"),
            "{text}"
        );
        // One table row per ADC input and per class.
        let system = &outcome.chosen.system;
        assert_eq!(report.adcs.len(), system.input_count());
        assert_eq!(report.classes.len(), system.classifier.n_classes());
    }

    #[test]
    fn robustness_section_matches_the_outcome_and_round_trips() {
        use printed_codesign::RobustnessCampaign;
        let (train, test) = Benchmark::Seeds.load_quantized(4).unwrap();
        let (_, analog_test) = Benchmark::Seeds.load_split().unwrap();
        let outcome = CodesignFlow::new(&train, &test)
            .accuracy_loss(0.05)
            .grid(ExplorationConfig::quick())
            .title("Seeds")
            .robustness(RobustnessCampaign::quick(), &analog_test)
            .traced()
            .run();
        let from_trace = CostReport::from_trace(outcome.trace().expect("traced run"));
        let profiles: Vec<RobustRow> = outcome
            .robustness
            .as_ref()
            .expect("campaign ran")
            .profiles
            .iter()
            .map(|row| RobustRow {
                tau: row.tau,
                depth: row.depth as u64,
                nominal: row.profile.nominal,
                mean_mismatch: row.profile.mean_under_mismatch,
                worst_fault: row.profile.worst_single_fault,
                droop_margin: row.profile.droop_margin,
                yield_est: row.profile.yield_estimate,
            })
            .collect();
        assert_eq!(from_trace.robustness.len(), outcome.sweep.candidates.len());
        assert_eq!(from_trace.robustness, profiles);
        assert_eq!(from_trace.failed_candidates, 0);
        let text = from_trace.render_text();
        assert!(text.contains("robustness"), "{text}");
        assert!(text.contains("worst-fault"), "{text}");
        // The NDJSON round trip preserves the section.
        let parsed = crate::parse::parse_trace(&outcome.trace().unwrap().to_ndjson());
        assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
        let reparsed = CostReport::from_trace(&parsed.trace);
        assert_eq!(reparsed.robustness, from_trace.robustness);
        assert_eq!(reparsed.failed_candidates, 0);
    }

    #[test]
    fn empty_trace_yields_an_empty_but_renderable_report() {
        let report = CostReport::from_trace(&FlowTrace::default());
        assert!(report.selected.is_none());
        assert!(report.adcs.is_empty());
        assert!(report.within_harvester_budget().is_none());
        let text = report.render_text();
        assert!(text.contains("comparators: 0 retained"), "{text}");
    }
}
