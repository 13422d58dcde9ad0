//! Bridge from the co-design flow to the [`printed_lint`] static
//! analyzer.
//!
//! `printed-lint` is deliberately ignorant of this crate: its
//! [`LintTarget`] speaks the structural vocabulary (tree, netlist, bank,
//! literals, covers). This module lowers a [`CandidateDesign`] into that
//! vocabulary — re-deriving the canonical netlist and bespoke bank from
//! the classifier, which is exactly what the lints are meant to
//! cross-check — and mirrors the findings into telemetry so traced runs
//! and the `printed-trace` report can surface them.

use printed_lint::{DroopRef, GridRef, LintConfig, LintReport, LintTarget, Linter};
use printed_pdk::AnalogModel;
use printed_telemetry::{keys, FieldValue, Recorder};

use crate::campaign::SupplyDroopModel;
use crate::explore::{CandidateDesign, ExplorationConfig};

/// The flow's worst-case droop envelope for the P003 sag-margin pass,
/// lowered from the printed-default [`SupplyDroopModel`] so the linter
/// judges margins against the same harvester the robustness campaigns
/// sweep.
pub(crate) fn printed_droop() -> DroopRef {
    let model = SupplyDroopModel::printed_default();
    DroopRef {
        max_sag: model.max_sag(),
        vref_leak: model.vref_leak,
        offset_per_sag: model.offset_per_sag,
    }
}

/// Runs the full built-in lint suite over a synthesized candidate.
///
/// The netlist and ADC bank are re-derived from the classifier (the
/// canonical lowering), while the *reported* ADC cost comes from the
/// candidate's priced system — so C001 genuinely cross-checks the stored
/// numbers against a fresh recomputation. Pass the exploration grid to
/// enable the G001 hygiene checks. Every pass reports at its built-in
/// severity whatever `_config` is ([`LintConfig`] has one value).
pub fn lint_candidate(
    candidate: &CandidateDesign,
    analog: &AnalogModel,
    grid: Option<&ExplorationConfig>,
    _config: &LintConfig,
) -> LintReport {
    let netlist = candidate.system.classifier.to_netlist();
    lint_candidate_borrowed(candidate, &netlist, analog, grid, true, None)
}

/// Cap on the feasible patterns the in-flow grid lint's T001
/// equivalence leg checks per candidate. The full budget (up to 2^16
/// exhaustive patterns) costs hundreds of milliseconds on the larger
/// benchmarks' deepest candidates — more than the whole sweep — while a
/// 512-pattern seeded sample keeps the whole-grid lint within the bound
/// `whole_grid_lint_overhead_is_bounded` pins (at most max(50 ms, 1× the
/// lint-free sweep) on the quick grid). The selected design is always
/// re-verified at full budget by the flow's `stage:lint` pass
/// ([`lint_candidate`] passes `equiv_budget: None`).
pub(crate) const GRID_EQUIV_BUDGET: usize = 512;

/// [`lint_candidate`] over a netlist the caller already holds — the
/// whole-grid sweep lint borrows the synthesis's own netlist so the
/// in-flow analysis costs no second lowering (and perturbs no kernel
/// tallies), and caps T001's equivalence leg at `equiv_budget` feasible
/// patterns (`None` = full budget). Passing `verify_tree = false` leaves
/// the tree out of the target, skipping the T001 path-fidelity and
/// equivalence re-verification: the sweep does so for every candidate
/// below the deepest cap, whose trees are BFS truncations of the deepest
/// tree of their τ that the deepest candidate's full lint already covers.
pub(crate) fn lint_candidate_borrowed(
    candidate: &CandidateDesign,
    netlist: &printed_logic::netlist::Netlist,
    analog: &AnalogModel,
    grid: Option<&ExplorationConfig>,
    verify_tree: bool,
    equiv_budget: Option<usize>,
) -> LintReport {
    let bank = candidate.system.classifier.adc_bank();
    let target = lint_target(
        candidate,
        netlist,
        &bank,
        analog,
        grid,
        verify_tree,
        equiv_budget,
    );
    Linter::new().run(&target)
}

/// Lowers `candidate` into the linter's vocabulary around a netlist and
/// bank the caller holds.
fn lint_target<'a>(
    candidate: &'a CandidateDesign,
    netlist: &'a printed_logic::netlist::Netlist,
    bank: &'a printed_adc::BespokeAdcBank,
    analog: &'a AnalogModel,
    grid: Option<&'a ExplorationConfig>,
    verify_tree: bool,
    equiv_budget: Option<usize>,
) -> LintTarget<'a> {
    let classifier = &candidate.system.classifier;
    LintTarget {
        tree: verify_tree.then_some(&candidate.tree),
        netlist,
        bank,
        literals: classifier.literals(),
        class_sops: classifier.class_sops(),
        reported_adc: Some(&candidate.system.adc),
        model: analog,
        grid: grid.map(|g| GridRef {
            taus: &g.taus,
            depths: &g.depths,
            seed: g.seed,
        }),
        droop: Some(printed_droop()),
        equiv_budget,
    }
}

/// Runs the `--lint=fix` fixpoint rewriter over a synthesized candidate,
/// lowering it into the same [`LintTarget`] vocabulary as
/// [`lint_candidate`]: dead comparators are released from the bank, the
/// literals they backed are pruned from the covers and netlist, and the
/// ADC cost is re-derived — then the repaired design is re-linted and
/// proven feasible-domain equivalent to the original. See
/// [`printed_lint::fix`] for the soundness argument.
pub fn fix_candidate(
    candidate: &CandidateDesign,
    analog: &AnalogModel,
    grid: Option<&ExplorationConfig>,
) -> printed_lint::fix::FixOutcome {
    let classifier = &candidate.system.classifier;
    let netlist = classifier.to_netlist();
    let bank = classifier.adc_bank();
    let target = lint_target(candidate, &netlist, &bank, analog, grid, true, None);
    printed_lint::fix::fix(&target)
}

/// Renders a report's code tally as the compact `codes` event field:
/// `code:severity=count` entries joined with `;`, ascending by code
/// (e.g. `A002:warning=2;C001:error=1`). Empty for a clean report.
pub(crate) fn code_summary(report: &LintReport) -> String {
    use std::collections::BTreeMap;
    let mut tally: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for d in &report.diagnostics {
        *tally
            .entry((d.code.as_str(), d.severity.label()))
            .or_insert(0) += 1;
    }
    tally
        .into_iter()
        .map(|((code, severity), count)| format!("{code}:{severity}={count}"))
        .collect::<Vec<_>>()
        .join(";")
}

/// Records one whole-grid lint verdict as a
/// [`keys::LINT_CANDIDATE_EVENT`]: the grid coordinates, the
/// error/warning counts, and the `codes` tally summary. No-op when the
/// recorder is disabled.
pub(crate) fn record_grid_lint(recorder: &Recorder, tau: f64, depth: usize, report: &LintReport) {
    if !recorder.is_enabled() {
        return;
    }
    recorder.event(
        keys::LINT_CANDIDATE_EVENT,
        vec![
            ("tau".to_owned(), FieldValue::F64(tau)),
            ("depth".to_owned(), FieldValue::U64(depth as u64)),
            (
                "errors".to_owned(),
                FieldValue::U64(report.error_count() as u64),
            ),
            (
                "warnings".to_owned(),
                FieldValue::U64(report.warning_count() as u64),
            ),
            ("codes".to_owned(), FieldValue::Str(code_summary(report))),
        ],
    );
}

/// Records a lint report into `recorder`: the [`keys::LINT_DIAGNOSTICS`]
/// and [`keys::LINT_ERRORS`] counters plus one [`keys::LINT_EVENT`] per
/// diagnostic (fields `code`, `severity`, `locus`, `message`). No-op when
/// the recorder is disabled.
pub fn record_lint(recorder: &Recorder, report: &LintReport) {
    if !recorder.is_enabled() {
        return;
    }
    recorder.add(keys::LINT_DIAGNOSTICS, report.diagnostics.len() as u64);
    recorder.add(keys::LINT_ERRORS, report.error_count() as u64);
    for diagnostic in &report.diagnostics {
        recorder.event(
            keys::LINT_EVENT,
            vec![
                (
                    "code".to_owned(),
                    FieldValue::from(diagnostic.code.as_str()),
                ),
                (
                    "severity".to_owned(),
                    FieldValue::from(diagnostic.severity.label()),
                ),
                (
                    "locus".to_owned(),
                    FieldValue::from(diagnostic.locus.as_str()),
                ),
                (
                    "message".to_owned(),
                    FieldValue::from(diagnostic.message.as_str()),
                ),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use printed_datasets::Benchmark;
    use printed_lint::Severity;
    use printed_telemetry::FlowTrace;

    fn quick_candidate() -> (CandidateDesign, ExplorationConfig) {
        let (train, test) = Benchmark::Seeds.load_quantized(4).unwrap();
        let grid = ExplorationConfig::quick();
        let sweep = explore(&train, &test, &grid);
        let chosen = sweep.select(0.05).or(sweep.most_accurate()).unwrap();
        (chosen.clone(), grid)
    }

    #[test]
    fn synthesized_designs_lint_without_errors() {
        let (chosen, grid) = quick_candidate();
        let report = lint_candidate(
            &chosen,
            &AnalogModel::egfet(),
            Some(&grid),
            &LintConfig::new(),
        );
        assert!(
            !report.has_errors(),
            "clean design must not error:\n{}",
            report.render_text()
        );
    }

    #[test]
    fn corrupted_cost_is_caught_end_to_end() {
        let (mut chosen, _) = quick_candidate();
        chosen.system.adc.comparators += 3;
        let report = lint_candidate(&chosen, &AnalogModel::egfet(), None, &LintConfig::new());
        assert_eq!(report.with_code("C001").count(), 1);
        assert!(report.has_errors());
    }

    #[test]
    fn record_lint_mirrors_the_report_into_telemetry() {
        let (chosen, grid) = quick_candidate();
        let mut report = lint_candidate(
            &chosen,
            &AnalogModel::egfet(),
            Some(&grid),
            &LintConfig::new(),
        );
        report.diagnostics.push(printed_lint::Diagnostic::new(
            "A001",
            Severity::Error,
            "u0_9",
            "synthetic",
        ));
        let (recorder, _sink) = Recorder::collecting();
        record_lint(&recorder, &report);
        let snapshot = recorder.snapshot().unwrap();
        let trace = FlowTrace::from_snapshot("lint", &snapshot);
        assert_eq!(
            trace.counter(keys::LINT_DIAGNOSTICS),
            report.diagnostics.len() as u64
        );
        assert_eq!(
            trace.counter(keys::LINT_ERRORS),
            report.error_count() as u64
        );
        let events: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.name == keys::LINT_EVENT)
            .collect();
        assert_eq!(events.len(), report.diagnostics.len());
        let last = events.last().unwrap();
        assert_eq!(
            last.field("code").and_then(FieldValue::as_str),
            Some("A001")
        );
        assert_eq!(
            last.field("severity").and_then(FieldValue::as_str),
            Some("error")
        );
    }
}
