//! Static-analysis guarantees: every design the flow synthesizes lints
//! clean (zero error-severity diagnostics), and each diagnostic code
//! fires on exactly the corruption it documents — on real benchmark
//! designs, not just the lint crate's hand-built fixtures.

use proptest::collection::vec;
use proptest::prelude::*;

use printed_ml::codesign::explore::{explore, ExplorationConfig};
use printed_ml::codesign::{lint_candidate, CandidateDesign, LintConfig};
use printed_ml::datasets::{Benchmark, Dataset, QuantizedDataset};
use printed_ml::lint::{DroopRef, GridRef, LintTarget, Linter};
use printed_ml::logic::equiv::thermometer_patterns;
use printed_ml::logic::sop::{Cube, Sop};
use printed_ml::pdk::AnalogModel;

/// The printed-default droop envelope (mirrors
/// `SupplyDroopModel::printed_default()`: 1.0 → 0.6 V harvester).
fn printed_droop() -> DroopRef {
    DroopRef {
        max_sag: 0.4,
        vref_leak: 0.12,
        offset_per_sag: 0.04,
    }
}

/// Lints one candidate with the paper grid attached and asserts no
/// error-severity diagnostic fires.
fn assert_lints_clean(candidate: &CandidateDesign, grid: &ExplorationConfig, context: &str) {
    let report = lint_candidate(
        candidate,
        &AnalogModel::egfet(),
        Some(grid),
        &LintConfig::new(),
    );
    assert!(
        !report.has_errors(),
        "{context} (τ={}, depth {}) must lint clean:\n{}",
        candidate.tau,
        candidate.depth,
        report.render_text()
    );
}

/// Every design synthesized from the shipped benchmarks across the paper
/// 7×7 τ×depth grid carries zero error-severity diagnostics — the
/// acceptance bar for the analyzer's false-positive rate.
#[test]
fn paper_grid_designs_lint_clean_on_shipped_benchmarks() {
    for benchmark in [Benchmark::Seeds, Benchmark::Vertebral2C] {
        let (train, test) = benchmark.load_quantized(4).unwrap();
        let grid = ExplorationConfig::paper();
        let sweep = explore(&train, &test, &grid);
        assert!(sweep.failed_candidates.is_empty());
        assert_eq!(sweep.candidates.len(), grid.grid_size());
        for candidate in &sweep.candidates {
            assert_lints_clean(candidate, &grid, &format!("{benchmark}"));
        }
    }
}

proptest! {
    /// Designs synthesized from *random* datasets and seeds across the
    /// paper τ×depth grid also lint without errors.
    #[test]
    fn random_dataset_designs_lint_clean(
        rows in vec((vec(0.0f64..1.0, 3), 0usize..3), 16..40),
        seed in any::<u64>(),
    ) {
        let mut rows = rows;
        rows[0].1 = 0;
        rows[1].1 = 1;
        let ds = Dataset::from_rows("prop", 3, rows).expect("consistent rows");
        let q = QuantizedDataset::from_dataset(&ds.normalized(), 4);
        let grid = ExplorationConfig {
            seed,
            ..ExplorationConfig::paper()
        };
        let sweep = explore(&q, &q, &grid);
        prop_assert!(sweep.failed_candidates.is_empty());
        for candidate in &sweep.candidates {
            let report = lint_candidate(
                candidate,
                &AnalogModel::egfet(),
                Some(&grid),
                &LintConfig::new(),
            );
            prop_assert!(
                !report.has_errors(),
                "random design (τ={}, depth {}):\n{}",
                candidate.tau,
                candidate.depth,
                report.render_text()
            );
        }
    }
}

/// Thermometer run lengths of an ascending `(feature, tap)` literal
/// order — the shape the feasible-domain enumerator consumes.
fn runs_of(literals: &[(usize, u8)]) -> Vec<usize> {
    let mut runs: Vec<usize> = Vec::new();
    let mut last: Option<usize> = None;
    for &(feature, _) in literals {
        if last == Some(feature) {
            *runs.last_mut().expect("non-empty on repeat") += 1;
        } else {
            runs.push(1);
            last = Some(feature);
        }
    }
    runs
}

proptest! {
    /// `--lint=fix` is behavior-preserving on random designs: injecting
    /// random dead comparators into a synthesized candidate's bank, the
    /// rewriter must drop every injected pair, clear all A002/C001
    /// findings without introducing errors, and the repaired netlist must
    /// classify every thermometer-feasible input exactly like the
    /// original — re-proven here with the T001 feasible-domain enumerator
    /// rather than trusting the rewriter's own verdict. The re-derived
    /// cost must also satisfy the C001 component-sum identity: bank total
    /// = Σ per-input shares + shared ladder.
    #[test]
    fn autofix_preserves_behavior_on_random_designs(
        rows in vec((vec(0.0f64..1.0, 3), 0usize..3), 16..40),
        seed in any::<u64>(),
        tau in 0.0f64..0.1,
        dead in vec((0usize..3, 1usize..16), 1..4),
    ) {
        let mut rows = rows;
        rows[0].1 = 0;
        rows[1].1 = 1;
        let ds = Dataset::from_rows("prop", 3, rows).expect("consistent rows");
        let q = QuantizedDataset::from_dataset(&ds.normalized(), 4);
        let grid = ExplorationConfig {
            seed,
            taus: vec![tau],
            ..ExplorationConfig::quick()
        };
        let sweep = explore(&q, &q, &grid);
        prop_assert!(sweep.failed_candidates.is_empty());
        let candidate = sweep.most_accurate().expect("non-empty sweep");
        let classifier = &candidate.system.classifier;
        let literals = classifier.literals().to_vec();
        let netlist = classifier.to_netlist();
        let runs = runs_of(&literals);
        // 3 features × 4-bit codes bound the feasible domain at 16³,
        // comfortably inside the exhaustive-enumeration limit.
        let domain: usize = runs.iter().map(|r| r + 1).product();
        prop_assert!(domain <= 1 << 16, "domain {domain} exceeds the enumeration limit");

        // Inject dead hardware: comparators no literal backs.
        let mut bank = classifier.adc_bank();
        let mut injected: Vec<(usize, usize)> = Vec::new();
        for &(feature, tap) in &dead {
            if literals.contains(&(feature, tap as u8)) || injected.contains(&(feature, tap)) {
                continue;
            }
            bank.require(feature, tap).expect("tap in range for 4 bits");
            injected.push((feature, tap));
        }

        let target = LintTarget {
            tree: Some(&candidate.tree),
            netlist: &netlist,
            bank: &bank,
            literals: &literals,
            class_sops: classifier.class_sops(),
            reported_adc: Some(&candidate.system.adc),
            model: &AnalogModel::egfet(),
            grid: Some(GridRef {
                taus: &grid.taus,
                depths: &grid.depths,
                seed: grid.seed,
            }),
            droop: Some(printed_droop()),
            equiv_budget: None,
        };
        let outcome = printed_ml::lint::fix::fix(&target);

        // Every injected dead comparator was dropped, and the repaired
        // design carries no A002 (or any error) any more.
        for pair in &injected {
            prop_assert!(
                outcome.dropped.contains(pair),
                "injected dead comparator {pair:?} survived the fix: {:?}",
                outcome.dropped
            );
        }
        prop_assert_eq!(outcome.report.with_code("A002").count(), 0);
        prop_assert_eq!(outcome.report.with_code("C001").count(), 0);
        prop_assert!(!outcome.report.has_errors(), "{}", outcome.report.render_text());
        prop_assert!(outcome.equivalence.is_equivalent(), "{:?}", outcome.equivalence);

        // Independent behavior-preservation proof over the full original
        // feasible domain (T001's enumerator), projecting each pattern
        // through the surviving literal positions.
        let kept: Vec<usize> = literals
            .iter()
            .enumerate()
            .filter(|(_, lit)| outcome.literals.contains(lit))
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(kept.len(), outcome.literals.len());
        for pattern in thermometer_patterns(&runs) {
            let projected: Vec<bool> = kept.iter().map(|&i| pattern[i]).collect();
            prop_assert_eq!(
                netlist.eval(&pattern),
                outcome.netlist.eval(&projected),
                "repaired netlist diverges on feasible pattern {pattern:?}"
            );
        }

        // C001 component-sum identity on the repaired bank: the reported
        // cost is the bank's own, its comparators are exactly the
        // per-input shares, and area/power decompose into per-input
        // shares plus the (non-negative) shared-ladder remainder.
        let model = AnalogModel::egfet();
        prop_assert_eq!(&outcome.reported, &outcome.bank.cost(&model));
        let mut comparators = 0usize;
        let (mut area, mut power) = (0.0f64, 0.0f64);
        for (feature, _) in outcome.bank.iter() {
            let share = outcome.bank.input_cost(feature, &model);
            comparators += share.comparators;
            area += share.area.mm2();
            power += share.power.uw();
        }
        prop_assert_eq!(comparators, outcome.reported.comparators);
        prop_assert!(area <= outcome.reported.area.mm2() + 1e-9);
        prop_assert!(power <= outcome.reported.power.uw() + 1e-9);
    }
}

/// A real Seeds design plus the pieces the corruption tests perturb.
struct RealDesign {
    candidate: CandidateDesign,
    grid: ExplorationConfig,
    model: AnalogModel,
}

impl RealDesign {
    fn synthesize() -> Self {
        let (train, test) = Benchmark::Seeds.load_quantized(4).unwrap();
        let grid = ExplorationConfig::quick();
        let sweep = explore(&train, &test, &grid);
        let candidate = sweep
            .select(0.05)
            .or(sweep.most_accurate())
            .expect("non-empty sweep")
            .clone();
        Self {
            candidate,
            grid,
            model: AnalogModel::egfet(),
        }
    }

    /// Lints the (possibly corrupted) pieces and returns the report.
    fn lint_with(
        &self,
        class_sops: &[Sop],
        bank: &printed_ml::adc::BespokeAdcBank,
        reported: &printed_ml::adc::AdcCost,
    ) -> printed_ml::lint::LintReport {
        let classifier = &self.candidate.system.classifier;
        let netlist = classifier.to_netlist();
        let target = LintTarget {
            tree: Some(&self.candidate.tree),
            netlist: &netlist,
            bank,
            literals: classifier.literals(),
            class_sops,
            reported_adc: Some(reported),
            model: &self.model,
            grid: Some(GridRef {
                taus: &self.grid.taus,
                depths: &self.grid.depths,
                seed: self.grid.seed,
            }),
            droop: Some(printed_droop()),
            equiv_budget: None,
        };
        Linter::new().run(&target)
    }

    /// The pristine design's own report (error-free; may carry benign
    /// warnings such as A002 on a literal the cover simplification merged
    /// away).
    fn baseline(&self) -> printed_ml::lint::LintReport {
        let classifier = &self.candidate.system.classifier;
        let bank = classifier.adc_bank();
        let reported = bank.cost(&self.model);
        let report = self.lint_with(classifier.class_sops(), &bank, &reported);
        assert!(!report.has_errors(), "{}", report.render_text());
        report
    }
}

/// Asserts the corruption added exactly one `code` finding relative to
/// the pristine baseline and perturbed no other code's count — the
/// no-false-positives bar on a real design.
fn assert_delta_is_exactly(
    baseline: &printed_ml::lint::LintReport,
    corrupted: &printed_ml::lint::LintReport,
    code: &str,
) {
    let codes: std::collections::BTreeSet<&str> = baseline
        .diagnostics
        .iter()
        .chain(&corrupted.diagnostics)
        .map(|d| d.code.as_str())
        .collect();
    for c in codes {
        let before = baseline.with_code(c).count();
        let after = corrupted.with_code(c).count();
        let expected = before + usize::from(c == code);
        assert_eq!(
            after,
            expected,
            "{c}: {before} before, {after} after corruption targeting {code}:\n{}",
            corrupted.render_text()
        );
    }
    assert!(corrupted.with_code(code).count() > baseline.with_code(code).count());
}

/// Dropping a retained comparator from a real design's bank fires A001 —
/// and nothing else (the reported cost is recomputed from the corrupted
/// bank so C001 stays quiet).
#[test]
fn dropped_comparator_fires_exactly_a001() {
    let design = RealDesign::synthesize();
    let baseline = design.baseline();
    let classifier = &design.candidate.system.classifier;
    let literals = classifier.literals();
    // Drop a comparator some cube actually reads, so the A002 tally is
    // untouched and the delta is purely the missing-comparator error.
    let &(feature, tap) = literals
        .iter()
        .enumerate()
        .find(|&(var, _)| {
            classifier.class_sops().iter().any(|sop| {
                sop.cubes()
                    .iter()
                    .any(|c| c.literals().any(|(v, _)| v == var))
            })
        })
        .map(|(_, literal)| literal)
        .expect("some literal is read by a cube");
    let mut bank = printed_ml::adc::BespokeAdcBank::new(classifier.bits());
    for &(f, t) in literals {
        if (f, t) != (feature, tap) {
            bank.require(f, t as usize).unwrap();
        }
    }
    let reported = bank.cost(&design.model);
    let report = design.lint_with(classifier.class_sops(), &bank, &reported);
    assert!(report.has_errors());
    assert_delta_is_exactly(&baseline, &report, "A001");
}

/// Injecting a thermometer-contradictory cube into a real design's cover
/// fires U001 — and nothing else (the cube can never fire, so it cannot
/// break one-hotness or path coverage).
#[test]
fn injected_contradictory_cube_fires_exactly_u001() {
    // The corruption needs two taps of the same feature, so pick a sweep
    // candidate whose tree splits some feature at two thresholds (deep
    // Seeds trees do).
    let (train, test) = Benchmark::Seeds.load_quantized(4).unwrap();
    let grid = ExplorationConfig::quick();
    let sweep = explore(&train, &test, &grid);
    let candidate = sweep
        .candidates
        .iter()
        .find(|c| {
            let lits = c.system.classifier.literals();
            lits.windows(2).any(|w| w[0].0 == w[1].0)
        })
        .expect("some quick Seeds candidate reuses a feature across taps")
        .clone();
    let design = RealDesign {
        candidate,
        grid,
        model: AnalogModel::egfet(),
    };
    let classifier = &design.candidate.system.classifier;
    let literals = classifier.literals();
    // Adjacent vars `pair`/`pair+1` carry the lower and higher tap of the
    // same feature; demand digit(hi) ∧ ¬digit(lo) — impossible under
    // monotonicity but not a same-variable conflict.
    let pair = literals
        .windows(2)
        .position(|w| w[0].0 == w[1].0)
        .expect("selected for feature reuse");
    let mut sops: Vec<Sop> = classifier.class_sops().to_vec();
    let corrupted = Cube::from_literals(&[(pair, false), (pair + 1, true)]);
    let mut cubes = sops[0].cubes().to_vec();
    cubes.push(corrupted);
    sops[0] = Sop::from_cubes(literals.len(), cubes);
    let bank = classifier.adc_bank();
    let reported = bank.cost(&design.model);
    let baseline = design.baseline();
    let report = design.lint_with(&sops, &bank, &reported);
    assert_delta_is_exactly(&baseline, &report, "U001");
}

/// Perturbing a real design's reported ADC cost fires C001 — and nothing
/// else.
#[test]
fn perturbed_cost_fires_exactly_c001() {
    let design = RealDesign::synthesize();
    let classifier = &design.candidate.system.classifier;
    let bank = classifier.adc_bank();
    let mut reported = bank.cost(&design.model);
    reported.power += printed_ml::pdk::Power::from_uw(1.0);
    let baseline = design.baseline();
    let report = design.lint_with(classifier.class_sops(), &bank, &reported);
    assert!(report.has_errors());
    assert_delta_is_exactly(&baseline, &report, "C001");
}
