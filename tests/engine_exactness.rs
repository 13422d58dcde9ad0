//! Exactness pinning for the vectorized training engine and the
//! synthesis kernels (DESIGN.md §13).
//!
//! The hot path — [`SplitEngine`] over a shared `DatasetIndex`, in-place
//! arena partitioning, bit-sliced cover scoring, sorted-`Vec` cubes and
//! copy-keyed structural hashing — claims to be *bit-identical* to its
//! reference, not merely close. These tests hold it to that on every
//! registry benchmark:
//!
//! 1. the production trainer and the scalar reference grow the same tree
//!    (node for node) at the paper's depth cap, with and without Gini
//!    slack;
//! 2. bit-sliced thermometer scoring returns the exact accuracy the tree
//!    walk returns, for every paper-grid candidate on both splits;
//! 3. every paper-grid candidate's covers, netlist, `DesignReport` and
//!    grid `LintReport` are those of the `BTreeMap` cube and gate-keyed
//!    builder oracles (`crates/logic/src/oracle.rs`);
//! 4. a fresh quick-grid sweep selects the same design — same grid
//!    point, same area, power, and comparator count — as the committed
//!    `BENCH_all.ndjson` baseline, i.e. 0.0% deterministic drift.
//!
//! [`SplitEngine`]: printed_ml::dtree::cart::SplitEngine

use printed_ml::codesign::explore::{explore, ExplorationConfig};
use printed_ml::codesign::train::{train_adc_aware, train_adc_aware_reference, AdcAwareConfig};
use printed_ml::codesign::{SupplyDroopModel, UnaryClassifier};
use printed_ml::datasets::{Benchmark, ThermometerPlanes};
use printed_ml::lint::{DroopRef, GridRef, LintConfig, LintTarget, Linter};
use printed_ml::logic::sop::{Cube, Sop};
use printed_ml::logic::{analyze, AnalysisConfig, Signal};
use printed_ml::pdk::{AnalogModel, CellKind, CellLibrary};
use printed_ml::report::BenchRecord;

// The oracle file names its netlist types as `crate::netlist`.
use printed_ml::logic::netlist;
#[path = "../crates/logic/src/oracle.rs"]
mod oracle;

/// The registry resolution every baseline uses.
const BITS: u32 = 4;

#[test]
fn vectorized_trainer_matches_the_scalar_reference_on_every_benchmark() {
    for benchmark in Benchmark::ALL {
        let (train, _test) = benchmark.load_quantized(BITS).expect("built-ins load");
        for tau in [0.0, 0.01] {
            let config = AdcAwareConfig {
                tau,
                ..AdcAwareConfig::default()
            };
            assert_eq!(
                train_adc_aware(&train, &config),
                train_adc_aware_reference(&train, &config),
                "{benchmark}: vectorized tree diverged from the reference at τ={tau}"
            );
        }
    }
}

#[test]
fn packed_scoring_equals_tree_accuracy_on_every_benchmark() {
    for benchmark in Benchmark::ALL {
        let (train, test) = benchmark.load_quantized(BITS).expect("built-ins load");
        let sweep = explore(&train, &test, &ExplorationConfig::paper());
        assert_eq!(
            sweep.candidates.len(),
            49,
            "{benchmark}: the whole paper grid"
        );
        let planes = [
            ThermometerPlanes::new(&train),
            ThermometerPlanes::new(&test),
        ];
        for candidate in &sweep.candidates {
            let at = format!("{benchmark} τ={} depth={}", candidate.tau, candidate.depth);
            let tree = &candidate.tree;
            let unary = UnaryClassifier::from_tree(tree);
            let packed = unary.packed();
            assert_eq!(
                candidate.test_accuracy.to_bits(),
                tree.accuracy(&test).to_bits(),
                "{at}: the sweep's score drifted from the tree walk"
            );
            // The covers are exact indicator functions of the tree's
            // regions, so bit-sliced scoring must agree bit for bit with
            // the tree walk on both splits.
            for (data, planes) in [&train, &test].into_iter().zip(&planes) {
                let want = tree.accuracy(data).to_bits();
                assert_eq!(
                    unary.accuracy_on(planes).to_bits(),
                    want,
                    "{at}: bit-sliced scoring drifted from the tree walk"
                );
                assert_eq!(
                    packed.accuracy(data).to_bits(),
                    want,
                    "{at}: packed scoring drifted from the tree walk"
                );
            }
        }
    }
}

/// Feasible patterns the sweep's grid lint spends on T001's
/// equivalence leg (`GRID_EQUIV_BUDGET` in `printed-codesign`).
const GRID_EQUIV_BUDGET: usize = 512;

#[test]
fn paper_grid_synthesis_and_grid_lint_match_the_oracles_on_every_benchmark() {
    let library = CellLibrary::egfet();
    let analog = AnalogModel::egfet();
    let analysis = AnalysisConfig::printed_20hz();
    let droop = SupplyDroopModel::printed_default();
    let config = ExplorationConfig::paper();
    let max_depth = *config.depths.iter().max().expect("non-empty grid");
    let mut warnings = Vec::new();
    for benchmark in Benchmark::ALL {
        let (train, test) = benchmark.load_quantized(BITS).expect("built-ins load");
        let sweep = explore(&train, &test, &config);
        assert_eq!(
            sweep.lint.len(),
            49,
            "{benchmark}: one grid report per point"
        );
        let mut grid_warnings = 0;
        for (candidate, grid) in sweep.candidates.iter().zip(&sweep.lint) {
            let at = format!("{benchmark} τ={} depth={}", candidate.tau, candidate.depth);
            assert!(grid.tau.to_bits() == candidate.tau.to_bits() && grid.depth == candidate.depth);
            let tree = &candidate.tree;
            let classifier = &candidate.system.classifier;
            let literals: Vec<(usize, u8)> = tree.distinct_pairs().into_iter().collect();
            assert_eq!(classifier.literals(), literals, "{at}: literal table");

            // The oracles replay synthesis from the tree: one cube and one
            // left-deep AND chain per non-contradictory path, one OR tree
            // per class, then pruning.
            let mut cubes = vec![Vec::new(); tree.n_classes()];
            let mut terms = vec![Vec::new(); tree.n_classes()];
            let mut reference = oracle::Netlist::default();
            for path in tree.paths() {
                let lits: Vec<(usize, bool)> = path
                    .conditions
                    .iter()
                    .map(|&(f, tap, pol)| {
                        (literals.binary_search(&(f, tap)).expect("a literal"), pol)
                    })
                    .collect();
                let Some(cube) = oracle::Cube::try_from_literals(&lits) else {
                    continue;
                };
                cubes[path.class].push(cube);
                let mut acc = Signal::Const(true);
                for (var, pol) in lits {
                    let lit = if pol {
                        Signal::Input(var)
                    } else {
                        reference.gate(CellKind::Inv, &[Signal::Input(var)])
                    };
                    acc = reference.gate(CellKind::And2, &[acc, lit]);
                }
                terms[path.class].push(acc);
            }
            for class_terms in terms {
                let out = oracle::reduce_tree(&mut reference, &class_terms, false);
                reference.output(out);
            }
            reference.prune();

            let covers: Vec<Vec<Vec<(usize, bool)>>> = cubes
                .into_iter()
                .map(|c| {
                    oracle::simplified(c)
                        .iter()
                        .map(oracle::Cube::literals)
                        .collect()
                })
                .collect();
            let got: Vec<Vec<Vec<(usize, bool)>>> = classifier
                .class_sops()
                .iter()
                .map(|sop| sop.cubes().iter().map(|c| c.literals().collect()).collect())
                .collect();
            assert_eq!(got, covers, "{at}: covers drifted from the BTreeMap oracle");

            let netlist = classifier.to_netlist();
            assert_eq!(netlist.input_count(), literals.len(), "{at}: inputs");
            assert_eq!(
                netlist.gates(),
                reference.gates(),
                "{at}: gates drifted from the oracle"
            );
            assert!(
                netlist
                    .outputs()
                    .iter()
                    .map(|&(_, s)| s)
                    .eq(reference.outputs().iter().copied()),
                "{at}: outputs drifted from the oracle"
            );
            assert_eq!(
                candidate.system.digital,
                analyze(&netlist, &library, &analysis),
                "{at}: the sweep priced a netlist other than the oracle's"
            );

            // The grid lint, re-run over the oracle's covers, reports what
            // the sweep reported.
            let sops: Vec<Sop> = covers
                .iter()
                .map(|cover| {
                    let cover = cover.iter().map(|lits| Cube::from_literals(lits)).collect();
                    Sop::from_cubes(literals.len(), cover)
                })
                .collect();
            let bank = classifier.adc_bank();
            let target = LintTarget {
                tree: (candidate.depth == max_depth).then_some(tree),
                netlist: &netlist,
                bank: &bank,
                literals: &literals,
                class_sops: &sops,
                reported_adc: Some(&candidate.system.adc),
                model: &analog,
                grid: Some(GridRef {
                    taus: &config.taus,
                    depths: &config.depths,
                    seed: config.seed,
                }),
                droop: Some(DroopRef {
                    max_sag: droop.max_sag(),
                    vref_leak: droop.vref_leak,
                    offset_per_sag: droop.offset_per_sag,
                }),
                equiv_budget: Some(GRID_EQUIV_BUDGET),
            };
            assert_eq!(
                grid.report,
                Linter::with_config(LintConfig::new()).run(&target),
                "{at}: grid lint drifted"
            );
            assert_eq!(grid.report.error_count(), 0, "{at}: grid lint errors");
            grid_warnings += grid.report.warning_count();
        }
        warnings.push(grid_warnings);
    }
    // Grid-lint warnings per benchmark before the sorted-`Vec` cubes,
    // copy-keyed hashing and T001's structural proof landed.
    assert_eq!(warnings, [1720, 386, 185, 1463, 441, 233, 319, 637]);
}

#[test]
fn sweep_selection_matches_the_committed_suite_baseline() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_all.ndjson"))
        .expect("committed baseline suite exists");
    let (baselines, warnings) = BenchRecord::parse_all(&text);
    assert!(warnings.is_empty(), "baseline suite parses: {warnings:?}");
    assert_eq!(baselines.len(), Benchmark::ALL.len());
    for benchmark in Benchmark::ALL {
        let baseline = baselines
            .iter()
            .find(|s| s.key == benchmark.to_string())
            .expect("every benchmark has a baseline record");
        let (train, test) = benchmark.load_quantized(BITS).expect("built-ins load");
        let sweep = explore(&train, &test, &ExplorationConfig::quick());
        // The selection rule of the bench binaries: most efficient within
        // 1% of the reference, else the most accurate candidate.
        let chosen = sweep
            .select(0.01)
            .or_else(|| sweep.most_accurate())
            .expect("non-empty sweep");
        let system = &chosen.system;
        assert_eq!(
            system.total_area().mm2().to_bits(),
            baseline.value("area_mm2").to_bits(),
            "{benchmark}: selected area drifted from the committed baseline"
        );
        assert_eq!(
            system.total_power().mw().to_bits(),
            baseline.value("power_mw").to_bits(),
            "{benchmark}: selected power drifted from the committed baseline"
        );
        assert_eq!(
            system.comparator_count() as f64,
            baseline.value("comparators"),
            "{benchmark}: comparator count drifted from the committed baseline"
        );
    }
}
