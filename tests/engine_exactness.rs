//! Exactness pinning for the vectorized training engine (DESIGN.md §13).
//!
//! The hot path — [`SplitEngine`] over a shared `DatasetIndex`, in-place
//! arena partitioning, bit-sliced cover scoring — claims to be
//! *bit-identical* to the scalar reference, not merely close. These tests
//! hold it to that on every registry benchmark:
//!
//! 1. the production trainer and the scalar reference grow the same tree
//!    (node for node) at the paper's depth cap, with and without Gini
//!    slack;
//! 2. bit-sliced thermometer scoring returns the exact accuracy the tree
//!    walk returns, for every paper-grid candidate on both splits;
//! 3. a fresh quick-grid sweep selects the same design — same grid
//!    point, same area, power, and comparator count — as the committed
//!    `BENCH_all.ndjson` baseline, i.e. 0.0% deterministic drift.
//!
//! [`SplitEngine`]: printed_ml::dtree::cart::SplitEngine

use printed_ml::codesign::explore::{explore, ExplorationConfig};
use printed_ml::codesign::train::{train_adc_aware, train_adc_aware_reference, AdcAwareConfig};
use printed_ml::codesign::UnaryClassifier;
use printed_ml::datasets::{Benchmark, ThermometerPlanes};
use printed_ml::report::BenchRecord;

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
