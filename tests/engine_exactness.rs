//! Exactness pinning for the vectorized training engine (DESIGN.md §13).
//!
//! The hot path — [`SplitEngine`] over a shared `DatasetIndex`, in-place
//! arena partitioning, packed word-parallel cover scoring — claims to be
//! *bit-identical* to the scalar reference, not merely close. These tests
//! hold it to that on every registry benchmark:
//!
//! 1. the production trainer and the scalar reference grow the same tree
//!    (node for node) at the paper's depth cap, with and without Gini
//!    slack;
//! 2. packed thermometer scoring returns the exact accuracy the tree
//!    walk returns;
//! 3. a fresh quick-grid sweep selects the same design — same grid
//!    point, same area, power, and comparator count — as the committed
//!    `BENCH_all.ndjson` baseline, i.e. 0.0% deterministic drift.
//!
//! [`SplitEngine`]: printed_ml::dtree::cart::SplitEngine

use printed_ml::codesign::explore::{explore, ExplorationConfig};
use printed_ml::codesign::train::{train_adc_aware, train_adc_aware_reference, AdcAwareConfig};
use printed_ml::codesign::UnaryClassifier;
use printed_ml::datasets::Benchmark;
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
        let tree = train_adc_aware(&train, &AdcAwareConfig::default());
        let packed = UnaryClassifier::from_tree(&tree).packed();
        // The covers are exact indicator functions of the tree's regions,
        // so the packed word-parallel evaluation must agree bit for bit
        // with the tree walk on both splits.
        for data in [&train, &test] {
            assert_eq!(
                packed.accuracy(data).to_bits(),
                tree.accuracy(data).to_bits(),
                "{benchmark}: packed scoring drifted from the tree walk"
            );
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
