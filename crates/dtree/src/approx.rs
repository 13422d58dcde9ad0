//! The approximate-decision-tree baseline with per-input precision scaling
//! (Balaskas et al., ISQED'22 — "\[7\]"), re-implemented from its description.
//!
//! The idea: not every input needs 4 bits. Greedily reduce each input's
//! precision (halving its ADC's comparator count per dropped bit) as long
//! as a retrained tree stays within the accuracy-loss budget; the tree may
//! grow *deeper* to compensate for the coarser thresholds — which is
//! exactly why \[7\] sometimes ends up with **more** area/power than the
//! exact baseline on Balance-Scale, Vertebral-3C, and Pendigits (the paper
//! points this out in Table II's discussion).
//!
//! Precision scaling is implemented as threshold-stride training (see
//! [`CartConfig::threshold_strides`](crate::cart::CartConfig::threshold_strides)): reading feature
//! `f` at `b` bits is the same as only allowing thresholds that are
//! multiples of `2^(4−b)` — no dataset rewrite needed, and prediction on
//! full-precision samples stays exact.
//!
//! ```no_run
//! use printed_datasets::Benchmark;
//! use printed_dtree::approx::{synthesize_approx, ApproxConfig};
//!
//! let (train, test) = Benchmark::Vertebral3C.load_quantized(4)?;
//! // Table II's setting: at most 1% accuracy loss, depth ≤ 8.
//! let config = ApproxConfig { accuracy_loss_budget: 0.01, max_depth: 8, min_bits: 1 };
//! let design = synthesize_approx(&train, &test, &config);
//! // Some inputs dropped below 4 bits:
//! assert!(design.bits_per_feature.values().any(|&b| b < 4));
//! # Ok::<(), printed_datasets::DatasetError>(())
//! ```

use std::collections::BTreeMap;

use printed_adc::{AdcCost, ConventionalAdc};
use printed_datasets::{DatasetIndex, QuantizedDataset};
use printed_logic::report::{analyze, AnalysisConfig, DesignReport};
use printed_pdk::{AnalogModel, Area, CellLibrary, Power};

use crate::baseline::baseline_netlist;
use crate::cart::{train_depth_selected_with_index, train_with_index, CartConfig};
use crate::tree::DecisionTree;

/// Configuration for the precision-scaling baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxConfig {
    /// Allowed accuracy loss relative to the exact baseline, as a fraction
    /// (0.01 = one percentage point).
    pub accuracy_loss_budget: f64,
    /// Depth cap for the (possibly deeper) retrained trees.
    pub max_depth: usize,
    /// Minimum bits any input may be scaled down to.
    pub min_bits: u32,
}

/// A synthesized precision-scaled system.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxDesign {
    /// The retrained tree (thresholds on each feature's stride grid).
    pub tree: DecisionTree,
    /// Effective ADC resolution chosen for each used feature.
    pub bits_per_feature: BTreeMap<usize, u32>,
    /// Digital netlist report.
    pub digital: DesignReport,
    /// Mixed-precision conventional ADC bank cost.
    pub adc: AdcCost,
    /// Test accuracy of the retrained tree.
    pub test_accuracy: f64,
    /// Test accuracy of the exact reference it was scaled against.
    pub reference_accuracy: f64,
}

impl ApproxDesign {
    /// Total system area.
    pub fn total_area(&self) -> Area {
        self.digital.area + self.adc.area
    }

    /// Total system power.
    pub fn total_power(&self) -> Power {
        self.digital.total_power() + self.adc.power
    }
}

fn strides_from_bits(
    bits_per_feature: &BTreeMap<usize, u32>,
    n_features: usize,
    full_bits: u32,
) -> Vec<u8> {
    (0..n_features)
        .map(|f| {
            let b = bits_per_feature.get(&f).copied().unwrap_or(full_bits);
            1u8 << (full_bits - b)
        })
        .collect()
}

/// Runs the precision-scaling flow and synthesizes the resulting system
/// (default EGFET technology, 20 Hz).
///
/// # Panics
///
/// Panics if either dataset is empty.
pub fn synthesize_approx(
    train_data: &QuantizedDataset,
    test_data: &QuantizedDataset,
    config: &ApproxConfig,
) -> ApproxDesign {
    synthesize_approx_with(
        train_data,
        test_data,
        config,
        &CellLibrary::egfet(),
        &AnalogModel::egfet(),
        &AnalysisConfig::printed_20hz(),
    )
}

/// [`synthesize_approx`] under explicit technology/analysis choices.
pub fn synthesize_approx_with(
    train_data: &QuantizedDataset,
    test_data: &QuantizedDataset,
    config: &ApproxConfig,
    library: &CellLibrary,
    analog: &AnalogModel,
    analysis: &AnalysisConfig,
) -> ApproxDesign {
    let full_bits = train_data.bits();
    // Strides only filter thresholds, so the reference and every greedy
    // retrain share one index of the full-precision data.
    let index = DatasetIndex::new(train_data);
    // Exact reference: the baseline's depth-selected model.
    let reference =
        train_depth_selected_with_index(train_data, &index, test_data, config.max_depth);
    let floor = reference.test_accuracy - config.accuracy_loss_budget;
    // [7] compensates approximation with deeper trees; retrain at the cap.
    let retrain_depth = config.max_depth;

    let mut bits: BTreeMap<usize, u32> = reference
        .tree
        .used_features()
        .into_iter()
        .map(|f| (f, full_bits))
        .collect();

    let train_at = |bits: &BTreeMap<usize, u32>| -> (DecisionTree, f64) {
        let mut cfg = CartConfig::with_max_depth(retrain_depth);
        cfg.threshold_strides = strides_from_bits(bits, train_data.n_features(), full_bits);
        let tree = train_with_index(train_data, &index, &cfg);
        let acc = tree.accuracy(test_data);
        (tree, acc)
    };

    let (mut best_tree, mut best_acc) = train_at(&bits);
    // If even the full-precision retrain at the deeper cap is below the
    // floor (possible on noisy data), fall back to the reference tree.
    if best_acc < floor {
        best_tree = reference.tree.clone();
        best_acc = reference.test_accuracy;
    }

    // Greedy scaling: repeatedly apply the single-feature bit reduction
    // that keeps the highest accuracy, while the floor holds.
    loop {
        let mut best_step: Option<(usize, DecisionTree, f64)> = None;
        for (&f, &b) in &bits {
            if b <= config.min_bits {
                continue;
            }
            let mut trial = bits.clone();
            trial.insert(f, b - 1);
            let (tree, acc) = train_at(&trial);
            if acc >= floor {
                let better = match &best_step {
                    None => true,
                    Some((_, _, best)) => acc > *best,
                };
                if better {
                    best_step = Some((f, tree, acc));
                }
            }
        }
        match best_step {
            Some((f, tree, acc)) => {
                let b = bits[&f];
                bits.insert(f, b - 1);
                best_tree = tree;
                best_acc = acc;
            }
            None => break,
        }
    }

    // Features the final tree no longer uses need no ADC at all.
    let used = best_tree.used_features();
    bits.retain(|f, _| used.contains(f));
    for &f in &used {
        bits.entry(f).or_insert(full_bits);
    }

    let netlist = baseline_netlist(&best_tree);
    let digital = analyze(&netlist, library, analysis);
    let adc = mixed_bank_cost(&bits, analog);

    ApproxDesign {
        tree: best_tree,
        bits_per_feature: bits,
        digital,
        adc,
        test_accuracy: best_acc,
        reference_accuracy: reference.test_accuracy,
    }
}

/// Cost of a conventional ADC bank with per-input resolutions: one shared
/// full reference ladder plus each input's slice at its own resolution —
/// "the smallest suitable conventional ADC for each input" (\[7\]).
pub fn mixed_bank_cost(bits_per_feature: &BTreeMap<usize, u32>, analog: &AnalogModel) -> AdcCost {
    if bits_per_feature.is_empty() {
        return AdcCost::zero();
    }
    let mut cost = AdcCost {
        area: analog.full_ladder_area(),
        power: analog.full_ladder_power,
        comparators: 0,
        ladder_resistors: analog.segment_count(),
        encoders: 0,
    };
    for &bits in bits_per_feature.values() {
        let slice = ConventionalAdc::new(bits).slice_cost(analog);
        cost.area += slice.area;
        cost.power += slice.power;
        cost.comparators += slice.comparators;
        cost.encoders += slice.encoders;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use printed_datasets::Benchmark;

    #[test]
    fn accuracy_floor_is_respected() {
        let (train_data, test_data) = Benchmark::Vertebral2C.load_quantized(4).unwrap();
        let cfg = ApproxConfig {
            accuracy_loss_budget: 0.01,
            max_depth: 6,
            min_bits: 1,
        };
        let design = synthesize_approx(&train_data, &test_data, &cfg);
        assert!(
            design.test_accuracy >= design.reference_accuracy - cfg.accuracy_loss_budget - 1e-12,
            "accuracy {} vs reference {}",
            design.test_accuracy,
            design.reference_accuracy
        );
    }

    #[test]
    fn scaling_reduces_adc_cost_vs_full_precision() {
        let (train_data, test_data) = Benchmark::Seeds.load_quantized(4).unwrap();
        let cfg = ApproxConfig {
            accuracy_loss_budget: 0.02,
            max_depth: 6,
            min_bits: 1,
        };
        let design = synthesize_approx(&train_data, &test_data, &cfg);
        let full =
            ConventionalAdc::new(4).bank_cost(design.bits_per_feature.len(), &AnalogModel::egfet());
        assert!(
            design.adc.power <= full.power,
            "scaled bank {} vs full bank {}",
            design.adc.power,
            full.power
        );
        assert!(design
            .bits_per_feature
            .values()
            .all(|&b| (1..=4).contains(&b)));
    }

    #[test]
    fn thresholds_sit_on_the_chosen_grids() {
        let (train_data, test_data) = Benchmark::Vertebral3C.load_quantized(4).unwrap();
        let cfg = ApproxConfig {
            accuracy_loss_budget: 0.05,
            max_depth: 5,
            min_bits: 1,
        };
        let design = synthesize_approx(&train_data, &test_data, &cfg);
        for (f, th) in design.tree.distinct_pairs() {
            let b = design.bits_per_feature[&f];
            let stride = 1u8 << (4 - b);
            assert_eq!(th % stride, 0, "feature {f} at {b} bits, threshold {th}");
        }
    }

    #[test]
    fn mixed_bank_cost_components() {
        let analog = AnalogModel::egfet();
        let mut bits = BTreeMap::new();
        bits.insert(0, 4u32);
        bits.insert(3, 2u32);
        let cost = mixed_bank_cost(&bits, &analog);
        assert_eq!(cost.comparators, 15 + 3);
        assert_eq!(cost.encoders, 2);
        assert_eq!(cost.ladder_resistors, 16);
        assert_eq!(mixed_bank_cost(&BTreeMap::new(), &analog), AdcCost::zero());
    }
}
