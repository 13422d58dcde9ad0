//! The state-of-the-art baseline: fully parallel bespoke decision trees
//! with conventional flash ADCs (Mubarik et al., MICRO'20 — "\[2\]").
//!
//! Architecture, per the paper's description:
//!
//! * one **conventional 4-bit flash ADC per used input feature** (shared
//!   precision reference ladder across the bank);
//! * one **hardwired 4-bit comparator per tree node** (the model parameter
//!   is baked into the logic, collapsing each comparator to an AND/OR
//!   chain);
//! * a **multiplexer network** that routes the class label from the leaves
//!   up to the root, one label-wide 2:1 mux per internal node.
//!
//! [`synthesize_baseline`] emits the real gate-level netlist and prices it
//! with the `printed-logic` analyzer, so the Table I reproduction measures
//! an actual circuit rather than an analytic estimate.
//!
//! ```
//! use printed_datasets::Benchmark;
//! use printed_dtree::baseline::synthesize_baseline;
//! use printed_dtree::cart::train_depth_selected;
//!
//! let (train, test) = Benchmark::Vertebral2C.load_quantized(4)?;
//! let model = train_depth_selected(&train, &test, 8);
//! let design = synthesize_baseline(&model.tree);
//! assert!(design.total_power().mw() < 5.0);
//! # Ok::<(), printed_datasets::DatasetError>(())
//! ```

use printed_adc::{AdcCost, ConventionalAdc};
use printed_logic::blocks;
use printed_logic::netlist::{Netlist, Signal};
use printed_logic::report::{analyze, AnalysisConfig, DesignReport};
use printed_pdk::{AnalogModel, Area, CellLibrary, Power};

use crate::tree::{DecisionTree, Node};

/// Number of bits needed to encode `n_classes` labels.
pub(crate) fn label_width(n_classes: usize) -> usize {
    usize::BITS as usize - (n_classes.max(2) - 1).leading_zeros() as usize
}

/// A synthesized baseline system: the tree, its digital netlist report, and
/// its ADC front-end cost.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineDesign {
    /// The trained tree this hardware implements.
    pub tree: DecisionTree,
    /// Area/power/timing of the digital part (comparators + mux network).
    pub digital: DesignReport,
    /// Cost of the conventional ADC bank (one 4-bit flash ADC per used
    /// input, shared reference ladder).
    pub adc: AdcCost,
    /// Number of used input features (= number of ADCs).
    pub input_count: usize,
}

impl BaselineDesign {
    /// Total system area (digital + ADCs).
    pub fn total_area(&self) -> Area {
        self.digital.area + self.adc.area
    }

    /// Total system power (digital + ADCs).
    pub fn total_power(&self) -> Power {
        self.digital.total_power() + self.adc.power
    }
}

/// Builds the baseline digital netlist for `tree`.
///
/// Inputs are one `bits`-wide bus per feature (all features get a bus so
/// netlist evaluation order matches `DecisionTree::predict` sample order;
/// unused buses cost nothing). Outputs are the binary class label, LSB
/// first.
pub fn baseline_netlist(tree: &DecisionTree) -> Netlist {
    let mut nl = Netlist::new(format!("baseline-{}n", tree.split_count()));
    let buses: Vec<Vec<Signal>> = (0..tree.n_features())
        .map(|f| nl.input_bus(&format!("i{f}"), tree.bits() as usize))
        .collect();
    let width = label_width(tree.n_classes());

    fn lower(
        tree: &DecisionTree,
        node: usize,
        nl: &mut Netlist,
        buses: &[Vec<Signal>],
        width: usize,
    ) -> Vec<Signal> {
        match tree.nodes()[node] {
            Node::Leaf { class } => blocks::const_bus(class as u32, width),
            Node::Split {
                feature,
                threshold,
                lo,
                hi,
            } => {
                let cond = blocks::gte_const(nl, &buses[feature], threshold as u32);
                let lo_label = lower(tree, lo, nl, buses, width);
                let hi_label = lower(tree, hi, nl, buses, width);
                blocks::mux2_bus(nl, &lo_label, &hi_label, cond)
            }
        }
    }

    let label = lower(tree, 0, &mut nl, &buses, width);
    for (k, &bit) in label.iter().enumerate() {
        nl.output(format!("class[{k}]"), bit);
    }
    nl.prune();
    nl
}

/// Decodes a netlist output (LSB-first bits) back into a class id.
pub fn decode_label(bits: &[bool]) -> usize {
    bits.iter()
        .enumerate()
        .fold(0usize, |acc, (k, &b)| acc | ((b as usize) << k))
}

/// Encodes one quantized sample as the netlist's input assignment (one
/// LSB-first bus per feature, in feature order).
pub fn encode_sample(sample: &[u8], bits: u32) -> Vec<bool> {
    sample
        .iter()
        .flat_map(|&level| (0..bits).map(move |k| (level >> k) & 1 == 1))
        .collect()
}

/// Synthesizes the complete baseline system for `tree` with the default
/// EGFET technology at 20 Hz.
pub fn synthesize_baseline(tree: &DecisionTree) -> BaselineDesign {
    synthesize_baseline_with(
        tree,
        &CellLibrary::egfet(),
        &AnalogModel::egfet(),
        &AnalysisConfig::printed_20hz(),
    )
}

/// Synthesizes the baseline system under explicit technology/analysis
/// choices.
pub fn synthesize_baseline_with(
    tree: &DecisionTree,
    library: &CellLibrary,
    analog: &AnalogModel,
    config: &AnalysisConfig,
) -> BaselineDesign {
    let netlist = baseline_netlist(tree);
    let digital = analyze(&netlist, library, config);
    let input_count = tree.used_features().len();
    let adc = ConventionalAdc::new(tree.bits()).bank_cost(input_count, analog);
    BaselineDesign {
        tree: tree.clone(),
        digital,
        adc,
        input_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cart::{train_depth_selected, CartConfig};
    use printed_datasets::Benchmark;

    #[test]
    fn label_width_covers_class_counts() {
        assert_eq!(label_width(2), 1);
        assert_eq!(label_width(3), 2);
        assert_eq!(label_width(4), 2);
        assert_eq!(label_width(7), 3);
        assert_eq!(label_width(16), 4);
    }

    #[test]
    fn netlist_matches_tree_prediction_exhaustively() {
        // A hand-built 2-feature tree, checked over the whole input space.
        use crate::tree::{DecisionTree, Node};
        let tree = DecisionTree::from_nodes(
            4,
            2,
            3,
            vec![
                Node::Split {
                    feature: 0,
                    threshold: 6,
                    lo: 1,
                    hi: 2,
                },
                Node::Leaf { class: 0 },
                Node::Split {
                    feature: 1,
                    threshold: 11,
                    lo: 3,
                    hi: 4,
                },
                Node::Leaf { class: 1 },
                Node::Leaf { class: 2 },
            ],
        )
        .unwrap();
        let nl = baseline_netlist(&tree);
        for a in 0..16u8 {
            for b in 0..16u8 {
                let sample = [a, b];
                let out = nl.eval(&encode_sample(&sample, 4));
                assert_eq!(
                    decode_label(&out),
                    tree.predict(&sample),
                    "sample {sample:?}"
                );
            }
        }
    }

    #[test]
    fn trained_tree_netlist_matches_on_test_set() {
        let (train, test) = Benchmark::Vertebral3C.load_quantized(4).unwrap();
        let model = train_depth_selected(&train, &test, 6);
        let nl = baseline_netlist(&model.tree);
        for (sample, _) in test.iter() {
            let out = nl.eval(&encode_sample(sample, 4));
            assert_eq!(decode_label(&out), model.tree.predict(sample));
        }
    }

    #[test]
    fn per_node_cost_is_near_paper_residual() {
        // Table I digital residual: ≈ 1.1 mm² and ≈ 44 µW per tree node.
        let (train, test) = Benchmark::Cardio.load_quantized(4).unwrap();
        let model = train_depth_selected(&train, &test, 8);
        let design = synthesize_baseline(&model.tree);
        let nodes = model.tree.split_count() as f64;
        let area_per_node = design.digital.area.mm2() / nodes;
        let power_per_node = design.digital.total_power().uw() / nodes;
        assert!(
            (0.4..2.2).contains(&area_per_node),
            "area/node {area_per_node:.2} mm²"
        );
        assert!(
            (15.0..90.0).contains(&power_per_node),
            "power/node {power_per_node:.1} µW"
        );
    }

    #[test]
    fn adc_bank_scales_with_used_features_only() {
        // A tree using one of two features needs exactly one ADC slice.
        use crate::tree::{DecisionTree, Node};
        let tree = DecisionTree::from_nodes(
            4,
            2,
            2,
            vec![
                Node::Split {
                    feature: 1,
                    threshold: 5,
                    lo: 1,
                    hi: 2,
                },
                Node::Leaf { class: 0 },
                Node::Leaf { class: 1 },
            ],
        )
        .unwrap();
        let design = synthesize_baseline(&tree);
        assert_eq!(design.input_count, 1);
        assert_eq!(design.adc.comparators, 15);
        assert_eq!(design.adc.encoders, 1);
    }

    #[test]
    fn timing_meets_20hz_for_depth8() {
        let (train, test) = Benchmark::Pendigits.load_quantized(4).unwrap();
        let tree = crate::cart::train(&train, &CartConfig::with_max_depth(8));
        let _ = test;
        let design = synthesize_baseline(&tree);
        assert!(
            design.digital.meets_timing(50.0),
            "critical path {}",
            design.digital.critical_path
        );
    }

    #[test]
    fn decode_label_roundtrip() {
        for v in 0..16usize {
            let bits: Vec<bool> = (0..4).map(|k| (v >> k) & 1 == 1).collect();
            assert_eq!(decode_label(&bits), v);
        }
    }
}
