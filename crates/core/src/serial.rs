//! Serial (temporal) unary strawman — quantifying the paper's §II-C claim.
//!
//! Prior unary-computing work streams thermometer codes serially over
//! `2^N − 1` cycles. The paper argues that in printed electronics this is a
//! non-starter: multi-cycle operation needs registers, counters, and
//! control — all expensive in printed technology — and the slow EGFET
//! comparator makes the serialized conversion blow the cycle budget. This
//! module builds the cost estimate that backs the claim.
//!
//! Modeled serial architecture (one time-step per thermometer level):
//!
//! * per used input: **one** ramp comparator (vs one per retained tap in
//!   the parallel bespoke ADC — this is serial's one genuine saving);
//! * a shared ramp reference: the full ladder plus a 15:1 analog
//!   multiplexer (priced as a tap-select comparator-sized switch bank);
//! * a `N`-bit cycle counter (`N` flip-flops + increment logic) and a small
//!   control FSM;
//! * per distinct `(feature, tap)` literal: **one flip-flop** to latch the
//!   digit when the counter passes that tap;
//! * the same two-level label logic as the parallel design.
//!
//! ```
//! use printed_codesign::serial::estimate_serial_unary;
//! use printed_dtree::{DecisionTree, Node};
//!
//! let tree = DecisionTree::from_nodes(4, 2, 2, vec![
//!     Node::Split { feature: 0, threshold: 9, lo: 1, hi: 2 },
//!     Node::Leaf { class: 0 },
//!     Node::Leaf { class: 1 },
//! ])?;
//! let est = estimate_serial_unary(&tree);
//! assert_eq!(est.conversion_cycles, 15);
//! assert!(!est.meets_20hz(), "serial conversion blows the 50 ms budget");
//! # Ok::<(), printed_dtree::TreeError>(())
//! ```

use printed_dtree::DecisionTree;
use printed_logic::report::{analyze, AnalysisConfig};
use printed_pdk::{AnalogModel, Area, CellKind, CellLibrary, Delay, Power, SequentialParams};

use crate::unary::UnaryClassifier;

/// Cost estimate of a serial temporal-unary implementation of a tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SerialUnaryEstimate {
    /// Total area (analog + sequential + combinational).
    pub area: Area,
    /// Total static power.
    pub power: Power,
    /// Flip-flops required (literal latches + counter).
    pub flip_flops: usize,
    /// Ramp comparators required (one per used input).
    pub comparators: usize,
    /// Thermometer levels serialized per conversion: `2^bits − 1`.
    pub conversion_cycles: usize,
    /// Minimum time for one full conversion + decision.
    pub latency: Delay,
}

impl SerialUnaryEstimate {
    /// Whether a full serial conversion fits the 20 Hz (50 ms) budget.
    pub fn meets_20hz(&self) -> bool {
        self.latency.ms() <= 50.0
    }
}

/// Estimates the serial temporal-unary implementation of `tree` under the
/// default EGFET technology.
pub fn estimate_serial_unary(tree: &DecisionTree) -> SerialUnaryEstimate {
    estimate_serial_unary_with(
        tree,
        &CellLibrary::egfet(),
        &AnalogModel::egfet(),
        &SequentialParams::egfet(),
        &AnalysisConfig::printed_20hz(),
    )
}

/// [`estimate_serial_unary`] under explicit technology choices.
pub fn estimate_serial_unary_with(
    tree: &DecisionTree,
    library: &CellLibrary,
    analog: &AnalogModel,
    sequential: &SequentialParams,
    config: &AnalysisConfig,
) -> SerialUnaryEstimate {
    let classifier = UnaryClassifier::from_tree(tree);
    let literals = classifier.literals().len();
    let inputs = tree.used_features().len();
    let bits = tree.bits();
    let cycles = (1usize << bits) - 1;

    // Analog: one mid-scale ramp comparator per input, the full ladder, and
    // a 15:1 tap-select switch bank (priced as one comparator-equivalent
    // per tap position).
    let mid_tap = (1usize << (bits - 1)).min(analog.tap_count());
    let comparator_power = analog.comparator_power(mid_tap) * inputs as f64;
    let comparator_area = analog.comparator_bank_area(inputs);
    let mux_area = analog.comparator_area * 0.5 * analog.tap_count() as f64;
    let mux_power = analog.comparator_power_base * analog.tap_count() as f64;
    let analog_area = analog.full_ladder_area() + comparator_area + mux_area;
    let analog_power = analog.full_ladder_power + comparator_power + mux_power;

    // Sequential: literal latches + N-bit counter.
    let flip_flops = literals + bits as usize;
    let seq_area = sequential.dff_area * flip_flops as f64;
    let seq_power = sequential.dff_static_power * flip_flops as f64;

    // Control: increment logic + tap-match decode + FSM, sized per counter
    // bit and per distinct tap.
    let distinct_taps = classifier.adc_bank().distinct_taps().len();
    let control_cells = 3 * bits as usize + 2 * distinct_taps + 8;
    let nand = library.cell(CellKind::Nand2);
    let control_area = nand.area * control_cells as f64;
    let control_power = nand.static_power * control_cells as f64;

    // Combinational label logic: identical to the parallel design's.
    let logic = analyze(&classifier.to_netlist(), library, config);

    // Latency: each serialized level must settle through the analog mux,
    // the comparator, and the latch.
    let per_cycle = analog.comparator_delay + sequential.dff_delay;
    let latency = per_cycle * cycles as f64 + logic.critical_path;

    SerialUnaryEstimate {
        area: analog_area + seq_area + control_area + logic.area,
        power: analog_power + seq_power + control_power + logic.total_power(),
        flip_flops,
        comparators: inputs,
        conversion_cycles: cycles,
        latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesize_unary;
    use printed_datasets::Benchmark;
    use printed_dtree::cart::train_depth_selected;

    fn model_tree(benchmark: Benchmark) -> DecisionTree {
        let (train, test) = benchmark.load_quantized(4).expect("built-ins load");
        train_depth_selected(&train, &test, 6).tree
    }

    #[test]
    fn serial_blows_the_cycle_budget() {
        // 15 levels × (4 ms comparator + 2.2 ms latch) ≈ 93 ms ≫ 50 ms:
        // the paper's "printed-unfriendly multi-cycle operation", in numbers.
        let est = estimate_serial_unary(&model_tree(Benchmark::Seeds));
        assert_eq!(est.conversion_cycles, 15);
        assert!(est.latency.ms() > 50.0, "latency {}", est.latency);
        assert!(!est.meets_20hz());
    }

    #[test]
    fn serial_needs_registers_parallel_does_not() {
        let tree = model_tree(Benchmark::Vertebral3C);
        let est = estimate_serial_unary(&tree);
        assert!(est.flip_flops >= tree.distinct_pairs().len());
        // The parallel design's netlist is purely combinational.
        let parallel = synthesize_unary(&tree);
        assert!(parallel.digital.meets_timing(50.0));
    }

    #[test]
    fn serial_saves_comparators_but_not_power() {
        let tree = model_tree(Benchmark::Cardio);
        let est = estimate_serial_unary(&tree);
        let parallel = synthesize_unary(&tree);
        assert!(
            est.comparators < parallel.comparator_count(),
            "serial's one genuine saving: {} vs {} comparators",
            est.comparators,
            parallel.comparator_count()
        );
        assert!(
            est.power > parallel.total_power(),
            "registers + control erase the comparator saving: {} vs {}",
            est.power,
            parallel.total_power()
        );
    }

    #[test]
    fn estimate_is_deterministic() {
        let tree = model_tree(Benchmark::Seeds);
        assert_eq!(estimate_serial_unary(&tree), estimate_serial_unary(&tree));
    }
}
