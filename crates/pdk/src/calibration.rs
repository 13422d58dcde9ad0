//! Published anchors this PDK is calibrated against, and how well it hits
//! them.
//!
//! The paper characterized its circuits with Cadence Virtuoso (EGFET PDK,
//! SPICE) and Synopsys Design Compiler / PrimeTime — none of which exist
//! here. This module records the *published numbers* we calibrate our
//! behavioral models to, so that every downstream experiment states clearly
//! what it is anchored on. The constants live in [`crate::analog`] and
//! [`crate::cells`]; this module only restates the anchors and provides the
//! derived reference quantities the experiment binaries print next to
//! measured values.
//!
//! Not every published number can be hit simultaneously: a standalone
//! conventional 4-bit ADC is quoted at 11 mm² / 0.83 mW, while Table I
//! implies a much cheaper per-input slice (affine fit ≈ 10.4 mm² + 0.62·m
//! area, ≈ 0.24 mW + 0.47·m power over `m` inputs). We resolve this with a
//! shared-reference-ladder model and calibrate to **Table I** (it feeds the
//! headline reduction factors); the standalone-power anchor is the one we
//! knowingly miss (see `DESIGN.md` §2 and EXPERIMENTS.md).
//!
//! Two further published anchors are recorded here as prose only: a
//! 4-output bespoke ADC spans 47–205 µW (lowest vs highest taps, Fig. 3;
//! `fig3` prints it and `tests/calibration.rs` checks it), and one
//! baseline bespoke tree node
//! (a 4-bit hardwired comparator plus its share of the decision logic)
//! costs about 1.1 mm² and 44 µW, back-solved from Table I's digital
//! residual (total minus ADCs, divided by node count).

use crate::analog::AnalogModel;
use crate::units::{Area, Power};

/// Printed-energy-harvester budget the paper evaluates self-powering
/// against: classifiers below 2 mW can run from printed harvesters.
pub const HARVESTER_BUDGET: Power = Power::from_uw(2000.0);

/// Published area of a standalone conventional 4-bit flash ADC.
pub const PAPER_ADC4_AREA: Area = Area::from_mm2(11.0);

/// Published power of a standalone conventional 4-bit flash ADC.
pub const PAPER_ADC4_POWER: Power = Power::from_uw(830.0);

/// Conventional 4-bit ADC cost under this PDK's model, as `(area, power)`.
///
/// Composition: full 16-segment reference ladder + 15 comparators + the
/// 15→4 priority-encoder macro. Compare against [`PAPER_ADC4_AREA`] /
/// [`PAPER_ADC4_POWER`] — the area matches, the power is lower because we
/// charge comparators their Table-I-consistent static power (the published
/// standalone figure appears to include conversion dynamics we do not
/// model; the discrepancy is recorded in EXPERIMENTS.md).
pub fn model_adc4_cost(model: &AnalogModel) -> (Area, Power) {
    let taps: Vec<usize> = (1..=model.tap_count()).collect();
    let area = model.full_ladder_area()
        + model.comparator_bank_area(model.tap_count())
        + model.encoder_area;
    let power = model.full_ladder_power + model.comparator_bank_power(&taps) + model.encoder_power;
    (area, power)
}

/// Per-input *slice* cost of a conventional ADC when the precision reference
/// ladder is shared across a bank of inputs: 15 comparators + one encoder.
pub fn model_adc4_slice_cost(model: &AnalogModel) -> (Area, Power) {
    let taps: Vec<usize> = (1..=model.tap_count()).collect();
    let area = model.comparator_bank_area(model.tap_count()) + model.encoder_area;
    let power = model.comparator_bank_power(&taps) + model.encoder_power;
    (area, power)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adc4_area_anchor_holds() {
        let (area, _) = model_adc4_cost(&AnalogModel::egfet());
        let err = (area.mm2() - PAPER_ADC4_AREA.mm2()).abs() / PAPER_ADC4_AREA.mm2();
        assert!(
            err < 0.02,
            "conventional ADC area {area} vs anchor {PAPER_ADC4_AREA}"
        );
    }

    #[test]
    fn table1_slice_fits_published_affine_model() {
        // Table I affine fit: slice ≈ 0.62 mm² and ≈ 0.47 mW per input.
        let (area, power) = model_adc4_slice_cost(&AnalogModel::egfet());
        assert!((area.mm2() - 0.62).abs() < 0.02, "slice area {area}");
        assert!((power.mw() - 0.47).abs() < 0.08, "slice power {power}");
    }

    #[test]
    fn standalone_power_documented_deviation() {
        // We knowingly undershoot the published standalone 0.83 mW (see
        // module docs); assert we are in the documented band rather than
        // silently drifting.
        let (_, power) = model_adc4_cost(&AnalogModel::egfet());
        assert!(
            power.uw() > 450.0 && power.uw() < PAPER_ADC4_POWER.uw(),
            "{power}"
        );
    }

    #[test]
    fn harvester_budget_is_two_milliwatts() {
        assert_eq!(HARVESTER_BUDGET.mw(), 2.0);
    }
}
