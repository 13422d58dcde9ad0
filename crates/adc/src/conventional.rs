//! Conventional flash ADCs (the baseline's front-end).
//!
//! A conventional `N`-bit flash ADC is a full reference ladder, `2^N − 1`
//! comparators, and a priority encoder producing the binary output. The
//! baseline systems of the paper place one such ADC per used input feature,
//! with a single shared precision reference ladder across the bank (the
//! decomposition implied by Table I's affine area/power scaling — see
//! `printed-pdk::calibration`).
//!
//! ```
//! use printed_adc::conventional::ConventionalAdc;
//! use printed_pdk::AnalogModel;
//!
//! let adc = ConventionalAdc::new(4);
//! assert_eq!(adc.convert(0.70), 11); // 0.70 · 16 = 11.2 → level 11
//!
//! let model = AnalogModel::egfet();
//! let bank = adc.bank_cost(19, &model); // Cardio: 19 inputs
//! assert!(bank.power.mw() > 8.0 && bank.power.mw() < 11.0);
//! ```

use printed_analog::ladder::Ladder;
use printed_pdk::AnalogModel;

use crate::cost::AdcCost;

/// A conventional `bits`-bit flash ADC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConventionalAdc {
    bits: u32,
}

impl ConventionalAdc {
    /// Creates a `bits`-bit flash ADC model.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=8`.
    pub fn new(bits: u32) -> Self {
        assert!((1..=8).contains(&bits), "bits must be 1..=8, got {bits}");
        Self { bits }
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of comparators (`2^bits − 1`).
    pub fn comparator_count(&self) -> usize {
        (1usize << self.bits) - 1
    }

    /// Ideal conversion of a normalized input `vin ∈ [0, 1]` to its
    /// quantization level: the number of ladder taps at or below the input.
    ///
    /// Boundary convention: an input exactly on a tap voltage counts as
    /// *above* it, matching the `⌊v·2^bits⌋` quantizer in
    /// `printed-datasets` (`0.5` → level 8 at 4 bits).
    ///
    /// # Panics
    ///
    /// Panics if `vin` is NaN.
    pub fn convert(&self, vin: f64) -> u8 {
        assert!(!vin.is_nan(), "cannot convert NaN");
        let full = (1u16 << self.bits) as f64;
        (1..=(self.comparator_count()))
            .filter(|&tap| vin >= tap as f64 / full)
            .count() as u8
    }

    /// Conversion through an explicit behavioral ladder+comparator chain —
    /// the "electrical" path, used by tests to confirm the ideal
    /// [`ConventionalAdc::convert`] agrees with an MNA-solved front-end.
    ///
    /// # Panics
    ///
    /// Panics if the ladder solve fails (impossible for the ladders built
    /// here).
    pub fn convert_electrical(&self, vin: f64, model: &AnalogModel) -> u8 {
        let ladder = Ladder::full(self.bits, model.supply.volts(), model.unit_resistor.ohms());
        let taps = ladder.tap_voltages().expect("full ladder solves");
        // Same at-or-above boundary convention as `convert`, with a small
        // epsilon absorbing MNA rounding at exact tap voltages.
        taps.values().filter(|&&vref| vin >= vref - 1e-12).count() as u8
    }

    /// Cost of one standalone ADC (private ladder + comparators + encoder).
    ///
    /// Comparator tap orders and the encoder are scaled to this ADC's
    /// resolution within the 4-bit-calibrated model: a `b < 4`-bit ADC uses
    /// every `2^(4−b)`-th tap of the 4-bit reference scale (same full-scale
    /// range, coarser steps) and an encoder sized by its comparator count.
    pub fn standalone_cost(&self, model: &AnalogModel) -> AdcCost {
        let bank = self.slice_cost(model);
        AdcCost {
            area: bank.area + model.full_ladder_area(),
            power: bank.power + model.full_ladder_power,
            comparators: bank.comparators,
            ladder_resistors: model.segment_count(),
            encoders: bank.encoders,
        }
    }

    /// Cost of the per-input slice (comparators + encoder, no ladder) — the
    /// marginal cost of adding one input of this resolution to a bank that
    /// already has a shared reference ladder. Mixed-precision banks (as in
    /// the precision-scaled baseline of Balaskas et al.) sum one slice per
    /// input at that input's resolution plus one full ladder.
    pub fn slice_cost(&self, model: &AnalogModel) -> AdcCost {
        let taps = self.tap_orders(model);
        let comp_power = model.comparator_bank_power(&taps);
        let comp_area = model.comparator_bank_area(taps.len());
        // Encoder macro scaled by comparator count relative to the
        // calibrated 4-bit (15-comparator) encoder.
        let scale = taps.len() as f64 / model.tap_count() as f64;
        AdcCost {
            area: comp_area + model.encoder_area * scale,
            power: comp_power + model.encoder_power * scale,
            comparators: taps.len(),
            ladder_resistors: 0,
            encoders: 1,
        }
    }

    /// The tap orders (on the calibrated reference scale) this ADC's
    /// comparators sit at.
    fn tap_orders(&self, model: &AnalogModel) -> Vec<usize> {
        let own = self.comparator_count();
        if self.bits >= model.resolution_bits {
            // At or above the calibrated resolution: dense taps (clamped to
            // the model's range for power lookup).
            (1..=own).map(|t| t.min(model.tap_count())).collect()
        } else {
            let stride = 1usize << (model.resolution_bits - self.bits);
            (1..=own).map(|t| t * stride).collect()
        }
    }

    /// Cost of a bank of `n_inputs` such ADCs sharing one full precision
    /// ladder — the baseline configuration of Table I.
    pub fn bank_cost(&self, n_inputs: usize, model: &AnalogModel) -> AdcCost {
        if n_inputs == 0 {
            return AdcCost::zero();
        }
        let slice = self.slice_cost(model);
        AdcCost {
            area: model.full_ladder_area() + slice.area * n_inputs as f64,
            power: model.full_ladder_power + slice.power * n_inputs as f64,
            comparators: slice.comparators * n_inputs,
            ladder_resistors: model.segment_count(),
            encoders: n_inputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AnalogModel {
        AnalogModel::egfet()
    }

    #[test]
    fn conversion_is_ideal_quantization() {
        let adc = ConventionalAdc::new(4);
        assert_eq!(adc.convert(0.0), 0);
        assert_eq!(adc.convert(1.0), 15);
        assert_eq!(adc.convert(0.5), 8); // exactly on tap 8 counts as above it
        assert_eq!(adc.convert(0.51), 8);
        assert_eq!(adc.convert(0.49), 7);
    }

    #[test]
    fn electrical_and_ideal_paths_agree() {
        let adc = ConventionalAdc::new(4);
        let m = model();
        for i in 0..=100 {
            let vin = i as f64 / 100.0;
            assert_eq!(
                adc.convert(vin),
                adc.convert_electrical(vin, &m),
                "vin={vin}"
            );
        }
    }

    #[test]
    fn standalone_4bit_matches_calibration_anchor() {
        let cost = ConventionalAdc::new(4).standalone_cost(&model());
        assert!((cost.area.mm2() - 11.0).abs() < 0.3, "area {}", cost.area);
        assert_eq!(cost.comparators, 15);
        assert_eq!(cost.ladder_resistors, 16);
        assert_eq!(cost.encoders, 1);
    }

    #[test]
    fn bank_cost_is_affine_in_inputs() {
        let adc = ConventionalAdc::new(4);
        let m = model();
        let c1 = adc.bank_cost(1, &m);
        let c2 = adc.bank_cost(2, &m);
        let c21 = adc.bank_cost(21, &m);
        let slope_area = c2.area - c1.area;
        let expect = c1.area + slope_area * 20.0;
        assert!((c21.area.mm2() - expect.mm2()).abs() < 1e-9);
        // Table I anchor: 21 inputs ≈ 23.5 mm², ≈ 10 mW.
        assert!((c21.area.mm2() - 23.5).abs() < 0.8, "area {}", c21.area);
        assert!((c21.power.mw() - 10.0).abs() < 1.2, "power {}", c21.power);
    }

    #[test]
    fn table1_adc_anchors_within_band() {
        // (inputs, paper area mm², paper power mW) from Table I.
        let anchors = [
            (11usize, 17.3, 5.4),
            (19, 22.3, 9.1),
            (21, 23.5, 10.0),
            (4, 12.9, 2.2),
            (5, 13.6, 2.5),
            (16, 20.4, 7.7),
        ];
        let adc = ConventionalAdc::new(4);
        let m = model();
        for (n, pa, pp) in anchors {
            let c = adc.bank_cost(n, &m);
            let aerr = (c.area.mm2() - pa).abs() / pa;
            let perr = (c.power.mw() - pp).abs() / pp;
            assert!(aerr < 0.05, "n={n}: area {} vs paper {pa}", c.area);
            assert!(perr < 0.12, "n={n}: power {} vs paper {pp}", c.power);
        }
    }

    #[test]
    fn lower_resolution_adcs_are_cheaper() {
        let m = model();
        let c4 = ConventionalAdc::new(4).standalone_cost(&m);
        let c3 = ConventionalAdc::new(3).standalone_cost(&m);
        let c2 = ConventionalAdc::new(2).standalone_cost(&m);
        assert!(c3.area < c4.area && c2.area < c3.area);
        assert!(c3.power < c4.power && c2.power < c3.power);
        assert_eq!(c3.comparators, 7);
        assert_eq!(c2.comparators, 3);
    }

    #[test]
    fn three_bit_taps_sit_on_even_orders() {
        // A 3-bit ADC in the 4-bit-calibrated model uses taps 2,4,…,14 —
        // same full-scale range, double step.
        let adc = ConventionalAdc::new(3);
        assert_eq!(adc.tap_orders(&model()), vec![2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn zero_inputs_cost_nothing() {
        assert_eq!(
            ConventionalAdc::new(4).bank_cost(0, &model()),
            AdcCost::zero()
        );
    }

    #[test]
    #[should_panic(expected = "bits must be")]
    fn rejects_bad_resolution() {
        ConventionalAdc::new(0);
    }
}
