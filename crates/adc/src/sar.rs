//! SAR ADC alternative-architecture model — quantifying the paper's
//! "why flash" choice (§II-B).
//!
//! A successive-approximation ADC trades comparators for time: one
//! comparator, a charge-redistribution DAC, and a SAR register resolve one
//! bit per cycle. In silicon that trade is excellent; in printed
//! electronics it runs into the same walls as serial unary computing:
//!
//! * the binary-weighted capacitor array needs `2^N` printed unit caps —
//!   large, like the flash ladder it replaces;
//! * the SAR register and control are flip-flops — expensive in printed
//!   technology;
//! * conversion is multi-cycle through a millisecond-scale comparator.
//!
//! Crucially for this paper, a SAR ADC also *cannot be made bespoke the
//! flash way*: it produces binary codes, so the unary architecture would
//! need the thermometer decode back, and there is no per-tap comparator to
//! prune. The model here prices the conventional-SAR bank so experiments
//! can show the comparison quantitatively.
//!
//! ```
//! use printed_adc::sar::SarAdc;
//! use printed_pdk::AnalogModel;
//!
//! let sar = SarAdc::new(4);
//! let model = AnalogModel::egfet();
//! // One comparator instead of fifteen…
//! assert_eq!(sar.comparator_count(), 1);
//! // …but four serialized comparator decisions per conversion.
//! assert_eq!(sar.conversion_cycles(), 4);
//! assert!(sar.standalone_cost(&model).comparators == 1);
//! ```

use printed_pdk::{AnalogModel, Delay, SequentialParams};

use crate::cost::AdcCost;

/// A `bits`-bit successive-approximation ADC model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SarAdc {
    bits: u32,
}

impl SarAdc {
    /// Creates a `bits`-bit SAR ADC model.
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

    /// SAR uses exactly one comparator regardless of resolution.
    pub fn comparator_count(&self) -> usize {
        1
    }

    /// One bit is resolved per cycle.
    pub fn conversion_cycles(&self) -> usize {
        self.bits as usize
    }

    /// Ideal conversion (same quantizer semantics as the flash models).
    ///
    /// # Panics
    ///
    /// Panics if `vin` is NaN.
    pub fn convert(&self, vin: f64) -> u8 {
        assert!(!vin.is_nan(), "cannot convert NaN");
        // Binary search over the code space — the SAR algorithm itself.
        let full = (1u16 << self.bits) as f64;
        let mut code = 0u16;
        for bit in (0..self.bits).rev() {
            let trial = code | (1 << bit);
            if vin >= trial as f64 / full {
                code = trial;
            }
        }
        code as u8
    }

    /// Time for one full conversion: `bits` serialized
    /// comparator-decide-then-latch steps.
    pub fn conversion_latency(&self, model: &AnalogModel, seq: &SequentialParams) -> Delay {
        (model.comparator_delay + seq.dff_delay) * self.bits as f64
    }

    /// Cost of one standalone SAR ADC: comparator + binary-weighted cap DAC
    /// (`2^bits` units + one switch per bit) + SAR register (`bits` result
    /// flip-flops + `bits` sequencer flip-flops) + control logic.
    pub fn standalone_cost(&self, model: &AnalogModel) -> AdcCost {
        self.standalone_cost_with(model, &SequentialParams::egfet())
    }

    /// [`SarAdc::standalone_cost`] with explicit sequential-cell costs.
    pub fn standalone_cost_with(&self, model: &AnalogModel, seq: &SequentialParams) -> AdcCost {
        let bits = self.bits as usize;
        // Comparator at mid-scale reference.
        let mid_tap = (1usize << (self.bits - 1)).min(model.tap_count());
        let comparator_power = model.comparator_power(mid_tap);
        let comparator_area = model.comparator_area;
        // DAC: binary-weighted array totals 2^bits units, one switch per bit.
        let dac_area =
            model.cap_unit_area * (1usize << self.bits) as f64 + model.switch_area * bits as f64;
        let dac_power = model.switch_power * bits as f64;
        // SAR register + sequencer + ~4 gates of control per bit, priced as
        // flip-flop-equivalents for the gates' two pull-up stages.
        let dffs = 2 * bits;
        let control_power_per_bit = 4.0 * 2.6; // four NAND2-class stages
        let control_area_per_bit = 4.0 * 0.074;
        let seq_area = seq.dff_area * dffs as f64
            + printed_pdk::Area::from_mm2(control_area_per_bit * bits as f64);
        let seq_power = seq.dff_static_power * dffs as f64
            + printed_pdk::Power::from_uw(control_power_per_bit * bits as f64);

        AdcCost {
            area: comparator_area + dac_area + seq_area,
            power: comparator_power + dac_power + seq_power,
            comparators: 1,
            ladder_resistors: 0,
            encoders: 0,
        }
    }

    /// Cost of `n_inputs` SAR ADCs (no ladder to share — each input needs
    /// its own DAC and register).
    pub fn bank_cost(&self, n_inputs: usize, model: &AnalogModel) -> AdcCost {
        let one = self.standalone_cost(model);
        AdcCost {
            area: one.area * n_inputs as f64,
            power: one.power * n_inputs as f64,
            comparators: one.comparators * n_inputs,
            ladder_resistors: 0,
            encoders: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conventional::ConventionalAdc;

    fn model() -> AnalogModel {
        AnalogModel::egfet()
    }

    #[test]
    fn sar_conversion_matches_flash_quantizer() {
        let sar = SarAdc::new(4);
        let flash = ConventionalAdc::new(4);
        for i in 0..=200 {
            let vin = i as f64 / 200.0;
            assert_eq!(sar.convert(vin), flash.convert(vin), "vin={vin}");
        }
    }

    #[test]
    fn sar_conversion_at_lower_resolutions() {
        let sar = SarAdc::new(2);
        assert_eq!(sar.convert(0.0), 0);
        assert_eq!(sar.convert(0.26), 1);
        assert_eq!(sar.convert(0.51), 2);
        assert_eq!(sar.convert(0.99), 3);
    }

    #[test]
    fn sar_latency_is_serial_but_shorter_than_thermometer_serial() {
        let sar = SarAdc::new(4);
        let latency = sar.conversion_latency(&model(), &SequentialParams::egfet());
        // 4 × (4 ms + 2.2 ms) = 24.8 ms: inside the 50 ms budget, unlike
        // the 15-cycle serial-unary strawman — but see the cost test.
        assert!(latency.ms() > 20.0 && latency.ms() < 50.0, "{latency}");
    }

    #[test]
    fn sar_bank_beats_flash_on_comparators_not_on_bespoke_power() {
        let m = model();
        let sar_bank = SarAdc::new(4).bank_cost(5, &m);
        let flash_bank = ConventionalAdc::new(4).bank_cost(5, &m);
        assert_eq!(sar_bank.comparators, 5);
        assert_eq!(flash_bank.comparators, 75);
        // Conventional vs conventional, SAR's register+DAC burn more power
        // than it saves in comparators at printed costs.
        assert!(
            sar_bank.power.uw() > flash_bank.power.uw() * 0.25,
            "SAR is no free lunch: {} vs {}",
            sar_bank.power,
            flash_bank.power
        );
        // And crucially, SAR cannot be pruned to a handful of taps the way
        // a bespoke flash ADC can (cf. BespokeAdcBank), which is the
        // paper's real reason for flash.
    }

    #[test]
    fn costs_scale_with_resolution() {
        let m = model();
        let s2 = SarAdc::new(2).standalone_cost(&m);
        let s4 = SarAdc::new(4).standalone_cost(&m);
        assert!(s2.area < s4.area);
        assert!(s2.power < s4.power);
    }

    #[test]
    #[should_panic(expected = "bits must be")]
    fn rejects_bad_resolution() {
        SarAdc::new(9);
    }
}
