//! Analog component cost model: comparators, reference ladders, encoders.
//!
//! Flash ADCs are the analog workhorse of this technology. Their cost is
//! governed by three components, each modeled here:
//!
//! * **Comparators** — one per retained thermometer tap. Area is constant per
//!   comparator; static power grows affinely with the tap *order* because a
//!   higher tap means a higher reference voltage on the inverting input and
//!   therefore a larger standing current in the printed input stage. This is
//!   the effect the paper's Fig. 3 shows (a 4-U_D bespoke ADC spans
//!   47–205 µW depending on *which* four taps are kept) and the effect the
//!   ADC-aware trainer exploits by preferring low thresholds.
//! * **Reference ladder** — a string of printed unit resistors from supply to
//!   ground. Printed precision resistors are enormous, which is why the
//!   ladder dominates ADC area. A conventional ladder has 2^N segments; a
//!   bespoke ladder merges the series segments between retained taps, so its
//!   area scales with the number of distinct retained taps (electrical
//!   equivalence of the merge is verified by `printed-analog`).
//! * **Priority encoder** — converts thermometer to binary. Only the
//!   conventional ADC pays for it; the unary architecture consumes the
//!   thermometer code directly.
//!
//! ```
//! use printed_pdk::analog::AnalogModel;
//!
//! let m = AnalogModel::egfet();
//! // Higher-order taps burn more power:
//! assert!(m.comparator_power(14) > m.comparator_power(1));
//! // A pruned 4-tap ladder is much smaller than the full 16-segment one:
//! assert!(m.bespoke_ladder_area(4) < m.full_ladder_area());
//! ```

use crate::units::{Area, Delay, Power, Resistance, Voltage};

/// Calibrated analog cost model for the EGFET flash-ADC components.
///
/// All constants are exposed as public fields so studies can perturb them;
/// [`AnalogModel::egfet`] gives the calibrated defaults (derivation in the
/// field docs and in [`crate::calibration`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AnalogModel {
    /// Supply voltage. EGFET operates below 1 V.
    pub supply: Voltage,
    /// Area of one comparator.
    pub comparator_area: Area,
    /// Tap-independent part of a comparator's static power.
    pub comparator_power_base: Power,
    /// Additional static power per unit of tap order (tap 1 = lowest Vref).
    ///
    /// Calibration: the paper reports that a 4-output bespoke ADC spans
    /// 47 µW (taps 1–4) to 205 µW (taps 12–15). Solving
    /// `4·base + (1+2+3+4)·slope = 47` and `4·base + (12+13+14+15)·slope = 205`
    /// gives slope ≈ 3.59 µW/tap and base ≈ 2.77 µW.
    pub comparator_power_slope: Power,
    /// Comparator response time (limits conversion rate, not cycle time at
    /// 20 Hz).
    pub comparator_delay: Delay,
    /// Area of one unit resistor segment of the reference ladder.
    ///
    /// Calibration: Table I of the paper fits `ADC area ≈ 10.4 mm² + 0.62·m`
    /// over `m` inputs, i.e. one shared 16-segment precision ladder of
    /// ≈ 10.4 mm² → 0.65 mm² per printed unit resistor.
    pub unit_resistor_area: Area,
    /// Resistance of one unit segment (sets the ladder's standing current).
    ///
    /// Chosen so the 16-segment string at 1 V draws exactly
    /// [`AnalogModel::full_ladder_power`]: `1 V² / (16 · 2.5 kΩ) = 25 µW`.
    /// The MNA cross-check lives in `printed-analog::ladder`.
    pub unit_resistor: Resistance,
    /// Static power of the full 2^N-segment ladder.
    ///
    /// The string current is `V² / (2^N · R_unit)`; with high-ohmic printed
    /// resistors this is tens of µW at most.
    pub full_ladder_power: Power,
    /// Area of the 4-bit (15→4) priority encoder hard macro.
    ///
    /// Calibration: Table I's per-input slice is ≈ 0.62 mm² = 15 comparators
    /// + encoder, giving ≈ 0.14 mm² for the encoder macro.
    pub encoder_area: Area,
    /// Static power of the 4-bit priority encoder hard macro.
    pub encoder_power: Power,
    /// Number of binary output bits of the conventional ADC this model is
    /// calibrated for (4 bits ⇒ 15 taps, 16 ladder segments).
    pub resolution_bits: u32,
    /// Area of one unit capacitor of a charge-redistribution DAC (printed
    /// capacitors are large; an N-bit binary-weighted array needs `2^N`
    /// units). Used by the SAR alternative-architecture model only.
    pub cap_unit_area: Area,
    /// Area of one analog switch (DAC bottom-plate switching).
    pub switch_area: Area,
    /// Static power of one analog switch driver.
    pub switch_power: Power,
}

impl AnalogModel {
    /// The calibrated EGFET model (see field docs for the derivation of each
    /// constant, and `DESIGN.md` for the calibration story).
    pub fn egfet() -> Self {
        Self {
            supply: Voltage::from_v(1.0),
            comparator_area: Area::from_mm2(0.032),
            comparator_power_base: Power::from_uw(2.77),
            comparator_power_slope: Power::from_uw(3.59),
            comparator_delay: Delay::from_ms(4.0),
            unit_resistor_area: Area::from_mm2(0.65),
            unit_resistor: Resistance::from_kohm(2.5),
            full_ladder_power: Power::from_uw(25.0),
            encoder_area: Area::from_mm2(0.14),
            encoder_power: Power::from_uw(35.0),
            resolution_bits: 4,
            cap_unit_area: Area::from_mm2(0.045),
            switch_area: Area::from_mm2(0.02),
            switch_power: Power::from_uw(0.8),
        }
    }

    /// The EGFET model rescaled to a different ADC resolution.
    ///
    /// Comparator power tracks the reference voltage, so the per-tap slope
    /// scales with the step size (`16/2^bits` of the 4-bit calibration);
    /// the full ladder keeps its unit resistance, so its standing power
    /// scales the same way while its area follows the segment count (both
    /// already derived from `resolution_bits`).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=8`.
    pub fn egfet_with_bits(bits: u32) -> Self {
        assert!((1..=8).contains(&bits), "bits must be 1..=8, got {bits}");
        let base = Self::egfet();
        let scale = 16.0 / (1u32 << bits) as f64;
        Self {
            resolution_bits: bits,
            comparator_power_slope: base.comparator_power_slope * scale,
            full_ladder_power: base.full_ladder_power * scale,
            ..base
        }
    }

    /// Number of thermometer taps of the conventional ADC: `2^N − 1`.
    pub fn tap_count(&self) -> usize {
        (1usize << self.resolution_bits) - 1
    }

    /// Number of unit segments in the full reference ladder: `2^N`.
    pub fn segment_count(&self) -> usize {
        1usize << self.resolution_bits
    }

    /// Static power of the comparator attached to thermometer tap `tap`
    /// (1-based; tap 1 compares against the lowest reference voltage).
    ///
    /// # Panics
    ///
    /// Panics if `tap` is 0 or exceeds the tap count.
    pub fn comparator_power(&self, tap: usize) -> Power {
        assert!(
            (1..=self.tap_count()).contains(&tap),
            "tap {tap} out of range 1..={}",
            self.tap_count()
        );
        self.comparator_power_base + self.comparator_power_slope * tap as f64
    }

    /// The reference voltage at thermometer tap `tap` (1-based): `tap/2^N`
    /// of the supply.
    ///
    /// # Panics
    ///
    /// Panics if `tap` is 0 or exceeds the tap count.
    pub fn reference_voltage(&self, tap: usize) -> Voltage {
        assert!(
            (1..=self.tap_count()).contains(&tap),
            "tap {tap} out of range 1..={}",
            self.tap_count()
        );
        Voltage::from_v(self.supply.volts() * tap as f64 / self.segment_count() as f64)
    }

    /// Area of the full (conventional) reference ladder.
    pub fn full_ladder_area(&self) -> Area {
        self.unit_resistor_area * self.segment_count() as f64
    }

    /// Area of a bespoke ladder retaining `distinct_taps` distinct taps.
    ///
    /// Series segments between retained taps are merged into single printed
    /// resistors, so the bespoke ladder needs `distinct_taps + 1` resistors.
    /// A ladder with zero taps is no ladder at all and costs nothing.
    pub fn bespoke_ladder_area(&self, distinct_taps: usize) -> Area {
        if distinct_taps == 0 {
            Area::ZERO
        } else {
            self.unit_resistor_area * (distinct_taps + 1) as f64
        }
    }

    /// Static power of a bespoke ladder retaining `distinct_taps` taps.
    ///
    /// Merging series segments keeps the total string resistance — and hence
    /// the standing current — unchanged, so power equals the full ladder's
    /// whenever at least one tap is retained.
    pub fn bespoke_ladder_power(&self, distinct_taps: usize) -> Power {
        if distinct_taps == 0 {
            Power::ZERO
        } else {
            self.full_ladder_power
        }
    }

    /// Total comparator power for a set of retained taps (1-based orders).
    ///
    /// # Panics
    ///
    /// Panics if any tap is out of range.
    pub fn comparator_bank_power(&self, taps: &[usize]) -> Power {
        taps.iter().map(|&t| self.comparator_power(t)).sum()
    }

    /// Total comparator area for `count` retained comparators.
    pub fn comparator_bank_area(&self, count: usize) -> Area {
        self.comparator_area * count as f64
    }
}

impl Default for AnalogModel {
    fn default() -> Self {
        Self::egfet()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tap_and_segment_counts() {
        let m = AnalogModel::egfet();
        assert_eq!(m.tap_count(), 15);
        assert_eq!(m.segment_count(), 16);
    }

    #[test]
    fn fig3_power_span_anchors() {
        // 4-U_D bespoke ADC: lowest four taps ≈ 47 µW, highest four ≈ 205 µW.
        let m = AnalogModel::egfet();
        let low = m.comparator_bank_power(&[1, 2, 3, 4]);
        let high = m.comparator_bank_power(&[12, 13, 14, 15]);
        assert!((low.uw() - 47.0).abs() < 1.0, "low span {low}");
        assert!((high.uw() - 205.0).abs() < 1.0, "high span {high}");
        // The paper highlights the 4.4× ratio between the two.
        assert!((high / low - 4.4).abs() < 0.1);
    }

    #[test]
    fn reference_voltages_are_monotone_fractions() {
        let m = AnalogModel::egfet();
        let mut prev = Voltage::from_v(0.0);
        for tap in 1..=m.tap_count() {
            let v = m.reference_voltage(tap);
            assert!(v > prev);
            assert!(v < m.supply);
            prev = v;
        }
        assert!((m.reference_voltage(8).volts() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ladder_area_scales_with_retained_taps() {
        let m = AnalogModel::egfet();
        assert_eq!(m.bespoke_ladder_area(0), Area::ZERO);
        assert!(m.bespoke_ladder_area(1) < m.bespoke_ladder_area(2));
        // Retaining every tap needs the full segment count again.
        assert_eq!(
            m.bespoke_ladder_area(m.tap_count()).mm2(),
            m.full_ladder_area().mm2()
        );
    }

    #[test]
    fn ladder_power_constant_once_present() {
        let m = AnalogModel::egfet();
        assert_eq!(m.bespoke_ladder_power(0), Power::ZERO);
        assert_eq!(m.bespoke_ladder_power(1), m.full_ladder_power);
        assert_eq!(m.bespoke_ladder_power(15), m.full_ladder_power);
    }

    #[test]
    fn rescaled_models_preserve_voltage_anchors() {
        // A mid-scale comparator burns the same power at any resolution,
        // because its reference voltage is the same physical node.
        let m4 = AnalogModel::egfet();
        let m6 = AnalogModel::egfet_with_bits(6);
        let m2 = AnalogModel::egfet_with_bits(2);
        assert_eq!(m6.tap_count(), 63);
        assert_eq!(m2.tap_count(), 3);
        let mid4 = m4.comparator_power(8); // 0.5 V at 4 bits
        let mid6 = m6.comparator_power(32); // 0.5 V at 6 bits
        let mid2 = m2.comparator_power(2); // 0.5 V at 2 bits
        assert!((mid4.uw() - mid6.uw()).abs() < 1e-9);
        assert!((mid4.uw() - mid2.uw()).abs() < 1e-9);
        // Ladder power scales inversely with segment count (same unit R).
        assert!((m6.full_ladder_power.uw() - 25.0 / 4.0).abs() < 1e-9);
        assert!((m2.full_ladder_power.uw() - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn comparator_power_rejects_tap_zero() {
        AnalogModel::egfet().comparator_power(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn comparator_power_rejects_tap_above_range() {
        AnalogModel::egfet().comparator_power(16);
    }
}
