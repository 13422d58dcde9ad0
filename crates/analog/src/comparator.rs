//! Behavioral comparator model.
//!
//! The digital decision a flash-ADC comparator makes is `vin > vref`, but a
//! real printed comparator has an input-referred offset and finite gain.
//! This model captures both so mismatch studies can quantify how printing
//! variation corrupts the thermometer code — and therefore the classifier —
//! without running transistor-level simulation.
//!
//! ```
//! use printed_analog::comparator::Comparator;
//!
//! let ideal = Comparator::ideal();
//! assert!(ideal.decide(0.51, 0.5));
//! assert!(!ideal.decide(0.49, 0.5));
//!
//! // A +30 mV offset makes the comparator trip early.
//! let skewed = Comparator::with_offset(0.03);
//! assert!(skewed.decide(0.48, 0.5));
//! ```

/// Behavioral comparator: `out = (vin + offset) > vref`, with finite gain
/// for analog-output and metastability queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparator {
    /// Input-referred offset in volts (added to `vin`).
    pub offset_volts: f64,
    /// Small-signal gain (V/V) around the trip point.
    pub gain: f64,
    /// Output swing in volts (the supply for rail-to-rail outputs).
    pub swing_volts: f64,
}

impl Comparator {
    /// An offset-free comparator with a typical printed gain of 200 V/V and
    /// 1 V swing.
    pub fn ideal() -> Self {
        Self {
            offset_volts: 0.0,
            gain: 200.0,
            swing_volts: 1.0,
        }
    }

    /// An otherwise-ideal comparator with the given input offset.
    pub fn with_offset(offset_volts: f64) -> Self {
        Self {
            offset_volts,
            ..Self::ideal()
        }
    }

    /// The digital decision: is the (offset-corrupted) input above the
    /// reference?
    #[inline]
    pub fn decide(&self, vin: f64, vref: f64) -> bool {
        vin + self.offset_volts > vref
    }

    /// The analog output voltage for a given input/reference pair: the
    /// linear region around the trip point clipped to the output swing.
    pub fn output_voltage(&self, vin: f64, vref: f64) -> f64 {
        let mid = self.swing_volts / 2.0;
        (mid + self.gain * (vin + self.offset_volts - vref)).clamp(0.0, self.swing_volts)
    }

    /// True when the input sits inside the linear (metastable) band where
    /// the output is neither a clean 0 nor a clean 1, i.e. within
    /// `swing / (2·gain)` of the effective threshold.
    pub fn is_metastable(&self, vin: f64, vref: f64) -> bool {
        (vin + self.offset_volts - vref).abs() < self.swing_volts / (2.0 * self.gain)
    }

    /// The input voltage at which the decision flips: `vref − offset`.
    #[inline]
    pub fn effective_threshold(&self, vref: f64) -> f64 {
        vref - self.offset_volts
    }
}

impl Default for Comparator {
    fn default() -> Self {
        Self::ideal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_is_strictly_above_reference() {
        let c = Comparator::ideal();
        assert!(!c.decide(0.5, 0.5), "equal input must not trip");
        assert!(c.decide(0.5 + 1e-9, 0.5));
    }

    #[test]
    fn offset_shifts_effective_threshold() {
        let c = Comparator::with_offset(-0.02);
        assert!((c.effective_threshold(0.5) - 0.52).abs() < 1e-12);
        assert!(!c.decide(0.51, 0.5));
        assert!(c.decide(0.53, 0.5));
    }

    #[test]
    fn output_clamps_to_swing() {
        let c = Comparator::ideal();
        assert_eq!(c.output_voltage(1.0, 0.0), 1.0);
        assert_eq!(c.output_voltage(0.0, 1.0), 0.0);
        // At the trip point the output sits mid-swing.
        assert!((c.output_voltage(0.5, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn metastable_band_scales_inversely_with_gain() {
        let lo_gain = Comparator {
            gain: 10.0,
            ..Comparator::ideal()
        };
        let hi_gain = Comparator {
            gain: 1000.0,
            ..Comparator::ideal()
        };
        // 20 mV from threshold: metastable at gain 10 (band 50 mV), clean at
        // gain 1000 (band 0.5 mV).
        assert!(lo_gain.is_metastable(0.52, 0.5));
        assert!(!hi_gain.is_metastable(0.52, 0.5));
    }

    #[test]
    fn output_is_monotone_in_input() {
        let c = Comparator::with_offset(0.01);
        let mut prev = -1.0;
        for i in 0..=100 {
            let v = c.output_voltage(i as f64 / 100.0, 0.5);
            assert!(v >= prev);
            prev = v;
        }
    }
}
