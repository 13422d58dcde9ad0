//! Behavioral comparator model.
//!
//! The digital decision a flash-ADC comparator makes is `vin > vref`, but a
//! real printed comparator has an input-referred offset. This model
//! captures it so mismatch studies can quantify how printing
//! variation corrupts the thermometer code — and therefore the classifier —
//! without running transistor-level simulation.
//!
//! ```
//! use printed_analog::comparator::Comparator;
//!
//! let ideal = Comparator::with_offset(0.0);
//! assert!(ideal.decide(0.51, 0.5));
//! assert!(!ideal.decide(0.49, 0.5));
//!
//! // A +30 mV offset makes the comparator trip early.
//! let skewed = Comparator::with_offset(0.03);
//! assert!(skewed.decide(0.48, 0.5));
//! ```

/// Behavioral comparator: `out = (vin + offset) > vref`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparator {
    /// Input-referred offset in volts (added to `vin`).
    pub offset_volts: f64,
}

impl Comparator {
    /// A comparator with the given input offset.
    pub fn with_offset(offset_volts: f64) -> Self {
        Self { offset_volts }
    }

    /// The digital decision: is the (offset-corrupted) input above the
    /// reference?
    #[inline]
    pub fn decide(&self, vin: f64, vref: f64) -> bool {
        vin + self.offset_volts > vref
    }

    /// The input voltage at which the decision flips: `vref − offset`.
    #[inline]
    pub fn effective_threshold(&self, vref: f64) -> f64 {
        vref - self.offset_volts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_is_strictly_above_reference() {
        let c = Comparator::with_offset(0.0);
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
}
