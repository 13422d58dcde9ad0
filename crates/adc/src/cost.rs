//! Cost accounting shared by the ADC models.

use core::fmt;

use printed_pdk::{Area, Power};

/// Area/power of an ADC subsystem, with its component inventory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdcCost {
    /// Total foil area.
    pub area: Area,
    /// Total static power.
    pub power: Power,
    /// Number of comparators.
    pub comparators: usize,
    /// Number of printed ladder resistors.
    pub ladder_resistors: usize,
    /// Number of priority-encoder macros.
    pub encoders: usize,
}

impl AdcCost {
    /// The zero cost (no ADCs at all).
    pub fn zero() -> Self {
        Self {
            area: Area::ZERO,
            power: Power::ZERO,
            comparators: 0,
            ladder_resistors: 0,
            encoders: 0,
        }
    }
}

impl fmt::Display for AdcCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} / {:.1} ({} comparators, {} resistors, {} encoders)",
            self.area, self.power, self.comparators, self.ladder_resistors, self.encoders
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_zero() {
        let z = AdcCost::zero();
        assert_eq!(z.area, Area::ZERO);
        assert_eq!(z.power, Power::ZERO);
        assert_eq!(z.comparators + z.ladder_resistors + z.encoders, 0);
    }

    #[test]
    fn display_mentions_components() {
        let c = AdcCost {
            area: Area::from_mm2(1.0),
            power: Power::from_uw(10.0),
            comparators: 3,
            ladder_resistors: 4,
            encoders: 0,
        };
        let s = c.to_string();
        assert!(s.contains("3 comparators"));
        assert!(s.contains("4 resistors"));
    }
}
