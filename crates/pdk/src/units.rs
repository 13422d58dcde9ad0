//! Physical-quantity newtypes used throughout the workspace.
//!
//! Printed-electronics numbers live on very different scales than silicon
//! (square millimetres, microwatts, milliseconds), so every cost figure is
//! wrapped in a unit newtype to keep mm² from being added to µW by accident
//! ([C-NEWTYPE]). All wrappers are thin `f64`s with arithmetic restricted to
//! the operations that are physically meaningful: same-unit addition and
//! subtraction, scaling by dimensionless factors, and ratios that yield a
//! plain `f64`.
//!
//! ```
//! use printed_pdk::units::{Area, Power};
//!
//! let comparators = Area::from_mm2(0.032) * 4.0;
//! let encoder = Area::from_mm2(0.14);
//! let total = comparators + encoder;
//! assert!((total.mm2() - 0.268).abs() < 1e-12);
//!
//! let budget = Power::from_mw(2.0);
//! let design = Power::from_uw(470.0);
//! assert!(design < budget);
//! ```

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Implements the shared arithmetic surface for a unit newtype.
macro_rules! unit_newtype {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Wraps a raw value expressed in the canonical unit.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in the canonical unit.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                if self.0 >= other.0 { self } else { other }
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                if self.0 <= other.0 { self } else { other }
            }

            /// True when the underlying value is finite (not NaN/∞).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        /// Ratio of two same-unit quantities is dimensionless.
        impl Div<$name> for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, Add::add)
            }
        }

        impl<'a> Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                iter.copied().sum()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }
    };
}

unit_newtype!(
    /// Silicon (well, foil) area in square millimetres.
    ///
    /// Printed EGFET features are orders of magnitude larger than silicon,
    /// so mm² is the natural unit: a conventional 4-bit flash ADC occupies
    /// about 11 mm² in this technology.
    Area,
    "mm²"
);

unit_newtype!(
    /// Power in microwatts.
    ///
    /// The self-powering feasibility threshold for printed energy harvesters
    /// is 2 mW = 2000 µW, which is the constant the co-design evaluates
    /// against (see [`crate::HARVESTER_BUDGET`]).
    Power,
    "µW"
);

unit_newtype!(
    /// Delay in milliseconds.
    ///
    /// EGFET gates switch on millisecond scales; the target applications run
    /// at ~20 Hz, i.e. a 50 ms cycle budget.
    Delay,
    "ms"
);

unit_newtype!(
    /// Voltage in volts. EGFET technology operates below 1 V.
    Voltage,
    "V"
);

unit_newtype!(
    /// Capacitance in picofarads (gate-input loading for dynamic power).
    Capacitance,
    "pF"
);

unit_newtype!(
    /// Resistance in kilo-ohms (printed resistors, ladder segments).
    Resistance,
    "kΩ"
);

impl Area {
    /// Constructs an area from square millimetres.
    #[inline]
    pub const fn from_mm2(mm2: f64) -> Self {
        Self::new(mm2)
    }

    /// The area in square millimetres.
    #[inline]
    pub const fn mm2(self) -> f64 {
        self.value()
    }

    /// The area in square centimetres.
    #[inline]
    pub fn cm2(self) -> f64 {
        self.value() / 100.0
    }
}

impl Power {
    /// Constructs a power from microwatts.
    #[inline]
    pub const fn from_uw(uw: f64) -> Self {
        Self::new(uw)
    }

    /// Constructs a power from milliwatts.
    #[inline]
    pub const fn from_mw(mw: f64) -> Self {
        Self::new(mw * 1000.0)
    }

    /// The power in microwatts.
    #[inline]
    pub const fn uw(self) -> f64 {
        self.value()
    }

    /// The power in milliwatts.
    #[inline]
    pub fn mw(self) -> f64 {
        self.value() / 1000.0
    }
}

impl Delay {
    /// Constructs a delay from milliseconds.
    #[inline]
    pub const fn from_ms(ms: f64) -> Self {
        Self::new(ms)
    }

    /// The delay in milliseconds.
    #[inline]
    pub const fn ms(self) -> f64 {
        self.value()
    }

    /// The maximum operating frequency implied by this critical-path delay,
    /// in hertz. Returns `f64::INFINITY` for a zero delay.
    #[inline]
    pub fn max_frequency_hz(self) -> f64 {
        1000.0 / self.value()
    }
}

impl Voltage {
    /// Constructs a voltage from volts.
    #[inline]
    pub const fn from_v(v: f64) -> Self {
        Self::new(v)
    }

    /// The voltage in volts.
    #[inline]
    pub const fn volts(self) -> f64 {
        self.value()
    }
}

impl Capacitance {
    /// Constructs a capacitance from picofarads.
    #[inline]
    pub const fn from_pf(pf: f64) -> Self {
        Self::new(pf)
    }

    /// The capacitance in picofarads.
    #[inline]
    pub const fn pf(self) -> f64 {
        self.value()
    }
}

impl Resistance {
    /// Constructs a resistance from kilo-ohms.
    #[inline]
    pub const fn from_kohm(kohm: f64) -> Self {
        Self::new(kohm)
    }

    /// The resistance in kilo-ohms.
    #[inline]
    pub const fn kohm(self) -> f64 {
        self.value()
    }

    /// The resistance in ohms.
    #[inline]
    pub fn ohms(self) -> f64 {
        self.value() * 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_arithmetic_and_accessors() {
        let a = Area::from_mm2(1.5) + Area::from_mm2(0.5);
        assert_eq!(a.mm2(), 2.0);
        assert_eq!((a * 3.0).mm2(), 6.0);
        assert_eq!((a / 2.0).mm2(), 1.0);
        assert_eq!(a / Area::from_mm2(0.5), 4.0);
        assert_eq!(a.cm2(), 0.02);
    }

    #[test]
    fn power_unit_conversions() {
        let p = Power::from_mw(2.0);
        assert_eq!(p.uw(), 2000.0);
        assert_eq!(p.mw(), 2.0);
        assert!(Power::from_uw(1999.0) < p);
    }

    #[test]
    fn delay_to_frequency() {
        let d = Delay::from_ms(50.0);
        assert!((d.max_frequency_hz() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn sum_over_iterator() {
        let parts = [
            Power::from_uw(10.0),
            Power::from_uw(20.0),
            Power::from_uw(12.5),
        ];
        let total: Power = parts.iter().sum();
        assert_eq!(total.uw(), 42.5);
    }

    #[test]
    fn display_formats_with_unit() {
        assert_eq!(format!("{:.2}", Area::from_mm2(11.0)), "11.00 mm²");
        assert_eq!(format!("{:.1}", Power::from_uw(830.0)), "830.0 µW");
    }

    #[test]
    fn min_max_abs() {
        let a = Power::from_uw(-3.0);
        assert_eq!(a.abs().uw(), 3.0);
        assert_eq!(a.max(Power::ZERO), Power::ZERO);
        assert_eq!(a.min(Power::ZERO), a);
    }

    #[test]
    fn sub_and_neg() {
        let d = Delay::from_ms(5.0) - Delay::from_ms(2.0);
        assert_eq!(d.ms(), 3.0);
        assert_eq!((-d).ms(), -3.0);
    }
}
