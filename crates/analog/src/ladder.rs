//! Reference-voltage ladders for flash ADCs.
//!
//! A flash ADC derives its comparator reference voltages from a resistor
//! string between supply and ground. This module builds both variants as
//! real resistor networks and solves them with the MNA engine:
//!
//! * [`Ladder::full`] — the conventional ladder: `2^N` identical unit
//!   segments, one tap between each pair.
//! * [`Ladder::pruned`] — the bespoke ladder: only the taps a trained model
//!   actually reads are kept, and the series segments *between* retained
//!   taps are merged into single printed resistors. Merging preserves every
//!   retained tap voltage and the string current exactly —
//!   [`Ladder::tap_voltages`] lets tests prove it electrically rather than
//!   assume it.
//!
//! ```
//! use printed_analog::ladder::Ladder;
//!
//! let full = Ladder::full(4, 1.0, 2500.0);
//! let pruned = Ladder::pruned(4, &[3, 11], 1.0, 2500.0)?;
//! let vf = full.tap_voltages()?;
//! let vp = pruned.tap_voltages()?;
//! assert!((vf[&3] - vp[&3]).abs() < 1e-12);
//! assert_eq!(pruned.resistor_count(), 3); // gnd–3, 3–11, 11–vdd
//! # Ok::<(), printed_analog::ladder::LadderError>(())
//! ```

use core::fmt;
use std::collections::BTreeMap;

use crate::mna::{Circuit, MnaError, Node};

/// A resistor-string reference ladder with a set of retained taps.
#[derive(Debug, Clone, PartialEq)]
pub struct Ladder {
    bits: u32,
    /// Retained tap orders, ascending, each in `1..2^bits`.
    taps: Vec<usize>,
    supply_volts: f64,
    unit_ohms: f64,
}

impl Ladder {
    /// The conventional full ladder of a `bits`-bit flash ADC: every tap
    /// `1..2^bits` is available.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or larger than 16, or if `supply_volts` /
    /// `unit_ohms` are not positive finite numbers.
    pub fn full(bits: u32, supply_volts: f64, unit_ohms: f64) -> Self {
        Self::validate_electrical(bits, supply_volts, unit_ohms);
        let taps = (1..(1usize << bits)).collect();
        Self {
            bits,
            taps,
            supply_volts,
            unit_ohms,
        }
    }

    /// A bespoke ladder retaining only `taps` (each in `1..2^bits`).
    ///
    /// Duplicate taps are collapsed; order does not matter.
    ///
    /// # Errors
    ///
    /// Returns [`LadderError::TapOutOfRange`] if a tap is 0 or ≥ `2^bits`,
    /// and [`LadderError::NoTaps`] when `taps` is empty (a ladder with no
    /// taps is no ladder; model that as the absence of a `Ladder`).
    ///
    /// # Panics
    ///
    /// Panics on invalid electrical parameters, as for [`Ladder::full`].
    pub fn pruned(
        bits: u32,
        taps: &[usize],
        supply_volts: f64,
        unit_ohms: f64,
    ) -> Result<Self, LadderError> {
        Self::validate_electrical(bits, supply_volts, unit_ohms);
        if taps.is_empty() {
            return Err(LadderError::NoTaps);
        }
        let max = (1usize << bits) - 1;
        let mut sorted: Vec<usize> = taps.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if let Some(&bad) = sorted.iter().find(|&&t| t == 0 || t > max) {
            return Err(LadderError::TapOutOfRange { tap: bad, max });
        }
        Ok(Self {
            bits,
            taps: sorted,
            supply_volts,
            unit_ohms,
        })
    }

    fn validate_electrical(bits: u32, supply_volts: f64, unit_ohms: f64) {
        assert!(
            (1..=16).contains(&bits),
            "bits must be in 1..=16, got {bits}"
        );
        assert!(
            supply_volts.is_finite() && supply_volts > 0.0,
            "supply must be positive, got {supply_volts}"
        );
        assert!(
            unit_ohms.is_finite() && unit_ohms > 0.0,
            "unit resistance must be positive, got {unit_ohms}"
        );
    }

    /// ADC resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Retained taps, ascending.
    pub fn taps(&self) -> &[usize] {
        &self.taps
    }

    /// Number of physical printed resistors after merging: one per gap
    /// between consecutive retained taps, plus the two end segments.
    pub fn resistor_count(&self) -> usize {
        self.taps.len() + 1
    }

    /// Total string resistance in ohms (invariant under pruning).
    pub fn total_resistance_ohms(&self) -> f64 {
        self.unit_ohms * (1u64 << self.bits) as f64
    }

    /// Static power of the string at DC, in watts: `V² / R_total`.
    pub fn static_power_watts(&self) -> f64 {
        self.supply_volts * self.supply_volts / self.total_resistance_ohms()
    }

    /// Builds the physical resistor network and returns it along with the
    /// node handle of every retained tap.
    ///
    /// Exposed so mismatch studies can perturb individual segment values
    /// before solving; most callers want [`Ladder::tap_voltages`].
    pub fn build_circuit(&self) -> (Circuit, BTreeMap<usize, Node>) {
        self.build_circuit_with(|_, nominal| nominal)
    }

    /// Like [`Ladder::build_circuit`], but lets `perturb(segment_index,
    /// nominal_ohms)` replace each merged segment's resistance — the hook the
    /// Monte-Carlo mismatch engine uses.
    ///
    /// `segment_index` counts merged segments bottom (ground side) to top.
    pub fn build_circuit_with(
        &self,
        mut perturb: impl FnMut(usize, f64) -> f64,
    ) -> (Circuit, BTreeMap<usize, Node>) {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        ckt.voltage_source(vdd, Node::GROUND, self.supply_volts);

        let mut tap_nodes = BTreeMap::new();
        let mut below = Node::GROUND;
        for (seg, nominal) in self.segment_ohms().enumerate() {
            let above = match self.taps.get(seg) {
                Some(&tap) => {
                    let node = ckt.node(format!("tap{tap}"));
                    tap_nodes.insert(tap, node);
                    node
                }
                None => vdd,
            };
            ckt.resistor(below, above, perturb(seg, nominal));
            below = above;
        }
        (ckt, tap_nodes)
    }

    /// Nominal resistance of every merged segment, bottom (ground side) to
    /// top: the gaps between consecutive retained taps, then the segment
    /// up to the supply.
    pub(crate) fn segment_ohms(&self) -> impl Iterator<Item = f64> + '_ {
        let top = 1usize << self.bits;
        let mut below_order = 0usize;
        self.taps.iter().copied().chain([top]).map(move |order| {
            let units = (order - below_order) as f64;
            below_order = order;
            units * self.unit_ohms
        })
    }

    /// Supply voltage across the string, in volts.
    pub(crate) fn supply_volts(&self) -> f64 {
        self.supply_volts
    }

    /// Solves the ladder and returns each retained tap's voltage.
    ///
    /// For the unperturbed ladder the result equals the analytic divider
    /// ratio `tap / 2^bits · supply`; the MNA solve is what lets tests and
    /// mismatch studies verify that instead of assuming it.
    ///
    /// # Errors
    ///
    /// Returns [`LadderError::Circuit`] if the MNA solve fails (cannot
    /// happen for ladders built by this type, but the error is propagated
    /// rather than unwrapped).
    pub fn tap_voltages(&self) -> Result<BTreeMap<usize, f64>, LadderError> {
        let (ckt, tap_nodes) = self.build_circuit();
        let op = ckt.dc_operating_point()?;
        Ok(tap_nodes
            .into_iter()
            .map(|(tap, node)| (tap, op.voltage(node)))
            .collect())
    }

    /// Ideal (analytic) voltage of `tap`: `tap / 2^bits · supply`.
    ///
    /// # Panics
    ///
    /// Panics if `tap` is 0 or ≥ `2^bits`.
    pub fn ideal_tap_voltage(&self, tap: usize) -> f64 {
        let max = (1usize << self.bits) - 1;
        assert!((1..=max).contains(&tap), "tap {tap} out of range 1..={max}");
        self.supply_volts * tap as f64 / (1u64 << self.bits) as f64
    }
}

/// Errors for [`Ladder`] construction and solving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderError {
    /// A requested tap does not exist at this resolution.
    TapOutOfRange {
        /// The offending tap order.
        tap: usize,
        /// The largest valid tap order (`2^bits − 1`).
        max: usize,
    },
    /// A pruned ladder needs at least one tap.
    NoTaps,
    /// The underlying MNA solve failed.
    Circuit(MnaError),
}

impl fmt::Display for LadderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LadderError::TapOutOfRange { tap, max } => {
                write!(f, "tap {tap} out of range 1..={max}")
            }
            LadderError::NoTaps => write!(f, "pruned ladder requires at least one tap"),
            LadderError::Circuit(e) => write!(f, "ladder circuit solve failed: {e}"),
        }
    }
}

impl std::error::Error for LadderError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LadderError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MnaError> for LadderError {
    fn from(e: MnaError) -> Self {
        LadderError::Circuit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_ladder_matches_analytic_dividers() {
        let ladder = Ladder::full(4, 1.0, 2500.0);
        let v = ladder.tap_voltages().unwrap();
        for tap in 1..16 {
            assert!(
                (v[&tap] - ladder.ideal_tap_voltage(tap)).abs() < 1e-12,
                "tap {tap}: {} vs {}",
                v[&tap],
                ladder.ideal_tap_voltage(tap)
            );
        }
    }

    #[test]
    fn pruned_ladder_preserves_retained_voltages() {
        let full = Ladder::full(4, 1.0, 2500.0).tap_voltages().unwrap();
        for taps in [
            vec![1],
            vec![7],
            vec![15],
            vec![2, 9],
            vec![1, 2, 4, 7, 11, 15],
        ] {
            let pruned = Ladder::pruned(4, &taps, 1.0, 2500.0).unwrap();
            let v = pruned.tap_voltages().unwrap();
            for &t in &taps {
                assert!((v[&t] - full[&t]).abs() < 1e-12, "taps {taps:?}, tap {t}");
            }
        }
    }

    #[test]
    fn pruning_reduces_resistor_count_not_power() {
        let full = Ladder::full(4, 1.0, 2500.0);
        let pruned = Ladder::pruned(4, &[5, 9], 1.0, 2500.0).unwrap();
        assert_eq!(full.resistor_count(), 16);
        assert_eq!(pruned.resistor_count(), 3);
        assert!((full.static_power_watts() - pruned.static_power_watts()).abs() < 1e-18);
    }

    #[test]
    fn ladder_power_matches_pdk_constant() {
        // pdk calibration: 16 × 2.5 kΩ at 1 V → 25 µW.
        let m = printed_pdk::AnalogModel::egfet();
        let ladder = Ladder::full(m.resolution_bits, m.supply.volts(), m.unit_resistor.ohms());
        let watts = ladder.static_power_watts();
        assert!(
            (watts * 1e6 - m.full_ladder_power.uw()).abs() < 0.5,
            "MNA ladder power {}µW vs pdk {}",
            watts * 1e6,
            m.full_ladder_power
        );
    }

    #[test]
    fn duplicate_and_unordered_taps_are_normalized() {
        let l = Ladder::pruned(4, &[9, 2, 9, 2], 1.0, 2500.0).unwrap();
        assert_eq!(l.taps(), &[2, 9]);
    }

    #[test]
    fn rejects_invalid_taps() {
        assert_eq!(
            Ladder::pruned(4, &[0], 1.0, 2500.0).unwrap_err(),
            LadderError::TapOutOfRange { tap: 0, max: 15 }
        );
        assert_eq!(
            Ladder::pruned(4, &[16], 1.0, 2500.0).unwrap_err(),
            LadderError::TapOutOfRange { tap: 16, max: 15 }
        );
        assert_eq!(
            Ladder::pruned(4, &[], 1.0, 2500.0).unwrap_err(),
            LadderError::NoTaps
        );
    }

    #[test]
    fn perturbed_segments_shift_tap_voltages() {
        let l = Ladder::pruned(4, &[8], 1.0, 2500.0).unwrap();
        // Double the bottom segment: the tap must rise above 0.5 V.
        let (ckt, taps) = l.build_circuit_with(
            |seg, nominal| {
                if seg == 0 {
                    nominal * 2.0
                } else {
                    nominal
                }
            },
        );
        let op = ckt.dc_operating_point().unwrap();
        let v = op.voltage(taps[&8]);
        assert!(v > 0.5 + 1e-6, "perturbed tap voltage {v}");
    }

    #[test]
    #[should_panic(expected = "bits must be in")]
    fn rejects_zero_bits() {
        Ladder::full(0, 1.0, 2500.0);
    }

    #[test]
    fn three_bit_ladder_has_seven_taps() {
        let l = Ladder::full(3, 0.8, 1000.0);
        assert_eq!(l.taps().len(), 7);
        assert!((l.ideal_tap_voltage(4) - 0.4).abs() < 1e-12);
    }
}
