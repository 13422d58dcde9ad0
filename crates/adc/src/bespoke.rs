//! Bespoke ADCs: the paper's core hardware idea.
//!
//! A bespoke ADC keeps only the comparators whose thermometer digits the
//! trained decision tree actually reads, and drops the priority encoder
//! entirely (the unary architecture consumes the thermometer code
//! directly). A [`BespokeAdcBank`] prices a whole front-end: one pruned
//! reference ladder shared across inputs (sized by the number of *distinct*
//! taps used anywhere, since tap voltages are input-independent) plus each
//! input's retained comparators.
//!
//! ```
//! use printed_adc::bespoke::BespokeAdcBank;
//! use printed_pdk::AnalogModel;
//!
//! let mut bank = BespokeAdcBank::new(4);
//! bank.require(0, 3)?;  // input 0 is compared against level 3
//! bank.require(0, 11)?; // …and level 11
//! bank.require(4, 3)?;  // input 4 against level 3 (tap shared in ladder)
//! assert_eq!(bank.comparator_count(), 3);
//! assert_eq!(bank.distinct_taps(), vec![3, 11]);
//!
//! let cost = bank.cost(&AnalogModel::egfet());
//! assert_eq!(cost.encoders, 0);
//! # Ok::<(), printed_adc::bespoke::BespokeAdcError>(())
//! ```

use core::fmt;
use std::collections::{BTreeMap, BTreeSet};

use printed_analog::ladder::Ladder;
use printed_pdk::AnalogModel;
use printed_telemetry::{keys, FieldValue, Recorder};

use crate::cost::AdcCost;

/// A bank of bespoke ADCs, one per input feature that needs conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BespokeAdcBank {
    bits: u32,
    /// feature → retained tap orders (ascending).
    taps: BTreeMap<usize, BTreeSet<usize>>,
}

impl BespokeAdcBank {
    /// Creates an empty bank at `bits` resolution.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=8`.
    pub fn new(bits: u32) -> Self {
        assert!((1..=8).contains(&bits), "bits must be 1..=8, got {bits}");
        Self {
            bits,
            taps: BTreeMap::new(),
        }
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Requires the unary digit `U_tap` of `feature` — i.e. retains the
    /// comparator at `tap` in that feature's ADC. Idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`BespokeAdcError::TapOutOfRange`] if `tap` is 0 or
    /// ≥ `2^bits` (a threshold of 0 is constant-true and needs no
    /// comparator; reject it loudly rather than silently pricing nothing).
    pub fn require(&mut self, feature: usize, tap: usize) -> Result<(), BespokeAdcError> {
        let max = (1usize << self.bits) - 1;
        if tap == 0 || tap > max {
            return Err(BespokeAdcError::TapOutOfRange { tap, max });
        }
        self.taps.entry(feature).or_default().insert(tap);
        debug_assert!(
            self.taps_of(feature).contains(&tap),
            "required tap must be retained for its feature"
        );
        Ok(())
    }

    /// Releases the comparator at `tap` of `feature` — the inverse of
    /// [`require`](Self::require), used by autofix to drop dead hardware.
    /// A feature whose last comparator is released stops counting as an
    /// ADC at all. Returns whether anything was retained to release.
    pub fn release(&mut self, feature: usize, tap: usize) -> bool {
        let Some(taps) = self.taps.get_mut(&feature) else {
            return false;
        };
        let removed = taps.remove(&tap);
        if taps.is_empty() {
            self.taps.remove(&feature);
        }
        removed
    }

    /// Number of input features with at least one retained comparator
    /// (= number of bespoke ADCs).
    pub fn input_count(&self) -> usize {
        self.taps.len()
    }

    /// Total number of retained comparators across the bank.
    pub fn comparator_count(&self) -> usize {
        self.taps.values().map(BTreeSet::len).sum()
    }

    /// The distinct tap orders used anywhere in the bank, ascending — the
    /// taps the shared pruned ladder must provide.
    pub fn distinct_taps(&self) -> Vec<usize> {
        let mut all = BTreeSet::new();
        for taps in self.taps.values() {
            all.extend(taps.iter().copied());
        }
        all.into_iter().collect()
    }

    /// The retained taps of `feature`, ascending (empty if the feature
    /// needs no ADC).
    pub fn taps_of(&self, feature: usize) -> Vec<usize> {
        self.taps
            .get(&feature)
            .map(|t| t.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Iterates `(feature, taps)` pairs, ascending by feature.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Vec<usize>)> + '_ {
        self.taps
            .iter()
            .map(|(&f, taps)| (f, taps.iter().copied().collect()))
    }

    /// Prices the bank: shared pruned ladder (sized by distinct taps) plus
    /// every retained comparator at its tap-order-dependent power. No
    /// encoders.
    pub fn cost(&self, model: &AnalogModel) -> AdcCost {
        let distinct = self.distinct_taps();
        if distinct.is_empty() {
            return AdcCost::zero();
        }
        let ladder_area = model.bespoke_ladder_area(distinct.len());
        let ladder_power = model.bespoke_ladder_power(distinct.len());
        let mut comp_power = printed_pdk::Power::ZERO;
        let mut comparators = 0usize;
        for taps in self.taps.values() {
            for &tap in taps {
                comp_power += model.comparator_power(tap);
                comparators += 1;
            }
        }
        debug_assert_eq!(
            comparators,
            self.comparator_count(),
            "priced comparators must equal the retained set"
        );
        AdcCost {
            area: ladder_area + model.comparator_bank_area(comparators),
            power: ladder_power + comp_power,
            comparators,
            ladder_resistors: distinct.len() + 1,
            encoders: 0,
        }
    }

    /// Prices one input's ADC in isolation: its retained comparators only.
    /// The shared pruned ladder is deliberately excluded — it is priced
    /// once per bank, not per input — so summing `input_cost` over every
    /// feature plus [`AnalogModel::bespoke_ladder_area`]/`_power` for the
    /// distinct taps reproduces [`BespokeAdcBank::cost`] exactly.
    pub fn input_cost(&self, feature: usize, model: &AnalogModel) -> AdcCost {
        let taps = self.taps_of(feature);
        if taps.is_empty() {
            return AdcCost::zero();
        }
        let mut power = printed_pdk::Power::ZERO;
        for &tap in &taps {
            power += model.comparator_power(tap);
        }
        AdcCost {
            area: model.comparator_bank_area(taps.len()),
            power,
            comparators: taps.len(),
            ladder_resistors: 0,
            encoders: 0,
        }
    }

    /// Records the bank's hardware footprint into `recorder`: the
    /// comparators-retained/dropped and ladder-resistor counters, plus one
    /// [`keys::ADC_EVENT`] per input with its share of area and power.
    /// No-op when the recorder is disabled.
    ///
    /// "Dropped" counts the comparators a conventional flash front-end
    /// would have spent on the same inputs (`2^bits − 1` each) that the
    /// bespoke pruning eliminated — the paper's headline saving.
    pub fn record_hardware(&self, recorder: &Recorder, model: &AnalogModel) {
        if !recorder.is_enabled() {
            return;
        }
        let retained = self.comparator_count();
        let full = self.input_count() * ((1usize << self.bits) - 1);
        recorder.add(keys::HW_COMPARATORS_RETAINED, retained as u64);
        recorder.add(keys::HW_COMPARATORS_DROPPED, (full - retained) as u64);
        let distinct = self.distinct_taps().len();
        if distinct > 0 {
            recorder.add(keys::HW_LADDER_RESISTORS, (distinct + 1) as u64);
        }
        for (feature, taps) in self.iter() {
            let cost = self.input_cost(feature, model);
            recorder.event(
                keys::ADC_EVENT,
                vec![
                    ("feature".into(), FieldValue::U64(feature as u64)),
                    ("taps".into(), FieldValue::U64(taps.len() as u64)),
                    (
                        "comparators".into(),
                        FieldValue::U64(cost.comparators as u64),
                    ),
                    ("area_mm2".into(), FieldValue::F64(cost.area.mm2())),
                    ("power_uw".into(), FieldValue::F64(cost.power.uw())),
                ],
            );
        }
    }

    /// Behavioral conversion: the unary digits feature `feature` produces
    /// for a normalized input `vin ∈ [0, 1]`, as `(tap, digit)` pairs in
    /// ascending tap order. Uses the electrically-solved pruned ladder so
    /// the result reflects the physical design, not just the ideal
    /// quantizer.
    ///
    /// # Panics
    ///
    /// Panics if `vin` is NaN or the feature has no retained taps.
    pub fn convert(&self, feature: usize, vin: f64, model: &AnalogModel) -> Vec<(usize, bool)> {
        assert!(!vin.is_nan(), "cannot convert NaN");
        let taps = self.taps_of(feature);
        assert!(
            !taps.is_empty(),
            "feature {feature} has no retained comparators"
        );
        let ladder = Ladder::pruned(
            self.bits,
            &taps,
            model.supply.volts(),
            model.unit_resistor.ohms(),
        )
        .expect("validated taps");
        let voltages = ladder.tap_voltages().expect("pruned ladder solves");
        // At-or-above boundary convention (see `ConventionalAdc::convert`),
        // with an epsilon absorbing MNA rounding at exact tap voltages.
        taps.iter()
            .map(|&t| (t, vin >= voltages[&t] - 1e-12))
            .collect()
    }
}

/// Errors for [`BespokeAdcBank`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BespokeAdcError {
    /// A requested tap does not exist at this resolution (or is 0).
    TapOutOfRange {
        /// Offending tap.
        tap: usize,
        /// Largest valid tap.
        max: usize,
    },
}

impl fmt::Display for BespokeAdcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BespokeAdcError::TapOutOfRange { tap, max } => {
                write!(f, "tap {tap} out of range 1..={max}")
            }
        }
    }
}

impl std::error::Error for BespokeAdcError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conventional::ConventionalAdc;

    fn model() -> AnalogModel {
        AnalogModel::egfet()
    }

    #[test]
    fn fig1b_example_four_digit_adc() {
        // The paper's Fig. 1b: a bespoke ADC retaining unary digits
        // 1, 2, 4, 7 for one input.
        let mut bank = BespokeAdcBank::new(3);
        for tap in [1, 2, 4, 7] {
            bank.require(0, tap).unwrap();
        }
        assert_eq!(bank.comparator_count(), 4);
        let cost = bank.cost(&model());
        assert_eq!(cost.comparators, 4);
        assert_eq!(cost.encoders, 0, "bespoke ADCs have no encoder");
        assert_eq!(cost.ladder_resistors, 5);
    }

    #[test]
    fn fig3_power_span_via_bank() {
        // 4-U_D ADCs at the two extremes of the 4-bit scale.
        let m = model();
        let mut low = BespokeAdcBank::new(4);
        let mut high = BespokeAdcBank::new(4);
        for t in 1..=4 {
            low.require(0, t).unwrap();
        }
        for t in 12..=15 {
            high.require(0, t).unwrap();
        }
        let pl = low.cost(&m).power - m.full_ladder_power;
        let ph = high.cost(&m).power - m.full_ladder_power;
        assert!((pl.uw() - 47.0).abs() < 1.5, "low {pl}");
        assert!((ph.uw() - 205.0).abs() < 1.5, "high {ph}");
    }

    #[test]
    fn area_depends_only_on_counts_not_positions() {
        let m = model();
        let mut a = BespokeAdcBank::new(4);
        let mut b = BespokeAdcBank::new(4);
        for t in [1, 2, 3] {
            a.require(0, t).unwrap();
        }
        for t in [13, 14, 15] {
            b.require(0, t).unwrap();
        }
        assert_eq!(
            a.cost(&m).area,
            b.cost(&m).area,
            "paper: area is position-independent"
        );
        assert!(a.cost(&m).power < b.cost(&m).power, "…but power is not");
    }

    #[test]
    fn shared_taps_share_ladder_but_not_comparators() {
        let m = model();
        let mut bank = BespokeAdcBank::new(4);
        bank.require(0, 5).unwrap();
        bank.require(1, 5).unwrap();
        let cost = bank.cost(&m);
        assert_eq!(cost.comparators, 2, "each input needs its own comparator");
        assert_eq!(cost.ladder_resistors, 2, "one distinct tap → 2 resistors");
        assert_eq!(bank.distinct_taps(), vec![5]);
    }

    #[test]
    fn bespoke_always_beats_conventional_bank() {
        let m = model();
        // Even a worst-case bespoke bank (all 15 taps on every input)
        // beats the conventional bank: no encoders.
        let mut bank = BespokeAdcBank::new(4);
        for f in 0..5 {
            for t in 1..=15 {
                bank.require(f, t).unwrap();
            }
        }
        let bespoke = bank.cost(&m);
        let conventional = ConventionalAdc::new(4).bank_cost(5, &m);
        assert!(bespoke.area < conventional.area);
        assert!(bespoke.power < conventional.power);
    }

    #[test]
    fn require_is_idempotent() {
        let mut bank = BespokeAdcBank::new(4);
        bank.require(2, 7).unwrap();
        bank.require(2, 7).unwrap();
        assert_eq!(bank.comparator_count(), 1);
        assert_eq!(bank.taps_of(2), vec![7]);
        assert_eq!(bank.input_count(), 1);
    }

    #[test]
    fn release_undoes_require_and_prices_strictly_less() {
        let m = model();
        let mut bank = BespokeAdcBank::new(4);
        for t in [3, 9] {
            bank.require(0, t).unwrap();
        }
        bank.require(2, 9).unwrap();
        let before = bank.cost(&m);
        assert!(bank.release(0, 9));
        assert_eq!(bank.taps_of(0), vec![3]);
        // Tap 9 is still live on feature 2, so the ladder keeps it.
        assert_eq!(bank.distinct_taps(), vec![3, 9]);
        let after = bank.cost(&m);
        assert!(after.power < before.power);
        assert!(after.area < before.area);
        assert_eq!(after.comparators, before.comparators - 1);
        // Releasing a missing tap (or feature) is a no-op.
        assert!(!bank.release(0, 9));
        assert!(!bank.release(7, 1));
        // Releasing the last tap of a feature retires its ADC entirely.
        assert!(bank.release(2, 9));
        assert_eq!(bank.input_count(), 1);
        assert_eq!(bank.distinct_taps(), vec![3]);
        assert_eq!(bank.cost(&m).ladder_resistors, 2);
    }

    #[test]
    fn rejects_tap_zero_and_overflow() {
        let mut bank = BespokeAdcBank::new(4);
        assert_eq!(
            bank.require(0, 0).unwrap_err(),
            BespokeAdcError::TapOutOfRange { tap: 0, max: 15 }
        );
        assert_eq!(
            bank.require(0, 16).unwrap_err(),
            BespokeAdcError::TapOutOfRange { tap: 16, max: 15 }
        );
    }

    #[test]
    fn empty_bank_costs_nothing() {
        assert_eq!(BespokeAdcBank::new(4).cost(&model()), AdcCost::zero());
    }

    #[test]
    fn input_costs_plus_shared_ladder_reproduce_bank_cost() {
        let m = model();
        let mut bank = BespokeAdcBank::new(4);
        for t in [1, 5, 9] {
            bank.require(0, t).unwrap();
        }
        for t in [5, 12] {
            bank.require(3, t).unwrap();
        }
        let total = bank.cost(&m);
        let per_input: Vec<AdcCost> = bank.iter().map(|(f, _)| bank.input_cost(f, &m)).collect();
        let distinct = bank.distinct_taps().len();
        let area = per_input.iter().map(|c| c.area.mm2()).sum::<f64>()
            + m.bespoke_ladder_area(distinct).mm2();
        let power = per_input.iter().map(|c| c.power.uw()).sum::<f64>()
            + m.bespoke_ladder_power(distinct).uw();
        assert!((area - total.area.mm2()).abs() < 1e-9);
        assert!((power - total.power.uw()).abs() < 1e-9);
        assert_eq!(
            per_input.iter().map(|c| c.comparators).sum::<usize>(),
            total.comparators
        );
        assert_eq!(bank.input_cost(99, &m), AdcCost::zero());
    }

    #[test]
    fn record_hardware_emits_counters_and_per_input_events() {
        use printed_telemetry::{keys, Recorder};
        let m = model();
        let mut bank = BespokeAdcBank::new(4);
        for t in [1, 5, 9] {
            bank.require(0, t).unwrap();
        }
        bank.require(3, 5).unwrap();
        let (recorder, sink) = Recorder::collecting();
        bank.record_hardware(&recorder, &m);
        let snapshot = sink.snapshot();
        assert_eq!(snapshot.counter(keys::HW_COMPARATORS_RETAINED), 4);
        // Two flash ADCs would have burned 2 × 15 comparators.
        assert_eq!(snapshot.counter(keys::HW_COMPARATORS_DROPPED), 30 - 4);
        // Distinct taps {1, 5, 9} → 4 ladder resistors.
        assert_eq!(snapshot.counter(keys::HW_LADDER_RESISTORS), 4);
        let adc_events: Vec<_> = snapshot
            .events
            .iter()
            .filter(|e| e.name == keys::ADC_EVENT)
            .collect();
        assert_eq!(adc_events.len(), 2, "one event per input");
        assert!(adc_events[0].field("area_mm2").is_some());
        assert!(adc_events[0].field("power_uw").is_some());
        // Disabled recorders stay silent.
        bank.record_hardware(&Recorder::disabled(), &m);
    }

    #[test]
    fn convert_agrees_with_ideal_quantizer() {
        let m = model();
        let mut bank = BespokeAdcBank::new(4);
        for t in [2, 7, 11] {
            bank.require(0, t).unwrap();
        }
        let adc = ConventionalAdc::new(4);
        for i in 0..=64 {
            let vin = i as f64 / 64.0;
            let level = adc.convert(vin);
            for (tap, digit) in bank.convert(0, vin, &m) {
                assert_eq!(digit, (level as usize) >= tap, "vin={vin}, tap={tap}");
            }
        }
    }
}
