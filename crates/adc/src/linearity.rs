//! Static linearity metrology: DNL and INL of a flash ADC's effective
//! thresholds.
//!
//! Printing variation moves comparator trip points (ladder mismatch +
//! input offsets); the standard way to quantify the resulting converter
//! quality is **differential nonlinearity** (per-code width error, in
//! LSB) and **integral nonlinearity** (per-threshold position error, in
//! LSB). Combined with the Monte-Carlo engine in `printed-analog`, this
//! answers "how many effective bits does a printed flash ADC really have".
//!
//! ```
//! use printed_adc::linearity::linearity_of_thresholds;
//!
//! // An ideal 2-bit converter: thresholds at 1/4, 2/4, 3/4.
//! let ideal = linearity_of_thresholds(&[0.25, 0.5, 0.75], 2);
//! assert!(ideal.max_abs_dnl < 1e-12);
//! assert!(ideal.monotonic);
//! ```

use rand::Rng;

use printed_analog::ladder::Ladder;
use printed_analog::MismatchModel;
use printed_pdk::AnalogModel;

/// DNL/INL report for one converter instance.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearityReport {
    /// Per-code differential nonlinearity in LSB (length `taps − 1`).
    pub dnl: Vec<f64>,
    /// Per-threshold integral nonlinearity in LSB (length `taps`).
    pub inl: Vec<f64>,
    /// Worst |DNL|.
    pub max_abs_dnl: f64,
    /// Worst |INL|.
    pub max_abs_inl: f64,
    /// Whether the thresholds are strictly increasing (a non-monotonic
    /// flash produces thermometer bubbles).
    pub monotonic: bool,
}

/// Computes DNL/INL for the effective thresholds of a `bits`-bit flash
/// converter. `thresholds[i]` is the trip voltage of tap `i + 1`
/// (normalized to a 1 V full scale).
///
/// # Panics
///
/// Panics if `thresholds.len() != 2^bits − 1` or `bits` is outside
/// `1..=8`.
pub fn linearity_of_thresholds(thresholds: &[f64], bits: u32) -> LinearityReport {
    assert!((1..=8).contains(&bits), "bits must be 1..=8, got {bits}");
    let taps = (1usize << bits) - 1;
    assert_eq!(thresholds.len(), taps, "need one threshold per tap");
    let lsb = 1.0 / (1u32 << bits) as f64;

    let inl: Vec<f64> = thresholds
        .iter()
        .enumerate()
        .map(|(i, &t)| (t - (i + 1) as f64 * lsb) / lsb)
        .collect();
    let dnl: Vec<f64> = thresholds
        .windows(2)
        .map(|w| (w[1] - w[0]) / lsb - 1.0)
        .collect();
    let max_abs_dnl = dnl.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
    let max_abs_inl = inl.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
    let monotonic = thresholds.windows(2).all(|w| w[1] > w[0]);
    LinearityReport {
        dnl,
        inl,
        max_abs_dnl,
        max_abs_inl,
        monotonic,
    }
}

/// Aggregated Monte-Carlo linearity of a full `bits`-bit printed flash
/// converter (shared ladder + per-tap comparator offsets).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McLinearity {
    /// Mean of per-trial worst |DNL|.
    pub mean_max_dnl: f64,
    /// Worst |DNL| over all trials.
    pub worst_dnl: f64,
    /// Mean of per-trial worst |INL|.
    pub mean_max_inl: f64,
    /// Worst |INL| over all trials.
    pub worst_inl: f64,
    /// Fraction of trials with strictly monotonic thresholds.
    pub monotonic_fraction: f64,
    /// Trials run.
    pub trials: usize,
}

/// Monte-Carlo linearity of the full flash converter under `mismatch`.
///
/// # Panics
///
/// Panics if `trials == 0`.
pub fn mc_linearity<R: Rng + ?Sized>(
    analog: &AnalogModel,
    mismatch: &MismatchModel,
    trials: usize,
    rng: &mut R,
) -> McLinearity {
    assert!(trials > 0, "need at least one trial");
    let ladder = Ladder::full(
        analog.resolution_bits,
        analog.supply.volts(),
        analog.unit_resistor.ohms(),
    );
    let mut sum_dnl = 0.0;
    let mut sum_inl = 0.0;
    let mut worst_dnl = 0.0_f64;
    let mut worst_inl = 0.0_f64;
    let mut monotonic = 0usize;
    for _ in 0..trials {
        let sample = mismatch
            .sample(&ladder, rng)
            .expect("perturbed ladder solves");
        let thresholds: Vec<f64> = sample
            .taps()
            .iter()
            .map(|t| t.effective_threshold())
            .collect();
        let report = linearity_of_thresholds(&thresholds, analog.resolution_bits);
        sum_dnl += report.max_abs_dnl;
        sum_inl += report.max_abs_inl;
        worst_dnl = worst_dnl.max(report.max_abs_dnl);
        worst_inl = worst_inl.max(report.max_abs_inl);
        monotonic += report.monotonic as usize;
    }
    McLinearity {
        mean_max_dnl: sum_dnl / trials as f64,
        worst_dnl,
        mean_max_inl: sum_inl / trials as f64,
        worst_inl,
        monotonic_fraction: monotonic as f64 / trials as f64,
        trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ideal_converter_is_perfect() {
        let thresholds: Vec<f64> = (1..16).map(|t| t as f64 / 16.0).collect();
        let r = linearity_of_thresholds(&thresholds, 4);
        assert!(r.max_abs_dnl < 1e-12);
        assert!(r.max_abs_inl < 1e-12);
        assert!(r.monotonic);
        assert_eq!(r.dnl.len(), 14);
        assert_eq!(r.inl.len(), 15);
    }

    #[test]
    fn known_perturbation_has_known_dnl() {
        // Shift tap 2 of a 2-bit converter up by half an LSB (LSB = 0.25):
        // code 2 narrows by 0.5 LSB, code 1 widens by 0.5 LSB.
        let r = linearity_of_thresholds(&[0.25, 0.625, 0.75], 2);
        assert!((r.dnl[0] - 0.5).abs() < 1e-12);
        assert!((r.dnl[1] + 0.5).abs() < 1e-12);
        assert!((r.inl[1] - 0.5).abs() < 1e-12);
        assert!(r.monotonic);
    }

    #[test]
    fn bubbles_are_flagged() {
        let r = linearity_of_thresholds(&[0.25, 0.2, 0.75], 2);
        assert!(!r.monotonic);
        assert!(r.max_abs_dnl > 1.0, "a swap costs more than one LSB");
    }

    #[test]
    fn mc_linearity_scales_with_mismatch() {
        let analog = AnalogModel::egfet();
        let typical = mc_linearity(
            &analog,
            &MismatchModel::typical_printed(),
            60,
            &mut StdRng::seed_from_u64(5),
        );
        let pessimistic = mc_linearity(
            &analog,
            &MismatchModel::pessimistic_printed(),
            60,
            &mut StdRng::seed_from_u64(5),
        );
        assert!(typical.mean_max_dnl > 0.0);
        assert!(pessimistic.mean_max_dnl > typical.mean_max_dnl);
        assert!(pessimistic.monotonic_fraction <= typical.monotonic_fraction);
        assert_eq!(typical.trials, 60);
        // Zero variation: perfect converter.
        let none = mc_linearity(
            &analog,
            &MismatchModel::none(),
            3,
            &mut StdRng::seed_from_u64(5),
        );
        assert!(none.worst_dnl < 1e-9);
        assert!((none.monotonic_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one threshold per tap")]
    fn rejects_wrong_threshold_count() {
        linearity_of_thresholds(&[0.5], 2);
    }
}
