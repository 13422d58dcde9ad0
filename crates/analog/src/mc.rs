//! Monte-Carlo mismatch engine for printed ADC front-ends.
//!
//! Printing variation is large: resistors vary by several percent and
//! comparator offsets by tens of millivolts. This module samples those
//! variations and reports the *effective threshold* of every retained tap —
//! the input voltage at which the perturbed comparator actually flips — by
//! solving the perturbed ladder with the MNA engine and folding in the
//! sampled comparator offset.
//!
//! Downstream, `printed-codesign` converts effective thresholds back into
//! code-space decision boundaries to measure classifier accuracy under
//! process variation (an extension experiment; the paper itself reports only
//! nominal numbers).
//!
//! ```
//! use printed_analog::ladder::Ladder;
//! use printed_analog::mc::MismatchModel;
//! use rand::SeedableRng;
//! use rand::rngs::StdRng;
//!
//! let ladder = Ladder::pruned(4, &[4, 8, 12], 1.0, 2500.0)?;
//! let model = MismatchModel::typical_printed();
//! let mut rng = StdRng::seed_from_u64(7);
//! let sample = model.sample(&ladder, &mut rng)?;
//! // Thresholds stay near their ideals but are not exactly ideal.
//! let t8 = sample.effective_threshold(8).unwrap();
//! assert!((t8 - 0.5).abs() < 0.2);
//! # Ok::<(), printed_analog::ladder::LadderError>(())
//! ```

use printed_telemetry::{keys, Recorder};
use rand::Rng;
use rand_distr_normal::Normal;

/// Draws one sample from `N(mean, sigma²)` — exposed so other crates'
/// mismatch studies (e.g. per-comparator offsets across a shared ladder)
/// use the same Box–Muller sampler as this module.
///
/// # Panics
///
/// Panics if `sigma` is negative or not finite.
pub fn sample_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    Normal::new(mean, sigma).sample(rng)
}

use crate::comparator::Comparator;
use crate::ladder::{Ladder, LadderError};

/// Minimal Box–Muller normal sampler so we do not need `rand_distr`.
mod rand_distr_normal {
    use rand::Rng;

    /// Normal distribution via Box–Muller; good enough for MC mismatch.
    #[derive(Debug, Clone, Copy)]
    pub struct Normal {
        mean: f64,
        std_dev: f64,
    }

    impl Normal {
        /// Creates a normal distribution.
        ///
        /// # Panics
        ///
        /// Panics if `std_dev` is negative or not finite.
        pub fn new(mean: f64, std_dev: f64) -> Self {
            assert!(std_dev.is_finite() && std_dev >= 0.0, "std_dev must be ≥ 0");
            Self { mean, std_dev }
        }

        /// Draws one sample.
        pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            // Box–Muller transform; u1 in (0,1] to avoid ln(0).
            let u1: f64 = 1.0 - rng.gen::<f64>();
            let u2: f64 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            self.mean + self.std_dev * z
        }
    }
}

/// Statistical model of printing variation for the ADC front-end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MismatchModel {
    /// Relative 1-σ variation of each printed ladder segment (e.g. `0.05`
    /// for 5%).
    pub resistor_sigma_rel: f64,
    /// 1-σ input-referred comparator offset, in volts.
    pub comparator_offset_sigma_v: f64,
}

impl MismatchModel {
    /// Typical inkjet-printed numbers: 5% resistor σ, 15 mV offset σ.
    pub fn typical_printed() -> Self {
        Self {
            resistor_sigma_rel: 0.05,
            comparator_offset_sigma_v: 0.015,
        }
    }

    /// A pessimistic corner: 10% resistor σ, 40 mV offset σ.
    pub fn pessimistic_printed() -> Self {
        Self {
            resistor_sigma_rel: 0.10,
            comparator_offset_sigma_v: 0.040,
        }
    }

    /// The no-variation model (useful as an MC sanity anchor).
    pub fn none() -> Self {
        Self {
            resistor_sigma_rel: 0.0,
            comparator_offset_sigma_v: 0.0,
        }
    }

    /// Draws one mismatch sample for `ladder`: perturbs every merged segment
    /// (truncated at ±3σ and floored at 10% of nominal so resistances stay
    /// physical), solves the perturbed string, and attaches one
    /// offset-sampled comparator per retained tap.
    ///
    /// # Errors
    ///
    /// Propagates [`LadderError::Circuit`] if the perturbed solve fails
    /// (cannot happen for physical perturbations, but never unwrapped).
    pub fn sample<R: Rng + ?Sized>(
        &self,
        ladder: &Ladder,
        rng: &mut R,
    ) -> Result<MismatchSample, LadderError> {
        self.sample_recorded(ladder, rng, &Recorder::disabled())
    }

    /// [`MismatchModel::sample`] with instrumentation: bumps
    /// [`keys::MC_TRIALS`] per call and [`keys::MC_FAILURES`] when the
    /// perturbed solve fails. The RNG consumption is identical to
    /// [`MismatchModel::sample`], so samples are reproducible either way.
    ///
    /// # Errors
    ///
    /// As for [`MismatchModel::sample`].
    pub fn sample_recorded<R: Rng + ?Sized>(
        &self,
        ladder: &Ladder,
        rng: &mut R,
        recorder: &Recorder,
    ) -> Result<MismatchSample, LadderError> {
        recorder.add(keys::MC_TRIALS, 1);
        let result = self.sample_inner(ladder, rng);
        if result.is_err() {
            recorder.add(keys::MC_FAILURES, 1);
        }
        result
    }

    fn sample_inner<R: Rng + ?Sized>(
        &self,
        ladder: &Ladder,
        rng: &mut R,
    ) -> Result<MismatchSample, LadderError> {
        let res_dist = Normal::new(1.0, self.resistor_sigma_rel);
        let off_dist = Normal::new(0.0, self.comparator_offset_sigma_v);

        let factors: Vec<f64> = (0..ladder.resistor_count())
            .map(|_| {
                let f = res_dist.sample(rng);
                f.clamp(
                    (1.0 - 3.0 * self.resistor_sigma_rel).max(0.1),
                    1.0 + 3.0 * self.resistor_sigma_rel,
                )
            })
            .collect();

        let (ckt, tap_nodes) = ladder.build_circuit_with(|seg, nominal| nominal * factors[seg]);
        let op = ckt.dc_operating_point()?;

        let taps = ladder
            .taps()
            .iter()
            .map(|&tap| {
                let vref = op.voltage(tap_nodes[&tap]);
                let comparator = Comparator::with_offset(off_dist.sample(rng));
                PerturbedTap {
                    tap,
                    vref_volts: vref,
                    comparator,
                }
            })
            .collect();
        Ok(MismatchSample { taps })
    }
}

/// One retained tap under a mismatch sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerturbedTap {
    /// Tap order (1-based).
    pub tap: usize,
    /// The perturbed ladder voltage at this tap.
    pub vref_volts: f64,
    /// The offset-sampled comparator reading this tap.
    pub comparator: Comparator,
}

impl PerturbedTap {
    /// The input voltage at which this tap's comparator actually flips.
    pub fn effective_threshold(&self) -> f64 {
        self.comparator.effective_threshold(self.vref_volts)
    }
}

/// A full mismatch sample: every retained tap with its perturbed reference
/// and comparator.
#[derive(Debug, Clone, PartialEq)]
pub struct MismatchSample {
    taps: Vec<PerturbedTap>,
}

impl MismatchSample {
    /// All perturbed taps, ascending by tap order.
    pub fn taps(&self) -> &[PerturbedTap] {
        &self.taps
    }

    /// Effective threshold of `tap`, if retained.
    pub fn effective_threshold(&self, tap: usize) -> Option<f64> {
        self.taps
            .iter()
            .find(|t| t.tap == tap)
            .map(PerturbedTap::effective_threshold)
    }

    /// Converts an analog input (volts) into the perturbed thermometer
    /// decisions, one `bool` per retained tap (ascending tap order).
    ///
    /// Note: under severe mismatch the result may not be a valid
    /// thermometer code (a *bubble*); callers measuring robustness should
    /// treat bubbles as part of the error they quantify.
    pub fn decide(&self, vin: f64) -> Vec<bool> {
        self.taps
            .iter()
            .map(|t| t.comparator.decide(vin, t.vref_volts))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ladder() -> Ladder {
        Ladder::pruned(4, &[2, 5, 8, 13], 1.0, 2500.0).unwrap()
    }

    #[test]
    fn zero_variation_reproduces_ideals() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = MismatchModel::none().sample(&ladder(), &mut rng).unwrap();
        for t in s.taps() {
            let ideal = t.tap as f64 / 16.0;
            assert!(
                (t.effective_threshold() - ideal).abs() < 1e-12,
                "tap {}",
                t.tap
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = MismatchModel::typical_printed();
        let l = ladder();
        let a = m.sample(&l, &mut StdRng::seed_from_u64(42)).unwrap();
        let b = m.sample(&l, &mut StdRng::seed_from_u64(42)).unwrap();
        let c = m.sample(&l, &mut StdRng::seed_from_u64(43)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn thresholds_stay_near_ideal_for_typical_variation() {
        let m = MismatchModel::typical_printed();
        let l = ladder();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let s = m.sample(&l, &mut rng).unwrap();
            for t in s.taps() {
                let ideal = t.tap as f64 / 16.0;
                // 3σ offset (45 mV) + a few % of ladder shift.
                assert!(
                    (t.effective_threshold() - ideal).abs() < 0.12,
                    "tap {} drifted to {}",
                    t.tap,
                    t.effective_threshold()
                );
            }
        }
    }

    #[test]
    fn decisions_follow_effective_thresholds() {
        let m = MismatchModel::typical_printed();
        let l = ladder();
        let mut rng = StdRng::seed_from_u64(11);
        let s = m.sample(&l, &mut rng).unwrap();
        for (i, t) in s.taps().iter().enumerate() {
            let th = t.effective_threshold();
            assert!(s.decide(th + 1e-6)[i]);
            assert!(!s.decide(th - 1e-6)[i]);
        }
    }

    #[test]
    fn recorded_sampling_counts_trials_without_changing_samples() {
        let m = MismatchModel::typical_printed();
        let l = ladder();
        let plain = m.sample(&l, &mut StdRng::seed_from_u64(42)).unwrap();
        let (recorder, sink) = Recorder::collecting();
        let mut rng = StdRng::seed_from_u64(42);
        let recorded = m.sample_recorded(&l, &mut rng, &recorder).unwrap();
        assert_eq!(plain, recorded, "instrumentation must not perturb sampling");
        for _ in 0..9 {
            m.sample_recorded(&l, &mut rng, &recorder).unwrap();
        }
        let snap = sink.snapshot();
        assert_eq!(snap.counter(keys::MC_TRIALS), 10);
        assert_eq!(snap.counter(keys::MC_FAILURES), 0);
    }

    #[test]
    fn pessimistic_model_spreads_more_than_typical() {
        let l = ladder();
        let spread = |model: MismatchModel, seed_base: u64| -> f64 {
            let mut acc: f64 = 0.0;
            for seed in 0..40 {
                let mut rng = StdRng::seed_from_u64(seed_base + seed);
                let s = model.sample(&l, &mut rng).unwrap();
                for t in s.taps() {
                    let ideal = t.tap as f64 / 16.0;
                    acc += (t.effective_threshold() - ideal).powi(2);
                }
            }
            acc
        };
        assert!(
            spread(MismatchModel::pessimistic_printed(), 100)
                > spread(MismatchModel::typical_printed(), 100)
        );
    }
}
