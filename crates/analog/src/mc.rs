//! Monte-Carlo mismatch engine for printed ADC front-ends.
//!
//! Printing variation is large: resistors vary by several percent and
//! comparator offsets by tens of millivolts. This module samples those
//! variations and reports the *effective threshold* of every retained tap —
//! the input voltage at which the perturbed comparator actually flips — by
//! solving the perturbed ladder with the MNA engine and folding in the
//! sampled comparator offset.
//!
//! ## The compiled solve
//!
//! A trial is one perturbed DC solve of a small resistor string, repeated
//! thousands of times per campaign, so the per-trial cost is dominated by
//! whatever surrounds the arithmetic. [`LadderSampler`] compiles a
//! [`Ladder`] once: it keeps the nominal merged-segment resistances and
//! one reused `order × order` MNA system (`order` = taps + 2: every tap
//! node, the supply node and the source's branch current). A string's
//! topology fixes its rows — row 0 the supply node, row `i + 1` tap `i`,
//! the last row the branch current, as the circuit path numbers them — so
//! neither a segment's stamp nor a tap's read needs a lookup. A trial then
//! draws the segment factors, stamps their conductances into the zeroed
//! matrix in exactly the order [`Circuit::dc_operating_point`] stamps the
//! same resistors, and eliminates in place with [`solve_in_place`] — the
//! routine [`Matrix::solve`] runs on a copy. No node names, maps or fresh
//! matrices are built, and every tap voltage is bit-identical to solving
//! [`Ladder::build_circuit_with`]'s circuit. (A closed-form divider would
//! be cheaper still but rounds differently, so it is not used.)
//! [`MismatchModel::sample`] is a thin wrapper over a freshly compiled
//! sampler, so there is one sampling implementation.
//!
//! [`Circuit::dc_operating_point`]: crate::mna::Circuit::dc_operating_point
//! [`Matrix::solve`]: crate::linalg::Matrix::solve
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
use crate::linalg::{solve_in_place, SolveError};
use crate::mna::MnaError;

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
    /// Compiles a [`LadderSampler`] for this one draw; callers drawing many
    /// samples of the same ladder should keep a sampler instead.
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
        let mut sampler = LadderSampler::new(ladder);
        sampler.draw(self, rng, recorder)?;
        Ok(MismatchSample {
            taps: sampler.drawn,
        })
    }
}

/// A [`Ladder`] compiled for repeated mismatch sampling (see the
/// [module docs](self)): nominal segment resistances and one reused MNA
/// system, so a draw allocates nothing.
///
/// ```
/// use printed_analog::ladder::Ladder;
/// use printed_analog::mc::{LadderSampler, MismatchModel};
/// use printed_telemetry::Recorder;
/// use rand::SeedableRng;
/// use rand::rngs::StdRng;
///
/// let ladder = Ladder::pruned(4, &[4, 8, 12], 1.0, 2500.0)?;
/// let model = MismatchModel::typical_printed();
/// let mut sampler = LadderSampler::new(&ladder);
/// let (mut a, mut b) = (StdRng::seed_from_u64(7), StdRng::seed_from_u64(7));
/// let compiled = sampler.draw(&model, &mut a, &Recorder::disabled())?.to_vec();
/// // The same draw as the one-shot sampler, bit for bit.
/// assert_eq!(compiled, model.sample(&ladder, &mut b)?.taps());
/// # Ok::<(), printed_analog::ladder::LadderError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LadderSampler {
    /// Retained taps, ascending.
    taps: Vec<usize>,
    /// Nominal resistance of every merged segment, bottom to top.
    nominal_ohms: Vec<f64>,
    supply_volts: f64,
    /// MNA order: row 0 is the supply node, row `i + 1` tap `i`'s node,
    /// and the last row the supply's branch current (ground is
    /// eliminated), as [`Circuit::dc_operating_point`] numbers them.
    ///
    /// [`Circuit::dc_operating_point`]: crate::mna::Circuit::dc_operating_point
    order: usize,
    /// Row-major `order × order` system, rebuilt in place every draw.
    matrix: Vec<f64>,
    /// Right-hand side on entry to the solve, node voltages after it.
    rhs: Vec<f64>,
    drawn: Vec<PerturbedTap>,
}

impl LadderSampler {
    /// Compiles `ladder` for sampling.
    pub fn new(ladder: &Ladder) -> Self {
        let taps = ladder.taps().to_vec();
        let order = taps.len() + 2;
        Self {
            nominal_ohms: ladder.segment_ohms().collect(),
            supply_volts: ladder.supply_volts(),
            order,
            matrix: vec![0.0; order * order],
            rhs: vec![0.0; order],
            drawn: Vec::with_capacity(taps.len()),
            taps,
        }
    }

    /// Draws one mismatch sample under `model`, with the RNG consumption,
    /// counters and results of [`MismatchModel::sample_recorded`]: one
    /// normal per merged segment (bottom to top), the solve, then one
    /// comparator offset per retained tap (ascending). Returns every
    /// retained tap, ascending; the slice is overwritten by the next draw.
    ///
    /// # Errors
    ///
    /// As for [`MismatchModel::sample`].
    ///
    /// # Panics
    ///
    /// Panics if a sigma of `model` is negative or not finite, or a
    /// perturbed segment resistance is not a positive finite number.
    pub fn draw<R: Rng + ?Sized>(
        &mut self,
        model: &MismatchModel,
        rng: &mut R,
        recorder: &Recorder,
    ) -> Result<&[PerturbedTap], LadderError> {
        recorder.add(keys::MC_TRIALS, 1);
        let off_dist = Normal::new(0.0, model.comparator_offset_sigma_v);
        let solved = self.solve_perturbed(model.resistor_sigma_rel, rng);
        if solved.is_err() {
            recorder.add(keys::MC_FAILURES, 1);
        }
        solved?;
        self.drawn.clear();
        for (i, &tap) in self.taps.iter().enumerate() {
            self.drawn.push(PerturbedTap {
                tap,
                vref_volts: self.rhs[i + 1],
                comparator: Comparator::with_offset(off_dist.sample(rng)),
            });
        }
        Ok(&self.drawn)
    }

    /// Draws one factor per segment (relative σ `sigma`, truncated at ±3σ
    /// and floored at 10%), stamps the perturbed string and solves it
    /// into `rhs`.
    fn solve_perturbed<R: Rng + ?Sized>(
        &mut self,
        sigma: f64,
        rng: &mut R,
    ) -> Result<(), LadderError> {
        let res_dist = Normal::new(1.0, sigma);
        let (lo, hi) = ((1.0 - 3.0 * sigma).max(0.1), 1.0 + 3.0 * sigma);
        let n = self.order;
        let a = &mut self.matrix;
        a.fill(0.0);
        self.rhs.fill(0.0);
        // Segment `seg` joins the node below it (ground for the first) to
        // tap `seg`'s node, or to the supply node for the last segment.
        let mut below: Option<usize> = None;
        for (seg, &nominal) in self.nominal_ohms.iter().enumerate() {
            let ohms = nominal * res_dist.sample(rng).clamp(lo, hi);
            assert!(
                ohms.is_finite() && ohms > 0.0,
                "resistance must be positive, got {ohms}"
            );
            let above = if seg < self.taps.len() { seg + 1 } else { 0 };
            let g = 1.0 / ohms;
            if let Some(i) = below {
                a[i * n + i] += g;
            }
            a[above * n + above] += g;
            if let Some(i) = below {
                a[i * n + above] -= g;
                a[above * n + i] -= g;
            }
            below = Some(above);
        }
        // The supply: from ground to the supply node, through the branch
        // current's row and column.
        let branch = n - 1;
        a[branch] += 1.0;
        a[branch * n] += 1.0;
        self.rhs[branch] = self.supply_volts;
        solve_in_place(n, a, &mut self.rhs).map_err(|SolveError::Singular { column }| {
            LadderError::Circuit(MnaError::Singular { equation: column })
        })
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn ladder() -> Ladder {
        Ladder::pruned(4, &[2, 5, 8, 13], 1.0, 2500.0).unwrap()
    }

    /// The one-shot circuit path the compiled sampler replaces: draw every
    /// segment factor, build and solve the perturbed [`Circuit`] with the
    /// general MNA engine, then draw one offset per retained tap.
    ///
    /// [`Circuit`]: crate::mna::Circuit
    fn circuit_reference(
        model: &MismatchModel,
        ladder: &Ladder,
        rng: &mut StdRng,
    ) -> Vec<PerturbedTap> {
        let sigma = model.resistor_sigma_rel;
        let factors: Vec<f64> = (0..ladder.resistor_count())
            .map(|_| {
                sample_normal(rng, 1.0, sigma)
                    .clamp((1.0 - 3.0 * sigma).max(0.1), 1.0 + 3.0 * sigma)
            })
            .collect();
        let (ckt, nodes) = ladder.build_circuit_with(|seg, nominal| nominal * factors[seg]);
        let op = ckt.dc_operating_point().unwrap();
        ladder
            .taps()
            .iter()
            .map(|&tap| PerturbedTap {
                tap,
                vref_volts: op.voltage(nodes[&tap]),
                comparator: Comparator::with_offset(sample_normal(
                    rng,
                    0.0,
                    model.comparator_offset_sigma_v,
                )),
            })
            .collect()
    }

    proptest! {
        /// The compiled sampler stamps and eliminates exactly as the
        /// circuit path does: every vref and offset agrees to the bit, and
        /// both leave the RNG at the same position after every draw.
        #[test]
        fn compiled_sampler_is_bit_identical_to_the_circuit_solve(
            bits in 1u32..9,
            tap_picks in vec(any::<u16>(), 1..12),
            seed in any::<u64>(),
        ) {
            let max = (1usize << bits) - 1;
            let taps: Vec<usize> = tap_picks.iter().map(|&p| 1 + p as usize % max).collect();
            let ladder = Ladder::pruned(bits, &taps, 1.0, 2500.0).unwrap();
            let mut sampler = LadderSampler::new(&ladder);
            for model in [
                MismatchModel::none(),
                MismatchModel::typical_printed(),
                MismatchModel::pessimistic_printed(),
            ] {
                let mut compiled_rng = StdRng::seed_from_u64(seed);
                let mut circuit_rng = StdRng::seed_from_u64(seed);
                for _ in 0..3 {
                    let compiled = sampler
                        .draw(&model, &mut compiled_rng, &Recorder::disabled())
                        .unwrap()
                        .to_vec();
                    let reference = circuit_reference(&model, &ladder, &mut circuit_rng);
                    prop_assert_eq!(compiled.len(), reference.len());
                    for (c, r) in compiled.iter().zip(&reference) {
                        prop_assert_eq!(c.tap, r.tap);
                        prop_assert_eq!(c.vref_volts.to_bits(), r.vref_volts.to_bits());
                        prop_assert_eq!(
                            c.comparator.offset_volts.to_bits(),
                            r.comparator.offset_volts.to_bits()
                        );
                    }
                    prop_assert_eq!(compiled_rng.next_u64(), circuit_rng.next_u64());
                }
            }
        }
    }

    #[test]
    fn one_shot_sampling_wraps_the_compiled_sampler() {
        let l = ladder();
        let m = MismatchModel::pessimistic_printed();
        let mut sampler = LadderSampler::new(&l);
        let (mut a, mut b) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
        for _ in 0..5 {
            let compiled = sampler.draw(&m, &mut a, &Recorder::disabled()).unwrap();
            assert_eq!(compiled, m.sample(&l, &mut b).unwrap().taps());
        }
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
