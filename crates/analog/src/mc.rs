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
//! reused buffers for the drawn conductances and the MNA unknowns (taps +
//! 2 of them: every tap node, the supply node and the source's branch
//! current, numbered as the circuit path numbers them). A trial draws the
//! segment factors and solves the string by the elimination
//! [`solve_in_place`] performs on its stamped `order × order` system,
//! restricted to the nonzero entries — the same tolerance, pivots and
//! operations in the same order, in time linear in the taps. Where that
//! restriction could round differently (a top segment below 1 Ω, a
//! degenerate pivot, a zero accumulator) it stamps the dense system in
//! exactly the order [`Circuit::dc_operating_point`] stamps the same
//! resistors and runs [`solve_in_place`] — the routine [`Matrix::solve`]
//! runs on a copy. No node names, maps or fresh matrices are built, and
//! every tap voltage is bit-identical to solving
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

        /// Advances `rng` past one sample without computing it: the two
        /// uniforms [`sample`](Self::sample) draws.
        pub fn skip<R: Rng + ?Sized>(rng: &mut R) {
            let _: (f64, f64) = (rng.gen(), rng.gen());
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
/// [module docs](self)): nominal segment resistances, the perturbed
/// conductances and the string's solution, reused from draw to draw, so a
/// draw allocates nothing. [`draw_vrefs`](Self::draw_vrefs) is the draw
/// for callers that read only the tap voltages.
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
    /// The drawn conductance of every merged segment, bottom to top.
    conductances: Vec<f64>,
    /// Eliminated diagonal of every tap row (index 0 unused).
    pivots: Vec<f64>,
    /// The string's MNA unknowns, as [`Circuit::dc_operating_point`]
    /// numbers them: the supply node's voltage, tap `i`'s at `i + 1`,
    /// and the supply's branch current last (ground is eliminated).
    ///
    /// [`Circuit::dc_operating_point`]: crate::mna::Circuit::dc_operating_point
    solution: Vec<f64>,
    /// Row-major dense system over the same unknowns, stamped only when
    /// [`solve_string`] leaves a draw to [`solve_in_place`].
    matrix: Vec<f64>,
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
            conductances: vec![0.0; taps.len() + 1],
            pivots: vec![0.0; taps.len() + 1],
            solution: vec![0.0; order],
            matrix: Vec::new(),
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
        let off_dist = self.solve_recorded(model, rng, recorder)?;
        self.drawn.clear();
        for (i, &tap) in self.taps.iter().enumerate() {
            self.drawn.push(PerturbedTap {
                tap,
                vref_volts: self.solution[i + 1],
                comparator: Comparator::with_offset(off_dist.sample(rng)),
            });
        }
        Ok(&self.drawn)
    }

    /// [`draw`](Self::draw) for callers that read only the tap voltages:
    /// the same counters, checks and solve, and the RNG left where `draw`
    /// leaves it, but each comparator offset's two uniforms are skipped
    /// rather than turned into an offset. Returns every retained tap's
    /// perturbed voltage, ascending — the `vref_volts` of `draw`'s taps.
    ///
    /// # Errors
    ///
    /// As for [`MismatchModel::sample`].
    ///
    /// # Panics
    ///
    /// As for [`draw`](Self::draw).
    pub fn draw_vrefs<R: Rng + ?Sized>(
        &mut self,
        model: &MismatchModel,
        rng: &mut R,
        recorder: &Recorder,
    ) -> Result<&[f64], LadderError> {
        self.solve_recorded(model, rng, recorder)?;
        for _ in &self.taps {
            Normal::skip(rng);
        }
        Ok(&self.solution[1..=self.taps.len()])
    }

    /// The part of a draw before the offsets: counts the trial, checks
    /// the offset sigma, solves the perturbed string (counting a failure)
    /// and hands back the offset distribution.
    fn solve_recorded<R: Rng + ?Sized>(
        &mut self,
        model: &MismatchModel,
        rng: &mut R,
        recorder: &Recorder,
    ) -> Result<Normal, LadderError> {
        recorder.add(keys::MC_TRIALS, 1);
        let off_dist = Normal::new(0.0, model.comparator_offset_sigma_v);
        let solved = self.solve_perturbed(model.resistor_sigma_rel, rng);
        if solved.is_err() {
            recorder.add(keys::MC_FAILURES, 1);
        }
        solved.map(|()| off_dist)
    }

    /// Draws one factor per segment (relative σ `sigma`, truncated at ±3σ
    /// and floored at 10%) and solves the perturbed string into
    /// `solution`.
    fn solve_perturbed<R: Rng + ?Sized>(
        &mut self,
        sigma: f64,
        rng: &mut R,
    ) -> Result<(), LadderError> {
        let res_dist = Normal::new(1.0, sigma);
        let (lo, hi) = ((1.0 - 3.0 * sigma).max(0.1), 1.0 + 3.0 * sigma);
        for (g, &nominal) in self.conductances.iter_mut().zip(&self.nominal_ohms) {
            let ohms = nominal * res_dist.sample(rng).clamp(lo, hi);
            assert!(
                ohms.is_finite() && ohms > 0.0,
                "resistance must be positive, got {ohms}"
            );
            *g = 1.0 / ohms;
        }
        self.solve().map_err(|SolveError::Singular { column }| {
            LadderError::Circuit(MnaError::Singular { equation: column })
        })
    }

    /// Solves the string at the drawn conductances into `solution`: by
    /// [`solve_string`], or by stamping the dense system and running
    /// [`solve_in_place`] on it where `solve_string` declines.
    fn solve(&mut self) -> Result<(), SolveError> {
        if solve_string(
            &self.conductances,
            self.supply_volts,
            &mut self.pivots,
            &mut self.solution,
        ) {
            return Ok(());
        }
        stamp_string(
            &self.conductances,
            self.supply_volts,
            &mut self.matrix,
            &mut self.solution,
        );
        solve_in_place(self.solution.len(), &mut self.matrix, &mut self.solution)
    }
}

/// Stamps the string with segment conductances `g` (bottom to top) and
/// the `supply` source into the dense system `a · x = rhs` — in exactly
/// the order [`Circuit::dc_operating_point`] stamps the same circuit.
/// Segment `s` joins the node below it (ground for the first) to tap
/// `s`'s node, or to the supply node for the last segment.
///
/// [`Circuit::dc_operating_point`]: crate::mna::Circuit::dc_operating_point
fn stamp_string(g: &[f64], supply: f64, a: &mut Vec<f64>, rhs: &mut [f64]) {
    let taps = g.len() - 1;
    let n = taps + 2;
    a.clear();
    a.resize(n * n, 0.0);
    rhs.fill(0.0);
    let mut below: Option<usize> = None;
    for (seg, &g) in g.iter().enumerate() {
        let above = if seg < taps { seg + 1 } else { 0 };
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
    rhs[branch] = supply;
}

/// Solves the string [`stamp_string`] stamps by the elimination
/// [`solve_in_place`] performs on it, restricted to the system's nonzero
/// entries, into `x` (the unknowns as numbered there); `pivots` is
/// scratch of one entry per segment. Returns `false`, leaving the draw to
/// the dense solve, wherever that restriction could round differently:
/// no tap, a pivot the dense search would take off its expected row or
/// find below the tolerance, a non-finite entry or solution, or a
/// back-substitution accumulator at zero (whose sign the dense solve's
/// zero products could flip).
///
/// On every other system it is `solve_in_place` term for term. Column 0
/// pivots on the branch row (its 1 is the largest entry of the column
/// while the top conductance is at most 1 S); swapping it up leaves the
/// tap rows a chain, each eliminated by the one above it, and the old
/// supply row last, against the top tap alone. Every update the dense
/// loops make outside those entries subtracts a zero product from a
/// nonzero or `+0.0` value, which leaves it unchanged.
fn solve_string(g: &[f64], supply: f64, pivots: &mut [f64], x: &mut [f64]) -> bool {
    let taps = g.len() - 1;
    if taps == 0 {
        return false;
    }
    let branch = taps + 1;
    // Tap row `i`'s diagonal, stamped as `0 + g[i - 1]`, then `+ g[i]`.
    let mut max_abs = 1.0_f64.max(g[taps]);
    for i in 1..=taps {
        pivots[i] = g[i - 1] + g[i];
        max_abs = max_abs.max(pivots[i]).max(g[i]);
    }
    if !max_abs.is_finite() {
        return false;
    }
    let tol = 1e-12 * max_abs;
    // Column 0: rows 0 and `taps` hold ±g[taps], the branch row 1; ties
    // go to the last row, so the branch row pivots unless g[taps] > 1.
    if g[taps] > 1.0 || 1.0 <= tol {
        return false;
    }
    x.fill(0.0);
    // The swap moves the branch row's `supply` up and the supply row's 0
    // down, then both rows reading the supply node are eliminated.
    x[0] = supply;
    let factor = -g[taps] / 1.0;
    x[taps] -= factor * x[0];
    let factor = g[taps] / 1.0;
    x[branch] -= factor * x[0];
    // Columns 1..=taps: the row below tap row `c` holds -g[c] (the old
    // supply row, for the top tap).
    for c in 1..=taps {
        let pivot = pivots[c];
        if !(pivot > g[c] && pivot > tol) {
            return false;
        }
        let factor = -g[c] / pivot;
        if factor == 0.0 {
            continue;
        }
        if c < taps {
            pivots[c + 1] -= factor * -g[c];
            x[c + 1] -= factor * x[c];
        } else {
            x[branch] -= factor * x[c];
        }
    }
    // Back substitution. The old supply row kept its 1 on the diagonal
    // (the top tap row is zero in the branch column), the top tap row
    // reads nothing beyond its diagonal, tap row `c` reads tap `c + 1`,
    // and the swapped-up branch row reads only the supply node.
    x[branch] /= 1.0;
    for c in (1..=taps).rev() {
        let acc = if c < taps {
            x[c] - -g[c] * x[c + 1]
        } else {
            x[c]
        };
        if acc == 0.0 {
            return false;
        }
        x[c] = acc / pivots[c];
    }
    if x[0] == 0.0 {
        return false;
    }
    x[0] /= 1.0;
    x.iter().all(|v| v.is_finite())
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

    /// The dense reference of a string solve: the system stamped as the
    /// circuit path stamps it, eliminated by [`solve_in_place`].
    fn dense_solve(g: &[f64], supply: f64) -> Result<Vec<f64>, SolveError> {
        let mut a = Vec::new();
        let mut x = vec![0.0; g.len() + 1];
        stamp_string(g, supply, &mut a, &mut x);
        solve_in_place(x.len(), &mut a, &mut x).map(|()| x)
    }

    /// A sampler over a string of `g.len()` segments, solved at `g`.
    fn sampler_solve(g: &[f64], supply: f64) -> Result<Vec<f64>, SolveError> {
        let taps: Vec<usize> = (1..g.len()).collect();
        let ladder = Ladder::pruned(8, &taps, supply, 1.0).unwrap();
        let mut sampler = LadderSampler::new(&ladder);
        sampler.conductances.copy_from_slice(g);
        sampler.solve().map(|()| sampler.solution)
    }

    proptest! {
        /// On every ladder — up to every tap of 1–8 bits, unit resistors
        /// from 0.25 Ω (a top segment above 1 S, which the dense solve
        /// pivots differently, so the fallback runs) to 100 kΩ — and every
        /// preset, each vref is the dense elimination's to the bit, and
        /// the vref-only draw returns `draw`'s vrefs and leaves the RNG
        /// where `draw` leaves it.
        #[test]
        fn string_solve_and_vref_draw_match_the_dense_elimination(
            bits in 1u32..9,
            tap_picks in vec(any::<u16>(), 1..256),
            log_unit_ohms in -0.6f64..5.0,
            seed in any::<u64>(),
        ) {
            let max = (1usize << bits) - 1;
            let taps: Vec<usize> = tap_picks.iter().map(|&p| 1 + p as usize % max).collect();
            let ladder = Ladder::pruned(bits, &taps, 1.0, 10f64.powf(log_unit_ohms)).unwrap();
            let (mut full, mut vrefs_only) = (LadderSampler::new(&ladder), LadderSampler::new(&ladder));
            for model in [
                MismatchModel::none(),
                MismatchModel::typical_printed(),
                MismatchModel::pessimistic_printed(),
            ] {
                let mut full_rng = StdRng::seed_from_u64(seed);
                let mut vref_rng = StdRng::seed_from_u64(seed);
                for _ in 0..3 {
                    let drawn = full.draw(&model, &mut full_rng, &Recorder::disabled()).unwrap().to_vec();
                    let vrefs = vrefs_only
                        .draw_vrefs(&model, &mut vref_rng, &Recorder::disabled())
                        .unwrap()
                        .to_vec();
                    let dense = dense_solve(&full.conductances, ladder.supply_volts()).unwrap();
                    prop_assert_eq!(vrefs.len(), drawn.len());
                    for (i, (tap, vref)) in drawn.iter().zip(&vrefs).enumerate() {
                        prop_assert_eq!(tap.vref_volts.to_bits(), dense[i + 1].to_bits());
                        prop_assert_eq!(vref.to_bits(), tap.vref_volts.to_bits());
                    }
                    prop_assert_eq!(full_rng.next_u64(), vref_rng.next_u64());
                }
            }
        }

        /// On arbitrary strings — conductances over 18 decades, so some
        /// systems are singular and some pivot off the string's rows —
        /// the sampler's solve returns the dense elimination's solution
        /// to the bit, or its error.
        #[test]
        fn string_solve_matches_the_dense_elimination_on_any_conductances(
            log_g in vec(-15.0f64..3.0, 2..40),
            supply in 0.1f64..10.0,
        ) {
            let g: Vec<f64> = log_g.iter().map(|&e| 10f64.powf(e)).collect();
            match (sampler_solve(&g, supply), dense_solve(&g, supply)) {
                (Ok(x), Ok(dense)) => {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&x), bits(&dense));
                }
                (Err(e), Err(dense)) => prop_assert_eq!(e, dense),
                (x, dense) => prop_assert!(false, "{x:?} vs dense {dense:?}"),
            }
        }
    }

    #[test]
    fn string_solve_leaves_off_string_pivots_and_singular_systems_to_the_dense_solve() {
        let mut pivots = vec![0.0; 4];
        let mut x = vec![0.0; 5];
        // Kilo-ohm segments: the string elimination runs.
        let g = [1e-3, 2e-3, 1e-3, 5e-4];
        assert!(solve_string(&g, 1.0, &mut pivots, &mut x));
        assert_eq!(Ok(x.clone()), dense_solve(&g, 1.0));
        // A top segment above 1 S: the dense search pivots on a tap row.
        let g = [1e-3, 2e-3, 1e-3, 4.0];
        assert!(!solve_string(&g, 1.0, &mut pivots, &mut x));
        assert_eq!(sampler_solve(&g, 1.0), dense_solve(&g, 1.0));
        // Tera-ohm segments fall below the tolerance: singular.
        let g = [1e-13; 4];
        assert!(!solve_string(&g, 1.0, &mut pivots, &mut x));
        let dense = dense_solve(&g, 1.0);
        assert!(matches!(dense, Err(SolveError::Singular { .. })));
        assert_eq!(sampler_solve(&g, 1.0), dense);
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
