//! Classifier accuracy under printing variation (extension experiment).
//!
//! The paper reports nominal numbers only; a natural question for a real
//! deployment is how robust the co-designed classifier is to printed
//! resistor mismatch and comparator offset. This module Monte-Carlo-samples
//! the bespoke front-end (shared perturbed ladder + per-comparator offsets)
//! and re-scores the tree on *analog* test inputs, where every decision
//! boundary has drifted to its sampled effective threshold.
//!
//! ```no_run
//! use printed_analog::MismatchModel;
//! use printed_codesign::mismatch::mismatch_accuracy;
//! use printed_datasets::Benchmark;
//! use printed_dtree::cart::train_depth_selected;
//!
//! let (train_q, test_q) = Benchmark::Seeds.load_quantized(4)?;
//! let (_, test_analog) = Benchmark::Seeds.load_split()?;
//! let model = train_depth_selected(&train_q, &test_q, 8);
//! let report = mismatch_accuracy(
//!     &model.tree, &test_analog, &MismatchModel::typical_printed(), 100, 7);
//! println!("mean accuracy under mismatch: {:.3}", report.mean);
//! # Ok::<(), printed_datasets::DatasetError>(())
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use printed_telemetry::Recorder;

use printed_analog::ladder::Ladder;
use printed_analog::mc::sample_normal;
use printed_analog::MismatchModel;
use printed_datasets::Dataset;
use printed_dtree::{DecisionTree, Node};
use printed_pdk::AnalogModel;

use crate::unary::UnaryClassifier;

/// Monte-Carlo accuracy statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MismatchReport {
    /// Accuracy with ideal (unperturbed) thresholds on analog inputs.
    pub nominal: f64,
    /// Mean accuracy over the Monte-Carlo trials.
    pub mean: f64,
    /// Worst trial.
    pub min: f64,
    /// Best trial.
    pub max: f64,
    /// Number of trials.
    pub trials: usize,
}

/// Per-trial Monte-Carlo accuracies, for consumers that need the full
/// distribution (e.g. the robustness campaign's yield estimate) rather
/// than the [`MismatchReport`] summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct MismatchTrials {
    /// Accuracy with ideal (unperturbed) thresholds on analog inputs.
    pub nominal: f64,
    /// One accuracy per Monte-Carlo trial, in trial order.
    pub accuracies: Vec<f64>,
}

impl MismatchTrials {
    /// Condenses the trials into summary statistics. NaN trials (a failed
    /// scoring path) are excluded from the aggregates via `total_cmp`
    /// ordering; an empty or all-NaN trial set reports NaN mean/min/max
    /// rather than the `0/0` and `fold(INFINITY)` artifacts a naive
    /// aggregation would produce.
    pub fn report(&self) -> MismatchReport {
        let mut scored = self
            .accuracies
            .iter()
            .copied()
            .filter(|a| !a.is_nan())
            .peekable();
        let (mut sum, mut count) = (0.0, 0usize);
        let (mut min, mut max) = (f64::NAN, f64::NAN);
        if let Some(&first) = scored.peek() {
            (min, max) = (first, first);
        }
        for a in scored {
            sum += a;
            count += 1;
            if a.total_cmp(&min).is_lt() {
                min = a;
            }
            if a.total_cmp(&max).is_gt() {
                max = a;
            }
        }
        let mean = if count == 0 {
            f64::NAN
        } else {
            sum / count as f64
        };
        MismatchReport {
            nominal: self.nominal,
            mean,
            min,
            max,
            trials: self.accuracies.len(),
        }
    }

    /// Fraction of trials whose accuracy stays within `loss` of nominal —
    /// the campaign's parametric-yield estimate. An empty trial set has no
    /// evidence of yielding and reports `0.0`, never NaN; NaN trials count
    /// as failures.
    pub fn yield_within(&self, loss: f64) -> f64 {
        if self.accuracies.is_empty() {
            return 0.0;
        }
        let floor = self.nominal - loss;
        let good = self
            .accuracies
            .iter()
            .filter(|&&a| a >= floor - 1e-12)
            .count();
        good as f64 / self.accuracies.len() as f64
    }
}

/// A tree whose splits read their effective thresholds from a dense slice
/// ordered like [`DecisionTree::distinct_pairs`]: split node `i` compares
/// against `thresholds[slots[i]]`, so scoring a trial or a sag step costs
/// one slice index per split instead of a map lookup.
pub(crate) struct AnalogTree<'a> {
    tree: &'a DecisionTree,
    pairs: Vec<(usize, u8)>,
    slots: Vec<usize>,
}

impl<'a> AnalogTree<'a> {
    pub(crate) fn new(tree: &'a DecisionTree) -> Self {
        let pairs: Vec<(usize, u8)> = tree.distinct_pairs().into_iter().collect();
        let slots = tree
            .nodes()
            .iter()
            .map(|node| match *node {
                Node::Split {
                    feature, threshold, ..
                } => pairs
                    .binary_search(&(feature, threshold))
                    .expect("every split is a distinct pair"),
                Node::Leaf { .. } => 0,
            })
            .collect();
        Self { tree, pairs, slots }
    }

    /// The distinct `(feature, tap)` pairs, in threshold-slot order.
    pub(crate) fn pairs(&self) -> &[(usize, u8)] {
        &self.pairs
    }

    /// The ideal (unperturbed) effective thresholds of the tree's bespoke
    /// ADC bank, in normalized-volts space: tap `c` sits at `c / 2^bits`.
    pub(crate) fn nominal_thresholds(&self) -> Vec<f64> {
        let full = (1u64 << self.tree.bits()) as f64;
        self.pairs.iter().map(|&(_, c)| c as f64 / full).collect()
    }

    /// Predicts with explicit effective thresholds (one per pair).
    fn predict(&self, sample: &[f64], thresholds: &[f64]) -> usize {
        let mut i = 0;
        loop {
            match self.tree.nodes()[i] {
                Node::Leaf { class } => return class,
                Node::Split {
                    feature, lo, hi, ..
                } => {
                    let t = thresholds[self.slots[i]];
                    i = if sample[feature] >= t { hi } else { lo };
                }
            }
        }
    }

    /// Accuracy on the analog `data` under `thresholds`.
    pub(crate) fn accuracy(&self, data: &Dataset, thresholds: &[f64]) -> f64 {
        let correct = data
            .iter()
            .filter(|(sample, label)| self.predict(sample, thresholds) == *label)
            .count();
        correct as f64 / data.len() as f64
    }
}

/// Runs `trials` Monte-Carlo samples of the bespoke front-end under
/// `mismatch` and scores `tree` on the normalized (analog) `test` split.
///
/// Per trial: one perturbed shared ladder (distinct taps of the tree's
/// bespoke ADC bank), then an independent input-referred offset per
/// retained comparator. Deterministic for a given `seed`.
///
/// # Panics
///
/// Panics if `trials` is 0, the tree has no splits, or `test` is empty or
/// narrower than the tree's feature space.
pub fn mismatch_accuracy(
    tree: &DecisionTree,
    test: &Dataset,
    mismatch: &MismatchModel,
    trials: usize,
    seed: u64,
) -> MismatchReport {
    mismatch_accuracy_with(tree, test, mismatch, trials, seed, &AnalogModel::egfet())
}

/// [`mismatch_accuracy`] under an explicit analog model.
pub fn mismatch_accuracy_with(
    tree: &DecisionTree,
    test: &Dataset,
    mismatch: &MismatchModel,
    trials: usize,
    seed: u64,
    analog: &AnalogModel,
) -> MismatchReport {
    mismatch_accuracy_recorded(
        tree,
        test,
        mismatch,
        trials,
        seed,
        analog,
        &Recorder::disabled(),
    )
}

/// [`mismatch_accuracy_with`] plus instrumentation: every trial bumps
/// [`printed_telemetry::keys::MC_TRIALS`] (and `MC_FAILURES` on solve
/// failures) through the shared Monte-Carlo counters in `printed-analog`.
/// The report is bit-identical to the unrecorded variants.
#[allow(clippy::too_many_arguments)]
pub fn mismatch_accuracy_recorded(
    tree: &DecisionTree,
    test: &Dataset,
    mismatch: &MismatchModel,
    trials: usize,
    seed: u64,
    analog: &AnalogModel,
    recorder: &Recorder,
) -> MismatchReport {
    assert!(trials > 0, "need at least one trial");
    let mut stream = MismatchTrialStream::new(tree, test, mismatch, seed, analog, recorder);
    MismatchTrials {
        accuracies: (0..trials).map(|_| stream.next_accuracy()).collect(),
        nominal: stream.nominal(),
    }
    .report()
}

/// An incremental view of the same Monte Carlo
/// [`mismatch_accuracy_recorded`] runs: one perturbed front-end sample and
/// one accuracy per [`next_accuracy`](Self::next_accuracy) call.
///
/// The RNG is consumed strictly sequentially per trial, so the first `k`
/// accuracies drawn from a stream are **bit-identical** to the first `k`
/// entries of any exhaustive run with the same seed, regardless of how
/// many further trials either one takes. The robustness campaign's
/// sequential early exit leans on exactly this prefix property: a
/// budgeted campaign observes a prefix of the exhaustive campaign's
/// accuracy stream, never a different stream.
///
/// # Panics
///
/// Construction panics when the tree has no splits, or `test` is empty or
/// narrower than the tree's feature space (same contract as
/// [`mismatch_accuracy`], minus the trial count).
pub struct MismatchTrialStream<'a> {
    analog: AnalogTree<'a>,
    test: &'a Dataset,
    mismatch: &'a MismatchModel,
    recorder: &'a Recorder,
    ladder: Ladder,
    /// Per threshold slot, the position of its tap in the ladder's
    /// (ascending) retained taps — and so in every mismatch sample's.
    tap_index: Vec<usize>,
    thresholds: Vec<f64>,
    rng: StdRng,
    nominal: f64,
}

impl<'a> MismatchTrialStream<'a> {
    /// Builds the shared pruned ladder once and scores the nominal
    /// (unperturbed) thresholds; no RNG is consumed yet.
    pub fn new(
        tree: &'a DecisionTree,
        test: &'a Dataset,
        mismatch: &'a MismatchModel,
        seed: u64,
        analog: &AnalogModel,
        recorder: &'a Recorder,
    ) -> Self {
        assert!(
            tree.split_count() > 0,
            "a constant tree has no thresholds to perturb"
        );
        assert!(!test.is_empty(), "cannot score an empty dataset");
        assert!(
            test.n_features() >= tree.n_features(),
            "dataset narrower than the tree"
        );

        let bank = UnaryClassifier::from_tree(tree).adc_bank();
        let distinct = bank.distinct_taps();
        let ladder = Ladder::pruned(
            tree.bits(),
            &distinct,
            analog.supply.volts(),
            analog.unit_resistor.ohms(),
        )
        .expect("tree taps are valid");

        // Nominal thresholds: ideal tap voltages.
        let analog_tree = AnalogTree::new(tree);
        let nominal = analog_tree.accuracy(test, &analog_tree.nominal_thresholds());
        let tap_index = analog_tree
            .pairs()
            .iter()
            .map(|&(_, c)| {
                ladder
                    .taps()
                    .binary_search(&(c as usize))
                    .expect("every tree tap is retained")
            })
            .collect();

        Self {
            thresholds: vec![0.0; analog_tree.pairs().len()],
            analog: analog_tree,
            test,
            mismatch,
            recorder,
            ladder,
            tap_index,
            rng: StdRng::seed_from_u64(seed),
            nominal,
        }
    }

    /// Accuracy with ideal (unperturbed) thresholds on analog inputs.
    pub fn nominal(&self) -> f64 {
        self.nominal
    }

    /// Samples one perturbed front-end and scores the tree on it.
    pub fn next_accuracy(&mut self) -> f64 {
        // Shared perturbed ladder: one vref per distinct tap.
        let sample = self
            .mismatch
            .sample_recorded(&self.ladder, &mut self.rng, self.recorder)
            .expect("perturbed ladder solves");
        // Per-comparator offsets on top, drawn in distinct-pair order.
        for (threshold, &tap) in self.thresholds.iter_mut().zip(&self.tap_index) {
            let offset = sample_normal(&mut self.rng, 0.0, self.mismatch.comparator_offset_sigma_v);
            *threshold = sample.taps()[tap].vref_volts - offset;
        }
        self.analog.accuracy(self.test, &self.thresholds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use printed_datasets::Benchmark;
    use printed_dtree::cart::train_depth_selected;

    fn setup() -> (DecisionTree, Dataset) {
        let (train_q, test_q) = Benchmark::Seeds.load_quantized(4).unwrap();
        let (_, test_analog) = Benchmark::Seeds.load_split().unwrap();
        let model = train_depth_selected(&train_q, &test_q, 5);
        (model.tree, test_analog)
    }

    #[test]
    fn zero_variation_equals_nominal() {
        let (tree, test) = setup();
        let report = mismatch_accuracy(&tree, &test, &MismatchModel::none(), 3, 1);
        assert!((report.mean - report.nominal).abs() < 1e-12);
        assert_eq!(report.min, report.max);
    }

    #[test]
    fn typical_variation_degrades_gracefully() {
        let (tree, test) = setup();
        let report = mismatch_accuracy(&tree, &test, &MismatchModel::typical_printed(), 25, 2);
        assert!(report.min <= report.mean && report.mean <= report.max);
        assert!(
            report.mean > report.nominal - 0.25,
            "mean {} vs nominal {}",
            report.mean,
            report.nominal
        );
        assert_eq!(report.trials, 25);
    }

    #[test]
    fn pessimistic_variation_hurts_more() {
        let (tree, test) = setup();
        let typical = mismatch_accuracy(&tree, &test, &MismatchModel::typical_printed(), 25, 3);
        let pessimistic =
            mismatch_accuracy(&tree, &test, &MismatchModel::pessimistic_printed(), 25, 3);
        assert!(pessimistic.mean <= typical.mean + 0.02);
    }

    #[test]
    fn deterministic_per_seed() {
        let (tree, test) = setup();
        let a = mismatch_accuracy(&tree, &test, &MismatchModel::typical_printed(), 10, 42);
        let b = mismatch_accuracy(&tree, &test, &MismatchModel::typical_printed(), 10, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn recorded_report_counts_trials_and_matches_plain() {
        use printed_telemetry::keys;
        let (tree, test) = setup();
        let model = MismatchModel::typical_printed();
        let plain = mismatch_accuracy(&tree, &test, &model, 10, 42);
        let (recorder, sink) = Recorder::collecting();
        let recorded = mismatch_accuracy_recorded(
            &tree,
            &test,
            &model,
            10,
            42,
            &AnalogModel::egfet(),
            &recorder,
        );
        assert_eq!(
            plain, recorded,
            "instrumentation must not perturb the report"
        );
        let snap = sink.snapshot();
        assert_eq!(snap.counter(keys::MC_TRIALS), 10);
        assert_eq!(snap.counter(keys::MC_FAILURES), 0);
    }

    /// Every trial of a `trials`-long stream, as the campaign collects them.
    fn stream_trials(
        tree: &DecisionTree,
        test: &Dataset,
        model: &MismatchModel,
        trials: usize,
        seed: u64,
    ) -> MismatchTrials {
        let recorder = Recorder::disabled();
        let mut stream =
            MismatchTrialStream::new(tree, test, model, seed, &AnalogModel::egfet(), &recorder);
        MismatchTrials {
            accuracies: (0..trials).map(|_| stream.next_accuracy()).collect(),
            nominal: stream.nominal(),
        }
    }

    #[test]
    fn trials_path_matches_summary_and_bounds_yield() {
        let (tree, test) = setup();
        let model = MismatchModel::typical_printed();
        let report = mismatch_accuracy(&tree, &test, &model, 12, 5);
        let trials = stream_trials(&tree, &test, &model, 12, 5);
        assert_eq!(trials.report(), report, "same RNG stream, same numbers");
        assert_eq!(trials.accuracies.len(), 12);
        // Yield is monotone in the allowed loss and caps at 1.
        assert_eq!(trials.yield_within(1.0), 1.0);
        let tight = trials.yield_within(0.0);
        assert!((0.0..=1.0).contains(&tight));
        assert!(trials.yield_within(0.05) >= tight);
    }

    #[test]
    fn stream_prefix_matches_exhaustive_run() {
        let (tree, test) = setup();
        let model = MismatchModel::typical_printed();
        let full = stream_trials(&tree, &test, &model, 16, 77);
        assert_eq!(
            full.report(),
            mismatch_accuracy(&tree, &test, &model, 16, 77)
        );
        let recorder = Recorder::disabled();
        let mut stream =
            MismatchTrialStream::new(&tree, &test, &model, 77, &AnalogModel::egfet(), &recorder);
        assert_eq!(stream.nominal(), full.nominal);
        let prefix: Vec<f64> = (0..5).map(|_| stream.next_accuracy()).collect();
        assert_eq!(
            prefix,
            full.accuracies[..5],
            "a budgeted stream must observe an exact prefix of the exhaustive accuracy stream"
        );
    }

    #[test]
    fn empty_and_nan_trial_sets_aggregate_without_poison() {
        // Empty: no yield evidence, NaN summary stats — never 0/0 or ±inf.
        let empty = MismatchTrials {
            nominal: 0.9,
            accuracies: vec![],
        };
        assert_eq!(empty.yield_within(0.05), 0.0);
        let report = empty.report();
        assert!(report.mean.is_nan() && report.min.is_nan() && report.max.is_nan());
        assert_eq!(report.trials, 0);
        // NaN trials count as failed, not as evidence.
        let poisoned = MismatchTrials {
            nominal: 0.9,
            accuracies: vec![0.8, f64::NAN, 0.9],
        };
        let report = poisoned.report();
        assert!((report.mean - 0.85).abs() < 1e-12);
        assert_eq!((report.min, report.max), (0.8, 0.9));
        assert!(poisoned.yield_within(0.1) < 1.0);
        let all_nan = MismatchTrials {
            nominal: 0.9,
            accuracies: vec![f64::NAN; 3],
        };
        assert!(all_nan.report().mean.is_nan());
        assert_eq!(all_nan.yield_within(1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "constant tree")]
    fn rejects_constant_tree() {
        let (_, test) = setup();
        let tree = DecisionTree::constant(4, test.n_features(), 3, 0);
        mismatch_accuracy(&tree, &test, &MismatchModel::none(), 1, 0);
    }
}
