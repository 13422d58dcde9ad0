//! Classifier accuracy under printing variation (extension experiment).
//!
//! The paper reports nominal numbers only; a natural question for a real
//! deployment is how robust the co-designed classifier is to printed
//! resistor mismatch and comparator offset. This module Monte-Carlo-samples
//! the bespoke front-end (shared perturbed ladder + per-comparator offsets)
//! and re-scores the tree on *analog* test inputs, where every decision
//! boundary has drifted to its sampled effective threshold.
//!
//! Scoring is packed: [`AnalogColumns`] sorts each test column the trees
//! read once (per campaign, shared by every worker) and keeps one label
//! mask per class in 64-sample words, and [`PackedAnalogTree`] turns a
//! threshold into a rank in its sorted column, so moving a threshold flips
//! only the samples it crosses, and a whole test set is classified by
//! walking the tree on word masks. Accuracies are integer hit counts over
//! the test size, bit-identical to walking the tree sample by sample.
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

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;

use printed_telemetry::Recorder;

use printed_analog::ladder::Ladder;
use printed_analog::mc::{sample_normal, LadderSampler};
use printed_analog::MismatchModel;
use printed_datasets::Dataset;
use printed_dtree::{DecisionTree, Node};
use printed_pdk::AnalogModel;

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

/// An analog test split prepared for packed scoring: the column of every
/// requested feature sorted once, and one label mask per class, in 64-sample
/// words (bit `s % 64` of word `s / 64` is sample `s`).
///
/// A campaign builds one for the union of the features its candidates
/// read and shares it, read-only, across its workers; every
/// [`PackedAnalogTree`] scores against it.
#[derive(Debug, Clone)]
pub struct AnalogColumns {
    /// Unique per [`AnalogColumns::new`] call (clones share it, with the
    /// content): what a [`PackedAnalogTree`] checks it is scored against.
    id: u64,
    len: usize,
    words: usize,
    n_features: usize,
    /// Per feature, its `(value, sample)` pairs in ascending value order;
    /// `None` for a feature not requested.
    columns: Vec<Option<Vec<(f64, u32)>>>,
    /// `labels[class * words + w]`: the samples of `class` in word `w`.
    /// Lanes past the last sample are zero in every mask.
    labels: Vec<u64>,
    n_classes: usize,
}

impl AnalogColumns {
    /// Sorts the columns of `features` in `test` and packs its labels.
    ///
    /// # Panics
    ///
    /// Panics if `test` is empty, or a feature is not a column of `test`.
    pub fn new(test: &Dataset, features: impl IntoIterator<Item = usize>) -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        assert!(!test.is_empty(), "cannot score an empty dataset");
        let len = test.len();
        let words = len.div_ceil(64);
        let mut columns = vec![None; test.n_features()];
        for feature in features {
            assert!(
                feature < test.n_features(),
                "dataset narrower than the tree"
            );
            if columns[feature].is_some() {
                continue;
            }
            let mut sorted: Vec<(f64, u32)> = test
                .iter()
                .zip(0u32..)
                .map(|((x, _), s)| (x[feature], s))
                .collect();
            sorted.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            columns[feature] = Some(sorted);
        }
        let n_classes = test.n_classes();
        let mut labels = vec![0u64; n_classes * words];
        for (s, &label) in test.labels().iter().enumerate() {
            labels[label * words + s / 64] |= 1 << (s % 64);
        }
        Self {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            len,
            words,
            n_features: test.n_features(),
            columns,
            labels,
            n_classes,
        }
    }

    fn column(&self, feature: usize) -> &[(f64, u32)] {
        self.columns[feature]
            .as_ref()
            .expect("the column of every feature the tree reads is sorted")
    }
}

/// A decision tree compiled for packed scoring on analog inputs, with one
/// movable effective threshold per distinct `(feature, tap)` pair (its
/// *slot*, ordered like [`DecisionTree::distinct_pairs`]).
///
/// Per slot it keeps the threshold's *rank* — how many samples of the
/// feature's sorted column lie below it (`v < t`) — and the lane mask of
/// the samples at or above it, which take the `hi` branch (the tree's
/// `sample ≥ threshold` rule). Moving a threshold binary-searches the new
/// rank and XORs only the lanes of the samples between the old rank and
/// the new one. Scoring walks the tree on reach masks (a split sends
/// `reach & mask` high and `reach & !mask` low) and counts each leaf's
/// reach against its class's label mask with `popcount`. Starts at the
/// nominal thresholds.
///
/// ```
/// use printed_codesign::mismatch::{AnalogColumns, PackedAnalogTree};
/// use printed_datasets::Dataset;
/// use printed_dtree::{DecisionTree, Node};
///
/// // x0 ≥ 8/16 → class 1.
/// let nodes = vec![
///     Node::Split { feature: 0, threshold: 8, lo: 1, hi: 2 },
///     Node::Leaf { class: 0 },
///     Node::Leaf { class: 1 },
/// ];
/// let tree = DecisionTree::from_nodes(4, 1, 2, nodes)?;
/// let rows = vec![(vec![0.2], 0), (vec![0.5], 1), (vec![0.7], 1)];
/// let test = Dataset::from_rows("toy", 1, rows).unwrap();
/// let columns = AnalogColumns::new(&test, tree.used_features());
/// let mut packed = PackedAnalogTree::new(&tree, &columns);
/// assert_eq!(packed.accuracy(&columns, &[0.5]), 1.0); // 0.5 ≥ 0.5 goes high
/// assert_eq!(packed.accuracy(&columns, &[0.6]), 2.0 / 3.0);
/// # Ok::<(), printed_dtree::TreeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PackedAnalogTree {
    steps: Vec<Step>,
    /// The distinct `(feature, tap)` pairs, in slot order.
    pairs: Vec<(usize, u8)>,
    nominal: Vec<f64>,
    /// Per slot, the rank of its current threshold.
    ranks: Vec<usize>,
    /// `masks[slot * words + w]`: the samples at or above the slot's
    /// current threshold.
    masks: Vec<u64>,
    /// One reach word per node: scratch for the walk.
    reach: Vec<u64>,
    words: usize,
    /// The [`AnalogColumns`] the ranks and masks index into.
    columns: u64,
}

/// One tree node as the packed walk reads it. Children always follow
/// their parent in node order, so one forward pass visits every parent
/// before its children.
#[derive(Debug, Clone, Copy)]
enum Step {
    Split {
        slot: usize,
        lo: usize,
        hi: usize,
    },
    /// `labels`: the offset of the leaf class's label mask, `None` for a
    /// class the test split has no samples of.
    Leaf {
        labels: Option<usize>,
    },
}

impl PackedAnalogTree {
    /// Compiles `tree` against `columns` at its nominal thresholds.
    ///
    /// # Panics
    ///
    /// Panics if the split `columns` was built from is narrower than the
    /// tree, or lacks the sorted column of a feature the tree reads.
    pub fn new(tree: &DecisionTree, columns: &AnalogColumns) -> Self {
        assert!(
            columns.n_features >= tree.n_features(),
            "dataset narrower than the tree"
        );
        let words = columns.words;
        let pairs: Vec<(usize, u8)> = tree.distinct_pairs().into_iter().collect();
        let steps = tree
            .nodes()
            .iter()
            .map(|node| match *node {
                Node::Split {
                    feature,
                    threshold,
                    lo,
                    hi,
                } => Step::Split {
                    slot: pairs
                        .binary_search(&(feature, threshold))
                        .expect("every split is a distinct pair"),
                    lo,
                    hi,
                },
                Node::Leaf { class } => Step::Leaf {
                    labels: (class < columns.n_classes).then_some(class * words),
                },
            })
            .collect();
        let full = (1u64 << tree.bits()) as f64;
        let nominal: Vec<f64> = pairs.iter().map(|&(_, c)| c as f64 / full).collect();
        // Rank 0: every sample is at or above the threshold.
        let mut all = vec![!0u64; words];
        all[words - 1] = !0 >> (words * 64 - columns.len);
        let mut packed = Self {
            steps,
            ranks: vec![0; pairs.len()],
            masks: all.repeat(pairs.len()),
            reach: vec![0; tree.nodes().len()],
            pairs,
            nominal: Vec::new(),
            words,
            columns: columns.id,
        };
        packed.set_thresholds(columns, &nominal);
        packed.nominal = nominal;
        packed
    }

    /// The distinct `(feature, tap)` pairs, in slot order.
    fn pairs(&self) -> &[(usize, u8)] {
        &self.pairs
    }

    /// The ideal (unperturbed) effective thresholds of the tree's bespoke
    /// ADC bank, in normalized-volts space: tap `c` sits at `c / 2^bits`.
    pub fn nominal_thresholds(&self) -> &[f64] {
        &self.nominal
    }

    /// Accuracy on the split of `columns` with one effective threshold per
    /// slot: the fraction of samples whose leaf (`sample ≥ threshold` goes
    /// high) holds their label.
    ///
    /// # Panics
    ///
    /// Panics if `thresholds` does not hold one value per slot, or
    /// `columns` is neither the [`AnalogColumns`] the tree was compiled
    /// against nor a clone of it.
    pub fn accuracy(&mut self, columns: &AnalogColumns, thresholds: &[f64]) -> f64 {
        self.set_thresholds(columns, thresholds);
        self.correct(columns) as f64 / columns.len as f64
    }

    /// Moves every slot to its new threshold, flipping only the lanes of
    /// the samples it crosses.
    fn set_thresholds(&mut self, columns: &AnalogColumns, thresholds: &[f64]) {
        assert_eq!(thresholds.len(), self.pairs.len(), "one threshold per slot");
        assert_eq!(columns.id, self.columns, "columns of another split");
        let words = self.words;
        for (slot, (&(feature, _), &t)) in self.pairs.iter().zip(thresholds).enumerate() {
            let column = columns.column(feature);
            let rank = column.partition_point(|&(v, _)| v < t);
            let old = std::mem::replace(&mut self.ranks[slot], rank);
            let crossed = &column[rank.min(old)..rank.max(old)];
            let mask = &mut self.masks[slot * words..(slot + 1) * words];
            for &(_, s) in crossed {
                mask[s as usize / 64] ^= 1 << (s % 64);
            }
        }
    }

    /// Samples classified correctly at the current thresholds.
    fn correct(&mut self, columns: &AnalogColumns) -> usize {
        let words = self.words;
        let mut correct = 0;
        for w in 0..words {
            // Lanes past the last sample reach leaves too, but no label
            // mask holds them, so they never count.
            self.reach[0] = !0;
            for (i, step) in self.steps.iter().enumerate() {
                let reach = self.reach[i];
                match *step {
                    Step::Split { slot, lo, hi } => {
                        let mask = self.masks[slot * words + w];
                        self.reach[hi] = reach & mask;
                        self.reach[lo] = reach & !mask;
                    }
                    Step::Leaf { labels: Some(base) } => {
                        correct += (reach & columns.labels[base + w]).count_ones() as usize;
                    }
                    Step::Leaf { labels: None } => {}
                }
            }
        }
        correct
    }
}

/// The scalar reference the packed evaluator is tested against: walks the
/// tree sample by sample, split node `i` comparing against
/// `thresholds[slot of i]`.
#[cfg(test)]
pub(crate) struct AnalogTree<'a> {
    tree: &'a DecisionTree,
    pairs: Vec<(usize, u8)>,
    slots: Vec<usize>,
}

#[cfg(test)]
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

    /// The ideal (unperturbed) effective thresholds, in slot order.
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
    columns: Cow<'a, AnalogColumns>,
    packed: PackedAnalogTree,
    mismatch: &'a MismatchModel,
    recorder: &'a Recorder,
    sampler: LadderSampler,
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
        let columns = Cow::Owned(AnalogColumns::new(test, tree.used_features()));
        Self::with_columns(tree, columns, mismatch, seed, analog, recorder)
    }

    /// [`new`](Self::new) against prepared columns — in a campaign, one
    /// set sorted for every candidate.
    pub(crate) fn with_columns(
        tree: &DecisionTree,
        columns: Cow<'a, AnalogColumns>,
        mismatch: &'a MismatchModel,
        seed: u64,
        analog: &AnalogModel,
        recorder: &'a Recorder,
    ) -> Self {
        assert!(
            tree.split_count() > 0,
            "a constant tree has no thresholds to perturb"
        );
        // Nominal thresholds: ideal tap voltages.
        let mut packed = PackedAnalogTree::new(tree, &columns);
        let nominal_thresholds = packed.nominal_thresholds().to_vec();
        let nominal = packed.accuracy(&columns, &nominal_thresholds);
        // The shared ladder keeps the distinct taps of the tree's bespoke
        // ADC bank: one per tap any pair reads (`pruned` sorts and
        // dedups).
        let taps: Vec<usize> = packed
            .pairs()
            .iter()
            .map(|&(_, c)| usize::from(c))
            .collect();
        let ladder = Ladder::pruned(
            tree.bits(),
            &taps,
            analog.supply.volts(),
            analog.unit_resistor.ohms(),
        )
        .expect("tree taps are valid");
        let tap_index = packed
            .pairs()
            .iter()
            .map(|&(_, c)| {
                ladder
                    .taps()
                    .binary_search(&usize::from(c))
                    .expect("every tree tap is retained")
            })
            .collect();

        Self {
            thresholds: vec![0.0; packed.pairs().len()],
            packed,
            columns,
            mismatch,
            recorder,
            sampler: LadderSampler::new(&ladder),
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
        let taps = self
            .sampler
            .draw(self.mismatch, &mut self.rng, self.recorder)
            .expect("perturbed ladder solves");
        // Per-comparator offsets on top, drawn in distinct-pair order.
        for (threshold, &tap) in self.thresholds.iter_mut().zip(&self.tap_index) {
            let offset = sample_normal(&mut self.rng, 0.0, self.mismatch.comparator_offset_sigma_v);
            *threshold = taps[tap].vref_volts - offset;
        }
        self.packed.accuracy(&self.columns, &self.thresholds)
    }

    /// The stream's compiled tree and the columns it scores against, for
    /// the campaign's droop scan of the same candidate. Moving its
    /// thresholds does not disturb later trials: every trial sets all of
    /// them.
    pub(crate) fn scorer(&mut self) -> (&mut PackedAnalogTree, &AnalogColumns) {
        (&mut self.packed, &self.columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unary::UnaryClassifier;
    use printed_datasets::Benchmark;
    use printed_dtree::cart::train_depth_selected;
    use proptest::prelude::*;

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

    /// A random valid tree at `bits` ∈ 1..=8 over three features and four
    /// classes, grown breadth-first from `(split?, feature, tap, class)`
    /// decisions; a first decision that is no split gives a constant tree.
    fn arb_tree() -> impl Strategy<Value = DecisionTree> {
        (
            1u32..9,
            vec((any::<bool>(), 0usize..3, any::<u8>(), 0usize..4), 1..40),
        )
            .prop_map(|(bits, decisions)| {
                let max_tap = (1u16 << bits) - 1;
                let mut nodes = vec![Node::Leaf { class: 0 }];
                let mut queue = std::collections::VecDeque::from([(0usize, 0usize)]);
                let mut cursor = 0;
                while let Some((slot, depth)) = queue.pop_front() {
                    let (split, feature, tap, class) = decisions[cursor % decisions.len()];
                    cursor += 1;
                    if split && depth < 5 && cursor < decisions.len() {
                        let (lo, hi) = (nodes.len(), nodes.len() + 1);
                        nodes.extend([Node::Leaf { class: 0 }, Node::Leaf { class: 0 }]);
                        let threshold = (1 + u16::from(tap) % max_tap) as u8;
                        nodes[slot] = Node::Split {
                            feature,
                            threshold,
                            lo,
                            hi,
                        };
                        queue.extend([(lo, depth + 1), (hi, depth + 1)]);
                    } else {
                        nodes[slot] = Node::Leaf { class };
                    }
                }
                DecisionTree::from_nodes(bits, 3, 4, nodes).expect("valid by construction")
            })
    }

    proptest! {
        /// The packed evaluator counts exactly the samples the scalar walk
        /// classifies correctly, whatever the thresholds did before: ties
        /// (`v == t` goes high), thresholds below every sample or above
        /// every sample, test sizes around the 64-lane word boundary,
        /// single-class splits, features read by several slots, and leaf
        /// classes the split has no samples of.
        #[test]
        fn packed_evaluator_matches_the_scalar_walk(
            tree in arb_tree(),
            data_seed in any::<u64>(),
            label_classes in 1usize..4,
            moves in vec(vec((0u8..5, any::<u16>(), 0.0f64..1.0), 12), 6),
        ) {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(data_seed);
            for len in [1usize, 63, 64, 65, 128] {
                // Coarse levels make ties between samples and with taps.
                let rows: Vec<(Vec<f64>, usize)> = (0..len)
                    .map(|_| {
                        let features = (0..3)
                            .map(|_| {
                                if rng.gen_bool(0.5) {
                                    f64::from(rng.gen_range(0u32..=16)) / 16.0
                                } else {
                                    rng.gen::<f64>()
                                }
                            })
                            .collect();
                        (features, rng.gen_range(0..label_classes))
                    })
                    .collect();
                let test = Dataset::from_rows("random", 3, rows).unwrap();
                let scalar = AnalogTree::new(&tree);
                let columns = AnalogColumns::new(&test, tree.used_features());
                let mut packed = PackedAnalogTree::new(&tree, &columns);
                let nominal = scalar.nominal_thresholds();
                prop_assert_eq!(packed.nominal_thresholds(), nominal.as_slice());
                let expected = scalar.accuracy(&test, &nominal);
                prop_assert_eq!(packed.accuracy(&columns, &nominal).to_bits(), expected.to_bits());
                for slots in &moves {
                    let thresholds: Vec<f64> = packed
                        .pairs()
                        .iter()
                        .zip(slots)
                        .map(|(&(feature, _), &(kind, pick, uniform))| {
                            let column: Vec<f64> = test.iter().map(|(x, _)| x[feature]).collect();
                            let lo = column.iter().copied().fold(f64::INFINITY, f64::min);
                            let hi = column.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                            match kind {
                                0 => column[usize::from(pick) % len],
                                1 => lo - 0.25,
                                2 => hi + 0.25,
                                3 => lo,
                                _ => uniform,
                            }
                        })
                        .collect();
                    let expected = scalar.accuracy(&test, &thresholds);
                    prop_assert_eq!(
                        packed.accuracy(&columns, &thresholds).to_bits(),
                        expected.to_bits()
                    );
                }
            }
        }
    }

    /// The trial the compiled stream replaces, from scratch: draw the
    /// segment factors, solve the perturbed ladder as a [`Circuit`], draw
    /// one offset per retained tap, then one offset per threshold slot,
    /// and walk the tree sample by sample.
    ///
    /// [`Circuit`]: printed_analog::Circuit
    fn reference_trial(
        tree: &DecisionTree,
        ladder: &Ladder,
        test: &Dataset,
        model: &MismatchModel,
        rng: &mut StdRng,
    ) -> f64 {
        let sigma = model.resistor_sigma_rel;
        let factors: Vec<f64> = (0..ladder.resistor_count())
            .map(|_| {
                sample_normal(rng, 1.0, sigma)
                    .clamp((1.0 - 3.0 * sigma).max(0.1), 1.0 + 3.0 * sigma)
            })
            .collect();
        let (ckt, nodes) = ladder.build_circuit_with(|seg, nominal| nominal * factors[seg]);
        let op = ckt.dc_operating_point().unwrap();
        for _ in ladder.taps() {
            sample_normal(rng, 0.0, model.comparator_offset_sigma_v);
        }
        let scalar = AnalogTree::new(tree);
        let thresholds: Vec<f64> = scalar
            .pairs
            .iter()
            .map(|&(_, tap)| {
                let offset = sample_normal(rng, 0.0, model.comparator_offset_sigma_v);
                op.voltage(nodes[&usize::from(tap)]) - offset
            })
            .collect();
        scalar.accuracy(test, &thresholds)
    }

    /// Every paper-grid candidate of Seeds and Vertebral-3C, at the
    /// campaign's own per-point seeds: the stream's first 50 trials equal
    /// the circuit-and-scalar-walk reference bit for bit.
    #[test]
    fn stream_trials_equal_the_circuit_reference_on_the_paper_grid() {
        use crate::campaign::RobustnessCampaign;
        use crate::explore::{explore, point_seed, ExplorationConfig};
        let campaign = RobustnessCampaign::typical();
        let analog = AnalogModel::egfet();
        for bench in [Benchmark::Seeds, Benchmark::Vertebral3C] {
            let (train_q, test_q) = bench.load_quantized(4).unwrap();
            let (_, test) = bench.load_split().unwrap();
            let sweep = explore(&train_q, &test_q, &ExplorationConfig::paper());
            assert_eq!(sweep.candidates.len(), 49);
            for candidate in sweep.candidates.iter().filter(|c| c.tree.split_count() > 0) {
                let tree = &candidate.tree;
                let seed = point_seed(campaign.seed, candidate.depth, candidate.tau);
                let recorder = Recorder::disabled();
                let mut stream = MismatchTrialStream::new(
                    tree,
                    &test,
                    &campaign.mismatch,
                    seed,
                    &analog,
                    &recorder,
                );
                let scalar = AnalogTree::new(tree);
                assert_eq!(
                    stream.nominal().to_bits(),
                    scalar
                        .accuracy(&test, &scalar.nominal_thresholds())
                        .to_bits()
                );
                let ladder = Ladder::pruned(
                    tree.bits(),
                    &UnaryClassifier::from_tree(tree).adc_bank().distinct_taps(),
                    analog.supply.volts(),
                    analog.unit_resistor.ohms(),
                )
                .unwrap();
                let mut rng = StdRng::seed_from_u64(seed);
                for trial in 0..50 {
                    let expected =
                        reference_trial(tree, &ladder, &test, &campaign.mismatch, &mut rng);
                    assert_eq!(
                        stream.next_accuracy().to_bits(),
                        expected.to_bits(),
                        "{bench:?} tau={} depth={} trial {trial}",
                        candidate.tau,
                        candidate.depth
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "constant tree")]
    fn rejects_constant_tree() {
        let (_, test) = setup();
        let tree = DecisionTree::constant(4, test.n_features(), 3, 0);
        mismatch_accuracy(&tree, &test, &MismatchModel::none(), 1, 0);
    }

    /// Ranks and lane masks index one `AnalogColumns`: a clone scores, but
    /// columns sorted separately — even from a split of the same size —
    /// are refused instead of silently read at the wrong positions.
    #[test]
    #[should_panic(expected = "columns of another split")]
    fn packed_tree_refuses_columns_it_was_not_compiled_against() {
        let (tree, test) = setup();
        let columns = AnalogColumns::new(&test, tree.used_features());
        let mut packed = PackedAnalogTree::new(&tree, &columns);
        let nominal = packed.nominal_thresholds().to_vec();
        let expected = packed.accuracy(&columns, &nominal);
        assert_eq!(packed.accuracy(&columns.clone(), &nominal), expected);
        let other = AnalogColumns::new(&test, tree.used_features());
        packed.accuracy(&other, &nominal);
    }
}
