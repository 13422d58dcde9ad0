//! Classifier accuracy under manufacturing defects.
//!
//! Printed fabrication yield is low, so a realistic question for an
//! on-sensor classifier is not only "does it work nominally" but "how
//! wrong does it get when one gate is defective". This module runs a
//! single-stuck-at fault campaign over the unary classifier's netlist and
//! scores classification accuracy per fault, with an explicit decode rule
//! for corrupted one-hot outputs (anything other than exactly one asserted
//! class line counts as a misclassification).
//!
//! ```no_run
//! use printed_codesign::robustness::fault_robustness;
//! use printed_datasets::Benchmark;
//! use printed_dtree::cart::train_depth_selected;
//!
//! let (train, test) = Benchmark::Seeds.load_quantized(4)?;
//! let model = train_depth_selected(&train, &test, 5);
//! let report = fault_robustness(&model.tree, &test);
//! println!("worst single fault: {:.1}%", report.worst_accuracy * 100.0);
//! # Ok::<(), printed_datasets::DatasetError>(())
//! ```

use printed_datasets::{QuantizedDataset, ThermometerPlanes};
use printed_dtree::DecisionTree;
use printed_logic::faults::StuckAt;
use printed_logic::sim::{Lanes, PackedNetlist};

use crate::unary::UnaryClassifier;

/// Accuracy statistics of a single-stuck-at fault campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRobustness {
    /// Accuracy of the fault-free circuit.
    pub fault_free_accuracy: f64,
    /// Mean accuracy across all single faults.
    pub mean_accuracy: f64,
    /// Accuracy under the most damaging single fault.
    pub worst_accuracy: f64,
    /// The most damaging fault.
    pub worst_fault: Option<StuckAt>,
    /// Number of faults injected (2 × gate count).
    pub fault_count: usize,
    /// Fraction of faults that left accuracy unchanged (logic masked or
    /// behaviorally benign on this test set).
    pub benign_fraction: f64,
}

/// Decodes a (possibly corrupted) one-hot output vector; `None` unless
/// exactly one class line is asserted.
pub fn decode_one_hot(outputs: &[bool]) -> Option<usize> {
    let mut hot = None;
    for (class, &bit) in outputs.iter().enumerate() {
        if bit {
            if hot.is_some() {
                return None;
            }
            hot = Some(class);
        }
    }
    hot
}

/// Runs the campaign: every single stuck-at fault on the unary netlist of
/// `tree`, scored on `test`.
///
/// The test set's [`ThermometerPlanes`] are the netlist's input columns
/// ([`Lanes`], 64 samples per word) and carry its per-class label masks.
/// The good circuit is simulated once; each fault then evaluates only its
/// fanout cone ([`PackedNetlist::for_each_fault`]). A sample is correct
/// when exactly one class line is asserted and it is the label's — the
/// [`decode_one_hot`] rule as word operations, over every class line.
/// Every accuracy is the same integer count over `n` the scalar
/// evaluation gives, and the faults are summed in
/// [`enumerate_faults`](printed_logic::faults::enumerate_faults) order.
/// Faults run serially: the campaign already spreads candidates over
/// every core.
///
/// This builds the tree's [`UnaryClassifier`] and the planes itself; the
/// robustness campaign runs the same scoring on the sweep's classifiers
/// and on planes it builds once per run.
///
/// # Panics
///
/// Panics if `test` is empty or narrower than the tree's feature space.
pub fn fault_robustness(tree: &DecisionTree, test: &QuantizedDataset) -> FaultRobustness {
    classifier_fault_robustness(
        &UnaryClassifier::from_tree(tree),
        &ThermometerPlanes::new(test),
    )
}

/// [`fault_robustness`] of a synthesized classifier on the planes of its
/// test set.
///
/// # Panics
///
/// Panics if `planes` holds no sample or is narrower than the
/// classifier's feature space.
pub(crate) fn classifier_fault_robustness(
    classifier: &UnaryClassifier,
    planes: &ThermometerPlanes,
) -> FaultRobustness {
    assert!(!planes.is_empty(), "cannot score an empty dataset");
    assert!(
        planes.n_features() >= classifier.n_features(),
        "dataset narrower than the tree"
    );
    let sim = PackedNetlist::compile(&classifier.to_netlist());
    let mut good = sim.lanes(planes.len());
    for (v, &(feature, tap)) in classifier.literals().iter().enumerate() {
        good.set_input(v, planes.plane(feature, tap));
    }
    sim.simulate(&mut good);
    let labels: Vec<&[u64]> = (0..sim.output_count())
        .map(|k| planes.class_mask(k))
        .collect();
    let score = |lanes: &Lanes| -> f64 {
        let correct: u32 = (0..lanes.words())
            .map(|w| {
                let (mut ones, mut twos, mut hit) = (0u64, 0u64, 0u64);
                for (k, mask) in labels.iter().enumerate() {
                    let line = sim.output(lanes, k)[w];
                    twos |= ones & line;
                    ones |= line;
                    hit |= line & mask[w];
                }
                (hit & ones & !twos & lanes.valid(w)).count_ones()
            })
            .sum();
        correct as f64 / planes.len() as f64
    };

    let fault_free_accuracy = score(&good);
    let mut fault_count = 0usize;
    let mut sum = 0.0;
    let mut worst = f64::INFINITY;
    let mut worst_fault = None;
    let mut benign = 0usize;
    sim.for_each_fault(&good, |fault, faulty| {
        fault_count += 1;
        let acc = score(faulty);
        sum += acc;
        if acc < worst {
            worst = acc;
            worst_fault = Some(fault);
        }
        if (acc - fault_free_accuracy).abs() < 1e-12 {
            benign += 1;
        }
    });
    if fault_count == 0 {
        return FaultRobustness {
            fault_free_accuracy,
            mean_accuracy: fault_free_accuracy,
            worst_accuracy: fault_free_accuracy,
            worst_fault: None,
            fault_count: 0,
            benign_fraction: 1.0,
        };
    }
    FaultRobustness {
        fault_free_accuracy,
        mean_accuracy: sum / fault_count as f64,
        worst_accuracy: worst,
        worst_fault,
        fault_count,
        benign_fraction: benign as f64 / fault_count as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use printed_datasets::Benchmark;
    use printed_dtree::cart::train_depth_selected;
    use printed_logic::faults::{enumerate_faults, FaultyNetlist};

    fn setup() -> (DecisionTree, QuantizedDataset) {
        let (train, test) = Benchmark::Seeds.load_quantized(4).unwrap();
        let model = train_depth_selected(&train, &test, 4);
        (model.tree, test)
    }

    #[test]
    fn fault_free_matches_tree_accuracy() {
        let (tree, test) = setup();
        let report = fault_robustness(&tree, &test);
        assert!((report.fault_free_accuracy - tree.accuracy(&test)).abs() < 1e-12);
    }

    #[test]
    fn single_faults_degrade_but_do_not_zero_accuracy() {
        let (tree, test) = setup();
        let report = fault_robustness(&tree, &test);
        assert!(report.mean_accuracy <= report.fault_free_accuracy + 1e-12);
        assert!(report.worst_accuracy <= report.mean_accuracy + 1e-12);
        assert!(report.worst_fault.is_some());
        assert!(report.fault_count > 0);
        // Some fault must matter on a real classifier…
        assert!(report.benign_fraction < 1.0);
        // …but a single stuck gate corrupts one class region, not everything.
        assert!(report.worst_accuracy > 0.0);
    }

    #[test]
    fn constant_tree_is_fault_free_trivially() {
        let (_, test) = setup();
        let tree = DecisionTree::constant(4, test.n_features(), test.n_classes(), 0);
        let report = fault_robustness(&tree, &test);
        assert_eq!(report.fault_count, 0);
        assert_eq!(report.benign_fraction, 1.0);
        assert_eq!(report.mean_accuracy, report.fault_free_accuracy);
    }

    #[test]
    fn parallel_campaign_matches_serial_reduction() {
        let (tree, test) = setup();
        let report = fault_robustness(&tree, &test);

        // The same campaign, run serially by hand — the fan-out must not
        // change a single bit of the statistics.
        let classifier = UnaryClassifier::from_tree(&tree);
        let netlist = classifier.to_netlist();
        let encoded: Vec<(Vec<bool>, usize)> = test
            .iter()
            .map(|(sample, label)| (classifier.encode_sample(sample), label))
            .collect();
        let score = |eval: &dyn Fn(&[bool]) -> Vec<bool>| -> f64 {
            let correct = encoded
                .iter()
                .filter(|(digits, label)| decode_one_hot(&eval(digits)) == Some(*label))
                .count();
            correct as f64 / encoded.len() as f64
        };
        let fault_free = score(&|digits| netlist.eval(digits));
        let faults = enumerate_faults(&netlist);
        let mut sum = 0.0;
        let mut worst = f64::INFINITY;
        let mut worst_fault = None;
        let mut benign = 0usize;
        for &fault in &faults {
            let faulty = FaultyNetlist::new(&netlist, fault);
            let acc = score(&|digits| faulty.eval(digits));
            sum += acc;
            if acc < worst {
                worst = acc;
                worst_fault = Some(fault);
            }
            if (acc - fault_free).abs() < 1e-12 {
                benign += 1;
            }
        }

        assert_eq!(report.fault_free_accuracy, fault_free);
        assert_eq!(report.mean_accuracy, sum / faults.len() as f64);
        assert_eq!(report.worst_accuracy, worst);
        assert_eq!(report.worst_fault, worst_fault);
        assert_eq!(report.fault_count, faults.len());
        assert_eq!(report.benign_fraction, benign as f64 / faults.len() as f64);
    }

    #[test]
    fn decode_one_hot_rules() {
        assert_eq!(decode_one_hot(&[false, true, false]), Some(1));
        assert_eq!(decode_one_hot(&[false, false, false]), None);
        assert_eq!(decode_one_hot(&[true, true, false]), None);
    }
}
