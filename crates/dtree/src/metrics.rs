//! Classification metrics beyond plain accuracy.
//!
//! Several benchmarks are heavily imbalanced (WhiteWine's rare quality
//! grades, Cardio's 8% pathological class), where accuracy alone hides
//! what the classifier actually does. This module provides the standard
//! remedies: confusion matrices, per-class precision/recall/F1, macro
//! averages, and balanced accuracy — all over anything that predicts
//! (trees, forests, closures), via the [`Classifier`] trait.
//!
//! ```
//! use printed_datasets::{Dataset, QuantizedDataset};
//! use printed_dtree::cart::{train, CartConfig};
//! use printed_dtree::metrics::evaluate;
//!
//! let ds = Dataset::from_rows("m", 1, vec![
//!     (vec![0.1], 0), (vec![0.2], 0), (vec![0.8], 1), (vec![0.9], 1),
//! ])?;
//! let q = QuantizedDataset::from_dataset(&ds, 4);
//! let tree = train(&q, &CartConfig::with_max_depth(2));
//! let m = evaluate(&tree, &q);
//! assert_eq!(m.accuracy, 1.0);
//! assert_eq!(m.confusion[0][0], 2);
//! # Ok::<(), printed_datasets::DatasetError>(())
//! ```

use printed_datasets::QuantizedDataset;

use crate::forest::Forest;
use crate::tree::DecisionTree;

/// Anything that maps a quantized sample to a class.
pub trait Classifier {
    /// Predicts the class of one sample.
    fn classify(&self, sample: &[u8]) -> usize;
}

impl Classifier for DecisionTree {
    fn classify(&self, sample: &[u8]) -> usize {
        self.predict(sample)
    }
}

impl Classifier for Forest {
    fn classify(&self, sample: &[u8]) -> usize {
        self.predict(sample)
    }
}

impl<F: Fn(&[u8]) -> usize> Classifier for F {
    fn classify(&self, sample: &[u8]) -> usize {
        self(sample)
    }
}

/// Per-class precision/recall/F1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassMetrics {
    /// True positives / predicted positives (1.0 when nothing predicted).
    pub precision: f64,
    /// True positives / actual positives (1.0 when the class is absent).
    pub recall: f64,
    /// Harmonic mean of precision and recall (0 when both are 0).
    pub f1: f64,
    /// Actual occurrences of the class in the dataset.
    pub support: usize,
}

/// Full evaluation of a classifier on a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// `confusion[actual][predicted]` counts.
    pub confusion: Vec<Vec<usize>>,
    /// Plain accuracy.
    pub accuracy: f64,
    /// Mean of per-class recalls — insensitive to class imbalance.
    pub balanced_accuracy: f64,
    /// Per-class metrics, indexed by class.
    pub per_class: Vec<ClassMetrics>,
    /// Unweighted mean F1 over classes that occur in the data.
    pub macro_f1: f64,
}

/// Evaluates `classifier` on `data`.
///
/// # Panics
///
/// Panics if `data` is empty.
pub fn evaluate<C: Classifier + ?Sized>(classifier: &C, data: &QuantizedDataset) -> Evaluation {
    assert!(!data.is_empty(), "cannot evaluate on an empty dataset");
    let k = data.n_classes();
    let mut confusion = vec![vec![0usize; k]; k];
    for (sample, label) in data.iter() {
        let predicted = classifier.classify(sample);
        assert!(
            predicted < k,
            "classifier predicted out-of-range class {predicted}"
        );
        confusion[label][predicted] += 1;
    }

    let total: usize = data.len();
    let correct: usize = (0..k).map(|c| confusion[c][c]).sum();
    let accuracy = correct as f64 / total as f64;

    let mut per_class = Vec::with_capacity(k);
    for (c, row) in confusion.iter().enumerate() {
        let tp = row[c];
        let actual: usize = row.iter().sum();
        let predicted: usize = (0..k).map(|a| confusion[a][c]).sum();
        let precision = if predicted == 0 {
            1.0
        } else {
            tp as f64 / predicted as f64
        };
        let recall = if actual == 0 {
            1.0
        } else {
            tp as f64 / actual as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        per_class.push(ClassMetrics {
            precision,
            recall,
            f1,
            support: actual,
        });
    }

    let present: Vec<&ClassMetrics> = per_class.iter().filter(|m| m.support > 0).collect();
    let balanced_accuracy = present.iter().map(|m| m.recall).sum::<f64>() / present.len() as f64;
    let macro_f1 = present.iter().map(|m| m.f1).sum::<f64>() / present.len() as f64;

    Evaluation {
        confusion,
        accuracy,
        balanced_accuracy,
        per_class,
        macro_f1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cart::{train, train_depth_selected, CartConfig};
    use printed_datasets::{Benchmark, Dataset};

    fn toy() -> QuantizedDataset {
        let ds = Dataset::from_rows(
            "toy",
            1,
            vec![
                (vec![0.05], 0),
                (vec![0.15], 0),
                (vec![0.25], 0),
                (vec![0.75], 1),
                (vec![0.85], 1),
                (vec![0.95], 2),
            ],
        )
        .unwrap();
        QuantizedDataset::from_dataset(&ds, 4)
    }

    #[test]
    fn perfect_classifier_metrics() {
        let data = toy();
        let labels: Vec<usize> = data.labels().to_vec();
        let samples: Vec<Vec<u8>> = (0..data.len()).map(|i| data.sample(i).to_vec()).collect();
        let oracle = move |s: &[u8]| {
            let idx = samples.iter().position(|x| x == s).expect("known sample");
            labels[idx]
        };
        let m = evaluate(&oracle, &data);
        assert_eq!(m.accuracy, 1.0);
        assert_eq!(m.balanced_accuracy, 1.0);
        assert_eq!(m.macro_f1, 1.0);
        for c in 0..3 {
            assert_eq!(m.confusion[c][c], data.class_counts()[c]);
        }
    }

    #[test]
    fn constant_classifier_has_low_balanced_accuracy() {
        let data = toy();
        let always_zero = |_: &[u8]| 0usize;
        let m = evaluate(&always_zero, &data);
        assert!((m.accuracy - 0.5).abs() < 1e-12);
        // Recall: class 0 = 1.0, classes 1,2 = 0 → balanced = 1/3.
        assert!((m.balanced_accuracy - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.per_class[1].recall, 0.0);
        assert_eq!(m.per_class[1].f1, 0.0);
        assert_eq!(m.per_class[0].support, 3);
    }

    #[test]
    fn confusion_rows_sum_to_supports() {
        let (train_data, test_data) = Benchmark::Cardio.load_quantized(4).unwrap();
        let tree = train(&train_data, &CartConfig::with_max_depth(4));
        let m = evaluate(&tree, &test_data);
        let counts = test_data.class_counts();
        for (c, row) in m.confusion.iter().enumerate() {
            assert_eq!(row.iter().sum::<usize>(), counts[c]);
            assert_eq!(m.per_class[c].support, counts[c]);
        }
        // On imbalanced Cardio, balanced accuracy trails plain accuracy.
        assert!(m.balanced_accuracy <= m.accuracy + 1e-12);
    }

    #[test]
    fn forest_and_tree_share_the_trait() {
        use crate::forest::{train_forest, ForestConfig};
        let (train_data, test_data) = Benchmark::Seeds.load_quantized(4).unwrap();
        let model = train_depth_selected(&train_data, &test_data, 4);
        let forest = train_forest(&train_data, &ForestConfig::default());
        let mt = evaluate(&model.tree, &test_data);
        let mf = evaluate(&forest, &test_data);
        assert!((mt.accuracy - model.tree.accuracy(&test_data)).abs() < 1e-12);
        assert!((mf.accuracy - forest.accuracy(&test_data)).abs() < 1e-12);
    }
}
