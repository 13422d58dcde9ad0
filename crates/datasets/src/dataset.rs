//! The dataset container and split/normalization operations.
//!
//! Mirrors the paper's data handling exactly: features are normalized to
//! `[0, 1]` per feature (min–max), then split 70%/30% into train/test with a
//! seeded shuffle.
//!
//! ```
//! use printed_datasets::dataset::Dataset;
//!
//! let ds = Dataset::from_rows(
//!     "toy",
//!     2,
//!     vec![
//!         (vec![0.0, 10.0], 0),
//!         (vec![1.0, 20.0], 1),
//!         (vec![2.0, 30.0], 0),
//!         (vec![3.0, 40.0], 1),
//!     ],
//! )?;
//! let norm = ds.normalized();
//! assert_eq!(norm.sample(3), &[1.0, 1.0]);
//! let (train, test) = norm.train_test_split(0.75, 42)?;
//! assert_eq!(train.len() + test.len(), 4);
//! # Ok::<(), printed_datasets::dataset::DatasetError>(())
//! ```

use core::fmt;

use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A labeled tabular dataset with `f64` features and dense class labels
/// `0..n_classes`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    name: String,
    n_features: usize,
    n_classes: usize,
    samples: Vec<Vec<f64>>,
    labels: Vec<usize>,
}

impl Dataset {
    /// Builds a dataset from `(features, label)` rows.
    ///
    /// `n_classes` is inferred as `max(label) + 1`.
    ///
    /// # Errors
    ///
    /// * [`DatasetError::Empty`] if there are no rows.
    /// * [`DatasetError::RaggedRow`] if a row's feature count differs from
    ///   `n_features`.
    /// * [`DatasetError::NonFinite`] if any feature is NaN/∞.
    pub fn from_rows(
        name: impl Into<String>,
        n_features: usize,
        rows: Vec<(Vec<f64>, usize)>,
    ) -> Result<Self, DatasetError> {
        if rows.is_empty() {
            return Err(DatasetError::Empty);
        }
        let mut samples = Vec::with_capacity(rows.len());
        let mut labels = Vec::with_capacity(rows.len());
        let mut n_classes = 0;
        for (i, (features, label)) in rows.into_iter().enumerate() {
            if features.len() != n_features {
                return Err(DatasetError::RaggedRow {
                    row: i,
                    expected: n_features,
                    got: features.len(),
                });
            }
            if let Some(j) = features.iter().position(|v| !v.is_finite()) {
                return Err(DatasetError::NonFinite { row: i, feature: j });
            }
            n_classes = n_classes.max(label + 1);
            samples.push(features);
            labels.push(label);
        }
        Ok(Self {
            name: name.into(),
            n_features,
            n_classes,
            samples,
            labels,
        })
    }

    /// The dataset's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the dataset holds no samples (never true for constructed
    /// datasets; exists for [C-COMMON-TRAITS]-style completeness).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of features per sample.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes (`max(label) + 1` at construction).
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The `i`-th sample's features.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn sample(&self, i: usize) -> &[f64] {
        &self.samples[i]
    }

    /// The `i`-th sample's label.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Iterates `(features, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], usize)> + '_ {
        self.samples
            .iter()
            .map(Vec::as_slice)
            .zip(self.labels.iter().copied())
    }

    /// Per-class sample counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// Min–max normalizes every feature to `[0, 1]`. Constant features map
    /// to `0.0`.
    pub fn normalized(&self) -> Dataset {
        let mut mins = vec![f64::INFINITY; self.n_features];
        let mut maxs = vec![f64::NEG_INFINITY; self.n_features];
        for s in &self.samples {
            for (f, &v) in s.iter().enumerate() {
                mins[f] = mins[f].min(v);
                maxs[f] = maxs[f].max(v);
            }
        }
        let samples = self
            .samples
            .iter()
            .map(|s| {
                s.iter()
                    .enumerate()
                    .map(|(f, &v)| {
                        let range = maxs[f] - mins[f];
                        if range > 0.0 {
                            (v - mins[f]) / range
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        Dataset {
            samples,
            ..self.clone()
        }
    }

    /// Splits into `(train, test)` with a seeded shuffle; `train_fraction`
    /// of the samples (rounded down, at least 1) go to the training set.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::BadSplit`] unless `0 < train_fraction < 1`
    /// and both sides end up non-empty.
    pub fn train_test_split(
        &self,
        train_fraction: f64,
        seed: u64,
    ) -> Result<(Dataset, Dataset), DatasetError> {
        if !(train_fraction > 0.0 && train_fraction < 1.0) {
            return Err(DatasetError::BadSplit { train_fraction });
        }
        let mut indices: Vec<usize> = (0..self.len()).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        indices.shuffle(&mut rng);
        let n_train = ((self.len() as f64) * train_fraction) as usize;
        if n_train == 0 || n_train == self.len() {
            return Err(DatasetError::BadSplit { train_fraction });
        }
        let pick = |idx: &[usize], suffix: &str| Dataset {
            name: format!("{}-{suffix}", self.name),
            n_features: self.n_features,
            n_classes: self.n_classes,
            samples: idx.iter().map(|&i| self.samples[i].clone()).collect(),
            labels: idx.iter().map(|&i| self.labels[i]).collect(),
        };
        Ok((
            pick(&indices[..n_train], "train"),
            pick(&indices[n_train..], "test"),
        ))
    }

    /// Stratified variant of [`Dataset::train_test_split`]: the split is
    /// performed per class, so each side preserves the class proportions
    /// (up to rounding, with at least one sample of every class in the
    /// training set when the class has any). Essential for heavily
    /// imbalanced data like WhiteWine's rare quality grades.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::BadSplit`] unless `0 < train_fraction < 1`
    /// and both sides end up non-empty.
    pub fn train_test_split_stratified(
        &self,
        train_fraction: f64,
        seed: u64,
    ) -> Result<(Dataset, Dataset), DatasetError> {
        if !(train_fraction > 0.0 && train_fraction < 1.0) {
            return Err(DatasetError::BadSplit { train_fraction });
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut train_idx = Vec::new();
        let mut test_idx = Vec::new();
        for class in 0..self.n_classes {
            let mut members: Vec<usize> = (0..self.len())
                .filter(|&i| self.labels[i] == class)
                .collect();
            if members.is_empty() {
                continue;
            }
            members.shuffle(&mut rng);
            let n_train = (((members.len() as f64) * train_fraction) as usize)
                .max(1)
                .min(members.len());
            train_idx.extend_from_slice(&members[..n_train]);
            test_idx.extend_from_slice(&members[n_train..]);
        }
        if train_idx.is_empty() || test_idx.is_empty() {
            return Err(DatasetError::BadSplit { train_fraction });
        }
        // Interleave back into a shuffled order so downstream consumers do
        // not see class-sorted data.
        train_idx.shuffle(&mut rng);
        test_idx.shuffle(&mut rng);
        let pick = |idx: &[usize], suffix: &str| Dataset {
            name: format!("{}-{suffix}", self.name),
            n_features: self.n_features,
            n_classes: self.n_classes,
            samples: idx.iter().map(|&i| self.samples[i].clone()).collect(),
            labels: idx.iter().map(|&i| self.labels[i]).collect(),
        };
        Ok((pick(&train_idx, "train"), pick(&test_idx, "test")))
    }

    /// Seeded k-fold split: returns `k` (train, validation) pairs, each
    /// validation fold disjoint and jointly covering the dataset. Useful
    /// for hyperparameter selection without touching the held-out test set
    /// (the paper selects depth on the test split; k-fold is the
    /// leak-free alternative this crate also offers).
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::BadSplit`] if `k < 2` or `k > len` (encoded
    /// with `train_fraction = 0.0` since no fraction applies).
    pub fn k_folds(&self, k: usize, seed: u64) -> Result<Vec<(Dataset, Dataset)>, DatasetError> {
        if k < 2 || k > self.len() {
            return Err(DatasetError::BadSplit {
                train_fraction: 0.0,
            });
        }
        let mut indices: Vec<usize> = (0..self.len()).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        indices.shuffle(&mut rng);
        let pick = |idx: &[usize], suffix: String| Dataset {
            name: format!("{}-{suffix}", self.name),
            n_features: self.n_features,
            n_classes: self.n_classes,
            samples: idx.iter().map(|&i| self.samples[i].clone()).collect(),
            labels: idx.iter().map(|&i| self.labels[i]).collect(),
        };
        let fold_size = self.len().div_ceil(k);
        Ok((0..k)
            .map(|f| {
                let start = f * fold_size;
                let end = ((f + 1) * fold_size).min(self.len());
                let val: Vec<usize> = indices[start..end].to_vec();
                let train: Vec<usize> = indices[..start]
                    .iter()
                    .chain(&indices[end..])
                    .copied()
                    .collect();
                (
                    pick(&train, format!("fold{f}-train")),
                    pick(&val, format!("fold{f}-val")),
                )
            })
            .collect())
    }

    /// The majority class and its frequency — the accuracy floor any
    /// classifier must beat.
    pub fn majority_class(&self) -> (usize, f64) {
        let counts = self.class_counts();
        let (cls, &count) = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| *c)
            .expect("non-empty");
        (cls, count as f64 / self.len() as f64)
    }
}

/// Errors for [`Dataset`] construction and splitting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DatasetError {
    /// No rows were provided.
    Empty,
    /// A row had the wrong number of features.
    RaggedRow {
        /// Row index.
        row: usize,
        /// Expected feature count.
        expected: usize,
        /// Actual feature count.
        got: usize,
    },
    /// A feature value was NaN or infinite.
    NonFinite {
        /// Row index.
        row: usize,
        /// Feature index.
        feature: usize,
    },
    /// The split fraction left one side empty.
    BadSplit {
        /// The offending fraction.
        train_fraction: f64,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::Empty => write!(f, "dataset has no rows"),
            DatasetError::RaggedRow { row, expected, got } => {
                write!(f, "row {row} has {got} features, expected {expected}")
            }
            DatasetError::NonFinite { row, feature } => {
                write!(f, "row {row}, feature {feature} is not finite")
            }
            DatasetError::BadSplit { train_fraction } => {
                write!(f, "train fraction {train_fraction} leaves an empty split")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::from_rows(
            "toy",
            2,
            vec![
                (vec![0.0, 5.0], 0),
                (vec![2.0, 6.0], 1),
                (vec![4.0, 7.0], 1),
                (vec![8.0, 8.0], 2),
                (vec![6.0, 9.0], 0),
                (vec![1.0, 5.5], 2),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let ds = toy();
        assert_eq!(ds.len(), 6);
        assert_eq!(ds.n_features(), 2);
        assert_eq!(ds.n_classes(), 3);
        assert_eq!(ds.sample(3), &[8.0, 8.0]);
        assert_eq!(ds.label(3), 2);
        assert_eq!(ds.class_counts(), vec![2, 2, 2]);
    }

    #[test]
    fn normalization_maps_to_unit_interval() {
        let norm = toy().normalized();
        for (s, _) in norm.iter() {
            for &v in s {
                assert!((0.0..=1.0).contains(&v));
            }
        }
        assert_eq!(norm.sample(0), &[0.0, 0.0]);
        assert_eq!(norm.sample(3), &[1.0, 0.75]);
    }

    #[test]
    fn constant_feature_normalizes_to_zero() {
        let ds = Dataset::from_rows("const", 1, vec![(vec![7.0], 0), (vec![7.0], 1)]).unwrap();
        let norm = ds.normalized();
        assert_eq!(norm.sample(0), &[0.0]);
        assert_eq!(norm.sample(1), &[0.0]);
    }

    #[test]
    fn split_is_deterministic_and_partitions() {
        let ds = toy();
        let (tr1, te1) = ds.train_test_split(0.7, 9).unwrap();
        let (tr2, te2) = ds.train_test_split(0.7, 9).unwrap();
        assert_eq!(tr1, tr2);
        assert_eq!(te1, te2);
        assert_eq!(tr1.len(), 4);
        assert_eq!(te1.len(), 2);
        let (tr3, _) = ds.train_test_split(0.7, 10).unwrap();
        assert_ne!(tr1, tr3, "different seeds shuffle differently");
    }

    #[test]
    fn split_preserves_metadata() {
        let (tr, te) = toy().train_test_split(0.5, 0).unwrap();
        assert_eq!(tr.n_classes(), 3);
        assert_eq!(te.n_features(), 2);
        assert!(tr.name().ends_with("-train"));
        assert!(te.name().ends_with("-test"));
    }

    #[test]
    fn bad_splits_error() {
        let ds = toy();
        assert!(matches!(
            ds.train_test_split(0.0, 0),
            Err(DatasetError::BadSplit { .. })
        ));
        assert!(matches!(
            ds.train_test_split(1.0, 0),
            Err(DatasetError::BadSplit { .. })
        ));
        assert!(matches!(
            ds.train_test_split(0.05, 0),
            Err(DatasetError::BadSplit { .. })
        ));
    }

    #[test]
    fn construction_errors() {
        assert_eq!(
            Dataset::from_rows("e", 2, vec![]).unwrap_err(),
            DatasetError::Empty
        );
        assert!(matches!(
            Dataset::from_rows("r", 2, vec![(vec![1.0], 0)]).unwrap_err(),
            DatasetError::RaggedRow {
                row: 0,
                expected: 2,
                got: 1
            }
        ));
        assert!(matches!(
            Dataset::from_rows("n", 1, vec![(vec![f64::NAN], 0)]).unwrap_err(),
            DatasetError::NonFinite { row: 0, feature: 0 }
        ));
    }

    #[test]
    fn stratified_split_preserves_class_ratios() {
        // 80/16/4 class mix over 100 samples.
        let mut rows = Vec::new();
        for i in 0..100 {
            let label = if i < 80 {
                0
            } else if i < 96 {
                1
            } else {
                2
            };
            rows.push((vec![i as f64], label));
        }
        let ds = Dataset::from_rows("imbalanced", 1, rows).unwrap();
        let (train, test) = ds.train_test_split_stratified(0.75, 5).unwrap();
        assert_eq!(train.len() + test.len(), 100);
        let tr = train.class_counts();
        let te = test.class_counts();
        assert_eq!(tr, vec![60, 12, 3]);
        assert_eq!(te, vec![20, 4, 1]);
    }

    #[test]
    fn stratified_split_keeps_rare_classes_in_training() {
        let ds = Dataset::from_rows(
            "rare",
            1,
            vec![
                (vec![0.0], 0),
                (vec![1.0], 0),
                (vec![2.0], 0),
                (vec![3.0], 0),
                (vec![4.0], 1), // a single-sample class
            ],
        )
        .unwrap();
        let (train, _) = ds.train_test_split_stratified(0.5, 1).unwrap();
        assert!(
            train.class_counts()[1] >= 1,
            "rare class must reach training"
        );
    }

    #[test]
    fn stratified_split_is_deterministic_and_shuffled() {
        let ds = Dataset::from_rows(
            "det",
            1,
            (0..40)
                .map(|i| (vec![i as f64], (i % 2) as usize))
                .collect(),
        )
        .unwrap();
        let a = ds.train_test_split_stratified(0.7, 9).unwrap();
        let b = ds.train_test_split_stratified(0.7, 9).unwrap();
        assert_eq!(a, b);
        // Not class-sorted: the first few training labels should mix.
        let labels: Vec<usize> = (0..10).map(|i| a.0.label(i)).collect();
        assert!(labels.contains(&0) && labels.contains(&1));
    }

    #[test]
    fn k_folds_partition_exactly() {
        let ds = Dataset::from_rows(
            "kf",
            1,
            (0..23)
                .map(|i| (vec![i as f64], (i % 3) as usize))
                .collect(),
        )
        .unwrap();
        let folds = ds.k_folds(4, 7).unwrap();
        assert_eq!(folds.len(), 4);
        let mut seen = std::collections::BTreeSet::new();
        for (train, val) in &folds {
            assert_eq!(train.len() + val.len(), 23);
            for i in 0..val.len() {
                // Identify validation rows by their unique feature value.
                let key = val.sample(i)[0] as i64;
                assert!(
                    seen.insert(key),
                    "row {key} appears in two validation folds"
                );
            }
        }
        assert_eq!(seen.len(), 23, "validation folds cover everything");
        // Determinism.
        assert_eq!(ds.k_folds(4, 7).unwrap()[0], folds[0]);
    }

    #[test]
    fn k_folds_rejects_degenerate_k() {
        let ds = Dataset::from_rows("kf", 1, vec![(vec![1.0], 0), (vec![2.0], 1)]).unwrap();
        assert!(ds.k_folds(1, 0).is_err());
        assert!(ds.k_folds(3, 0).is_err());
        assert!(ds.k_folds(2, 0).is_ok());
    }

    #[test]
    fn majority_class_floor() {
        let ds = Dataset::from_rows(
            "maj",
            1,
            vec![
                (vec![0.0], 1),
                (vec![1.0], 1),
                (vec![2.0], 1),
                (vec![3.0], 0),
            ],
        )
        .unwrap();
        let (cls, freq) = ds.majority_class();
        assert_eq!(cls, 1);
        assert!((freq - 0.75).abs() < 1e-12);
    }

    #[test]
    fn error_display_messages() {
        assert!(DatasetError::Empty.to_string().contains("no rows"));
        assert!(DatasetError::BadSplit {
            train_fraction: 0.0
        }
        .to_string()
        .contains("empty split"));
    }
}
