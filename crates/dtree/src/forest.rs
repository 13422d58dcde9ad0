//! Bagged decision-tree ensembles (random-forest style).
//!
//! The printed-classifier literature follows this paper with hardware-aware
//! tree *ensembles*; this module provides the ML side: bootstrap-sampled,
//! feature-subsampled CART trees with majority voting, trained with the
//! same quantized pipeline as everything else. Ties (no strict majority)
//! fall back to the first tree's prediction — deterministic, and chosen to
//! match the hardware voter in `printed-codesign`, which needs a concrete
//! tie rule to be synthesizable.
//!
//! ```
//! use printed_datasets::Benchmark;
//! use printed_dtree::forest::{train_forest, ForestConfig};
//!
//! let (train, test) = Benchmark::Seeds.load_quantized(4)?;
//! let forest = train_forest(&train, &ForestConfig { trees: 3, max_depth: 3, ..Default::default() });
//! assert_eq!(forest.trees().len(), 3);
//! assert!(forest.accuracy(&test) > 0.7);
//! # Ok::<(), printed_datasets::DatasetError>(())
//! ```

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use printed_datasets::{DatasetIndex, QuantizedDataset};

use crate::arena::IndexArena;
use crate::cart::{best_split, grow, CartConfig, SplitCandidate, SplitEngine};
use crate::tree::DecisionTree;

/// Configuration for [`train_forest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestConfig {
    /// Number of trees (odd counts make voting ties rarer).
    pub trees: usize,
    /// Depth cap per tree (ensembles of shallow trees are the point).
    pub max_depth: usize,
    /// Fraction of features each split considers (`1.0` = all; classic
    /// random-forest uses `sqrt(F)/F`, but printed ensembles keep this
    /// high because unused features save ADCs).
    pub feature_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self {
            trees: 3,
            max_depth: 3,
            feature_fraction: 0.8,
            seed: 0xF0,
        }
    }
}

/// A trained ensemble with majority voting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Forest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl Forest {
    /// Builds a forest from pre-trained trees.
    ///
    /// # Panics
    ///
    /// Panics if `trees` is empty or the trees disagree on class count or
    /// feature-space width.
    pub fn from_trees(trees: Vec<DecisionTree>) -> Self {
        assert!(!trees.is_empty(), "a forest needs at least one tree");
        let n_classes = trees[0].n_classes();
        let n_features = trees[0].n_features();
        for t in &trees {
            assert_eq!(t.n_classes(), n_classes, "inconsistent class counts");
            assert_eq!(t.n_features(), n_features, "inconsistent feature spaces");
        }
        Self { trees, n_classes }
    }

    /// The member trees, in voting order (tree 0 breaks ties).
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Majority-vote prediction; a class must win *strictly more than half*
    /// the votes, otherwise tree 0 decides (the hardware voter's rule).
    ///
    /// # Panics
    ///
    /// Panics if `sample` is narrower than the trees' feature space.
    pub fn predict(&self, sample: &[u8]) -> usize {
        let mut votes = vec![0usize; self.n_classes];
        for tree in &self.trees {
            votes[tree.predict(sample)] += 1;
        }
        let threshold = self.trees.len() / 2; // strict majority = count > T/2
        votes
            .iter()
            .position(|&v| v > threshold)
            .unwrap_or_else(|| self.trees[0].predict(sample))
    }

    /// Fraction of `data` classified correctly.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn accuracy(&self, data: &QuantizedDataset) -> f64 {
        assert!(!data.is_empty(), "cannot score an empty dataset");
        let correct = data
            .iter()
            .filter(|(sample, label)| self.predict(sample) == *label)
            .count();
        correct as f64 / data.len() as f64
    }

    /// All distinct `(feature, threshold)` pairs across the ensemble —
    /// comparators shared at the ADC bank whenever trees agree on a
    /// threshold.
    pub fn distinct_pairs(&self) -> BTreeSet<(usize, u8)> {
        self.trees.iter().flat_map(|t| t.distinct_pairs()).collect()
    }
}

/// Trains a bagged forest: each tree sees a bootstrap resample of the
/// training data and splits only on a random subset of the features (every
/// node's candidates are filtered to the kept set before
/// [`best_split`]).
///
/// # Panics
///
/// Panics if `data` is empty or the config is degenerate (`trees == 0`,
/// `feature_fraction ∉ (0, 1]`).
pub fn train_forest(data: &QuantizedDataset, config: &ForestConfig) -> Forest {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    assert!(config.trees >= 1, "need at least one tree");
    assert!(
        config.feature_fraction > 0.0 && config.feature_fraction <= 1.0,
        "feature_fraction must be in (0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n_keep = ((data.n_features() as f64 * config.feature_fraction).ceil() as usize).max(1);
    let cart_cfg = CartConfig::with_max_depth(config.max_depth);

    // One dataset index, split engine, and index arena serve the whole
    // ensemble — only the arena's root subset changes per tree.
    let index = DatasetIndex::new(data);
    let mut engine = SplitEngine::new(&index);
    let mut arena = IndexArena::new();

    let trees = (0..config.trees)
        .map(|_| {
            // Bootstrap indices.
            let indices: Vec<usize> = (0..data.len())
                .map(|_| rng.gen_range(0..data.len()))
                .collect();
            // Random feature subset.
            let mut features: Vec<usize> = (0..data.n_features()).collect();
            for i in (1..features.len()).rev() {
                let j = rng.gen_range(0..=i);
                features.swap(i, j);
            }
            let keep: BTreeSet<usize> = features.into_iter().take(n_keep).collect();
            arena.reset_from(&indices);
            grow(&mut engine, &mut arena, &cart_cfg, |candidates| {
                let kept: Vec<SplitCandidate> = candidates
                    .iter()
                    .copied()
                    .filter(|c| keep.contains(&c.feature))
                    .collect();
                best_split(&kept)
            })
            .tree
        })
        .collect();
    Forest::from_trees(trees)
}

#[cfg(test)]
mod tests {
    use super::*;
    use printed_datasets::Benchmark;

    #[test]
    fn forest_shapes_and_determinism() {
        let (train, _) = Benchmark::Seeds.load_quantized(4).unwrap();
        let cfg = ForestConfig {
            trees: 5,
            max_depth: 3,
            feature_fraction: 0.7,
            seed: 9,
        };
        let a = train_forest(&train, &cfg);
        let b = train_forest(&train, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.trees().len(), 5);
        for t in a.trees() {
            assert!(t.depth() <= 3);
        }
    }

    #[test]
    fn forest_beats_majority_floor() {
        let (train, test) = Benchmark::Vertebral3C.load_quantized(4).unwrap();
        let forest = train_forest(&train, &ForestConfig::default());
        let (_, floor) = {
            let mut counts = vec![0usize; test.n_classes()];
            for (_, l) in test.iter() {
                counts[l] += 1;
            }
            let max = *counts.iter().max().unwrap();
            (0, max as f64 / test.len() as f64)
        };
        assert!(forest.accuracy(&test) > floor, "forest must beat the prior");
    }

    #[test]
    fn strict_majority_vote_with_tie_fallback() {
        use crate::tree::Node;
        // Three constant trees: 0, 1, 1 → majority 1; 0, 1, 2 → tie → tree 0.
        let constant = |class| DecisionTree::constant(4, 1, 3, class);
        let majority = Forest::from_trees(vec![constant(0), constant(1), constant(1)]);
        assert_eq!(majority.predict(&[0]), 1);
        let tie = Forest::from_trees(vec![constant(0), constant(1), constant(2)]);
        assert_eq!(tie.predict(&[0]), 0, "tie falls back to tree 0");
        // A real split tree mixed in still validates.
        let split = DecisionTree::from_nodes(
            4,
            1,
            3,
            vec![
                Node::Split {
                    feature: 0,
                    threshold: 8,
                    lo: 1,
                    hi: 2,
                },
                Node::Leaf { class: 0 },
                Node::Leaf { class: 2 },
            ],
        )
        .unwrap();
        let mixed = Forest::from_trees(vec![split, constant(2), constant(0)]);
        assert_eq!(mixed.predict(&[15]), 2, "two votes for class 2");
    }

    #[test]
    fn feature_subsampling_restricts_splits() {
        let (train, _) = Benchmark::Cardio.load_quantized(4).unwrap();
        let cfg = ForestConfig {
            trees: 4,
            max_depth: 3,
            feature_fraction: 0.25,
            seed: 3,
        };
        let forest = train_forest(&train, &cfg);
        let n_keep = (train.n_features() as f64 * 0.25).ceil() as usize;
        for tree in forest.trees() {
            assert!(tree.used_features().len() <= n_keep);
        }
    }

    #[test]
    fn ensemble_shares_comparator_pairs() {
        let (train, _) = Benchmark::Seeds.load_quantized(4).unwrap();
        let forest = train_forest(
            &train,
            &ForestConfig {
                trees: 5,
                max_depth: 3,
                feature_fraction: 1.0,
                seed: 1,
            },
        );
        let union = forest.distinct_pairs().len();
        let sum: usize = forest
            .trees()
            .iter()
            .map(|t| t.distinct_pairs().len())
            .sum();
        assert!(
            union <= sum,
            "the shared ADC bank never needs more than the sum"
        );
        assert!(union < sum, "bootstrap trees overlap on at least one pair");
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn empty_forest_rejected() {
        Forest::from_trees(vec![]);
    }

    #[test]
    #[should_panic(expected = "inconsistent class counts")]
    fn mismatched_trees_rejected() {
        Forest::from_trees(vec![
            DecisionTree::constant(4, 1, 2, 0),
            DecisionTree::constant(4, 1, 3, 0),
        ]);
    }
}
