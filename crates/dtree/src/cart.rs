//! Gini-based CART training over quantized features.
//!
//! This is the conventional (ADC-unaware) trainer of the baseline \[2\]:
//! greedy recursive partitioning minimizing the Gini impurity of each
//! split, thresholds drawn from the values the feature takes in the data.
//! The split-candidate enumeration is exposed so the ADC-aware trainer in
//! `printed-codesign` can reuse it verbatim and differ only in *which*
//! near-optimal candidate it picks — in two forms:
//!
//! * [`split_candidates`] — the scalar reference implementation: per-node
//!   histogram built from scratch, row-major sample reads. Kept as the
//!   executable specification the fast path is pinned against.
//! * [`SplitEngine`] — the production hot path: reads feature-major
//!   columns from a shared [`DatasetIndex`], tracks only *occupied*
//!   stride-grid cells, walks them with incremental low-side histograms,
//!   and answers whole-dataset nodes straight from class-count prefix
//!   sums with no per-sample scan at all. Bit-identical to the scalar
//!   path: same candidate order, same `gini` f64 bits (all histogram
//!   arithmetic is exact integer accumulation feeding the very same
//!   [`gini_impurity`] expression).
//!
//! Tree growth itself partitions node subsets in place through an
//! [`IndexArena`] instead of allocating per-node
//! index vectors.
//!
//! ```
//! use printed_datasets::{Dataset, QuantizedDataset};
//! use printed_dtree::cart::{train, CartConfig};
//!
//! let ds = Dataset::from_rows("xor-ish", 1, vec![
//!     (vec![0.1], 0), (vec![0.2], 0), (vec![0.8], 1), (vec![0.9], 1),
//! ])?;
//! let q = QuantizedDataset::from_dataset(&ds, 4);
//! let tree = train(&q, &CartConfig::with_max_depth(2));
//! assert_eq!(tree.accuracy(&q), 1.0);
//! # Ok::<(), printed_datasets::DatasetError>(())
//! ```

use printed_datasets::{DatasetIndex, QuantizedDataset};

use crate::arena::IndexArena;
use crate::tree::{DecisionTree, Node};

/// Configuration for [`train`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CartConfig {
    /// Maximum tree depth (0 trains a constant classifier).
    pub max_depth: usize,
    /// Minimum samples a node must hold to be split further.
    pub min_samples_split: usize,
    /// Per-feature threshold stride (a power of two): feature `f` may only
    /// split at thresholds that are multiples of `strides[f]`. This is
    /// exactly input-precision scaling — a stride of `2^s` at 4-bit data
    /// means feature `f` is effectively read at `4 − s` bits. Empty means
    /// stride 1 everywhere.
    pub threshold_strides: Vec<u8>,
}

impl CartConfig {
    /// Full-precision config with the given depth cap.
    pub fn with_max_depth(max_depth: usize) -> Self {
        Self {
            max_depth,
            min_samples_split: 2,
            threshold_strides: Vec::new(),
        }
    }

    fn stride(&self, feature: usize) -> u8 {
        self.threshold_strides
            .get(feature)
            .copied()
            .unwrap_or(1)
            .max(1)
    }
}

impl Default for CartConfig {
    /// Depth 8 (the paper's cap), full precision.
    fn default() -> Self {
        Self::with_max_depth(8)
    }
}

/// One candidate split with its Gini impurity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitCandidate {
    /// Feature to test.
    pub feature: usize,
    /// Threshold level (`sample[feature] ≥ threshold`).
    pub threshold: u8,
    /// Weighted Gini impurity of the partition (lower is better).
    pub gini: f64,
}

/// Gini impurity of a class histogram: `1 − Σ (n_c/n)²`.
///
/// Returns 0 for an empty histogram (an empty node is vacuously pure).
pub fn gini_impurity(counts: &[usize]) -> f64 {
    let n: usize = counts.iter().sum();
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / n).powi(2)).sum::<f64>()
}

/// Enumerates every valid split of the node subset `indices`, with Gini
/// scores — "all possible combinations between input features and their
/// corresponding values in the training dataset" (Algorithm 1, line 3).
///
/// A split is valid when both sides are non-empty and the threshold lies on
/// the feature's stride grid. Candidates are returned in ascending
/// `(feature, threshold)` order.
///
/// This is the scalar **reference** enumeration; production training goes
/// through [`SplitEngine`], which is pinned bit-identical to it.
///
/// # Panics
///
/// Panics if `indices` is empty or contains an out-of-range index.
pub fn split_candidates(
    data: &QuantizedDataset,
    indices: &[usize],
    config: &CartConfig,
) -> Vec<SplitCandidate> {
    assert!(
        !indices.is_empty(),
        "cannot enumerate splits of an empty node"
    );
    let levels = 1usize << data.bits();
    let n_classes = data.n_classes();
    let n = indices.len();
    let mut out = Vec::new();

    for feature in 0..data.n_features() {
        let stride = config.stride(feature) as usize;
        // counts[level][class] over the subset, on the stride-coarsened grid
        // (levels are floored to the grid, which is what a reduced-precision
        // ADC would output).
        let mut counts = vec![vec![0usize; n_classes]; levels];
        for &i in indices {
            let level = (data.sample(i)[feature] as usize / stride) * stride;
            counts[level][data.label(i)] += 1;
        }
        // Thresholds are the values the (stride-coarsened) feature actually
        // takes in the node — "∀ C value in dataset for I_i" in Algorithm 1.
        // Every count was floored onto the grid above, so only grid cells
        // can be occupied and the occupancy probe reads exactly one cell.
        // The smallest occupied cell is skipped: `I ≥ min` is trivially true
        // (and a threshold of 0 needs no comparator at all).
        let occupied: Vec<usize> = (0..levels)
            .step_by(stride)
            .filter(|&t| counts[t].iter().any(|&c| c > 0))
            .collect();
        let total: Vec<usize> = (0..n_classes)
            .map(|c| counts.iter().map(|row| row[c]).sum())
            .collect();
        let mut lo = vec![0usize; n_classes];
        let mut cell_cursor = 0usize;
        for &t in occupied.iter().skip(1) {
            // Accumulate everything below threshold t into the low side.
            while cell_cursor < t {
                for c in 0..n_classes {
                    lo[c] += counts[cell_cursor][c];
                }
                cell_cursor += 1;
            }
            let lo_n: usize = lo.iter().sum();
            debug_assert!(
                lo_n > 0 && lo_n < n,
                "occupied-cell thresholds split non-trivially"
            );
            let hi: Vec<usize> = (0..n_classes).map(|c| total[c] - lo[c]).collect();
            let hi_n = n - lo_n;
            let g =
                (lo_n as f64 * gini_impurity(&lo) + hi_n as f64 * gini_impurity(&hi)) / n as f64;
            out.push(SplitCandidate {
                feature,
                threshold: t as u8,
                gini: g,
            });
        }
    }
    out
}

/// Incremental split-candidate engine over a shared [`DatasetIndex`].
///
/// One engine serves every node of every tree trained on the dataset: all
/// scratch (grid-cell histograms, occupied-cell list, low/high/total class
/// histograms, the output vector) is allocated once and reused, so a call
/// to [`candidates`](Self::candidates) allocates nothing.
///
/// Exactness: the engine produces the same `Vec<SplitCandidate>` as
/// [`split_candidates`] — same order, same `gini` down to the f64 bit
/// pattern. Histogram accumulation is integer (order-insensitive, exact),
/// skipped empty cells contribute zero exactly as the scalar path's
/// explicit zero-adds do, and the final score evaluates the identical
/// floating-point expression on identical integer inputs.
#[derive(Debug)]
pub struct SplitEngine<'a> {
    index: &'a DatasetIndex,
    /// Flat `levels × n_classes` grid-cell histogram scratch; only cells
    /// in `touched` are nonzero between features.
    counts: Vec<usize>,
    /// Per-cell subset totals (`cell_n[level] == Σ_c counts[level][c]`).
    cell_n: Vec<usize>,
    /// Occupied stride-grid cells of the current feature, ascending.
    touched: Vec<usize>,
    lo: Vec<usize>,
    hi: Vec<usize>,
    total: Vec<usize>,
    class_counts: Vec<usize>,
    out: Vec<SplitCandidate>,
}

impl<'a> SplitEngine<'a> {
    /// An engine over `index`, with all scratch preallocated.
    pub fn new(index: &'a DatasetIndex) -> Self {
        let levels = index.levels();
        let n_classes = index.n_classes();
        Self {
            index,
            counts: vec![0; levels * n_classes],
            cell_n: vec![0; levels],
            touched: Vec::with_capacity(levels),
            lo: vec![0; n_classes],
            hi: vec![0; n_classes],
            total: vec![0; n_classes],
            class_counts: vec![0; n_classes],
            out: Vec::new(),
        }
    }

    /// The shared dataset index (returned at the index's own lifetime, so
    /// callers can hold column slices across later `&mut self` calls).
    pub fn index(&self) -> &'a DatasetIndex {
        self.index
    }

    /// Enumerates every valid split of the node subset `indices` —
    /// bit-identical to [`split_candidates`] on the same subset. The
    /// returned slice is valid until the next call.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or contains an out-of-range id.
    pub fn candidates(&mut self, indices: &[u32], config: &CartConfig) -> &[SplitCandidate] {
        assert!(
            !indices.is_empty(),
            "cannot enumerate splits of an empty node"
        );
        let n = indices.len();
        let levels = self.index.levels();
        let n_classes = self.index.n_classes();
        self.out.clear();
        // A whole-dataset node in identity order (every non-bootstrap
        // root) needs no per-sample scan at all: its grid-cell histograms
        // are prefix-sum differences.
        let identity =
            n == self.index.len() && indices.iter().enumerate().all(|(i, &id)| id as usize == i);

        for feature in 0..self.index.n_features() {
            let stride = config.stride(feature) as usize;
            self.touched.clear();
            if identity {
                let mut t = 0usize;
                while t < levels {
                    let below_t = self.index.counts_below(feature, t);
                    let below_next = self.index.counts_below(feature, (t + stride).min(levels));
                    let row = &mut self.counts[t * n_classes..(t + 1) * n_classes];
                    let mut cell_total = 0usize;
                    for c in 0..n_classes {
                        let v = (below_next[c] - below_t[c]) as usize;
                        row[c] = v;
                        cell_total += v;
                    }
                    if cell_total > 0 {
                        self.touched.push(t);
                        self.cell_n[t] = cell_total;
                    } else {
                        // Keep the scratch invariant: untouched rows stay 0.
                        row.fill(0);
                    }
                    t += stride;
                }
            } else {
                let column = self.index.column(feature);
                let labels = self.index.labels();
                for &id in indices {
                    let i = id as usize;
                    let level = (column[i] as usize / stride) * stride;
                    if self.cell_n[level] == 0 {
                        self.touched.push(level);
                    }
                    self.cell_n[level] += 1;
                    self.counts[level * n_classes + labels[i] as usize] += 1;
                }
                self.touched.sort_unstable();
            }

            // Subset class totals (integer sums over occupied cells only —
            // the scalar path also sums the empty cells, which add zero, so
            // the values are identical).
            self.total.fill(0);
            for k in 0..self.touched.len() {
                let t = self.touched[k];
                for c in 0..n_classes {
                    self.total[c] += self.counts[t * n_classes + c];
                }
            }

            // Walk occupied cells, folding each previous cell into the
            // incremental low side. The first occupied cell is skipped
            // (trivial split), exactly like the scalar path.
            self.lo.fill(0);
            let mut lo_n = 0usize;
            for k in 1..self.touched.len() {
                let prev = self.touched[k - 1];
                for c in 0..n_classes {
                    self.lo[c] += self.counts[prev * n_classes + c];
                }
                lo_n += self.cell_n[prev];
                let t = self.touched[k];
                debug_assert!(
                    lo_n > 0 && lo_n < n,
                    "occupied-cell thresholds split non-trivially"
                );
                for c in 0..n_classes {
                    self.hi[c] = self.total[c] - self.lo[c];
                }
                let hi_n = n - lo_n;
                let g = (lo_n as f64 * gini_impurity(&self.lo)
                    + hi_n as f64 * gini_impurity(&self.hi))
                    / n as f64;
                self.out.push(SplitCandidate {
                    feature,
                    threshold: t as u8,
                    gini: g,
                });
            }

            // Zero only what this feature touched.
            for k in 0..self.touched.len() {
                let t = self.touched[k];
                self.cell_n[t] = 0;
                self.counts[t * n_classes..(t + 1) * n_classes].fill(0);
            }
        }
        &self.out
    }

    /// Majority class of the subset (shared tie-break rule:
    /// [`majority_from_counts`]).
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or contains an out-of-range id.
    pub fn majority_class(&mut self, indices: &[u32]) -> usize {
        assert!(!indices.is_empty(), "non-empty subset");
        let labels = self.index.labels();
        self.class_counts.fill(0);
        for &id in indices {
            self.class_counts[labels[id as usize] as usize] += 1;
        }
        majority_from_counts(&self.class_counts)
    }

    /// True when every sample in the subset has the same label.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or contains an out-of-range id.
    pub fn is_pure(&self, indices: &[u32]) -> bool {
        let labels = self.index.labels();
        let first = labels[indices[0] as usize];
        indices.iter().all(|&id| labels[id as usize] == first)
    }
}

/// Majority vote over a class histogram, ties broken toward the smaller
/// class id — the **single** tie-break rule every trainer in the workspace
/// shares (CART here, the ADC-aware trainer, and forests).
///
/// # Panics
///
/// Panics if `counts` is empty.
pub fn majority_from_counts(counts: &[usize]) -> usize {
    counts
        .iter()
        .enumerate()
        .max_by_key(|&(c, &n)| (n, std::cmp::Reverse(c)))
        .map(|(c, _)| c)
        .expect("non-empty histogram")
}

/// Majority class of the subset (ties broken toward the smaller class id).
///
/// # Panics
///
/// Panics if `indices` is empty or contains an out-of-range index.
pub fn majority_class(data: &QuantizedDataset, indices: &[usize]) -> usize {
    let mut counts = vec![0usize; data.n_classes()];
    for &i in indices {
        counts[data.label(i)] += 1;
    }
    majority_from_counts(&counts)
}

/// True when every sample in the subset has the same label.
///
/// # Panics
///
/// Panics if `indices` is empty or contains an out-of-range index.
pub fn is_pure(data: &QuantizedDataset, indices: &[usize]) -> bool {
    let first = data.label(indices[0]);
    indices.iter().all(|&i| data.label(i) == first)
}

/// The winning candidate under the deterministic selection rule every
/// Gini-greedy trainer shares: lowest impurity, ties toward the smaller
/// `(feature, threshold)`.
pub fn best_split(candidates: &[SplitCandidate]) -> Option<SplitCandidate> {
    candidates.iter().copied().min_by(|a, b| {
        a.gini
            .partial_cmp(&b.gini)
            .expect("finite gini")
            .then(a.feature.cmp(&b.feature))
            .then(a.threshold.cmp(&b.threshold))
    })
}

/// Trains a CART decision tree on `data`.
///
/// Deterministic: among equal-Gini candidates the smallest
/// `(feature, threshold)` wins. Builds a fresh [`DatasetIndex`]; callers
/// training repeatedly on the same dataset should build the index once and
/// use [`train_with_index`].
///
/// # Panics
///
/// Panics if `data` is empty.
pub fn train(data: &QuantizedDataset, config: &CartConfig) -> DecisionTree {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    let index = DatasetIndex::new(data);
    train_with_index(data, &index, config)
}

/// [`train`] with a caller-provided (shared) [`DatasetIndex`].
///
/// # Panics
///
/// Panics if `data` is empty or `index` was not built from `data`.
pub fn train_with_index(
    data: &QuantizedDataset,
    index: &DatasetIndex,
    config: &CartConfig,
) -> DecisionTree {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    assert!(
        index.len() == data.len() && index.n_features() == data.n_features(),
        "index must be built from the training dataset"
    );
    let mut engine = SplitEngine::new(index);
    let mut arena = IndexArena::new();
    arena.reset_identity(data.len());
    let mut nodes = Vec::new();
    grow(
        &mut engine,
        &mut arena,
        config,
        0,
        data.len(),
        0,
        &mut nodes,
    );
    DecisionTree::from_nodes(data.bits(), data.n_features(), data.n_classes(), nodes)
        .expect("trainer builds valid trees")
}

fn grow(
    engine: &mut SplitEngine<'_>,
    arena: &mut IndexArena,
    config: &CartConfig,
    start: usize,
    len: usize,
    depth: usize,
    nodes: &mut Vec<Node>,
) -> usize {
    if depth >= config.max_depth
        || len < config.min_samples_split
        || engine.is_pure(arena.slice(start, len))
    {
        let class = engine.majority_class(arena.slice(start, len));
        nodes.push(Node::Leaf { class });
        return nodes.len() - 1;
    }
    let Some(best) = best_split(engine.candidates(arena.slice(start, len), config)) else {
        let class = engine.majority_class(arena.slice(start, len));
        nodes.push(Node::Leaf { class });
        return nodes.len() - 1;
    };

    let column = engine.index().column(best.feature);
    let lo_len = arena.partition(start, len, column, best.threshold);
    debug_assert!(lo_len > 0 && lo_len < len);

    let me = nodes.len();
    nodes.push(Node::Split {
        feature: best.feature,
        threshold: best.threshold,
        lo: usize::MAX,
        hi: usize::MAX,
    });
    let lo = grow(engine, arena, config, start, lo_len, depth + 1, nodes);
    let hi = grow(
        engine,
        arena,
        config,
        start + lo_len,
        len - lo_len,
        depth + 1,
        nodes,
    );
    nodes[me] = Node::Split {
        feature: best.feature,
        threshold: best.threshold,
        lo,
        hi,
    };
    me
}

/// A trained model with its selection metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedModel {
    /// The selected tree.
    pub tree: DecisionTree,
    /// The depth cap it was trained with.
    pub depth: usize,
    /// Training-set accuracy.
    pub train_accuracy: f64,
    /// Test-set accuracy (the selection criterion).
    pub test_accuracy: f64,
}

/// Trains at every depth `1..=max_depth` and returns the model at the
/// *minimum* depth achieving the maximum test accuracy — the paper's
/// baseline model-selection rule. The [`DatasetIndex`] is built once and
/// shared across every depth.
///
/// # Panics
///
/// Panics if either dataset is empty or `max_depth` is 0.
pub fn train_depth_selected(
    train_data: &QuantizedDataset,
    test_data: &QuantizedDataset,
    max_depth: usize,
) -> TrainedModel {
    assert!(max_depth >= 1, "max_depth must be at least 1");
    let index = DatasetIndex::new(train_data);
    let mut best: Option<TrainedModel> = None;
    for depth in 1..=max_depth {
        let tree = train_with_index(train_data, &index, &CartConfig::with_max_depth(depth));
        let model = TrainedModel {
            train_accuracy: tree.accuracy(train_data),
            test_accuracy: tree.accuracy(test_data),
            tree,
            depth,
        };
        let better = match &best {
            None => true,
            // Strictly better accuracy wins; ties keep the shallower tree.
            Some(b) => model.test_accuracy > b.test_accuracy + 1e-12,
        };
        if better {
            best = Some(model);
        }
    }
    best.expect("at least one depth trained")
}

#[cfg(test)]
mod tests {
    use super::*;
    use printed_datasets::{Benchmark, Dataset};

    fn quantized(rows: Vec<(Vec<f64>, usize)>, nf: usize) -> QuantizedDataset {
        let ds = Dataset::from_rows("t", nf, rows).unwrap();
        QuantizedDataset::from_dataset(&ds, 4)
    }

    #[test]
    fn gini_impurity_basics() {
        assert_eq!(gini_impurity(&[10, 0]), 0.0);
        assert!((gini_impurity(&[5, 5]) - 0.5).abs() < 1e-12);
        assert!((gini_impurity(&[1, 1, 1]) - (1.0 - 3.0 / 9.0)).abs() < 1e-12);
        assert_eq!(gini_impurity(&[]), 0.0);
        assert_eq!(gini_impurity(&[0, 0]), 0.0);
    }

    #[test]
    fn candidates_partition_validly() {
        let q = quantized(
            vec![
                (vec![0.1, 0.3], 0),
                (vec![0.4, 0.9], 1),
                (vec![0.7, 0.2], 0),
                (vec![0.95, 0.8], 1),
            ],
            2,
        );
        let all: Vec<usize> = (0..4).collect();
        let cands = split_candidates(&q, &all, &CartConfig::default());
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(c.threshold > 0);
            let lo = all
                .iter()
                .filter(|&&i| q.sample(i)[c.feature] < c.threshold)
                .count();
            assert!(lo > 0 && lo < 4, "both sides non-empty for {c:?}");
            assert!((0.0..=0.5 + 1e-9).contains(&c.gini));
        }
        // Perfect separator on feature 1 at threshold 0.8·16=12..13 region:
        let perfect = cands.iter().find(|c| c.gini == 0.0);
        assert!(perfect.is_some(), "a zero-gini split exists: {cands:?}");
    }

    #[test]
    fn majority_tie_breaks_toward_smaller_class_id() {
        // The single shared tie-break rule: equal counts → smaller class.
        assert_eq!(majority_from_counts(&[3, 3]), 0);
        assert_eq!(majority_from_counts(&[0, 2, 2]), 1);
        assert_eq!(majority_from_counts(&[1, 4, 4, 2]), 1);
        assert_eq!(majority_from_counts(&[0, 0, 5]), 2);
        // And through both subset-level entry points.
        let q = quantized(vec![(vec![0.1], 1), (vec![0.5], 0), (vec![0.9], 1)], 1);
        assert_eq!(majority_class(&q, &[0, 1]), 0, "1-vs-1 tie → class 0");
        let index = DatasetIndex::new(&q);
        let mut engine = SplitEngine::new(&index);
        assert_eq!(engine.majority_class(&[0, 1]), 0);
        assert_eq!(engine.majority_class(&[0, 1, 2]), 1);
        assert!(!engine.is_pure(&[0, 1]));
        assert!(engine.is_pure(&[0, 2]));
    }

    /// Brute-force recount of one split — the slowest possible oracle.
    fn brute_force_candidates(
        data: &QuantizedDataset,
        indices: &[usize],
        config: &CartConfig,
    ) -> Vec<SplitCandidate> {
        let levels = 1usize << data.bits();
        let n = indices.len();
        let mut out = Vec::new();
        for feature in 0..data.n_features() {
            let stride = config.threshold_strides.get(feature).copied().unwrap_or(1) as usize;
            let floored = |i: usize| (data.sample(i)[feature] as usize / stride) * stride;
            let occupied: Vec<usize> = (0..levels)
                .step_by(stride)
                .filter(|&t| indices.iter().any(|&i| floored(i) == t))
                .collect();
            for &t in occupied.iter().skip(1) {
                let mut lo = vec![0usize; data.n_classes()];
                let mut hi = vec![0usize; data.n_classes()];
                for &i in indices {
                    if floored(i) < t {
                        lo[data.label(i)] += 1;
                    } else {
                        hi[data.label(i)] += 1;
                    }
                }
                let lo_n: usize = lo.iter().sum();
                let hi_n = n - lo_n;
                let g = (lo_n as f64 * gini_impurity(&lo) + hi_n as f64 * gini_impurity(&hi))
                    / n as f64;
                out.push(SplitCandidate {
                    feature,
                    threshold: t as u8,
                    gini: g,
                });
            }
        }
        out
    }

    #[test]
    fn strided_candidates_match_brute_force_exactly() {
        // Regression for the dead-scan occupancy probe: with stride > 1 the
        // coarsened grid must yield exactly the brute-force candidate list
        // (same order, same gini bits), at every stride.
        let (train_data, _) = Benchmark::Vertebral3C.load_quantized(4).unwrap();
        let all: Vec<usize> = (0..train_data.len()).collect();
        let subset: Vec<usize> = (0..train_data.len()).step_by(3).collect();
        for stride in [1u8, 2, 4, 8] {
            let mut config = CartConfig::with_max_depth(8);
            config.threshold_strides = vec![stride; train_data.n_features()];
            for indices in [&all, &subset] {
                let got = split_candidates(&train_data, indices, &config);
                let want = brute_force_candidates(&train_data, indices, &config);
                assert_eq!(got.len(), want.len(), "stride {stride}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!((g.feature, g.threshold), (w.feature, w.threshold));
                    assert_eq!(g.gini.to_bits(), w.gini.to_bits(), "stride {stride}");
                }
            }
        }
    }

    #[test]
    fn engine_matches_scalar_reference_bit_for_bit() {
        for bench in [Benchmark::Seeds, Benchmark::Cardio, Benchmark::WhiteWine] {
            let (train_data, _) = bench.load_quantized(4).unwrap();
            let index = DatasetIndex::new(&train_data);
            let mut engine = SplitEngine::new(&index);
            let n = train_data.len();
            // Identity (prefix-sum fast path), a strided subset, a reversed
            // subset, and a tiny tail (scan path).
            let identity: Vec<usize> = (0..n).collect();
            let strided: Vec<usize> = (0..n).step_by(7).collect();
            let reversed: Vec<usize> = (0..n).rev().collect();
            let tail: Vec<usize> = (n.saturating_sub(5)..n).collect();
            for (name, subset) in [
                ("identity", &identity),
                ("strided", &strided),
                ("reversed", &reversed),
                ("tail", &tail),
            ] {
                for strides in [Vec::new(), vec![2; train_data.n_features()]] {
                    let mut config = CartConfig::with_max_depth(8);
                    config.threshold_strides = strides;
                    let want = split_candidates(&train_data, subset, &config);
                    let ids: Vec<u32> = subset.iter().map(|&i| i as u32).collect();
                    let got = engine.candidates(&ids, &config);
                    assert_eq!(got.len(), want.len(), "{bench:?}/{name}");
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(
                            (g.feature, g.threshold),
                            (w.feature, w.threshold),
                            "{bench:?}/{name}"
                        );
                        assert_eq!(
                            g.gini.to_bits(),
                            w.gini.to_bits(),
                            "{bench:?}/{name} f{} t{}",
                            g.feature,
                            g.threshold
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn train_separates_linearly_separable_data() {
        let q = quantized(
            vec![
                (vec![0.05], 0),
                (vec![0.15], 0),
                (vec![0.25], 0),
                (vec![0.75], 1),
                (vec![0.85], 1),
                (vec![0.95], 1),
            ],
            1,
        );
        let tree = train(&q, &CartConfig::with_max_depth(1));
        assert_eq!(tree.depth(), 1);
        assert_eq!(tree.accuracy(&q), 1.0);
    }

    #[test]
    fn deeper_trees_never_hurt_training_accuracy() {
        let (train_data, _) = Benchmark::Seeds.load_quantized(4).unwrap();
        let mut prev = 0.0;
        for depth in 1..=6 {
            let tree = train(&train_data, &CartConfig::with_max_depth(depth));
            let acc = tree.accuracy(&train_data);
            assert!(
                acc >= prev - 1e-12,
                "depth {depth}: accuracy {acc} dropped below {prev}"
            );
            assert!(tree.depth() <= depth);
            prev = acc;
        }
    }

    #[test]
    fn max_depth_zero_gives_majority_classifier() {
        let q = quantized(vec![(vec![0.1], 1), (vec![0.2], 1), (vec![0.9], 0)], 1);
        let tree = train(&q, &CartConfig::with_max_depth(0));
        assert_eq!(tree.split_count(), 0);
        assert_eq!(tree.predict(&[0]), 1);
    }

    #[test]
    fn pure_nodes_stop_early() {
        let q = quantized(vec![(vec![0.1], 0), (vec![0.9], 0)], 1);
        let tree = train(&q, &CartConfig::with_max_depth(8));
        assert_eq!(tree.split_count(), 0, "pure data needs no splits");
    }

    #[test]
    fn training_is_deterministic() {
        let (train_data, _) = Benchmark::Vertebral2C.load_quantized(4).unwrap();
        let a = train(&train_data, &CartConfig::with_max_depth(4));
        let b = train(&train_data, &CartConfig::with_max_depth(4));
        assert_eq!(a, b);
    }

    #[test]
    fn strides_restrict_thresholds() {
        let q = quantized(
            vec![
                (vec![0.05], 0),
                (vec![0.15], 0),
                (vec![0.35], 1),
                (vec![0.45], 0),
                (vec![0.75], 1),
                (vec![0.95], 1),
            ],
            1,
        );
        let mut config = CartConfig::with_max_depth(8);
        config.threshold_strides = vec![4]; // feature 0 at 2 effective bits
        let tree = train(&q, &config);
        for (_, th) in tree.distinct_pairs() {
            assert_eq!(th % 4, 0, "threshold {th} must sit on the stride grid");
        }
    }

    #[test]
    fn depth_selection_prefers_smallest_at_max_accuracy() {
        let (train_data, test_data) = Benchmark::Seeds.load_quantized(4).unwrap();
        let model = train_depth_selected(&train_data, &test_data, 8);
        // No shallower depth may reach the same accuracy.
        for depth in 1..model.depth {
            let tree = train(&train_data, &CartConfig::with_max_depth(depth));
            assert!(
                tree.accuracy(&test_data) < model.test_accuracy - 1e-12,
                "depth {depth} already achieves the maximum"
            );
        }
        assert!(model.test_accuracy > 0.5);
    }

    #[test]
    fn benchmark_accuracy_sanity() {
        // Not the full calibration test (that lives in the integration
        // suite) — just that training beats the majority floor on an easy
        // benchmark.
        let (train_data, test_data) = Benchmark::Seeds.load_quantized(4).unwrap();
        let model = train_depth_selected(&train_data, &test_data, 8);
        assert!(model.test_accuracy > 0.75, "got {}", model.test_accuracy);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn split_candidates_reject_empty_node() {
        let (train_data, _) = Benchmark::Seeds.load_quantized(4).unwrap();
        split_candidates(&train_data, &[], &CartConfig::default());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn engine_rejects_empty_node() {
        let (train_data, _) = Benchmark::Seeds.load_quantized(4).unwrap();
        let index = DatasetIndex::new(&train_data);
        SplitEngine::new(&index).candidates(&[], &CartConfig::default());
    }
}
