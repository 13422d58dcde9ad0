//! Gini-based CART training over quantized features.
//!
//! This is the conventional (ADC-unaware) trainer of the baseline \[2\]:
//! greedy top-down partitioning minimizing the Gini impurity of each
//! split, thresholds drawn from the values the feature takes in the data.
//! The split-candidate enumeration is exposed so the ADC-aware trainer in
//! `printed-codesign` can reuse it verbatim and differ only in *which*
//! near-optimal candidate it picks — in two forms:
//!
//! * [`split_candidates`] — the scalar reference implementation: per-node
//!   histogram built from scratch, row-major sample reads. Kept as the
//!   executable specification the fast path is pinned against.
//! * [`SplitEngine`] — the production hot path: counts a node's class
//!   totals once (majority, purity and the classes present all come from
//!   them), reads feature-major columns from a shared [`DatasetIndex`]
//!   into dense `levels × present-classes` histograms of node-local class
//!   ranks, marks occupied stride-grid cells in a bitmask and walks its
//!   set bits with an incremental low-side histogram. Whole-dataset nodes
//!   fill the same rows straight from class-count prefix sums, with no
//!   per-feature sample scan. Bit-identical to the scalar path: same
//!   candidate order, same `gini` f64 bits (all histogram arithmetic is
//!   exact integer accumulation feeding the [`gini_impurity`] expression,
//!   whose skipped absent-class terms are exact zeros).
//!
//! Tree growth has one implementation, [`grow`]: a breadth-first FIFO
//! over an [`IndexArena`] (node subsets are partitioned in place, never
//! allocated per node) that asks a caller-supplied rule which candidate to
//! split on. CART passes [`best_split`], forests pass `best_split` over
//! their kept features, and the ADC-aware trainer in `printed-codesign`
//! passes Algorithm 1's selection. Because a CART node's choice depends on
//! its own subset only, truncating a deep tree ([`AnnotatedTree`]) is
//! bit-identical to growing at the lower cap — [`train_depth_selected`]
//! grows one tree, scores every shallower depth in one walk per sample
//! and truncates it once, to the depth it selects.
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

use std::collections::VecDeque;

use printed_datasets::{DatasetIndex, QuantizedDataset};
use printed_telemetry::{Kernel, KernelTimer};

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
    gini_of(n, counts.iter().copied())
}

/// The [`gini_impurity`] expression over the class counts `counts` of
/// `n > 0` samples, summed in the order given.
fn gini_of(n: usize, counts: impl Iterator<Item = usize>) -> f64 {
    let n = n as f64;
    1.0 - counts.map(|c| (c as f64 / n).powi(2)).sum::<f64>()
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

/// The class statistics of one node, from one pass over its labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeClasses {
    /// Majority class (shared tie-break rule: [`majority_from_counts`]).
    pub majority: usize,
    /// True when every sample of the node has the same label.
    pub pure: bool,
}

/// Incremental split-candidate engine over a shared [`DatasetIndex`].
///
/// One engine serves every node of every tree trained on the dataset: all
/// scratch (class totals and ranks, the dense cell histogram, the
/// occupancy bitmask, the low side, the output vector) is allocated once
/// and reused, so a call to [`candidates`](Self::candidates) allocates
/// nothing.
///
/// Per node the engine counts the class totals once
/// ([`classes`](Self::classes)) and ranks the `P` classes present in
/// ascending class order. Each feature is histogrammed into `levels × P`
/// rows of node-local ranks, with a bit per occupied cell; the walk visits
/// the set bits in ascending order and zeroes each row it has folded
/// into the low side, so sparse nodes pay for what they used.
///
/// Exactness: the engine produces the same `Vec<SplitCandidate>` as
/// [`split_candidates`] — same order, same `gini` down to the f64 bit
/// pattern. Histogram accumulation is integer (order-insensitive, exact),
/// skipped empty cells contribute zero exactly as the scalar path's
/// explicit zero-adds do, and the final score evaluates the
/// [`gini_impurity`] expression on identical integer inputs. Its square
/// sums run over the classes the node holds only, in ascending class
/// order: a class absent from the node has a zero count on both sides, so
/// its term is `+0.0`. The sum starts at `-0.0` (as `Iterator::sum`
/// does), and adding `+0.0` changes a running sum only while it is still
/// `-0.0` (to `+0.0`). Each side holds a sample, so a positive term
/// follows, and `±0.0 + t == t`: from there on a skipped `+0.0` term
/// leaves every bit unchanged.
#[derive(Debug)]
pub struct SplitEngine<'a> {
    index: &'a DatasetIndex,
    /// Class totals of the current node, by class.
    total: Vec<usize>,
    /// Classes present in the current node, ascending: rank `r` is class
    /// `present[r]`.
    present: Vec<usize>,
    /// Rank of each present class.
    rank_of: Vec<u32>,
    /// The current node's labels as ranks, in node order.
    ranks: Vec<u32>,
    /// Class totals of the current node, by rank.
    rank_total: Vec<usize>,
    /// Flat `levels × P` cell histogram by rank; all zero between features.
    counts: Vec<usize>,
    /// One bit per occupied cell; all zero between features.
    occupied: Vec<u64>,
    /// Low-side histogram by rank.
    lo: Vec<usize>,
    out: Vec<SplitCandidate>,
}

impl<'a> SplitEngine<'a> {
    /// An engine over `index`, with all scratch preallocated.
    pub fn new(index: &'a DatasetIndex) -> Self {
        let levels = index.levels();
        let n_classes = index.n_classes();
        Self {
            index,
            total: vec![0; n_classes],
            present: Vec::with_capacity(n_classes),
            rank_of: vec![0; n_classes],
            ranks: Vec::with_capacity(index.len()),
            rank_total: Vec::with_capacity(n_classes),
            counts: vec![0; levels * n_classes],
            occupied: vec![0; levels.div_ceil(64)],
            lo: vec![0; n_classes],
            out: Vec::new(),
        }
    }

    /// The shared dataset index (returned at the index's own lifetime, so
    /// callers can hold column slices across later `&mut self` calls).
    pub fn index(&self) -> &'a DatasetIndex {
        self.index
    }

    /// Counts the class totals of the node subset `indices` — the one pass
    /// over its labels — and returns its majority class and purity.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or contains an out-of-range id.
    pub fn classes(&mut self, indices: &[u32]) -> NodeClasses {
        assert!(!indices.is_empty(), "non-empty subset");
        let labels = self.index.labels();
        self.total.fill(0);
        for &id in indices {
            self.total[labels[id as usize] as usize] += 1;
        }
        self.present.clear();
        self.present
            .extend((0..self.total.len()).filter(|&c| self.total[c] > 0));
        NodeClasses {
            majority: majority_from_counts(&self.total),
            pure: self.present.len() == 1,
        }
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
        self.classes(indices);
        self.scan(indices, config)
    }

    /// [`candidates`](Self::candidates) of the node whose class totals the
    /// last [`classes`](Self::classes) call counted.
    fn scan(&mut self, indices: &[u32], config: &CartConfig) -> &[SplitCandidate] {
        let n = indices.len();
        debug_assert_eq!(self.total.iter().sum::<usize>(), n, "totals of this node");
        let levels = self.index.levels();
        let p = self.present.len();
        self.out.clear();
        self.rank_total.clear();
        for (r, &c) in self.present.iter().enumerate() {
            self.rank_of[c] = r as u32;
            self.rank_total.push(self.total[c]);
        }
        // A whole-dataset node in identity order (every non-bootstrap
        // root) needs no per-sample scan at all: its cell histograms are
        // prefix-sum differences.
        let identity =
            n == self.index.len() && indices.iter().enumerate().all(|(i, &id)| id as usize == i);
        if !identity {
            let labels = self.index.labels();
            self.ranks.clear();
            self.ranks.extend(
                indices
                    .iter()
                    .map(|&id| self.rank_of[labels[id as usize] as usize]),
            );
        }

        for feature in 0..self.index.n_features() {
            let stride = config.stride(feature) as usize;
            if identity {
                let mut t = 0usize;
                while t < levels {
                    let below_t = self.index.counts_below(feature, t);
                    let below_next = self.index.counts_below(feature, (t + stride).min(levels));
                    let row = &mut self.counts[t * p..(t + 1) * p];
                    let mut cell_n = 0usize;
                    for (cell, &c) in row.iter_mut().zip(&self.present) {
                        *cell = (below_next[c] - below_t[c]) as usize;
                        cell_n += *cell;
                    }
                    if cell_n > 0 {
                        self.occupied[t / 64] |= 1 << (t % 64);
                    }
                    t += stride;
                }
            } else {
                let column = self.index.column(feature);
                if stride == 1 {
                    self.histogram(column, indices, |level| level);
                } else {
                    self.histogram(column, indices, |level| level / stride * stride);
                }
            }
            self.walk(feature, n);
        }
        &self.out
    }

    /// Adds the node's samples of one feature column to the `levels × P`
    /// rank histogram, each level floored onto the stride grid by `floor`,
    /// and marks the occupied cells.
    fn histogram(&mut self, column: &[u8], indices: &[u32], floor: impl Fn(usize) -> usize) {
        let p = self.present.len();
        let samples = indices
            .iter()
            .zip(&self.ranks)
            .map(|(&id, &r)| (floor(column[id as usize] as usize), r as usize));
        if let [word] = self.occupied[..] {
            debug_assert_eq!(word, 0, "the walk left the mask clear");
            // Up to 64 levels (6 bits) the mask is one word, kept in a
            // register and stored once: OR-ing each sample's bit into
            // memory makes every sample wait on the previous one's store.
            let mut mask = 0u64;
            for (level, r) in samples {
                mask |= 1 << level;
                self.counts[level * p + r] += 1;
            }
            self.occupied[0] = mask;
        } else {
            for (level, r) in samples {
                self.occupied[level / 64] |= 1 << (level % 64);
                self.counts[level * p + r] += 1;
            }
        }
    }

    /// Walks the occupied cells in ascending order, folding each previous
    /// cell into the incremental low side and pushing one candidate per
    /// threshold; the first occupied cell is skipped (trivial split),
    /// exactly like the scalar path. Leaves the histogram and the
    /// occupancy bits zero.
    fn walk(&mut self, feature: usize, n: usize) {
        let p = self.present.len();
        let (lo, total) = (&mut self.lo[..p], &self.rank_total[..p]);
        lo.fill(0);
        let mut lo_n = 0usize;
        let mut prev: Option<usize> = None;
        for w in 0..self.occupied.len() {
            let mut bits = std::mem::take(&mut self.occupied[w]);
            while bits != 0 {
                let t = 64 * w + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if let Some(prev) = prev {
                    for (l, cell) in lo
                        .iter_mut()
                        .zip(&mut self.counts[prev * p..(prev + 1) * p])
                    {
                        *l += *cell;
                        lo_n += *cell;
                        *cell = 0;
                    }
                    debug_assert!(
                        lo_n > 0 && lo_n < n,
                        "occupied-cell thresholds split non-trivially"
                    );
                    let hi_n = n - lo_n;
                    let lo_gini = gini_of(lo_n, lo.iter().copied());
                    let hi_gini = gini_of(hi_n, total.iter().zip(lo.iter()).map(|(&c, &l)| c - l));
                    let g = (lo_n as f64 * lo_gini + hi_n as f64 * hi_gini) / n as f64;
                    self.out.push(SplitCandidate {
                        feature,
                        threshold: t as u8,
                        gini: g,
                    });
                }
                prev = Some(t);
            }
        }
        if let Some(last) = prev {
            self.counts[last * p..(last + 1) * p].fill(0);
        }
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
    let mut arena = IndexArena::new();
    arena.reset_identity(data.len());
    grow(&mut SplitEngine::new(index), &mut arena, config, best_split).tree
}

/// A grown tree together with the per-node training majorities its grower
/// computed on the way — everything needed to derive every shallower
/// depth cap by [`DecisionTree::truncated`] without retraining.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotatedTree {
    /// The tree grown at the config's `max_depth`.
    pub tree: DecisionTree,
    /// Majority training class per node, indexed by node slot: the class
    /// the grower would have placed at that position had growth stopped
    /// there (exactly what [`DecisionTree::truncated`] substitutes for
    /// splits beyond a shallower cap).
    pub majorities: Vec<usize>,
}

impl AnnotatedTree {
    /// The tree truncated to `max_depth` — bit-identical to growing with
    /// the same chooser at the lower cap, because [`grow`] commits every
    /// depth < `max_depth` decision (splits, and whatever state the
    /// chooser keeps) before considering any deeper node.
    pub fn truncated(&self, max_depth: usize) -> DecisionTree {
        let timer = KernelTimer::start(Kernel::BfsTruncate);
        let truncated = self.tree.truncated(max_depth, &self.majorities);
        timer.finish(self.tree.nodes().len() as u64);
        truncated
    }

    /// For each cap `d` in `0..=max_depth`, how many samples of `data`
    /// `self.truncated(d)` classifies correctly, from one walk per sample:
    /// a split at depth `d` predicts its majority under cap `d` and routes
    /// the sample on for deeper caps; a leaf at depth `d` predicts its
    /// class under every cap from `d` on.
    fn correct_per_cap(&self, data: &QuantizedDataset, max_depth: usize) -> Vec<usize> {
        let nodes = self.tree.nodes();
        let mut correct = vec![0usize; max_depth + 1];
        for (sample, label) in data.iter() {
            let mut node = 0;
            for cap in 0..=max_depth {
                match nodes[node] {
                    Node::Split {
                        feature,
                        threshold,
                        lo,
                        hi,
                    } => {
                        correct[cap] += usize::from(self.majorities[node] == label);
                        node = if sample[feature] >= threshold { hi } else { lo };
                    }
                    Node::Leaf { class } => {
                        let hit = usize::from(class == label);
                        correct[cap..].iter_mut().for_each(|c| *c += hit);
                        break;
                    }
                }
            }
        }
        correct
    }
}

/// Grows a tree over the arena's root subset — the one growth loop every
/// trainer in the workspace shares.
///
/// Nodes are popped breadth-first from a FIFO, so they are visited in
/// slot-allocation order. Each popped node counts its class totals once
/// ([`SplitEngine::classes`]), records its majority class, becomes a leaf
/// when a stop rule fires (`config.max_depth`,
/// `config.min_samples_split`, purity), and otherwise scans its split
/// candidates (timed as [`Kernel::GiniScan`]) and asks `choose` for one;
/// `None` makes a leaf. A chosen split partitions the node's arena range
/// in place and queues both children.
///
/// In-place partitioning is safe under BFS: every queued node owns a
/// disjoint arena range, a pop only permutes *within* its own range, and
/// ancestors are never partitioned again — so a child's range is exactly
/// what its parent's stable partition left there.
///
/// # Panics
///
/// Panics if the arena's root subset is empty, or if `choose` returns a
/// split that leaves one side empty.
pub fn grow(
    engine: &mut SplitEngine<'_>,
    arena: &mut IndexArena,
    config: &CartConfig,
    mut choose: impl FnMut(&[SplitCandidate]) -> Option<SplitCandidate>,
) -> AnnotatedTree {
    let root_len = arena.len();
    assert!(root_len > 0, "cannot train on an empty dataset");
    let index = engine.index();
    let mut nodes = vec![Node::Leaf { class: 0 }]; // placeholder for the root
    let mut majorities = Vec::new();
    // (slot, arena range start, range len, depth)
    let mut queue = VecDeque::from([(0usize, 0usize, root_len, 0usize)]);
    while let Some((slot, start, len, depth)) = queue.pop_front() {
        let classes = engine.classes(arena.slice(start, len));
        debug_assert_eq!(majorities.len(), slot, "FIFO pops in slot order");
        majorities.push(classes.majority);
        nodes[slot] = Node::Leaf {
            class: classes.majority,
        };
        if depth >= config.max_depth || len < config.min_samples_split || classes.pure {
            continue;
        }
        // The scan's work is proportional to the sample values it reads
        // (node size × features), not the candidate count it returns.
        let timer = KernelTimer::start(Kernel::GiniScan);
        let candidates = engine.scan(arena.slice(start, len), config);
        timer.finish((len * index.n_features()) as u64);
        let Some(split) = choose(candidates) else {
            continue;
        };
        let lo_len = arena.partition(start, len, index.column(split.feature), split.threshold);
        assert!(lo_len > 0 && lo_len < len, "a split must divide its node");

        let lo = nodes.len();
        nodes.extend([Node::Leaf { class: 0 }; 2]); // child placeholders
        nodes[slot] = Node::Split {
            feature: split.feature,
            threshold: split.threshold,
            lo,
            hi: lo + 1,
        };
        queue.push_back((lo, start, lo_len, depth + 1));
        queue.push_back((lo + 1, start + lo_len, len - lo_len, depth + 1));
    }
    // The index holds `levels == 2^bits`.
    let bits = index.levels().trailing_zeros();
    let tree = DecisionTree::from_nodes(bits, index.n_features(), index.n_classes(), nodes)
        .expect("trainer builds valid trees");
    AnnotatedTree { tree, majorities }
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

/// Picks, among depth caps `1..=max_depth`, the *minimum* depth achieving
/// the maximum test accuracy — the paper's baseline model-selection rule.
/// One tree is grown at `max_depth`; every shallower cap is its
/// truncation, bit-identical to training at that cap. Builds a fresh
/// [`DatasetIndex`]; a caller that already holds one for `train_data`
/// should use [`train_depth_selected_with_index`].
///
/// # Panics
///
/// Panics if either dataset is empty, `max_depth` is 0, or `test_data`
/// has fewer features than `train_data`.
pub fn train_depth_selected(
    train_data: &QuantizedDataset,
    test_data: &QuantizedDataset,
    max_depth: usize,
) -> TrainedModel {
    let index = DatasetIndex::new(train_data);
    train_depth_selected_with_index(train_data, &index, test_data, max_depth)
}

/// [`train_depth_selected`] with a caller-provided (shared)
/// [`DatasetIndex`] of `train_data`.
///
/// Every cap is scored from one walk per sample down the deep tree: the
/// cap-`d` truncation predicts the leaf a sample reaches at depth ≤ `d`,
/// or else the training majority of the depth-`d` node on its path (what
/// [`AnnotatedTree::truncated`] puts there). Only the selected cap's
/// tree is materialised.
///
/// # Panics
///
/// Panics if either dataset is empty, `max_depth` is 0, `test_data` has
/// fewer features than `train_data`, or `index` was not built from
/// `train_data`.
pub fn train_depth_selected_with_index(
    train_data: &QuantizedDataset,
    index: &DatasetIndex,
    test_data: &QuantizedDataset,
    max_depth: usize,
) -> TrainedModel {
    depth_selected_and_deep(train_data, index, test_data, max_depth).0
}

/// [`train_depth_selected_with_index`] plus the tree it selects from: the
/// one grown under [`CartConfig::with_max_depth`]`(max_depth)`.
pub(crate) fn depth_selected_and_deep(
    train_data: &QuantizedDataset,
    index: &DatasetIndex,
    test_data: &QuantizedDataset,
    max_depth: usize,
) -> (TrainedModel, DecisionTree) {
    assert!(max_depth >= 1, "max_depth must be at least 1");
    assert!(!test_data.is_empty(), "cannot score an empty dataset");
    assert!(!train_data.is_empty(), "cannot train on an empty dataset");
    // The check `DecisionTree::predict` makes per sample: the one-walk
    // scoring indexes test samples by the tree's features directly.
    assert!(
        test_data.n_features() >= train_data.n_features(),
        "test samples have {} features, the training set {}",
        test_data.n_features(),
        train_data.n_features()
    );
    assert!(
        index.len() == train_data.len() && index.n_features() == train_data.n_features(),
        "index must be built from the training dataset"
    );
    let mut arena = IndexArena::new();
    arena.reset_identity(train_data.len());
    let deep = grow(
        &mut SplitEngine::new(index),
        &mut arena,
        &CartConfig::with_max_depth(max_depth),
        best_split,
    );
    // The same quotient `DecisionTree::accuracy` forms.
    let accuracy = |correct: usize, data: &QuantizedDataset| correct as f64 / data.len() as f64;
    let test_correct = deep.correct_per_cap(test_data, max_depth);
    let mut depth = 1;
    for cap in 2..=max_depth {
        // Strictly better accuracy wins; ties keep the shallower tree.
        if accuracy(test_correct[cap], test_data) > accuracy(test_correct[depth], test_data) + 1e-12
        {
            depth = cap;
        }
    }
    let train_correct = deep.correct_per_cap(train_data, max_depth);
    let model = TrainedModel {
        tree: deep.truncated(depth),
        depth,
        train_accuracy: accuracy(train_correct[depth], train_data),
        test_accuracy: accuracy(test_correct[depth], test_data),
    };
    (model, deep.tree)
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
        assert_eq!(engine.classes(&[0, 1]).majority, 0);
        assert_eq!(engine.classes(&[0, 1, 2]).majority, 1);
        assert!(!engine.classes(&[0, 1]).pure);
        assert!(engine.classes(&[0, 2]).pure);
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
        // Arrhythmia (16 classes) and Pendigits (10) reach nodes that hold
        // only some classes, the case the present-class Gini sums skip; at
        // 8 bits the 256 levels span a four-word occupancy mask.
        for (bench, bits) in [
            (Benchmark::Seeds, 4),
            (Benchmark::Cardio, 4),
            (Benchmark::WhiteWine, 4),
            (Benchmark::Arrhythmia, 4),
            (Benchmark::Pendigits, 4),
            (Benchmark::Cardio, 8),
            (Benchmark::Arrhythmia, 8),
        ] {
            let (train_data, _) = bench.load_quantized(bits).unwrap();
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
                for stride in [1, 2, 64] {
                    let mut config = CartConfig::with_max_depth(8);
                    config.threshold_strides = vec![stride; train_data.n_features()];
                    let want = split_candidates(&train_data, subset, &config);
                    let ids: Vec<u32> = subset.iter().map(|&i| i as u32).collect();
                    let got = engine.candidates(&ids, &config);
                    let at = format!("{bench:?}/{bits} bits/{name}/stride {stride}");
                    assert_eq!(got.len(), want.len(), "{at}");
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!((g.feature, g.threshold), (w.feature, w.threshold), "{at}");
                        assert_eq!(
                            g.gini.to_bits(),
                            w.gini.to_bits(),
                            "{at} f{} t{}",
                            g.feature,
                            g.threshold
                        );
                    }
                }
            }
        }
    }

    /// The depth selection the one-walk scoring replaced, kept as an
    /// oracle: every cap's truncation materialised and scored by
    /// [`DecisionTree::accuracy`] on both splits.
    fn depth_selected_oracle(
        train_data: &QuantizedDataset,
        test_data: &QuantizedDataset,
        max_depth: usize,
    ) -> TrainedModel {
        let index = DatasetIndex::new(train_data);
        let mut arena = IndexArena::new();
        arena.reset_identity(train_data.len());
        let deep = grow(
            &mut SplitEngine::new(&index),
            &mut arena,
            &CartConfig::with_max_depth(max_depth),
            best_split,
        );
        let mut best: Option<TrainedModel> = None;
        for depth in 1..=max_depth {
            let tree = deep.truncated(depth);
            let model = TrainedModel {
                train_accuracy: tree.accuracy(train_data),
                test_accuracy: tree.accuracy(test_data),
                tree,
                depth,
            };
            if best
                .as_ref()
                .is_none_or(|b| model.test_accuracy > b.test_accuracy + 1e-12)
            {
                best = Some(model);
            }
        }
        best.expect("at least one depth trained")
    }

    /// The tree, depth and both accuracies' bits of the one-walk depth
    /// selection equal the oracle's.
    fn assert_depth_selection_matches_oracle(
        train_data: &QuantizedDataset,
        test_data: &QuantizedDataset,
        max_depth: usize,
        at: &str,
    ) {
        let want = depth_selected_oracle(train_data, test_data, max_depth);
        let got = train_depth_selected(train_data, test_data, max_depth);
        assert_eq!(got.tree, want.tree, "{at}");
        assert_eq!(got.depth, want.depth, "{at}");
        assert_eq!(
            got.train_accuracy.to_bits(),
            want.train_accuracy.to_bits(),
            "{at}"
        );
        assert_eq!(
            got.test_accuracy.to_bits(),
            want.test_accuracy.to_bits(),
            "{at}"
        );
    }

    #[test]
    fn one_walk_depth_selection_matches_the_per_depth_oracle() {
        for bench in Benchmark::ALL {
            let (train_data, test_data) = bench.load_quantized(4).unwrap();
            let index = DatasetIndex::new(&train_data);
            for max_depth in 1..=8 {
                let at = format!("{bench} max_depth {max_depth}");
                assert_depth_selection_matches_oracle(&train_data, &test_data, max_depth, &at);
                assert_eq!(
                    train_depth_selected_with_index(&train_data, &index, &test_data, max_depth),
                    train_depth_selected(&train_data, &test_data, max_depth),
                    "{at}: the shared index changes nothing"
                );
            }
        }
    }

    proptest::proptest! {
        /// The one-walk depth selection equals the per-depth oracle on
        /// random data at 1..=8 bits and caps 1..=8, and on degenerate
        /// training sets cut from it — one class, constant features, one
        /// sample — each of which grows a root leaf. Test labels run past
        /// the training classes, so some are never predicted.
        #[test]
        fn one_walk_depth_selection_matches_the_oracle_on_random_data(
            rows in proptest::collection::vec(
                (proptest::collection::vec(0.0f64..1.0, 3), 0usize..4),
                1..60,
            ),
            test_rows in proptest::collection::vec(
                (proptest::collection::vec(0.0f64..1.0, 3), 0usize..5),
                1..40,
            ),
            bits in 1u32..=8,
            max_depth in 1usize..=8,
        ) {
            let quantized = |rows: Vec<(Vec<f64>, usize)>| {
                let ds = Dataset::from_rows("prop", 3, rows).unwrap();
                QuantizedDataset::from_dataset(&ds, bits)
            };
            let test_data = quantized(test_rows);
            let first = rows[0].clone();
            let one_class = rows.iter().map(|(s, _)| (s.clone(), first.1)).collect();
            let constant = rows.iter().map(|(_, label)| (first.0.clone(), *label)).collect();
            for (name, train_rows) in [
                ("random", rows.clone()),
                ("one class", one_class),
                ("constant features", constant),
                ("one sample", vec![first]),
            ] {
                let train_data = quantized(train_rows);
                let at = format!("{name}, {bits} bits, max_depth {max_depth}");
                assert_depth_selection_matches_oracle(&train_data, &test_data, max_depth, &at);
            }
        }
    }

    /// A recursive depth-first CART grower, kept as an oracle: the same
    /// choices as [`grow`] with [`best_split`], laid out in pre-order.
    fn depth_first_oracle(
        data: &QuantizedDataset,
        index: &DatasetIndex,
        config: &CartConfig,
    ) -> DecisionTree {
        fn recurse(
            (data, engine): (&QuantizedDataset, &mut SplitEngine<'_>),
            arena: &mut IndexArena,
            config: &CartConfig,
            (start, len, depth): (usize, usize, usize),
            nodes: &mut Vec<Node>,
        ) -> usize {
            // The node's stop rules through the scalar subset helpers.
            let subset: Vec<usize> = arena
                .slice(start, len)
                .iter()
                .map(|&id| id as usize)
                .collect();
            let best = if depth >= config.max_depth
                || len < config.min_samples_split
                || is_pure(data, &subset)
            {
                None
            } else {
                best_split(engine.candidates(arena.slice(start, len), config))
            };
            let Some(best) = best else {
                let class = majority_class(data, &subset);
                nodes.push(Node::Leaf { class });
                return nodes.len() - 1;
            };
            let column = engine.index().column(best.feature);
            let lo_len = arena.partition(start, len, column, best.threshold);
            let me = nodes.len();
            nodes.push(Node::Leaf { class: 0 }); // placeholder
            let lo = recurse(
                (data, engine),
                arena,
                config,
                (start, lo_len, depth + 1),
                nodes,
            );
            let hi = recurse(
                (data, engine),
                arena,
                config,
                (start + lo_len, len - lo_len, depth + 1),
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
        let mut engine = SplitEngine::new(index);
        let mut arena = IndexArena::new();
        arena.reset_identity(data.len());
        let mut nodes = Vec::new();
        recurse(
            (data, &mut engine),
            &mut arena,
            config,
            (0, data.len(), 0),
            &mut nodes,
        );
        DecisionTree::from_nodes(data.bits(), data.n_features(), data.n_classes(), nodes).unwrap()
    }

    #[test]
    fn breadth_first_growth_matches_the_depth_first_oracle() {
        // Same splits and leaves at every depth, full precision and
        // stride 2; only the node layout moves from pre-order to BFS.
        for bench in Benchmark::ALL {
            let (train_data, _) = bench.load_quantized(4).unwrap();
            let index = DatasetIndex::new(&train_data);
            for depth in 1..=8 {
                for strides in [Vec::new(), vec![2; train_data.n_features()]] {
                    let config = CartConfig {
                        threshold_strides: strides,
                        ..CartConfig::with_max_depth(depth)
                    };
                    let oracle = depth_first_oracle(&train_data, &index, &config);
                    let relaid = oracle.truncated(usize::MAX, &oracle.node_majorities(&train_data));
                    assert_eq!(
                        train_with_index(&train_data, &index, &config),
                        relaid,
                        "{bench} depth {depth}"
                    );
                }
            }
        }
    }

    #[test]
    fn depth_selection_equals_training_at_every_depth() {
        for bench in Benchmark::ALL {
            let (train_data, test_data) = bench.load_quantized(4).unwrap();
            let index = DatasetIndex::new(&train_data);
            // The per-depth loop one truncated tree replaces.
            let mut want: Option<TrainedModel> = None;
            for depth in 1..=8 {
                let tree =
                    train_with_index(&train_data, &index, &CartConfig::with_max_depth(depth));
                let model = TrainedModel {
                    train_accuracy: tree.accuracy(&train_data),
                    test_accuracy: tree.accuracy(&test_data),
                    tree,
                    depth,
                };
                if want
                    .as_ref()
                    .is_none_or(|b| model.test_accuracy > b.test_accuracy + 1e-12)
                {
                    want = Some(model);
                }
            }
            assert_eq!(
                train_depth_selected(&train_data, &test_data, 8),
                want.unwrap(),
                "{bench}"
            );
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
    #[should_panic(expected = "test samples have 1 features, the training set 2")]
    fn depth_selection_rejects_a_test_set_with_fewer_features() {
        // The tree splits on feature 0 only, so without the check the walk
        // would score the short test set without complaint.
        let train_data = quantized(vec![(vec![0.1, 0.5], 0), (vec![0.9, 0.5], 1)], 2);
        let test_data = quantized(vec![(vec![0.1], 0), (vec![0.9], 1)], 1);
        train_depth_selected(&train_data, &test_data, 2);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn engine_rejects_empty_node() {
        let (train_data, _) = Benchmark::Seeds.load_quantized(4).unwrap();
        let index = DatasetIndex::new(&train_data);
        SplitEngine::new(&index).candidates(&[], &CartConfig::default());
    }
}
