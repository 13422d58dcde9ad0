//! The parallel unary decision-tree architecture (paper §III-A).
//!
//! With inputs delivered as unary digits, every comparison `I ≥ C` of a
//! bespoke decision tree is just the wire `U_C` of input `I`'s ADC — so the
//! whole tree collapses to, per class label, a two-level AND–OR over unary
//! literals (Fig. 2 of the paper). [`UnaryClassifier`] performs that
//! transformation: it extracts the distinct `(feature, tap)` literals, one
//! sum-of-products per class from the root-to-leaf paths, applies safe
//! two-level simplification, and can lower itself to a gate-level netlist
//! and a [`BespokeAdcBank`].
//!
//! ```
//! use printed_codesign::unary::UnaryClassifier;
//! use printed_dtree::{DecisionTree, Node};
//!
//! let tree = DecisionTree::from_nodes(4, 2, 2, vec![
//!     Node::Split { feature: 0, threshold: 9, lo: 1, hi: 2 },
//!     Node::Leaf { class: 0 },
//!     Node::Leaf { class: 1 },
//! ])?;
//! let unary = UnaryClassifier::from_tree(&tree);
//! assert_eq!(unary.literals(), &[(0, 9)]);       // one retained comparator
//! assert_eq!(unary.predict(&[12, 0]), Some(1));  // U_9 of input 0 is high
//! # Ok::<(), printed_dtree::TreeError>(())
//! ```

use std::collections::BTreeSet;

use printed_adc::BespokeAdcBank;
use printed_datasets::{QuantizedDataset, ThermometerPlanes};
use printed_dtree::DecisionTree;
use printed_logic::netlist::Netlist;
use printed_logic::sop::{Cube, PackedCover, Sop};

/// A decision tree re-expressed as per-class two-level logic over unary
/// literals.
#[derive(Debug, Clone, PartialEq)]
pub struct UnaryClassifier {
    bits: u32,
    n_features: usize,
    /// Variable order: variable `v` is the unary digit `U_tap` of
    /// `feature`, i.e. the wire `sample[feature] ≥ tap`.
    literals: Vec<(usize, u8)>,
    /// One cover per class, over the variables above.
    class_sops: Vec<Sop>,
    /// Root-to-leaf paths in tree order: `(literals-in-path-order, class)`.
    /// Kept alongside the covers because the physical netlist shares the
    /// AND of common path prefixes (as in the paper's Fig. 2b), which the
    /// variable-sorted covers cannot express.
    paths: Vec<(Vec<(usize, bool)>, usize)>,
}

impl UnaryClassifier {
    /// Transforms a trained tree into the unary architecture.
    ///
    /// Every distinct `(feature, threshold)` pair becomes one variable (=
    /// one retained ADC comparator); every root-to-leaf path becomes a cube
    /// of its class's cover. Covers are simplified with the
    /// equivalence-preserving rules of `printed-logic` (absorption,
    /// adjacent-cube merging), which is what turns sibling leaves of the
    /// same class back into shorter products.
    pub fn from_tree(tree: &DecisionTree) -> Self {
        let timer = printed_telemetry::KernelTimer::start(printed_telemetry::Kernel::ThermoEncode);
        let literal_set: BTreeSet<(usize, u8)> = tree.distinct_pairs();
        let literals: Vec<(usize, u8)> = literal_set.into_iter().collect();
        let var_of = |feature: usize, tap: u8| -> usize {
            literals
                .binary_search(&(feature, tap))
                .expect("every path condition is a distinct pair")
        };

        let mut class_cubes: Vec<Vec<Cube>> = vec![Vec::new(); tree.n_classes()];
        let mut paths = Vec::new();
        for path in tree.paths() {
            let lits: Vec<(usize, bool)> = path
                .conditions
                .iter()
                .map(|&(f, th, pol)| (var_of(f, th), pol))
                .collect();
            // A path testing the same pair with both outcomes is
            // unreachable (its cube is constant false): drop it. Trained
            // trees never produce these, but hand-built or randomly
            // generated trees can.
            let Some(cube) = Cube::try_from_literals(&lits) else {
                continue;
            };
            class_cubes[path.class].push(cube);
            paths.push((lits, path.class));
        }
        let class_sops = class_cubes
            .into_iter()
            .map(|cubes| Sop::from_cubes(literals.len(), cubes).simplified())
            .collect();
        timer.finish(paths.len() as u64);
        Self {
            bits: tree.bits(),
            n_features: tree.n_features(),
            literals,
            class_sops,
            paths,
        }
    }

    /// Input precision in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Feature-space dimensionality.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.class_sops.len()
    }

    /// The distinct `(feature, tap)` literals, ascending — one retained
    /// ADC comparator each.
    pub fn literals(&self) -> &[(usize, u8)] {
        &self.literals
    }

    /// The two-level cover of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn class_sop(&self, class: usize) -> &Sop {
        &self.class_sops[class]
    }

    /// All class covers, indexed by class label (what the static-analysis
    /// passes consume).
    pub fn class_sops(&self) -> &[Sop] {
        &self.class_sops
    }

    /// Total AND-term count across classes (a two-level size metric).
    pub fn term_count(&self) -> usize {
        self.class_sops.iter().map(|s| s.cubes().len()).sum()
    }

    /// Evaluates the unary literals for a quantized sample.
    fn assignment(&self, sample: &[u8]) -> Vec<bool> {
        self.literals
            .iter()
            .map(|&(f, tap)| sample[f] >= tap)
            .collect()
    }

    /// Predicts by evaluating the per-class covers. Returns `None` if the
    /// one-hot invariant is violated (impossible for classifiers built by
    /// [`UnaryClassifier::from_tree`]; meaningful when experimenting with
    /// hand-edited covers).
    ///
    /// # Panics
    ///
    /// Panics if `sample.len() < self.n_features()`.
    pub fn predict(&self, sample: &[u8]) -> Option<usize> {
        assert!(sample.len() >= self.n_features, "sample too short");
        let assignment = self.assignment(sample);
        let mut hit = None;
        for (class, sop) in self.class_sops.iter().enumerate() {
            if sop.eval(&assignment) {
                if hit.is_some() {
                    return None; // two classes asserted
                }
                hit = Some(class);
            }
        }
        hit
    }

    /// The bespoke ADC bank this classifier needs: one comparator per
    /// literal.
    ///
    /// # Panics
    ///
    /// Panics if a literal's tap is invalid — impossible for classifiers
    /// built from validated trees.
    pub fn adc_bank(&self) -> BespokeAdcBank {
        let mut bank = BespokeAdcBank::new(self.bits);
        for &(feature, tap) in &self.literals {
            bank.require(feature, tap as usize)
                .expect("tree thresholds are valid taps");
        }
        bank
    }

    /// Lowers the classifier to the paper's physical netlist (Fig. 2b):
    /// per path a left-deep AND chain *in path order*, so sibling paths
    /// share the AND of their common prefix (structural hashing makes the
    /// sharing automatic), then one OR per class over its leaf signals.
    ///
    /// Inputs: one signal per unary literal, in [`UnaryClassifier::literals`]
    /// order, named `u{feature}_{tap}` — these are wires straight from the
    /// bespoke ADC comparators. Outputs: one one-hot signal per class.
    pub fn to_netlist(&self) -> Netlist {
        let timer = printed_telemetry::KernelTimer::start(printed_telemetry::Kernel::NetlistSynth);
        let mut nl = Netlist::new(format!("unary-{}lit", self.literals.len()));
        let vars: Vec<_> = self
            .literals
            .iter()
            .map(|&(f, tap)| nl.input(format!("u{f}_{tap}")))
            .collect();
        let mut class_terms: Vec<Vec<printed_logic::Signal>> =
            vec![Vec::new(); self.class_sops.len()];
        for (lits, class) in &self.paths {
            let mut acc = printed_logic::Signal::Const(true);
            for &(var, pol) in lits {
                let lit = if pol {
                    vars[var]
                } else {
                    nl.gate(printed_pdk::CellKind::Inv, &[vars[var]])
                };
                acc = nl.gate(printed_pdk::CellKind::And2, &[acc, lit]);
            }
            class_terms[*class].push(acc);
        }
        for (class, terms) in class_terms.into_iter().enumerate() {
            let out = printed_logic::blocks::or_tree(&mut nl, &terms);
            nl.output(format!("class{class}"), out);
        }
        nl.prune();
        timer.finish(nl.gate_count() as u64);
        nl
    }

    /// Lowers the classifier to pure two-level logic (one AND tree per
    /// simplified cube, one OR per class) with no cross-cube sharing — the
    /// textbook AND–OR form, kept as an ablation target against
    /// [`UnaryClassifier::to_netlist`]'s prefix-shared structure.
    pub fn to_two_level_netlist(&self) -> Netlist {
        let mut nl = Netlist::new(format!("unary2l-{}lit", self.literals.len()));
        let vars: Vec<_> = self
            .literals
            .iter()
            .map(|&(f, tap)| nl.input(format!("u{f}_{tap}")))
            .collect();
        for (class, sop) in self.class_sops.iter().enumerate() {
            let out = sop.lower(&mut nl, &vars);
            nl.output(format!("class{class}"), out);
        }
        nl.prune();
        nl
    }

    /// Lowers the classifier in NAND–NAND form — the inverting-stage-native
    /// mapping for resistive-load printed logic (see
    /// [`printed_logic::sop::Sop::lower_nand_nand`]). Same function as
    /// [`UnaryClassifier::to_two_level_netlist`], usually cheaper.
    pub fn to_nand_nand_netlist(&self) -> Netlist {
        let mut nl = Netlist::new(format!("unarynn-{}lit", self.literals.len()));
        let vars: Vec<_> = self
            .literals
            .iter()
            .map(|&(f, tap)| nl.input(format!("u{f}_{tap}")))
            .collect();
        for (class, sop) in self.class_sops.iter().enumerate() {
            let out = sop.lower_nand_nand(&mut nl, &vars);
            nl.output(format!("class{class}"), out);
        }
        nl.prune();
        nl
    }

    /// Encodes a quantized sample as the netlist input assignment (the
    /// unary digits the ADC bank would produce).
    pub fn encode_sample(&self, sample: &[u8]) -> Vec<bool> {
        self.assignment(sample)
    }

    /// True when a raw literal assignment is *thermometer-consistent*: for
    /// any two literals of the same feature, the higher tap being 1 implies
    /// the lower tap is 1. Assignments violating this can never appear at
    /// the ADC outputs, so they are structural don't-cares for logic
    /// minimization.
    pub fn is_feasible_assignment(&self, assignment: &[bool]) -> bool {
        assert_eq!(
            assignment.len(),
            self.literals.len(),
            "one value per literal"
        );
        for i in 1..self.literals.len() {
            let (f_prev, _) = self.literals[i - 1];
            let (f, _) = self.literals[i];
            // Literals are sorted by (feature, tap): within a feature run,
            // taps ascend, so each digit must imply its predecessor.
            if f == f_prev && assignment[i] && !assignment[i - 1] {
                return false;
            }
        }
        true
    }

    /// Exactly minimizes every class cover with Quine–McCluskey, using the
    /// thermometer-infeasible assignments as don't-cares — an optimization
    /// beyond the paper's two-level form that is only available *because*
    /// the inputs are unary.
    ///
    /// Returns `None` when the classifier has more than `max_literals`
    /// variables (QM enumerates the full assignment space).
    pub fn minimized_covers(&self, max_literals: usize) -> Option<Vec<Sop>> {
        let n = self.literals.len();
        if n > max_literals || n > 16 {
            return None;
        }
        if n == 0 {
            return Some(self.class_sops.clone());
        }
        // The 2^n sweep runs on packed covers: each minterm `m` *is* the
        // packed assignment word, feasibility is one mask expression, and
        // cover membership is word compares — no per-minterm Vec<bool>.
        let packed: Vec<PackedCover> = self.class_sops.iter().map(PackedCover::from_sop).collect();
        // `adj` marks literals sharing a feature with their predecessor
        // (literals are sorted by (feature, tap), so a feature's taps form
        // one ascending run). Thermometer-infeasible ⇔ some marked literal
        // is 1 while its predecessor is 0: `(m & adj) & !(m << 1) != 0` —
        // the mask form of [`UnaryClassifier::is_feasible_assignment`].
        let mut adj = 0u64;
        for i in 1..n {
            if self.literals[i].0 == self.literals[i - 1].0 {
                adj |= 1u64 << i;
            }
        }
        let mut onsets: Vec<Vec<u32>> = vec![Vec::new(); self.class_sops.len()];
        let mut dc: Vec<u32> = Vec::new();
        for m in 0..(1u32 << n) {
            let w = m as u64;
            if (w & adj) & !(w << 1) != 0 {
                dc.push(m);
                continue;
            }
            for (class, cover) in packed.iter().enumerate() {
                if cover.eval_words(&[w]) {
                    onsets[class].push(m);
                }
            }
        }
        Some(
            onsets
                .iter()
                .map(|onset| printed_logic::qm::minimize(n, onset, &dc))
                .collect(),
        )
    }

    /// Fraction of the samples behind `planes` classified correctly, 64
    /// samples per word: each cube is the AND of its literals' planes
    /// (complemented for negative literals), each class line the OR of its
    /// cubes, and a sample counts when exactly one line is asserted and it
    /// is its label's — the [`decode_one_hot`](crate::decode_one_hot) rule
    /// as word operations. For tree-derived classifiers this equals
    /// `tree.accuracy(data)` exactly.
    ///
    /// # Panics
    ///
    /// Panics if `planes` holds no sample or is narrower than the feature
    /// space.
    pub fn accuracy_on(&self, planes: &ThermometerPlanes) -> f64 {
        sliced_accuracy(
            &self.literals,
            self.n_features,
            self.class_sops
                .iter()
                .map(|sop| sop.cubes().iter().map(Cube::literals)),
            planes,
        )
    }

    /// Compiles the classifier's covers to bit-parallel word masks for
    /// fast repeated per-sample prediction.
    pub fn packed(&self) -> PackedClassifier {
        let covers: Vec<PackedCover> = self.class_sops.iter().map(PackedCover::from_sop).collect();
        let words = PackedCover::words_for(self.literals.len());
        PackedClassifier {
            n_features: self.n_features,
            literals: self.literals.clone(),
            covers,
            words,
        }
    }

    /// Lowers the QM-minimized covers (see
    /// [`UnaryClassifier::minimized_covers`]) to a netlist. Returns `None`
    /// when the classifier exceeds `max_literals`.
    ///
    /// Note: because minimization exploits don't-cares, the outputs are
    /// only guaranteed to match [`UnaryClassifier::predict`] on *feasible*
    /// (thermometer-consistent) inputs — which is every input a physical
    /// ADC bank can produce.
    pub fn to_minimized_netlist(&self, max_literals: usize) -> Option<Netlist> {
        let covers = self.minimized_covers(max_literals)?;
        let mut nl = Netlist::new(format!("unaryqm-{}lit", self.literals.len()));
        let vars: Vec<_> = self
            .literals
            .iter()
            .map(|&(f, tap)| nl.input(format!("u{f}_{tap}")))
            .collect();
        for (class, sop) in covers.iter().enumerate() {
            let out = sop.lower_nand_nand(&mut nl, &vars);
            nl.output(format!("class{class}"), out);
        }
        nl.prune();
        Some(nl)
    }
}

/// A [`UnaryClassifier`] compiled to bit-packed thermometer words: the
/// literal assignment of a sample is a `u64` word vector (bit `v` =
/// `sample[f_v] ≥ tap_v`) and every class cover is a [`PackedCover`], so
/// one prediction is a handful of word AND+compare operations.
///
/// Exact: [`predict`](Self::predict) returns precisely what
/// [`UnaryClassifier::predict`] returns on every sample (the packing and
/// the packed cover evaluation are both exact — pinned by tests).
/// [`accuracy`](Self::accuracy) scores a whole dataset bit-sliced, with
/// the evaluator of [`UnaryClassifier::accuracy_on`]; for classifiers
/// built from a tree it is the tree's own accuracy.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedClassifier {
    n_features: usize,
    literals: Vec<(usize, u8)>,
    covers: Vec<PackedCover>,
    words: usize,
}

impl PackedClassifier {
    /// Feature-space dimensionality.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.covers.len()
    }

    /// Words per packed literal assignment.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Packs a quantized sample's thermometer assignment into `out`
    /// (cleared and refilled): bit `v` is `sample[f] ≥ tap` for literal
    /// `v = (f, tap)`.
    ///
    /// # Panics
    ///
    /// Panics if `sample.len() < self.n_features()`.
    pub fn assignment_into(&self, sample: &[u8], out: &mut Vec<u64>) {
        assert!(sample.len() >= self.n_features, "sample too short");
        out.clear();
        out.resize(self.words, 0);
        for (v, &(f, tap)) in self.literals.iter().enumerate() {
            if sample[f] >= tap {
                out[v / 64] |= 1u64 << (v % 64);
            }
        }
    }

    /// One-hot prediction over a packed assignment; `None` when zero or
    /// two classes assert (same contract as [`UnaryClassifier::predict`]).
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() < self.words()`.
    pub fn predict_packed(&self, assignment: &[u64]) -> Option<usize> {
        let mut hit = None;
        for (class, cover) in self.covers.iter().enumerate() {
            if cover.eval_words(assignment) {
                if hit.is_some() {
                    return None; // two classes asserted
                }
                hit = Some(class);
            }
        }
        hit
    }

    /// Packs and predicts — prefer [`predict_packed`](Self::predict_packed)
    /// with a reused buffer in hot loops.
    ///
    /// # Panics
    ///
    /// Panics if `sample.len() < self.n_features()`.
    pub fn predict(&self, sample: &[u8]) -> Option<usize> {
        let mut packed = Vec::with_capacity(self.words);
        self.assignment_into(sample, &mut packed);
        self.predict_packed(&packed)
    }

    /// Fraction of `data` classified correctly (a `None` prediction counts
    /// as wrong): builds the [`ThermometerPlanes`] of `data` and scores
    /// them with the evaluator of [`UnaryClassifier::accuracy_on`]. For
    /// tree-derived classifiers this equals `tree.accuracy(data)` exactly.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or narrower than the feature space.
    pub fn accuracy(&self, data: &QuantizedDataset) -> f64 {
        sliced_accuracy(
            &self.literals,
            self.n_features,
            self.covers
                .iter()
                .map(|cover| (0..cover.n_cubes()).map(|i| cover.cube_literals(i))),
            &ThermometerPlanes::new(data),
        )
    }
}

/// The bit-sliced scorer behind [`UnaryClassifier::accuracy_on`]: `covers`
/// yields, per class, its cubes as `(variable, polarity)` literals over
/// `literals`.
fn sliced_accuracy<Cubes, Literals>(
    literals: &[(usize, u8)],
    n_features: usize,
    covers: impl Iterator<Item = Cubes>,
    planes: &ThermometerPlanes,
) -> f64
where
    Cubes: Iterator<Item = Literals>,
    Literals: Iterator<Item = (usize, bool)>,
{
    assert!(!planes.is_empty(), "cannot score an empty dataset");
    assert!(
        planes.n_features() >= n_features,
        "dataset narrower than the feature space"
    );
    let words = planes.words();
    let (mut cube, mut line) = (vec![0u64; words], vec![0u64; words]);
    let (mut ones, mut twos, mut hit) = (vec![0u64; words], vec![0u64; words], vec![0u64; words]);
    for (class, cubes) in covers.enumerate() {
        line.fill(0);
        for cube_literals in cubes {
            cube.fill(!0);
            for (v, positive) in cube_literals {
                let (feature, tap) = literals[v];
                let flip = if positive { 0 } else { !0 };
                for (c, &p) in cube.iter_mut().zip(planes.plane(feature, tap)) {
                    *c &= p ^ flip;
                }
            }
            for (l, &c) in line.iter_mut().zip(cube.iter()) {
                *l |= c;
            }
        }
        let label = planes.class_mask(class);
        for w in 0..words {
            twos[w] |= ones[w] & line[w];
            ones[w] |= line[w];
            hit[w] |= line[w] & label[w];
        }
    }
    let correct: u32 = (0..words)
        .map(|w| (hit[w] & ones[w] & !twos[w] & planes.valid(w)).count_ones())
        .sum();
    correct as f64 / planes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use printed_datasets::Benchmark;
    use printed_dtree::cart::{train, train_depth_selected, CartConfig};
    use printed_dtree::Node;

    fn fig2_tree() -> DecisionTree {
        // Three features, three classes, nested splits — the shape of the
        // paper's Fig. 2 example.
        DecisionTree::from_nodes(
            4,
            5,
            3,
            vec![
                Node::Split {
                    feature: 1,
                    threshold: 3,
                    lo: 1,
                    hi: 4,
                },
                Node::Split {
                    feature: 4,
                    threshold: 2,
                    lo: 2,
                    hi: 3,
                },
                Node::Leaf { class: 0 },
                Node::Leaf { class: 1 },
                Node::Split {
                    feature: 2,
                    threshold: 6,
                    lo: 5,
                    hi: 6,
                },
                Node::Leaf { class: 2 },
                Node::Leaf { class: 0 },
            ],
        )
        .unwrap()
    }

    #[test]
    fn literals_are_distinct_pairs() {
        let u = UnaryClassifier::from_tree(&fig2_tree());
        assert_eq!(u.literals(), &[(1, 3), (2, 6), (4, 2)]);
    }

    #[test]
    fn prediction_matches_tree_exhaustively() {
        let tree = fig2_tree();
        let u = UnaryClassifier::from_tree(&tree);
        for a in (0..16u8).step_by(3) {
            for b in 0..16u8 {
                for c in (0..16u8).step_by(2) {
                    for e in 0..8u8 {
                        let sample = [a, b, c, 0, e];
                        assert_eq!(u.predict(&sample), Some(tree.predict(&sample)));
                    }
                }
            }
        }
    }

    #[test]
    fn netlist_matches_tree_on_benchmark() {
        let (train_data, test_data) = Benchmark::Vertebral3C.load_quantized(4).unwrap();
        let model = train_depth_selected(&train_data, &test_data, 6);
        let u = UnaryClassifier::from_tree(&model.tree);
        let nl = u.to_netlist();
        for (sample, _) in test_data.iter() {
            let outs = nl.eval(&u.encode_sample(sample));
            let hot: Vec<usize> = outs
                .iter()
                .enumerate()
                .filter(|(_, &o)| o)
                .map(|(c, _)| c)
                .collect();
            assert_eq!(hot.len(), 1, "one-hot violated for {sample:?}");
            assert_eq!(hot[0], model.tree.predict(sample));
        }
    }

    #[test]
    fn one_hot_invariant_over_random_inputs() {
        let (train_data, _) = Benchmark::Cardio.load_quantized(4).unwrap();
        let tree = train(&train_data, &CartConfig::with_max_depth(5));
        let u = UnaryClassifier::from_tree(&tree);
        // Pseudo-random probing of the input space.
        let mut state = 0x9e3779b9u32;
        for _ in 0..500 {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            let sample: Vec<u8> = (0..train_data.n_features())
                .map(|f| ((state >> (f % 4)) & 15) as u8)
                .collect();
            assert!(u.predict(&sample).is_some());
        }
    }

    #[test]
    fn simplification_shrinks_sibling_leaves() {
        // A tree whose two deepest leaves share a class: x0≥8 ? (x1≥4 ? A : A) : B
        // collapses the x1 test out of class A's cover.
        let tree = DecisionTree::from_nodes(
            4,
            2,
            2,
            vec![
                Node::Split {
                    feature: 0,
                    threshold: 8,
                    lo: 1,
                    hi: 2,
                },
                Node::Leaf { class: 1 },
                Node::Split {
                    feature: 1,
                    threshold: 4,
                    lo: 3,
                    hi: 4,
                },
                Node::Leaf { class: 0 },
                Node::Leaf { class: 0 },
            ],
        )
        .unwrap();
        let u = UnaryClassifier::from_tree(&tree);
        // Class 0's cover must be the single literal (0,8).
        assert_eq!(u.class_sop(0).cubes().len(), 1);
        assert_eq!(u.class_sop(0).literal_count(), 1);
    }

    #[test]
    fn all_three_netlist_styles_agree_with_the_tree() {
        let (train_data, test_data) = Benchmark::Seeds.load_quantized(4).unwrap();
        let model = train_depth_selected(&train_data, &test_data, 5);
        let u = UnaryClassifier::from_tree(&model.tree);
        for netlist in [
            u.to_netlist(),
            u.to_two_level_netlist(),
            u.to_nand_nand_netlist(),
        ] {
            for (sample, _) in test_data.iter() {
                let outs = netlist.eval(&u.encode_sample(sample));
                let hot: Vec<usize> = outs
                    .iter()
                    .enumerate()
                    .filter(|(_, &o)| o)
                    .map(|(c, _)| c)
                    .collect();
                assert_eq!(hot, vec![model.tree.predict(sample)], "{}", netlist.name());
            }
        }
    }

    #[test]
    fn nand_nand_is_cheapest_two_level_style() {
        use printed_logic::report::{analyze, AnalysisConfig};
        use printed_pdk::CellLibrary;
        let (train_data, test_data) = Benchmark::Vertebral3C.load_quantized(4).unwrap();
        let model = train_depth_selected(&train_data, &test_data, 6);
        let u = UnaryClassifier::from_tree(&model.tree);
        let lib = CellLibrary::egfet();
        let cfg = AnalysisConfig::printed_20hz();
        let two = analyze(&u.to_two_level_netlist(), &lib, &cfg);
        let nand = analyze(&u.to_nand_nand_netlist(), &lib, &cfg);
        assert!(
            nand.static_power <= two.static_power,
            "NAND-NAND {} vs AND-OR {}",
            nand.static_power,
            two.static_power
        );
    }

    #[test]
    fn adc_bank_mirrors_literals() {
        let u = UnaryClassifier::from_tree(&fig2_tree());
        let bank = u.adc_bank();
        assert_eq!(bank.comparator_count(), 3);
        assert_eq!(bank.taps_of(1), vec![3]);
        assert_eq!(bank.taps_of(2), vec![6]);
        assert_eq!(bank.taps_of(4), vec![2]);
        assert_eq!(bank.input_count(), 3);
    }

    #[test]
    fn constant_tree_has_no_literals() {
        let tree = DecisionTree::constant(4, 3, 2, 1);
        let u = UnaryClassifier::from_tree(&tree);
        assert!(u.literals().is_empty());
        assert_eq!(u.predict(&[0, 0, 0]), Some(1));
        let nl = u.to_netlist();
        assert_eq!(nl.gate_count(), 0);
    }

    #[test]
    fn feasibility_encodes_thermometer_monotonicity() {
        // Two literals on feature 1 (taps 3 and 9) plus one on feature 2.
        let tree = DecisionTree::from_nodes(
            4,
            3,
            2,
            vec![
                Node::Split {
                    feature: 1,
                    threshold: 3,
                    lo: 1,
                    hi: 2,
                },
                Node::Leaf { class: 0 },
                Node::Split {
                    feature: 1,
                    threshold: 9,
                    lo: 3,
                    hi: 4,
                },
                Node::Leaf { class: 0 },
                Node::Split {
                    feature: 2,
                    threshold: 5,
                    lo: 5,
                    hi: 6,
                },
                Node::Leaf { class: 0 },
                Node::Leaf { class: 1 },
            ],
        )
        .unwrap();
        let u = UnaryClassifier::from_tree(&tree);
        assert_eq!(u.literals(), &[(1, 3), (1, 9), (2, 5)]);
        // U_9 high with U_3 low is physically impossible.
        assert!(!u.is_feasible_assignment(&[false, true, false]));
        assert!(u.is_feasible_assignment(&[true, true, true]));
        assert!(u.is_feasible_assignment(&[true, false, true]));
        assert!(u.is_feasible_assignment(&[false, false, true]));
    }

    #[test]
    fn qm_minimized_netlist_matches_on_all_quantized_inputs() {
        let (train_data, test_data) = Benchmark::Vertebral3C.load_quantized(4).unwrap();
        let model = train_depth_selected(&train_data, &test_data, 4);
        let u = UnaryClassifier::from_tree(&model.tree);
        let Some(nl) = u.to_minimized_netlist(10) else {
            // Tree too large for QM on this seed — nothing to check.
            return;
        };
        for (sample, _) in test_data.iter() {
            let outs = nl.eval(&u.encode_sample(sample));
            let hot: Vec<usize> = outs
                .iter()
                .enumerate()
                .filter(|(_, &o)| o)
                .map(|(c, _)| c)
                .collect();
            assert_eq!(hot, vec![model.tree.predict(sample)], "{sample:?}");
        }
    }

    #[test]
    fn qm_minimization_never_increases_literal_cost() {
        let (train_data, test_data) = Benchmark::Seeds.load_quantized(4).unwrap();
        let model = train_depth_selected(&train_data, &test_data, 4);
        let u = UnaryClassifier::from_tree(&model.tree);
        if let Some(covers) = u.minimized_covers(10) {
            for (class, minimized) in covers.iter().enumerate() {
                assert!(
                    minimized.literal_count() <= u.class_sop(class).literal_count(),
                    "class {class}: {} vs {}",
                    minimized.literal_count(),
                    u.class_sop(class).literal_count()
                );
            }
        }
    }

    #[test]
    fn minimized_covers_rejects_oversized_classifiers() {
        let (train_data, _) = Benchmark::Pendigits.load_quantized(4).unwrap();
        let tree = train(&train_data, &CartConfig::with_max_depth(8));
        let u = UnaryClassifier::from_tree(&tree);
        assert!(u.literals().len() > 10);
        assert!(u.minimized_covers(10).is_none());
    }

    #[test]
    fn packed_classifier_matches_unpacked_exhaustively() {
        let tree = fig2_tree();
        let u = UnaryClassifier::from_tree(&tree);
        let p = u.packed();
        for a in (0..16u8).step_by(3) {
            for b in 0..16u8 {
                for c in (0..16u8).step_by(2) {
                    for e in 0..8u8 {
                        let sample = [a, b, c, 0, e];
                        assert_eq!(p.predict(&sample), u.predict(&sample), "{sample:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn packed_accuracy_equals_tree_accuracy_on_benchmarks() {
        // The grid scorer's substitution: bit-sliced accuracy must be the
        // very same f64 as the tree's accuracy.
        for bench in [Benchmark::Seeds, Benchmark::Cardio, Benchmark::WhiteWine] {
            let (train_data, test_data) = bench.load_quantized(4).unwrap();
            let tree = train(&train_data, &CartConfig::with_max_depth(6));
            let u = UnaryClassifier::from_tree(&tree);
            let want = tree.accuracy(&test_data).to_bits();
            assert_eq!(u.packed().accuracy(&test_data).to_bits(), want, "{bench}");
            let planes = ThermometerPlanes::new(&test_data);
            assert_eq!(u.accuracy_on(&planes).to_bits(), want, "{bench}");
        }
    }

    #[test]
    fn bit_sliced_scoring_follows_the_one_hot_rule_on_edited_covers() {
        // Hand-edited covers break the one-hot invariant trees guarantee:
        // overlapping classes, a universe cube and a class without cubes.
        // Scoring must still count exactly the samples `predict` gets
        // right, including none of label 3, which no cover names.
        let x0 = Cube::from_literals(&[(0, true)]);
        let not_x2 = Cube::from_literals(&[(2, false)]);
        let edits = [
            vec![(1, Sop::from_cubes(3, vec![x0.clone()]))],
            vec![(2, Sop::constant_true(3)), (0, Sop::constant_false(3))],
            vec![(0, Sop::from_cubes(3, vec![not_x2, x0]))],
        ];
        let rows: Vec<(Vec<f64>, usize)> = (0..16 * 16 * 16 + 7)
            .map(|i: usize| {
                let level = |k: usize| ((i >> (4 * k)) % 16) as f64 / 16.0;
                (vec![0.5, level(0), level(1), 0.0, level(2)], i % 4)
            })
            .collect();
        let ds = printed_datasets::Dataset::from_rows("grid", 5, rows).unwrap();
        let data = QuantizedDataset::from_dataset(&ds, 4);
        let planes = ThermometerPlanes::new(&data);
        for edit in edits {
            let mut u = UnaryClassifier::from_tree(&fig2_tree());
            for (class, sop) in edit {
                u.class_sops[class] = sop;
            }
            let correct = data
                .iter()
                .filter(|&(sample, label)| u.predict(sample) == Some(label))
                .count();
            let want = (correct as f64 / data.len() as f64).to_bits();
            assert_eq!(u.accuracy_on(&planes).to_bits(), want);
            assert_eq!(u.packed().accuracy(&data).to_bits(), want);
        }
    }

    #[test]
    fn term_count_counts_cubes() {
        let u = UnaryClassifier::from_tree(&fig2_tree());
        // 4 leaves, but two class-0 leaves may or may not merge (different
        // support) — just check bounds.
        assert!(u.term_count() >= 3 && u.term_count() <= 4);
    }
}
