//! Hardware synthesis of tree ensembles — the printed-random-forest
//! direction the literature took after this paper.
//!
//! An ensemble amortizes the co-design's best asset: the **shared bespoke
//! ADC bank**. Every tree's unary literals draw from one comparator pool
//! (trees agreeing on a `(feature, threshold)` pair share the comparator
//! outright), each tree lowers to its prefix-shared unary logic over the
//! common inputs, and a synthesized **majority voter** merges the one-hot
//! votes. The voter implements the exact rule of
//! [`printed_dtree::Forest::predict`]: a class wins with a strict majority,
//! otherwise tree 0 decides — so circuit and model agree bit-for-bit.
//!
//! ```no_run
//! use printed_codesign::ensemble::synthesize_ensemble;
//! use printed_datasets::Benchmark;
//! use printed_dtree::forest::{train_forest, ForestConfig};
//!
//! let (train, test) = Benchmark::Seeds.load_quantized(4)?;
//! let forest = train_forest(&train, &ForestConfig::default());
//! let system = synthesize_ensemble(&forest);
//! assert!(system.is_self_powered());
//! # Ok::<(), printed_datasets::DatasetError>(())
//! ```

use std::collections::BTreeMap;

use printed_adc::{AdcCost, BespokeAdcBank};
use printed_dtree::Forest;
use printed_logic::blocks::{and_tree, or_tree};
use printed_logic::netlist::{Netlist, Signal};
use printed_logic::report::{analyze, AnalysisConfig, DesignReport};
use printed_pdk::{AnalogModel, Area, CellKind, CellLibrary, Power, HARVESTER_BUDGET};

/// A synthesized ensemble system.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleSystem {
    /// Area/power/timing of the combined logic (all trees + voter).
    pub digital: DesignReport,
    /// Cost of the shared bespoke ADC bank (union of all trees' literals).
    pub adc: AdcCost,
    /// Number of trees.
    pub tree_count: usize,
}

impl EnsembleSystem {
    /// Total system area.
    pub fn total_area(&self) -> Area {
        self.digital.area + self.adc.area
    }

    /// Total system power.
    pub fn total_power(&self) -> Power {
        self.digital.total_power() + self.adc.power
    }

    /// The 2 mW self-powering check.
    pub fn is_self_powered(&self) -> bool {
        self.total_power() < HARVESTER_BUDGET
    }
}

/// Builds the combined ensemble netlist: inputs are the union of unary
/// literals (named `u{feature}_{tap}`, ascending), outputs one-hot class
/// lines after majority voting.
pub fn ensemble_netlist(forest: &Forest) -> Netlist {
    let literals: Vec<(usize, u8)> = forest.distinct_pairs().into_iter().collect();
    let mut nl = Netlist::new(format!("ensemble-{}t", forest.trees().len()));
    let var_signals: BTreeMap<(usize, u8), Signal> = literals
        .iter()
        .map(|&(f, tap)| ((f, tap), nl.input(format!("u{f}_{tap}"))))
        .collect();

    // Per tree: prefix-shared unary logic over the common inputs.
    let n_classes = forest.n_classes();
    let mut votes: Vec<Vec<Signal>> = Vec::with_capacity(forest.trees().len());
    for tree in forest.trees() {
        let mut class_terms: Vec<Vec<Signal>> = vec![Vec::new(); n_classes];
        for path in tree.paths() {
            let mut acc = Signal::Const(true);
            for &(feature, threshold, polarity) in &path.conditions {
                let lit = var_signals[&(feature, threshold)];
                let lit = if polarity {
                    lit
                } else {
                    nl.gate(CellKind::Inv, &[lit])
                };
                acc = nl.gate(CellKind::And2, &[acc, lit]);
            }
            class_terms[path.class].push(acc);
        }
        votes.push(
            class_terms
                .into_iter()
                .map(|terms| or_tree(&mut nl, &terms))
                .collect(),
        );
    }

    // Majority voter: per class, OR over all (⌊T/2⌋+1)-subsets of trees of
    // the AND of their votes — the symmetric strict-majority function.
    let t = forest.trees().len();
    let need = t / 2 + 1;
    let subsets = k_subsets(t, need);
    let majorities: Vec<Signal> = (0..n_classes)
        .map(|class| {
            let terms: Vec<Signal> = subsets
                .iter()
                .map(|subset| {
                    let lines: Vec<Signal> =
                        subset.iter().map(|&tree| votes[tree][class]).collect();
                    and_tree(&mut nl, &lines)
                })
                .collect();
            or_tree(&mut nl, &terms)
        })
        .collect();
    // Tie fallback: when no class reaches a strict majority, tree 0 decides.
    let any_majority = or_tree(&mut nl, &majorities);
    let no_majority = nl.gate(CellKind::Inv, &[any_majority]);
    for (class, &maj) in majorities.iter().enumerate() {
        let fallback = nl.gate(CellKind::And2, &[no_majority, votes[0][class]]);
        let out = nl.gate(CellKind::Or2, &[maj, fallback]);
        nl.output(format!("class{class}"), out);
    }
    nl.prune();
    nl
}

/// All `k`-element subsets of `0..n`, lexicographic.
fn k_subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(k);
    fn recurse(
        start: usize,
        n: usize,
        k: usize,
        current: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if current.len() == k {
            out.push(current.clone());
            return;
        }
        for i in start..n {
            current.push(i);
            recurse(i + 1, n, k, current, out);
            current.pop();
        }
    }
    recurse(0, n, k, &mut current, &mut out);
    out
}

/// The shared bespoke ADC bank of the ensemble (union of literals).
pub fn ensemble_adc_bank(forest: &Forest) -> BespokeAdcBank {
    let bits = forest.trees()[0].bits();
    let mut bank = BespokeAdcBank::new(bits);
    for (feature, threshold) in forest.distinct_pairs() {
        bank.require(feature, threshold as usize)
            .expect("tree thresholds are valid taps");
    }
    bank
}

/// Encodes a quantized sample as the ensemble netlist's input assignment.
pub fn encode_ensemble_sample(forest: &Forest, sample: &[u8]) -> Vec<bool> {
    forest
        .distinct_pairs()
        .into_iter()
        .map(|(f, tap)| sample[f] >= tap)
        .collect()
}

/// Synthesizes the ensemble with default EGFET technology at 20 Hz.
pub fn synthesize_ensemble(forest: &Forest) -> EnsembleSystem {
    synthesize_ensemble_with(
        forest,
        &CellLibrary::egfet(),
        &AnalogModel::egfet(),
        &AnalysisConfig::printed_20hz(),
    )
}

/// [`synthesize_ensemble`] under explicit technology choices.
pub fn synthesize_ensemble_with(
    forest: &Forest,
    library: &CellLibrary,
    analog: &AnalogModel,
    config: &AnalysisConfig,
) -> EnsembleSystem {
    let netlist = ensemble_netlist(forest);
    let digital = analyze(&netlist, library, config);
    let adc = ensemble_adc_bank(forest).cost(analog);
    EnsembleSystem {
        digital,
        adc,
        tree_count: forest.trees().len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use printed_datasets::Benchmark;
    use printed_dtree::forest::{train_forest, ForestConfig};

    fn one_hot(outs: &[bool]) -> Option<usize> {
        let hot: Vec<usize> = outs
            .iter()
            .enumerate()
            .filter(|(_, &o)| o)
            .map(|(c, _)| c)
            .collect();
        (hot.len() == 1).then(|| hot[0])
    }

    #[test]
    fn ensemble_netlist_matches_forest_prediction() {
        let (train, test) = Benchmark::Seeds.load_quantized(4).unwrap();
        for trees in [1, 3, 5] {
            let forest = train_forest(
                &train,
                &ForestConfig {
                    trees,
                    max_depth: 3,
                    feature_fraction: 0.8,
                    seed: 2,
                },
            );
            let nl = ensemble_netlist(&forest);
            for (sample, _) in test.iter() {
                let outs = nl.eval(&encode_ensemble_sample(&forest, sample));
                assert_eq!(
                    one_hot(&outs),
                    Some(forest.predict(sample)),
                    "trees={trees}, sample {sample:?}"
                );
            }
        }
    }

    #[test]
    fn tie_fallback_matches_model_rule() {
        use printed_dtree::{DecisionTree, Node};
        // Three trees voting 0, 1, 2 on everything: tie → tree 0.
        let constant = |class| DecisionTree::constant(4, 2, 3, class);
        // Give tree 0 one real split so the netlist has inputs.
        let split = DecisionTree::from_nodes(
            4,
            2,
            3,
            vec![
                Node::Split {
                    feature: 0,
                    threshold: 8,
                    lo: 1,
                    hi: 2,
                },
                Node::Leaf { class: 0 },
                Node::Leaf { class: 1 },
            ],
        )
        .unwrap();
        let forest = Forest::from_trees(vec![split, constant(2), constant(0)]);
        let nl = ensemble_netlist(&forest);
        for level in 0..16u8 {
            let sample = [level, 0];
            let outs = nl.eval(&encode_ensemble_sample(&forest, &sample));
            assert_eq!(
                one_hot(&outs),
                Some(forest.predict(&sample)),
                "level {level}"
            );
        }
    }

    #[test]
    fn shared_bank_is_union_of_tree_literals() {
        let (train, _) = Benchmark::Vertebral3C.load_quantized(4).unwrap();
        let forest = train_forest(&train, &ForestConfig::default());
        let bank = ensemble_adc_bank(&forest);
        assert_eq!(bank.comparator_count(), forest.distinct_pairs().len());
    }

    #[test]
    fn small_ensembles_are_self_powered() {
        let (train, _) = Benchmark::Seeds.load_quantized(4).unwrap();
        let forest = train_forest(&train, &ForestConfig::default());
        let system = synthesize_ensemble(&forest);
        assert!(system.is_self_powered(), "power {}", system.total_power());
        assert!(system.digital.meets_timing(50.0));
        assert_eq!(system.tree_count, 3);
    }

    #[test]
    fn k_subsets_counts() {
        assert_eq!(k_subsets(3, 2).len(), 3);
        assert_eq!(k_subsets(5, 3).len(), 10);
        assert_eq!(k_subsets(4, 1), vec![vec![0], vec![1], vec![2], vec![3]]);
    }
}
