//! `--lint=fix`: the fixpoint autofix rewriter.
//!
//! [`fix`] consumes the diagnostics the pass suite emits and repairs the
//! design in place of the human: every A002 dead comparator is released
//! from the bank, the literal it backed (if any) is pruned from the
//! covers and the netlist, and the reported [`AdcCost`] is re-derived
//! from the repaired bank — which clears C001 drift *by construction*.
//! The rewriter then re-lints and repeats until no fixable diagnostic
//! remains.
//!
//! **Termination.** Each iteration that performs any rewrite strictly
//! shrinks the comparator bank (a released comparator is never re-added;
//! no rewrite grows the retained set), so the loop runs at most
//! `comparator_count + 1` lint passes. An iteration that cannot make
//! progress (e.g. a fixable diagnostic whose locus no longer resolves)
//! exits immediately rather than spinning.
//!
//! **Soundness.** A002 deadness means *no non-contradictory cube reads
//! the digit*, so on the thermometer-feasible domain every class output
//! is independent of it. Dropping the literal therefore cannot change
//! the classifier's behavior; [`FixOutcome::equivalence`] re-proves this
//! per fix by evaluating the original and repaired netlists across the
//! original feasible domain (enumerated exhaustively up to
//! 2¹⁶ patterns, seeded-sampled beyond).

use printed_adc::{AdcCost, BespokeAdcBank};
use printed_logic::equiv::{check_projected_on, thermometer_patterns, Equivalence};
use printed_logic::netlist::Netlist;
use printed_logic::sop::{Cube, Sop};
use printed_logic::Signal;

use crate::passes::{
    contradiction, feature_runs, sample_thermometer_patterns, FEASIBLE_ENUM_LIMIT, FEASIBLE_SAMPLES,
};
use crate::{LintReport, LintTarget, Linter};

/// Seed for the sampled-equivalence fallback on huge feasible domains.
const FIX_SAMPLE_SEED: u64 = 0x0ADC_F1F0;

/// The repaired design [`fix`] returns, with its own proof obligations:
/// the post-fix [`LintReport`] and the feasible-domain [`Equivalence`]
/// verdict against the original netlist.
#[derive(Debug, Clone)]
pub struct FixOutcome {
    /// The repaired bank (dead comparators released).
    pub bank: BespokeAdcBank,
    /// The cost re-derived from the repaired bank — what the design
    /// should now report (C001-clean by construction).
    pub reported: AdcCost,
    /// The repaired netlist (dropped inputs substituted and pruned).
    pub netlist: Netlist,
    /// The repaired literal order (dropped literals removed).
    pub literals: Vec<(usize, u8)>,
    /// The repaired covers (cubes reading dropped literals removed,
    /// variables renumbered).
    pub class_sops: Vec<Sop>,
    /// Comparators released from the bank, as `(feature, tap)`, in fix
    /// order.
    pub dropped: Vec<(usize, usize)>,
    /// Rewrite iterations performed (0 when the design was already
    /// clean of fixable diagnostics).
    pub iterations: usize,
    /// The full pass suite re-run over the repaired design.
    pub report: LintReport,
    /// Behavior-preservation verdict: original vs repaired netlist over
    /// the *original* feasible domain (each original pattern maps onto
    /// the repaired input space by deleting the dropped digits).
    pub equivalence: Equivalence,
}

impl FixOutcome {
    /// True when the repaired design lints clean *and* provably matches
    /// the original on the feasible domain.
    pub fn is_sound(&self) -> bool {
        self.report.diagnostics.is_empty() && self.equivalence.is_equivalent()
    }
}

/// Parses an A002 locus (`adc x{feature} tap {tap}`) back into its
/// coordinates.
fn parse_a002_locus(locus: &str) -> Option<(usize, usize)> {
    let rest = locus.strip_prefix("adc x")?;
    let (feature, tap) = rest.split_once(" tap ")?;
    Some((feature.parse().ok()?, tap.parse().ok()?))
}

/// Repairs `target` to a fixpoint of the fixable diagnostics (A002 dead
/// comparators; C001 drift clears as a consequence of re-deriving the
/// cost).
///
/// The returned [`FixOutcome`] carries the repaired artifacts plus the
/// re-run lint report and the feasible-domain equivalence verdict; the
/// caller decides what to do with an unsound fix (none is expected —
/// see the module docs for the argument).
///
/// Once any literal is pruned, re-lints run without the T001 tree
/// cross-check: a cover-dead split may still appear in a tree path
/// condition, so the repaired netlist is an optimized rewrite of the
/// tree's lowering rather than its direct structural image. Behavioral
/// fidelity is covered by [`FixOutcome::equivalence`] instead.
pub fn fix(target: &LintTarget<'_>) -> FixOutcome {
    let mut bank = target.bank.clone();
    let mut netlist = target.netlist.clone();
    let mut literals = target.literals.to_vec();
    let mut class_sops = target.class_sops.to_vec();
    let mut dropped: Vec<(usize, usize)> = Vec::new();
    let mut iterations = 0usize;
    // Once a literal is pruned the netlist stops being the tree's direct
    // structural lowering (a cover-dead split may still appear in a path
    // condition), so T001's path-absorption cross-check no longer
    // applies; behavioral fidelity is re-proven by the feasible-domain
    // equivalence verdict instead.
    let mut tree_applies = true;
    let linter = Linter::new();

    let report = loop {
        let reported = bank.cost(target.model);
        let current = LintTarget {
            tree: if tree_applies { target.tree } else { None },
            netlist: &netlist,
            bank: &bank,
            literals: &literals,
            class_sops: &class_sops,
            reported_adc: Some(&reported),
            model: target.model,
            grid: target.grid,
            droop: target.droop,
            equiv_budget: target.equiv_budget,
        };
        let report = linter.run(&current);
        let dead: Vec<(usize, usize)> = report
            .with_code("A002")
            .filter_map(|d| parse_a002_locus(&d.locus))
            .collect();
        if dead.is_empty() {
            break report;
        }
        let mut progressed = false;
        for (feature, tap) in dead {
            if bank.release(feature, tap) {
                dropped.push((feature, tap));
                progressed = true;
            }
            // Literals are re-searched after every drop: each removal
            // shifts the variable indices above it.
            if let Ok(var) = literals.binary_search(&(feature, tap as u8)) {
                netlist = drop_netlist_input(&netlist, &literals, var);
                class_sops = drop_sop_var(&class_sops, &literals, var);
                literals.remove(var);
                tree_applies = false;
                progressed = true;
            }
        }
        if !progressed {
            // A fixable diagnostic whose locus no longer resolves —
            // nothing this rewriter can do; report it instead of
            // spinning.
            break report;
        }
        iterations += 1;
    };

    let equivalence = prove_equivalence(target.netlist, target.literals, &netlist, &literals);
    let reported = bank.cost(target.model);
    FixOutcome {
        bank,
        reported,
        netlist,
        literals,
        class_sops,
        dropped,
        iterations,
        report,
        equivalence,
    }
}

/// Rebuilds `old` without input `var`: every gate is remapped in topo
/// order (the builder's structural hashing and constant folding collapse
/// whatever the substitution simplifies), with reads of the dropped
/// input substituted by the next digit of the same thermometer run — or
/// constant false when the dropped digit was the run's last. Either
/// substitution keeps the lift of any repaired-domain pattern
/// thermometer-feasible, which is what the equivalence proof evaluates
/// over.
fn drop_netlist_input(old: &Netlist, literals: &[(usize, u8)], var: usize) -> Netlist {
    let mut nl = Netlist::new(old.name());
    let survivors: Vec<Signal> = literals
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != var)
        .map(|(_, &(feature, tap))| nl.input(format!("u{feature}_{tap}")))
        .collect();
    let substitute = if var + 1 < literals.len() && literals[var + 1].0 == literals[var].0 {
        // The next digit of the same run: in a true-prefix pattern the
        // dropped digit may legally equal it.
        survivors[var]
    } else {
        // Last digit of its run: a false digit is always feasible there.
        Signal::Const(false)
    };
    let map_input = |i: usize| -> Signal {
        use std::cmp::Ordering;
        match i.cmp(&var) {
            Ordering::Less => survivors[i],
            Ordering::Equal => substitute,
            Ordering::Greater => survivors[i - 1],
        }
    };
    let mut gate_map: Vec<Signal> = Vec::with_capacity(old.gate_count());
    let map_signal = |s: Signal, gate_map: &[Signal]| -> Signal {
        match s {
            Signal::Input(i) => map_input(i),
            Signal::Gate(g) => gate_map[g],
            constant => constant,
        }
    };
    for gate in old.gates() {
        let inputs: Vec<Signal> = gate
            .inputs
            .iter()
            .map(|&s| map_signal(s, &gate_map))
            .collect();
        gate_map.push(nl.gate(gate.kind, &inputs));
    }
    for (name, signal) in old.outputs() {
        let mapped = map_signal(*signal, &gate_map);
        nl.output(name.clone(), mapped);
    }
    nl.prune();
    nl
}

/// Drops variable `var` from every cover: cubes reading it are removed
/// (A002 deadness guarantees each is contradictory, hence never fires),
/// and the remaining cubes' variables renumber down past the gap.
fn drop_sop_var(class_sops: &[Sop], literals: &[(usize, u8)], var: usize) -> Vec<Sop> {
    class_sops
        .iter()
        .map(|sop| {
            let cubes: Vec<Cube> = sop
                .cubes()
                .iter()
                .filter(|cube| {
                    let reads = cube.literals().any(|(v, _)| v == var);
                    debug_assert!(
                        !reads || contradiction(cube, literals).is_some(),
                        "A002 promised only contradictory cubes read a dead literal"
                    );
                    !reads
                })
                .map(|cube| {
                    let remapped: Vec<(usize, bool)> = cube
                        .literals()
                        .map(|(v, pol)| (if v > var { v - 1 } else { v }, pol))
                        .collect();
                    Cube::from_literals(&remapped)
                })
                .collect();
            Sop::from_cubes(sop.num_vars() - 1, cubes)
        })
        .collect()
}

/// Evaluates `original` and `fixed` across the original feasible domain,
/// projecting each pattern onto the surviving literals, 64 patterns per
/// batch ([`check_projected_on`]). Exhaustive up to
/// [`FEASIBLE_ENUM_LIMIT`] patterns, seeded-sampled beyond.
fn prove_equivalence(
    original: &Netlist,
    original_literals: &[(usize, u8)],
    fixed: &Netlist,
    fixed_literals: &[(usize, u8)],
) -> Equivalence {
    if original.outputs().len() != fixed.outputs().len() {
        return Equivalence::Mismatched {
            reason: format!(
                "output counts differ: {} vs {}",
                original.outputs().len(),
                fixed.outputs().len()
            ),
        };
    }
    // The surviving literals' positions in the original order. Both lists
    // are ascending and the fixed one is a subsequence of the original.
    let mut kept = Vec::with_capacity(fixed_literals.len());
    let mut cursor = 0usize;
    for &lit in fixed_literals {
        match original_literals[cursor..].iter().position(|&o| o == lit) {
            Some(offset) => {
                kept.push(cursor + offset);
                cursor += offset + 1;
            }
            None => {
                return Equivalence::Mismatched {
                    reason: format!(
                        "fixed literal ({}, {}) is not part of the original order",
                        lit.0, lit.1
                    ),
                }
            }
        }
    }
    let runs = feature_runs(original_literals);
    let domain_size: usize = runs
        .iter()
        .try_fold(1usize, |acc, &r| acc.checked_mul(r + 1))
        .unwrap_or(usize::MAX);
    let exhaustive = domain_size <= FEASIBLE_ENUM_LIMIT;
    let domain = if exhaustive {
        thermometer_patterns(&runs)
    } else {
        sample_thermometer_patterns(&runs, FIX_SAMPLE_SEED, FEASIBLE_SAMPLES)
    };
    match check_projected_on(original, fixed, &kept, domain) {
        Equivalence::Equivalent { .. } => Equivalence::Equivalent { exhaustive },
        verdict => verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::tree_netlist;
    use crate::{DroopRef, GridRef};
    use printed_dtree::{DecisionTree, Node};
    use printed_pdk::{AnalogModel, CellKind};

    struct Scenario {
        tree: DecisionTree,
        netlist: Netlist,
        bank: BespokeAdcBank,
        literals: Vec<(usize, u8)>,
        class_sops: Vec<Sop>,
        model: AnalogModel,
    }

    impl Scenario {
        /// The passes' pristine fixture: a depth-2 tree over taps 3 and 9
        /// of feature 0, disjoint covers, faithful netlist and bank.
        fn clean() -> Self {
            let tree = DecisionTree::from_nodes(
                4,
                1,
                2,
                vec![
                    Node::Split {
                        feature: 0,
                        threshold: 3,
                        lo: 1,
                        hi: 2,
                    },
                    Node::Leaf { class: 0 },
                    Node::Split {
                        feature: 0,
                        threshold: 9,
                        lo: 3,
                        hi: 4,
                    },
                    Node::Leaf { class: 0 },
                    Node::Leaf { class: 1 },
                ],
            )
            .unwrap();
            let literals = vec![(0usize, 3u8), (0, 9)];
            let class_sops = vec![
                Sop::from_cubes(
                    2,
                    vec![
                        Cube::from_literals(&[(0, false)]),
                        Cube::from_literals(&[(0, true), (1, false)]),
                    ],
                ),
                Sop::from_cubes(2, vec![Cube::from_literals(&[(1, true)])]),
            ];
            let netlist = tree_netlist(&tree, &literals);
            let mut bank = BespokeAdcBank::new(4);
            bank.require(0, 3).unwrap();
            bank.require(0, 9).unwrap();
            Self {
                tree,
                netlist,
                bank,
                literals,
                class_sops,
                model: AnalogModel::egfet(),
            }
        }

        fn fix(&self) -> FixOutcome {
            let taus = [0.0, 0.01, 0.05];
            let depths = [2usize, 3, 4];
            let target = LintTarget {
                tree: Some(&self.tree),
                netlist: &self.netlist,
                bank: &self.bank,
                literals: &self.literals,
                class_sops: &self.class_sops,
                reported_adc: None,
                model: &self.model,
                grid: Some(GridRef {
                    taus: &taus,
                    depths: &depths,
                    seed: 0x0ADC,
                }),
                droop: Some(DroopRef {
                    max_sag: 0.4,
                    vref_leak: 0.12,
                    offset_per_sag: 0.04,
                }),
                equiv_budget: None,
            };
            fix(&target)
        }
    }

    #[test]
    fn clean_design_is_a_fixpoint_already() {
        let scenario = Scenario::clean();
        let outcome = scenario.fix();
        assert_eq!(outcome.iterations, 0);
        assert!(outcome.dropped.is_empty());
        assert!(outcome.is_sound(), "{}", outcome.report.render_text());
        assert_eq!(outcome.bank, scenario.bank);
        assert_eq!(outcome.literals, scenario.literals);
        assert_eq!(
            outcome.equivalence,
            Equivalence::Equivalent { exhaustive: true }
        );
    }

    #[test]
    fn fix_drops_injected_dead_comparators_and_reduces_cost() {
        let mut scenario = Scenario::clean();
        // Dead hardware on two features: neither tap backs a literal.
        scenario.bank.require(0, 12).unwrap();
        scenario.bank.require(1, 5).unwrap();
        let before = scenario.bank.cost(&scenario.model);

        let outcome = scenario.fix();
        assert_eq!(outcome.dropped, vec![(0, 12), (1, 5)]);
        assert_eq!(outcome.iterations, 1);
        // (a) the repaired design re-lints with zero diagnostics…
        assert!(
            outcome.report.diagnostics.is_empty(),
            "{}",
            outcome.report.render_text()
        );
        // (b) …is exhaustively equivalent on the feasible domain…
        assert_eq!(
            outcome.equivalence,
            Equivalence::Equivalent { exhaustive: true }
        );
        // (c) …and strictly reduces both µW and mm².
        assert!(outcome.reported.power < before.power);
        assert!(outcome.reported.area < before.area);
        assert_eq!(outcome.reported.comparators, before.comparators - 2);
        // The repaired cost is the repaired bank's — C001 by construction.
        assert_eq!(outcome.reported, outcome.bank.cost(&scenario.model));
        // The untouched artifacts came through unchanged.
        assert_eq!(outcome.literals, scenario.literals);
        assert_eq!(outcome.netlist.input_count(), 2);
    }

    #[test]
    fn fix_prunes_a_literal_read_only_by_contradictory_cubes() {
        // The tree reads only tap 3, but the design over-declares a tap-9
        // literal whose sole reader is a thermometer-contradictory cube
        // (x0 < 3 ∧ x0 ≥ 9): the comparator is dead, the cube is
        // unreachable, and both must go.
        let tree = DecisionTree::from_nodes(
            4,
            1,
            2,
            vec![
                Node::Split {
                    feature: 0,
                    threshold: 3,
                    lo: 1,
                    hi: 2,
                },
                Node::Leaf { class: 0 },
                Node::Leaf { class: 1 },
            ],
        )
        .unwrap();
        let literals = vec![(0usize, 3u8), (0, 9)];
        let class_sops = vec![
            Sop::from_cubes(
                2,
                vec![
                    Cube::from_literals(&[(0, false)]),
                    Cube::from_literals(&[(0, false), (1, true)]), // contradictory
                ],
            ),
            Sop::from_cubes(2, vec![Cube::from_literals(&[(0, true)])]),
        ];
        let netlist = tree_netlist(&tree, &literals);
        let mut bank = BespokeAdcBank::new(4);
        bank.require(0, 3).unwrap();
        bank.require(0, 9).unwrap();
        let scenario = Scenario {
            tree,
            netlist,
            bank,
            literals,
            class_sops,
            model: AnalogModel::egfet(),
        };

        let outcome = scenario.fix();
        assert_eq!(outcome.dropped, vec![(0, 9)]);
        assert_eq!(outcome.literals, vec![(0, 3)]);
        assert_eq!(outcome.netlist.input_count(), 1);
        // The contradictory reader went with its literal, so the U001 it
        // would have drawn is cleared too.
        assert_eq!(outcome.class_sops[0].cubes().len(), 1);
        assert!(outcome.is_sound(), "{}", outcome.report.render_text());
        assert_eq!(
            outcome.equivalence,
            Equivalence::Equivalent { exhaustive: true }
        );
    }

    /// A netlist over `literals` with a shared first output and a second
    /// one asserted only on `minterm` (constant 0 when it is empty).
    fn detector(literals: &[(usize, u8)], minterm: &[((usize, u8), bool)]) -> Netlist {
        let mut nl = Netlist::new("detector");
        let vars: Vec<Signal> = literals
            .iter()
            .map(|&(f, t)| nl.input(format!("u{f}_{t}")))
            .collect();
        let shared = nl.gate(CellKind::Xor2, &[vars[0], vars[1]]);
        nl.output("o0", shared);
        let mut hit = Signal::Const(!minterm.is_empty());
        for &(lit, polarity) in minterm {
            let var = vars[literals.iter().position(|&l| l == lit).unwrap()];
            let term = if polarity {
                var
            } else {
                nl.gate(CellKind::Inv, &[var])
            };
            hit = nl.gate(CellKind::And2, &[hit, term]);
        }
        nl.output("o1", hit);
        nl
    }

    /// The scalar pattern loop `prove_equivalence` ran before batching,
    /// kept as the reference its counterexamples are pinned to.
    fn scalar_prove(
        original: &Netlist,
        fixed: &Netlist,
        kept: &[usize],
        domain: Vec<Vec<bool>>,
    ) -> Equivalence {
        for pattern in domain {
            let projected: Vec<bool> = kept.iter().map(|&i| pattern[i]).collect();
            let left = original.eval(&pattern);
            let right = fixed.eval(&projected);
            if left != right {
                return Equivalence::Counterexample {
                    inputs: pattern,
                    left,
                    right,
                };
            }
        }
        Equivalence::Equivalent { exhaustive: true }
    }

    #[test]
    fn prove_equivalence_counterexample_is_the_scalar_loops() {
        // Feature 0 has 8 levels and feature 1 `taps + 1`, so pattern
        // `level0 · (taps + 1) + level1` of the feasible domain is the one
        // the designs differ on: 73 sits in the second full 64-pattern
        // batch, 100 in the final partial batch of a 104-pattern domain.
        for (taps, level0, level1, index) in [(15u8, 4u8, 9u8, 73usize), (12, 7, 9, 100)] {
            let original_literals: Vec<(usize, u8)> = (1..=7)
                .map(|t| (0, t))
                .chain((1..=taps).map(|t| (1, t)))
                .collect();
            let fixed_literals = original_literals[..original_literals.len() - 1].to_vec();
            let mut minterm = vec![((0, level0), true), ((1, level1), true)];
            if level0 < 7 {
                minterm.push(((0, level0 + 1), false));
            }
            minterm.push(((1, level1 + 1), false));
            let original = detector(&original_literals, &[]);
            let fixed = detector(&fixed_literals, &minterm);

            let verdict = prove_equivalence(&original, &original_literals, &fixed, &fixed_literals);
            let domain = thermometer_patterns(&feature_runs(&original_literals));
            let kept: Vec<usize> = (0..fixed_literals.len()).collect();
            assert_eq!(
                verdict,
                scalar_prove(&original, &fixed, &kept, domain.clone())
            );
            match verdict {
                Equivalence::Counterexample {
                    inputs,
                    left,
                    right,
                } => {
                    assert_eq!(inputs, domain[index]);
                    assert_eq!((left[1], right[1]), (false, true));
                }
                other => panic!("expected a counterexample, got {other:?}"),
            }
        }
    }

    #[test]
    fn a002_locus_roundtrips() {
        assert_eq!(parse_a002_locus("adc x3 tap 12"), Some((3, 12)));
        assert_eq!(parse_a002_locus("adc x0 tap 1"), Some((0, 1)));
        assert_eq!(parse_a002_locus("netlist"), None);
        assert_eq!(parse_a002_locus("adc x tap "), None);
    }
}
