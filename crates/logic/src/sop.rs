//! Two-level sum-of-products (SOP) logic.
//!
//! The unary decision-tree architecture reduces each class label to a
//! two-level AND–OR over unary literals. This module provides the SOP data
//! structure, safe simplification rules, and netlist lowering.
//!
//! The simplifier applies only rules that preserve the function for *any*
//! off-set (it never consults don't-cares, so it is sound for covers coming
//! from disjoint tree paths as well as arbitrary covers):
//!
//! * **absorption** — drop a cube contained in another cube of the cover;
//! * **merge** — combine two cubes identical except for one complemented
//!   literal (`a·b + a·b' = a`);
//! * **duplicate removal**.
//!
//! Exact two-level minimization (Quine–McCluskey) lives in [`crate::qm`].
//!
//! ```
//! use printed_logic::sop::{Cube, Sop};
//!
//! // x0·x1 + x0·x1' simplifies to x0.
//! let sop = Sop::from_cubes(2, vec![
//!     Cube::from_literals(&[(0, true), (1, true)]),
//!     Cube::from_literals(&[(0, true), (1, false)]),
//! ]).simplified();
//! assert_eq!(sop.cubes().len(), 1);
//! assert_eq!(sop.cubes()[0], Cube::from_literals(&[(0, true)]));
//! ```

use std::fmt;

use crate::blocks::{and_tree, not, or_tree};
use crate::netlist::{Netlist, Signal};

/// A product term: a conjunction of literals over variables `0..n`.
///
/// Internally the `(variable, polarity)` pairs sorted by variable, each
/// variable at most once; a variable absent from the list is
/// unconstrained (don't care) in this cube. Cubes order, compare and hash
/// lexicographically by variable, as a map keyed by variable would, and
/// print as one.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cube {
    literals: Vec<(usize, bool)>,
}

impl fmt::Debug for Cube {
    /// Prints as a map, `Cube { literals: {0: true, 2: false} }`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct AsMap<'a>(&'a [(usize, bool)]);
        impl fmt::Debug for AsMap<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(self.0.iter().map(|(v, p)| (v, p)))
                    .finish()
            }
        }
        f.debug_struct("Cube")
            .field("literals", &AsMap(&self.literals))
            .finish()
    }
}

impl Cube {
    /// The universal cube (empty conjunction: always true).
    pub fn universe() -> Self {
        Self {
            literals: Vec::new(),
        }
    }

    /// Builds a cube from `(variable, polarity)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a variable appears twice with conflicting polarity — that
    /// cube would be constant-false, which a caller almost certainly did not
    /// intend; use [`Cube::try_from_literals`] when contradictions are
    /// expected (e.g. unreachable decision-tree branches).
    pub fn from_literals(literals: &[(usize, bool)]) -> Self {
        Self::try_from_literals(literals)
            .unwrap_or_else(|| panic!("conflicting polarities in {literals:?}"))
    }

    /// Builds a cube from `(variable, polarity)` pairs, returning `None`
    /// when a variable appears with both polarities (the cube would be
    /// constant false).
    pub fn try_from_literals(literals: &[(usize, bool)]) -> Option<Self> {
        let mut sorted = literals.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.windows(2).any(|w| w[0].0 == w[1].0) {
            return None;
        }
        debug_assert!(
            literals.iter().all(|lit| sorted.binary_search(lit).is_ok()),
            "constructed cube must retain every input literal"
        );
        Some(Self { literals: sorted })
    }

    /// Iterates `(variable, polarity)` in ascending variable order.
    pub fn literals(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        self.literals.iter().copied()
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.literals.len()
    }

    /// True for the universal cube.
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }

    /// Evaluates the cube on an assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is shorter than the largest variable.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.literals.iter().all(|&(v, p)| assignment[v] == p)
    }

    /// True when `self` implies `other` (every assignment satisfying `self`
    /// satisfies `other`) — i.e. `other`'s literals are a subset of
    /// `self`'s. One merge walk over both sorted lists.
    pub fn implies(&self, other: &Cube) -> bool {
        if other.literals.len() > self.literals.len() {
            return false;
        }
        let mut mine = self.literals.iter();
        other
            .literals
            .iter()
            .all(|lit| mine.by_ref().find(|m| m.0 >= lit.0) == Some(lit))
    }

    /// Bloom signatures of the cube: bit `(2·var + polarity) mod 64` set
    /// per literal, and bit `var mod 64` per variable. `a.implies(b)`
    /// needs `b`'s literal bits within `a`'s, and `merge_adjacent` needs
    /// equal variable bits, so most pairs are rejected by one word test.
    fn signatures(&self) -> (u64, u64) {
        self.literals.iter().fold((0, 0), |(lits, vars), &(v, p)| {
            (
                lits | 1 << ((2 * v + usize::from(p)) % 64),
                vars | 1 << (v % 64),
            )
        })
    }

    /// If `self` and `other` differ only in the polarity of exactly one
    /// variable (same variable support), returns the merged cube with that
    /// variable dropped: `a·x + a·x' = a`.
    pub fn merge_adjacent(&self, other: &Cube) -> Option<Cube> {
        if self.literals.len() != other.literals.len() {
            return None;
        }
        let mut diff_at = None;
        for (i, (&(v1, p1), &(v2, p2))) in self.literals.iter().zip(&other.literals).enumerate() {
            if v1 != v2 {
                return None; // different variable support
            }
            if p1 != p2 {
                if diff_at.is_some() {
                    return None;
                }
                diff_at = Some(i);
            }
        }
        diff_at.map(|i| {
            let mut merged = self.literals.clone();
            merged.remove(i);
            debug_assert_eq!(
                merged.len(),
                self.literals.len() - 1,
                "merging x + x' drops exactly the differing variable"
            );
            Cube { literals: merged }
        })
    }
}

/// A sum of products over variables `0..num_vars`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sop {
    num_vars: usize,
    cubes: Vec<Cube>,
}

impl Sop {
    /// The constant-false cover over `num_vars` variables.
    pub fn constant_false(num_vars: usize) -> Self {
        Self {
            num_vars,
            cubes: Vec::new(),
        }
    }

    /// The constant-true cover.
    pub fn constant_true(num_vars: usize) -> Self {
        Self {
            num_vars,
            cubes: vec![Cube::universe()],
        }
    }

    /// Builds a cover from cubes.
    ///
    /// # Panics
    ///
    /// Panics if a cube references a variable ≥ `num_vars`.
    pub fn from_cubes(num_vars: usize, cubes: Vec<Cube>) -> Self {
        for cube in &cubes {
            for (v, _) in cube.literals() {
                assert!(
                    v < num_vars,
                    "cube references variable {v} ≥ num_vars {num_vars}"
                );
            }
        }
        Self { num_vars, cubes }
    }

    /// Number of variables of the function's domain.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The cover's cubes.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Total literal count across cubes (a standard two-level cost proxy).
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(Cube::len).sum()
    }

    /// Evaluates the cover.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() < self.num_vars()`.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        assert!(assignment.len() >= self.num_vars, "assignment too short");
        self.cubes.iter().any(|c| c.eval(assignment))
    }

    /// Applies duplicate removal, absorption, and adjacent-cube merging to a
    /// fixpoint. Safe for any cover (does not consult don't-cares).
    ///
    /// Each round sorts, deduplicates, drops absorbed cubes and merges
    /// adjacent pairs. Every one of those edits shortens the cover, so a
    /// round whose output is as long as its input only sorted it, and a
    /// further round would return that sorted list unchanged: that is
    /// the fixpoint.
    pub fn simplified(&self) -> Sop {
        let timer = printed_telemetry::KernelTimer::start(printed_telemetry::Kernel::CubeMerge);
        let mut cubes = self.cubes.clone();
        let mut used = Vec::new();
        let mut sigs = Vec::new();
        loop {
            let len_in = cubes.len();

            // Duplicates + absorption: keep a cube only if no *other* cube
            // contains it (after dedup no two cubes contain each other).
            cubes.sort();
            cubes.dedup();
            sigs.clear();
            sigs.extend(cubes.iter().map(Cube::signatures));
            used.clear();
            used.extend((0..cubes.len()).map(|i| {
                (0..cubes.len())
                    .any(|j| i != j && sigs[j].0 & !sigs[i].0 == 0 && cubes[i].implies(&cubes[j]))
            }));
            let mut absorbed = used.iter();
            cubes.retain(|_| !absorbed.next().expect("one flag per cube"));
            let mut absorbed = used.iter();
            sigs.retain(|_| !absorbed.next().expect("one flag per signature"));

            // One round of adjacent merging: each cube merges with the
            // first later unmerged cube it is adjacent to.
            used.clear();
            used.resize(cubes.len(), false);
            let mut result: Vec<Cube> = Vec::with_capacity(cubes.len());
            for i in 0..cubes.len() {
                if used[i] {
                    continue;
                }
                let merged = ((i + 1)..cubes.len())
                    .filter(|&j| !used[j] && sigs[j].1 == sigs[i].1)
                    .find_map(|j| cubes[i].merge_adjacent(&cubes[j]).map(|m| (j, m)));
                result.push(match merged {
                    Some((j, m)) => {
                        used[j] = true;
                        m
                    }
                    // Index `i` is never read again.
                    None => std::mem::replace(&mut cubes[i], Cube::universe()),
                });
            }
            cubes = result;

            if cubes.len() == len_in {
                break;
            }
        }
        debug_assert!(
            cubes.iter().enumerate().all(|(i, c)| cubes
                .iter()
                .enumerate()
                .all(|(j, other)| i == j || !c.implies(other))),
            "simplified cover must be absorption-free at the fixpoint"
        );
        timer.finish(self.cubes.len() as u64);
        Sop {
            num_vars: self.num_vars,
            cubes,
        }
    }

    /// Lowers the cover to gates: one AND tree per cube, one OR tree across
    /// cubes, sharing inverters per variable. `vars[v]` must carry the
    /// signal of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `vars.len() < self.num_vars()`.
    pub fn lower(&self, nl: &mut Netlist, vars: &[Signal]) -> Signal {
        assert!(
            vars.len() >= self.num_vars,
            "need a signal for every variable"
        );
        let terms: Vec<Signal> = self
            .cubes
            .iter()
            .map(|cube| {
                let literals: Vec<Signal> = cube
                    .literals()
                    .map(|(v, p)| if p { vars[v] } else { not(nl, vars[v]) })
                    .collect();
                and_tree(nl, &literals)
            })
            .collect();
        or_tree(nl, &terms)
    }

    /// Lowers the cover in NAND–NAND form: `OR_i AND_j ℓ_ij =
    /// NAND_i(NAND_j ℓ_ij)`.
    ///
    /// In resistive-pull-up printed logic a NAND is a single inverting
    /// stage while AND/OR cost two, so this mapping typically saves one
    /// load resistor's area and static power per gate. Cubes or covers too
    /// wide for the library's 4-input NANDs fall back to tree-composed
    /// stages (inner: AND tree + INV; outer: per-group NANDs merged with an
    /// OR tree), preserving the function exactly.
    ///
    /// # Panics
    ///
    /// Panics if `vars.len() < self.num_vars()`.
    pub fn lower_nand_nand(&self, nl: &mut Netlist, vars: &[Signal]) -> Signal {
        use printed_pdk::CellKind;
        assert!(
            vars.len() >= self.num_vars,
            "need a signal for every variable"
        );
        if self.cubes.is_empty() {
            return Signal::Const(false);
        }
        // Inner level: one !cube per product term.
        let inverted_terms: Vec<Signal> = self
            .cubes
            .iter()
            .map(|cube| {
                let literals: Vec<Signal> = cube
                    .literals()
                    .map(|(v, p)| if p { vars[v] } else { not(nl, vars[v]) })
                    .collect();
                match literals.len() {
                    0 => Signal::Const(false), // !true
                    1 => not(nl, literals[0]),
                    2 => nl.gate(CellKind::Nand2, &literals),
                    3 => nl.gate(CellKind::Nand3, &literals),
                    4 => nl.gate(CellKind::Nand4, &literals),
                    _ => {
                        let conj = and_tree(nl, &literals);
                        not(nl, conj)
                    }
                }
            })
            .collect();
        // Outer level: NAND across the inverted terms = OR of the cubes.
        // Group into ≤4-wide NANDs; OR the group results when several
        // groups are needed.
        let groups: Vec<Signal> = inverted_terms
            .chunks(4)
            .map(|chunk| match chunk.len() {
                1 => not(nl, chunk[0]),
                2 => nl.gate(CellKind::Nand2, chunk),
                3 => nl.gate(CellKind::Nand3, chunk),
                _ => nl.gate(CellKind::Nand4, chunk),
            })
            .collect();
        or_tree(nl, &groups)
    }
}

/// A [`Sop`] compiled to bit-parallel word masks for fast repeated
/// evaluation.
///
/// Each cube becomes a `(care, value)` pair of `u64` word vectors over the
/// variable bits: the cube is satisfied iff `(assignment & care) == value`
/// in every word. A whole cube therefore evaluates in `ceil(num_vars / 64)`
/// AND+compare operations instead of one `BTreeMap` walk per literal, and
/// the assignment itself is a packed word vector instead of a `Vec<bool>`
/// — the hot shape for per-sample prediction and Quine–McCluskey cover
/// checks. Exact: [`eval_words`](Self::eval_words) returns precisely what
/// [`Sop::eval`] returns on the unpacked assignment (pinned by tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedCover {
    num_vars: usize,
    words: usize,
    /// Cube-major masks: cube `i` owns `care[i*words..(i+1)*words]`.
    care: Vec<u64>,
    value: Vec<u64>,
}

impl PackedCover {
    /// Words needed to hold `num_vars` bits (at least one, so the empty
    /// domain still has a well-formed mask row).
    pub fn words_for(num_vars: usize) -> usize {
        num_vars.div_ceil(64).max(1)
    }

    /// Compiles `sop` into packed masks.
    pub fn from_sop(sop: &Sop) -> Self {
        let num_vars = sop.num_vars();
        let words = Self::words_for(num_vars);
        let n_cubes = sop.cubes().len();
        let mut care = vec![0u64; n_cubes * words];
        let mut value = vec![0u64; n_cubes * words];
        for (i, cube) in sop.cubes().iter().enumerate() {
            for (v, p) in cube.literals() {
                care[i * words + v / 64] |= 1u64 << (v % 64);
                if p {
                    value[i * words + v / 64] |= 1u64 << (v % 64);
                }
            }
        }
        Self {
            num_vars,
            words,
            care,
            value,
        }
    }

    /// Number of variables of the function's domain.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of cubes.
    pub fn n_cubes(&self) -> usize {
        self.care.len() / self.words
    }

    /// The `(variable, polarity)` literals of cube `i`, ascending — the
    /// cube's [`Cube::literals`] read back from its masks.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ self.n_cubes()`.
    pub fn cube_literals(&self, i: usize) -> impl Iterator<Item = (usize, bool)> + '_ {
        let row = i * self.words..(i + 1) * self.words;
        self.care[row.clone()]
            .iter()
            .zip(&self.value[row])
            .enumerate()
            .flat_map(|(w, (&care, &value))| {
                let mut bits = care;
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        (64 * w + b, value >> b & 1 == 1)
                    })
                })
            })
    }

    /// Evaluates on a packed assignment (bit `v` of word `v / 64` is
    /// variable `v`; bits ≥ `num_vars()` are ignored). The empty cover is
    /// false; a universe cube (no cared bits) is true.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` has fewer than `ceil(num_vars / 64)` words.
    pub fn eval_words(&self, assignment: &[u64]) -> bool {
        assert!(
            assignment.len() >= self.words,
            "packed assignment too short"
        );
        (0..self.n_cubes()).any(|i| {
            let row = i * self.words;
            (0..self.words).all(|w| assignment[w] & self.care[row + w] == self.value[row + w])
        })
    }

    /// Packs a boolean assignment into `out` (cleared and refilled), ready
    /// for [`eval_words`](Self::eval_words).
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() < self.num_vars()`.
    pub fn pack_into(&self, assignment: &[bool], out: &mut Vec<u64>) {
        assert!(assignment.len() >= self.num_vars, "assignment too short");
        out.clear();
        out.resize(self.words, 0);
        for (v, &bit) in assignment.iter().take(self.num_vars).enumerate() {
            if bit {
                out[v / 64] |= 1u64 << (v % 64);
            }
        }
    }

    /// Convenience scalar evaluation (packs then evaluates) — prefer
    /// [`eval_words`](Self::eval_words) with a reused buffer in hot loops.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() < self.num_vars()`.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        let mut packed = Vec::with_capacity(self.words);
        self.pack_into(assignment, &mut packed);
        self.eval_words(&packed)
    }
}

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, RandomState};

    use proptest::prelude::*;

    use super::*;
    use crate::oracle;

    fn assignments(n: usize) -> impl Iterator<Item = Vec<bool>> {
        (0..(1u32 << n)).map(move |p| (0..n).map(|k| (p >> k) & 1 == 1).collect())
    }

    /// Literal lists over six variables (a variable may repeat, with the
    /// same polarity or the other one) plus `(cube, variable, polarity)`
    /// extras, each of which re-adds a drawn list whole, with one more
    /// literal, and with one literal's polarity flipped: duplicates,
    /// absorbable cubes, contradictions and adjacent (mergeable) pairs.
    /// The variables are `SPREAD`, so that pairs 64 apart share
    /// signature bits.
    type DrawnCover = (Vec<Vec<(usize, bool)>>, Vec<(usize, usize, bool)>);

    const SPREAD: [usize; 6] = [0, 1, 2, 64, 65, 130];

    fn arb_cover() -> impl Strategy<Value = DrawnCover> {
        let var = || (0usize..6).prop_map(|v| SPREAD[v]);
        (
            proptest::collection::vec(
                proptest::collection::vec((var(), any::<bool>()), 0..5),
                0..12,
            ),
            proptest::collection::vec((0usize..12, var(), any::<bool>()), 0..6),
        )
    }

    proptest! {
        /// The sorted-`Vec` cube builds, orders, hashes and prints as the
        /// `BTreeMap` cube did, and the in-place fixpoint returns the
        /// oracle's cube list in the same order.
        #[test]
        fn simplified_matches_the_btreemap_oracle(covers in proptest::collection::vec(arb_cover(), 32)) {
            let hasher = RandomState::new();
            for (mut lists, extras) in covers {
                for (k, var, pol) in extras {
                    if let Some(base) = lists.get(k % lists.len().max(1)).cloned() {
                        let mut longer = base.clone();
                        longer.push((var, pol));
                        let mut flipped = base.clone();
                        if let Some(lit) = flipped.get_mut(var % base.len().max(1)) {
                            lit.1 = !lit.1;
                        }
                        lists.extend([base, longer, flipped]);
                    }
                }
                let mut cubes = Vec::new();
                let mut want = Vec::new();
                for lits in &lists {
                    let cube = Cube::try_from_literals(lits);
                    let reference = oracle::Cube::try_from_literals(lits);
                    prop_assert_eq!(cube.is_some(), reference.is_some(), "{:?}", lits);
                    if let (Some(cube), Some(reference)) = (cube, reference) {
                        prop_assert_eq!(cube.literals().collect::<Vec<_>>(), reference.literals());
                        prop_assert_eq!(format!("{cube:?}"), format!("{reference:?}"));
                        prop_assert_eq!(hasher.hash_one(&cube), hasher.hash_one(&reference));
                        cubes.push(cube);
                        want.push(reference);
                    }
                }
                let got = Sop::from_cubes(SPREAD[5] + 1, cubes).simplified();
                let want = oracle::simplified(want);
                prop_assert_eq!(
                    got.cubes().iter().map(|c| c.literals().collect()).collect::<Vec<Vec<_>>>(),
                    want.iter().map(oracle::Cube::literals).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn cube_eval_and_implication() {
        let ab = Cube::from_literals(&[(0, true), (1, false)]);
        assert!(ab.eval(&[true, false]));
        assert!(!ab.eval(&[true, true]));
        let a = Cube::from_literals(&[(0, true)]);
        assert!(ab.implies(&a));
        assert!(!a.implies(&ab));
        assert!(ab.implies(&Cube::universe()));
    }

    #[test]
    fn merge_requires_same_support_one_flip() {
        let x = Cube::from_literals(&[(0, true), (1, true)]);
        let y = Cube::from_literals(&[(0, true), (1, false)]);
        assert_eq!(
            x.merge_adjacent(&y),
            Some(Cube::from_literals(&[(0, true)]))
        );
        let z = Cube::from_literals(&[(0, false), (1, false)]);
        assert_eq!(x.merge_adjacent(&z), None, "two flips");
        let w = Cube::from_literals(&[(0, true), (2, true)]);
        assert_eq!(x.merge_adjacent(&w), None, "different support");
    }

    #[test]
    fn simplify_is_equivalence_preserving_exhaustively() {
        // A messy cover over 4 vars: disjoint tree-like paths + redundancy.
        let sop = Sop::from_cubes(
            4,
            vec![
                Cube::from_literals(&[(0, true), (1, true), (2, true)]),
                Cube::from_literals(&[(0, true), (1, true), (2, false)]),
                Cube::from_literals(&[(0, true), (1, true)]), // absorbed & absorbing
                Cube::from_literals(&[(0, false), (3, true)]),
                Cube::from_literals(&[(0, false), (3, true)]), // duplicate
            ],
        );
        let simplified = sop.simplified();
        assert!(simplified.cubes().len() < sop.cubes().len());
        for a in assignments(4) {
            assert_eq!(sop.eval(&a), simplified.eval(&a), "{a:?}");
        }
    }

    #[test]
    fn simplify_collapses_full_cover_to_true() {
        // x + x' = 1
        let sop = Sop::from_cubes(
            1,
            vec![
                Cube::from_literals(&[(0, true)]),
                Cube::from_literals(&[(0, false)]),
            ],
        )
        .simplified();
        assert_eq!(sop.cubes(), &[Cube::universe()]);
        assert!(sop.eval(&[false]));
    }

    #[test]
    fn lower_matches_eval() {
        let sop = Sop::from_cubes(
            3,
            vec![
                Cube::from_literals(&[(0, true), (1, false)]),
                Cube::from_literals(&[(2, true)]),
            ],
        );
        let mut nl = Netlist::new("sop");
        let vars = nl.input_bus("x", 3);
        let out = sop.lower(&mut nl, &vars);
        nl.output("f", out);
        for a in assignments(3) {
            assert_eq!(nl.eval(&a)[0], sop.eval(&a), "{a:?}");
        }
    }

    #[test]
    fn lower_constant_covers() {
        let mut nl = Netlist::new("consts");
        let vars = nl.input_bus("x", 2);
        assert_eq!(
            Sop::constant_false(2).lower(&mut nl, &vars),
            Signal::Const(false)
        );
        assert_eq!(
            Sop::constant_true(2).lower(&mut nl, &vars),
            Signal::Const(true)
        );
        assert_eq!(nl.gate_count(), 0);
    }

    #[test]
    fn literal_count_is_cost_proxy() {
        let sop = Sop::from_cubes(
            3,
            vec![
                Cube::from_literals(&[(0, true), (1, true)]),
                Cube::from_literals(&[(2, false)]),
            ],
        );
        assert_eq!(sop.literal_count(), 3);
    }

    #[test]
    #[should_panic(expected = "conflicting polarities")]
    fn conflicting_literals_panic() {
        Cube::from_literals(&[(0, true), (0, false)]);
    }

    #[test]
    #[should_panic(expected = "num_vars")]
    fn sop_rejects_out_of_range_variable() {
        Sop::from_cubes(2, vec![Cube::from_literals(&[(5, true)])]);
    }

    #[test]
    fn nand_nand_lowering_is_equivalent() {
        // Covers spanning the interesting shapes: empty, universal, single
        // literal, wide cubes (>4 literals), many cubes (>4 groups).
        let cases: Vec<Sop> = vec![
            Sop::constant_false(5),
            Sop::constant_true(5),
            Sop::from_cubes(5, vec![Cube::from_literals(&[(3, false)])]),
            Sop::from_cubes(
                5,
                vec![
                    Cube::from_literals(&[(0, true), (1, false), (2, true), (3, true), (4, false)]),
                    Cube::from_literals(&[(1, true), (4, true)]),
                ],
            ),
            Sop::from_cubes(
                5,
                (0..5)
                    .flat_map(|v| {
                        [
                            Cube::from_literals(&[(v, true)]),
                            Cube::from_literals(&[(v, false), ((v + 1) % 5, true)]),
                        ]
                    })
                    .collect(),
            ),
        ];
        for sop in cases {
            let mut nl = Netlist::new("nand");
            let vars = nl.input_bus("x", 5);
            let out = sop.lower_nand_nand(&mut nl, &vars);
            nl.output("f", out);
            for a in assignments(5) {
                assert_eq!(nl.eval(&a)[0], sop.eval(&a), "{a:?} in {sop:?}");
            }
        }
    }

    #[test]
    fn nand_nand_is_cheaper_for_typical_covers() {
        use crate::report::{analyze, AnalysisConfig};
        use printed_pdk::CellLibrary;
        let sop = Sop::from_cubes(
            6,
            vec![
                Cube::from_literals(&[(0, true), (1, true), (2, false)]),
                Cube::from_literals(&[(2, true), (3, true)]),
                Cube::from_literals(&[(4, true), (5, false), (0, false)]),
            ],
        );
        let lib = CellLibrary::egfet();
        let cfg = AnalysisConfig::printed_20hz();
        let mut a = Netlist::new("andor");
        let va = a.input_bus("x", 6);
        let oa = sop.lower(&mut a, &va);
        a.output("f", oa);
        let mut b = Netlist::new("nandnand");
        let vb = b.input_bus("x", 6);
        let ob = sop.lower_nand_nand(&mut b, &vb);
        b.output("f", ob);
        let ra = analyze(&a, &lib, &cfg);
        let rb = analyze(&b, &lib, &cfg);
        assert!(
            rb.static_power < ra.static_power,
            "NAND-NAND {} vs AND-OR {}",
            rb.static_power,
            ra.static_power
        );
        assert!(rb.area < ra.area);
    }

    #[test]
    fn packed_cover_matches_sop_eval_exhaustively() {
        let cases: Vec<Sop> = vec![
            Sop::constant_false(3),
            Sop::constant_true(3),
            Sop::from_cubes(
                3,
                vec![
                    Cube::from_literals(&[(0, true), (1, false)]),
                    Cube::from_literals(&[(2, true)]),
                ],
            ),
            Sop::from_cubes(
                3,
                vec![
                    Cube::from_literals(&[(0, false), (1, false), (2, false)]),
                    Cube::universe(),
                ],
            ),
        ];
        for sop in cases {
            let packed = PackedCover::from_sop(&sop);
            assert_eq!(packed.n_cubes(), sop.cubes().len());
            for (i, cube) in sop.cubes().iter().enumerate() {
                assert!(packed.cube_literals(i).eq(cube.literals()), "{sop:?}");
            }
            for a in assignments(3) {
                assert_eq!(packed.eval(&a), sop.eval(&a), "{a:?} in {sop:?}");
            }
        }
    }

    #[test]
    fn packed_cover_spans_word_boundaries() {
        // Variables above 64 land in the second word.
        let sop = Sop::from_cubes(
            70,
            vec![Cube::from_literals(&[(0, true), (65, true), (69, false)])],
        );
        let packed = PackedCover::from_sop(&sop);
        assert!(packed.cube_literals(0).eq(sop.cubes()[0].literals()));
        let mut a = vec![false; 70];
        a[0] = true;
        a[65] = true;
        assert!(packed.eval(&a));
        assert!(sop.eval(&a));
        a[69] = true;
        assert!(!packed.eval(&a));
        assert!(!sop.eval(&a));
    }

    #[test]
    fn shared_inverters_in_lowering() {
        // Two cubes both using !x0: the inverter must be shared.
        let sop = Sop::from_cubes(
            2,
            vec![
                Cube::from_literals(&[(0, false), (1, true)]),
                Cube::from_literals(&[(0, false), (1, false)]),
            ],
        );
        let mut nl = Netlist::new("shareinv");
        let vars = nl.input_bus("x", 2);
        let out = sop.lower(&mut nl, &vars);
        nl.output("f", out);
        let inv_count = nl
            .gates()
            .iter()
            .filter(|g| g.kind == printed_pdk::CellKind::Inv)
            .count();
        assert_eq!(inv_count, 2, "one for x0 (shared), one for x1");
    }
}
