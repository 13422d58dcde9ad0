//! Combinational equivalence checking between netlists.
//!
//! Synthesis transformations in this workspace (two-level vs prefix-shared
//! vs NAND–NAND forms, QM minimization, pruning) must preserve function;
//! this module provides the checker the test-suites and users call:
//! exhaustive for up to [`EXHAUSTIVE_INPUT_LIMIT`] inputs, seeded-random
//! sampling beyond that (with the counterexample returned either way).
//!
//! ```
//! use printed_logic::equiv::{check_equivalence, Equivalence};
//! use printed_logic::netlist::Netlist;
//! use printed_pdk::CellKind;
//!
//! let mut a = Netlist::new("a");
//! let x = a.input("x");
//! let y = a.input("y");
//! let o = a.gate(CellKind::Nand2, &[x, y]);
//! a.output("o", o);
//!
//! let mut b = Netlist::new("b");
//! let x = b.input("x");
//! let y = b.input("y");
//! let and = b.gate(CellKind::And2, &[x, y]);
//! let o = b.gate(CellKind::Inv, &[and]);
//! b.output("o", o);
//!
//! assert_eq!(check_equivalence(&a, &b, 0), Equivalence::Equivalent { exhaustive: true });
//! ```

use crate::netlist::Netlist;
use crate::sim::PackedNetlist;

/// Inputs up to this count are checked exhaustively (2^20 ≈ 1M patterns).
pub const EXHAUSTIVE_INPUT_LIMIT: usize = 20;

/// Number of random patterns used above the exhaustive limit.
pub const RANDOM_PATTERNS: usize = 4096;

/// Outcome of [`check_equivalence`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equivalence {
    /// No differing pattern found.
    Equivalent {
        /// True when the whole input space was enumerated (a proof); false
        /// when only random patterns were tried (strong evidence).
        exhaustive: bool,
    },
    /// The netlists differ on this input assignment.
    Counterexample {
        /// The differing input pattern.
        inputs: Vec<bool>,
        /// First netlist's outputs on it.
        left: Vec<bool>,
        /// Second netlist's outputs on it.
        right: Vec<bool>,
    },
    /// The netlists are structurally incomparable.
    Mismatched {
        /// Human-readable reason (input/output count difference).
        reason: String,
    },
}

impl Equivalence {
    /// True for either `Equivalent` verdict.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, Equivalence::Equivalent { .. })
    }
}

/// Checks whether two netlists compute the same outputs on all inputs
/// (matched positionally: input `i` of `left` pairs with input `i` of
/// `right`, same for outputs).
///
/// `seed` drives the random patterns used beyond the exhaustive limit;
/// exhaustive runs ignore it. Patterns are simulated 64 per batch; the
/// counterexample is the first differing pattern in enumeration order.
pub fn check_equivalence(left: &Netlist, right: &Netlist, seed: u64) -> Equivalence {
    let n = left.input_count();
    if n <= EXHAUSTIVE_INPUT_LIMIT {
        let domain = (0..1u64 << n).map(|p| (0..n).map(|k| p & (1 << k) != 0).collect());
        return check_equivalence_on(left, right, domain);
    }
    // xorshift64* — deterministic, dependency-free pattern source.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let domain = (0..RANDOM_PATTERNS).map(move |_| (0..n).map(|_| next() & 1 != 0).collect());
    match check_equivalence_on(left, right, domain) {
        Equivalence::Equivalent { .. } => Equivalence::Equivalent { exhaustive: false },
        verdict => verdict,
    }
}

/// Checks whether two netlists compute the same outputs on an explicitly
/// enumerated input domain (matched positionally, as in
/// [`check_equivalence`]).
///
/// The full-space checker treats every Boolean assignment as reachable,
/// but netlists fed by thermometer-coded ADCs never see assignments that
/// violate unary monotonicity — two designs differing only on those
/// vectors are equivalent *in this system*. Callers enumerate the
/// physically reachable domain (e.g. [`thermometer_patterns`]) and verify
/// over exactly that; the `exhaustive` flag in the verdict reflects the
/// caller's claim that `domain` covers every reachable input.
pub fn check_equivalence_on(
    left: &Netlist,
    right: &Netlist,
    domain: impl IntoIterator<Item = Vec<bool>>,
) -> Equivalence {
    if left.input_count() != right.input_count() {
        return Equivalence::Mismatched {
            reason: format!(
                "input counts differ: {} vs {}",
                left.input_count(),
                right.input_count()
            ),
        };
    }
    let identity: Vec<usize> = (0..left.input_count()).collect();
    check_projected_on(left, right, &identity, domain)
}

/// [`check_equivalence_on`] for a `right` netlist that reads a subset of
/// `left`'s inputs: its input `j` is `left`'s input `projection[j]`. Each
/// domain pattern drives `left` whole and `right` through the projection;
/// a counterexample carries the full `left` pattern.
///
/// # Panics
///
/// Panics if a pattern's length differs from `left`'s input count or a
/// projection index is out of range.
pub fn check_projected_on(
    left: &Netlist,
    right: &Netlist,
    projection: &[usize],
    domain: impl IntoIterator<Item = Vec<bool>>,
) -> Equivalence {
    if right.input_count() != projection.len() {
        return Equivalence::Mismatched {
            reason: format!(
                "right input count {} differs from the projection's {}",
                right.input_count(),
                projection.len()
            ),
        };
    }
    if left.outputs().len() != right.outputs().len() {
        return Equivalence::Mismatched {
            reason: format!(
                "output counts differ: {} vs {}",
                left.outputs().len(),
                right.outputs().len()
            ),
        };
    }
    let (left, right) = (PackedNetlist::compile(left), PackedNetlist::compile(right));
    let (mut left_lanes, mut right_lanes) = (left.lanes(64), right.lanes(64));
    let mut domain = domain.into_iter();
    let mut batch = Vec::with_capacity(64);
    loop {
        batch.clear();
        batch.extend(domain.by_ref().take(64));
        if batch.is_empty() {
            return Equivalence::Equivalent { exhaustive: true };
        }
        left_lanes.load(&batch);
        let source = left_lanes.columns();
        for (column, &i) in right_lanes
            .columns_mut(batch.len())
            .iter_mut()
            .zip(projection)
        {
            *column = source[i];
        }
        left.simulate(&mut left_lanes);
        right.simulate(&mut right_lanes);
        // The lowest differing lane is the batch's first counterexample.
        let diff = (0..left.output_count()).fold(0, |acc, k| {
            acc | (left.output(&left_lanes, k)[0] ^ right.output(&right_lanes, k)[0])
        }) & left_lanes.valid(0);
        if diff != 0 {
            let lane = diff.trailing_zeros() as usize;
            return Equivalence::Counterexample {
                inputs: left_lanes.inputs_at(lane),
                left: left.outputs_at(&left_lanes, lane),
                right: right.outputs_at(&right_lanes, lane),
            };
        }
    }
}

/// Enumerates every thermometer-consistent assignment of variables split
/// into consecutive monotone groups: group `g` spans `sizes[g]` variables
/// whose valid assignments are exactly the `sizes[g] + 1` true-prefixes
/// (digit `k` high implies digit `j` high for `j < k`, the unary ADC
/// invariant). The domain has `Π (sizes[g] + 1)` patterns — usually far
/// smaller than `2^Σ sizes`.
pub fn thermometer_patterns(sizes: &[usize]) -> Vec<Vec<bool>> {
    let total: usize = sizes.iter().sum();
    let mut patterns = vec![Vec::with_capacity(total)];
    for &size in sizes {
        let mut next = Vec::with_capacity(patterns.len() * (size + 1));
        for pattern in &patterns {
            for level in 0..=size {
                let mut extended = pattern.clone();
                extended.extend((0..size).map(|digit| digit < level));
                next.push(extended);
            }
        }
        patterns = next;
    }
    patterns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks;
    use crate::netlist::Signal;
    use printed_pdk::CellKind;

    /// The scalar pattern loops the batched checkers replaced, kept as
    /// the reference their verdicts are pinned to.
    fn scalar_check_equivalence(left: &Netlist, right: &Netlist, seed: u64) -> Equivalence {
        let n = left.input_count();
        if n <= EXHAUSTIVE_INPUT_LIMIT {
            let domain = (0..1u64 << n).map(|p| (0..n).map(|k| p & (1 << k) != 0).collect());
            return scalar_check_on(left, right, domain);
        }
        let domain = scalar_random_domain(n, seed);
        match scalar_check_on(left, right, domain) {
            Equivalence::Equivalent { .. } => Equivalence::Equivalent { exhaustive: false },
            verdict => verdict,
        }
    }

    fn scalar_check_on(
        left: &Netlist,
        right: &Netlist,
        domain: impl IntoIterator<Item = Vec<bool>>,
    ) -> Equivalence {
        for inputs in domain {
            let (l, r) = (left.eval(&inputs), right.eval(&inputs));
            if l != r {
                return Equivalence::Counterexample {
                    inputs,
                    left: l,
                    right: r,
                };
            }
        }
        Equivalence::Equivalent { exhaustive: true }
    }

    fn bits(p: u64, n: usize) -> Vec<bool> {
        (0..n).map(|k| p >> k & 1 == 1).collect()
    }

    /// Two `n`-input netlists sharing an XOR output whose second outputs
    /// differ exactly where inputs `0..minterm.len()` equal `minterm`.
    fn differ_on(n: usize, minterm: &[bool]) -> (Netlist, Netlist) {
        let build = |detect: bool| {
            let mut nl = Netlist::new("minterm");
            let bus = nl.input_bus("x", n);
            let shared = nl.gate(CellKind::Xor2, &[bus[0], bus[n - 1]]);
            nl.output("o0", shared);
            let mut hit = Signal::Const(detect);
            if detect {
                for (&var, &polarity) in bus.iter().zip(minterm) {
                    let term = if polarity {
                        var
                    } else {
                        nl.gate(CellKind::Inv, &[var])
                    };
                    hit = nl.gate(CellKind::And2, &[hit, term]);
                }
            }
            nl.output("o1", hit);
            nl
        };
        (build(false), build(true))
    }

    #[test]
    fn exhaustive_counterexample_is_the_scalar_loops() {
        // Pattern 100 of 7 inputs sits in the second 64-pattern batch;
        // pattern 29 of 5 inputs in the only, partial one.
        for (n, pattern) in [(7, 100), (5, 29)] {
            let (a, b) = differ_on(n, &bits(pattern, n));
            let verdict = check_equivalence(&a, &b, 0);
            assert_eq!(verdict, scalar_check_equivalence(&a, &b, 0));
            assert_eq!(
                verdict,
                Equivalence::Counterexample {
                    inputs: bits(pattern, n),
                    left: vec![bits(pattern, n)[0] ^ bits(pattern, n)[n - 1], false],
                    right: vec![bits(pattern, n)[0] ^ bits(pattern, n)[n - 1], true],
                }
            );
        }
    }

    #[test]
    fn random_counterexample_is_the_scalar_loops() {
        // 24 inputs, differing on 1/128 of the space: the first hit falls
        // past the first batch for most seeds.
        let (a, b) = differ_on(24, &bits(0b101_1001, 7));
        let mut later_batches = 0;
        for seed in 0..16 {
            let verdict = check_equivalence(&a, &b, seed);
            assert_eq!(
                verdict,
                scalar_check_equivalence(&a, &b, seed),
                "seed {seed}"
            );
            let Equivalence::Counterexample { inputs, .. } = verdict else {
                panic!("seed {seed}: 4096 patterns must hit a 1/128 minterm");
            };
            assert_eq!(inputs[..7], bits(0b101_1001, 7));
            let domain = scalar_random_domain(24, seed);
            let position = domain.iter().position(|p| *p == inputs).unwrap();
            later_batches += usize::from(position >= 64);
        }
        assert!(later_batches > 0, "no counterexample past the first batch");
    }

    /// The random patterns of [`check_equivalence`], in draw order.
    fn scalar_random_domain(n: usize, seed: u64) -> Vec<Vec<bool>> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        (0..RANDOM_PATTERNS)
            .map(|_| (0..n).map(|_| next() & 1 != 0).collect())
            .collect()
    }

    #[test]
    fn domain_counterexample_is_the_scalar_loops() {
        // A 100-pattern domain (127, 126, …, 28): a difference at position
        // 70 falls in the second batch, at position 99 in the final
        // partial batch.
        let domain: Vec<Vec<bool>> = (0..100).map(|i| bits(127 - i, 7)).collect();
        for position in [70, 99] {
            let (a, b) = differ_on(7, &domain[position]);
            let verdict = check_equivalence_on(&a, &b, domain.clone());
            assert_eq!(verdict, scalar_check_on(&a, &b, domain.clone()));
            let Equivalence::Counterexample { inputs, .. } = verdict else {
                panic!("expected a counterexample");
            };
            assert_eq!(inputs, domain[position]);
        }
        let (a, b) = differ_on(7, &bits(5, 7));
        assert_eq!(
            check_equivalence_on(&a, &b, domain.clone()),
            Equivalence::Equivalent { exhaustive: true },
            "pattern 5 is outside the domain"
        );
    }

    fn xor_two_ways() -> (Netlist, Netlist) {
        let mut a = Netlist::new("xor-direct");
        let x = a.input("x");
        let y = a.input("y");
        let o = a.gate(CellKind::Xor2, &[x, y]);
        a.output("o", o);

        let mut b = Netlist::new("xor-sop");
        let x = b.input("x");
        let y = b.input("y");
        let nx = b.gate(CellKind::Inv, &[x]);
        let ny = b.gate(CellKind::Inv, &[y]);
        let t1 = b.gate(CellKind::And2, &[x, ny]);
        let t2 = b.gate(CellKind::And2, &[nx, y]);
        let o = b.gate(CellKind::Or2, &[t1, t2]);
        b.output("o", o);
        (a, b)
    }

    #[test]
    fn equivalent_implementations_verify() {
        let (a, b) = xor_two_ways();
        assert_eq!(
            check_equivalence(&a, &b, 0),
            Equivalence::Equivalent { exhaustive: true }
        );
        assert!(check_equivalence(&a, &b, 0).is_equivalent());
    }

    #[test]
    fn counterexample_is_concrete() {
        let mut a = Netlist::new("and");
        let x = a.input("x");
        let y = a.input("y");
        let o = a.gate(CellKind::And2, &[x, y]);
        a.output("o", o);
        let mut b = Netlist::new("or");
        let x = b.input("x");
        let y = b.input("y");
        let o = b.gate(CellKind::Or2, &[x, y]);
        b.output("o", o);
        match check_equivalence(&a, &b, 0) {
            Equivalence::Counterexample {
                inputs,
                left,
                right,
            } => {
                // The counterexample must actually differ.
                assert_eq!(a.eval(&inputs), left);
                assert_eq!(b.eval(&inputs), right);
                assert_ne!(left, right);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_shapes_are_reported() {
        let mut a = Netlist::new("one-in");
        let x = a.input("x");
        a.output("o", x);
        let mut b = Netlist::new("two-in");
        let x = b.input("x");
        let _y = b.input("y");
        b.output("o", x);
        assert!(matches!(
            check_equivalence(&a, &b, 0),
            Equivalence::Mismatched { .. }
        ));
    }

    #[test]
    fn comparator_synthesis_variants_are_equivalent() {
        // gte_const vs a redundant OR of two bespoke comparators:
        // I ≥ C ⇔ (I ≥ C) ∨ (I ≥ C+1).
        for c in 1..15u32 {
            let mut a = Netlist::new("ge");
            let bus = a.input_bus("i", 4);
            let o = blocks::gte_const(&mut a, &bus, c);
            a.output("o", o);
            let mut b = Netlist::new("ge-or");
            let bus = b.input_bus("i", 4);
            let ge = blocks::gte_const(&mut b, &bus, c);
            let ge_next = blocks::gte_const(&mut b, &bus, c + 1);
            let o = blocks::or_tree(&mut b, &[ge, ge_next]);
            b.output("o", o);
            assert_ne!(a.gate_count(), b.gate_count(), "c={c}");
            assert!(check_equivalence(&a, &b, 0).is_equivalent(), "c={c}");
        }
    }

    #[test]
    fn thermometer_patterns_enumerate_true_prefixes() {
        // One 2-digit group: 3 valid levels; plus a 1-digit group: 2.
        let patterns = thermometer_patterns(&[2, 1]);
        assert_eq!(patterns.len(), 3 * 2);
        for p in &patterns {
            assert_eq!(p.len(), 3);
            // Monotone within the first group: digit 1 high ⇒ digit 0 high.
            assert!(!p[1] || p[0], "{p:?} violates thermometer order");
        }
        // The invalid vector 01 never appears.
        assert!(!patterns.iter().any(|p| !p[0] && p[1]));
        assert_eq!(thermometer_patterns(&[]), vec![Vec::<bool>::new()]);
    }

    #[test]
    fn thermometer_restricted_equivalence_ignores_invalid_vectors() {
        // Regression for the full-space checker's blind spot: two
        // implementations of "x ≥ tap₀" that differ only when the
        // thermometer-invalid vector (digit 1 high, digit 0 low) is
        // driven. A physical ADC can never produce it, so the designs are
        // equivalent in this system — but the unrestricted checker calls
        // them different.
        let mut a = Netlist::new("low-digit");
        let d0 = a.input("u0_3");
        let _d1 = a.input("u0_9");
        a.output("o", d0);

        let mut b = Netlist::new("either-digit");
        let d0 = b.input("u0_3");
        let d1 = b.input("u0_9");
        let o = b.gate(CellKind::Or2, &[d0, d1]);
        b.output("o", o);

        match check_equivalence(&a, &b, 0) {
            Equivalence::Counterexample { inputs, .. } => {
                assert_eq!(inputs, vec![false, true], "differs exactly on 01");
            }
            other => panic!("full-space check must find the gap, got {other:?}"),
        }
        assert_eq!(
            check_equivalence_on(&a, &b, thermometer_patterns(&[2])),
            Equivalence::Equivalent { exhaustive: true }
        );
    }

    #[test]
    fn restricted_check_still_reports_shape_mismatch_and_real_gaps() {
        let mut a = Netlist::new("id");
        let x = a.input("x");
        a.output("o", x);
        let mut b = Netlist::new("neg");
        let x = b.input("x");
        let o = b.gate(CellKind::Inv, &[x]);
        b.output("o", o);
        assert!(matches!(
            check_equivalence_on(&a, &b, thermometer_patterns(&[1])),
            Equivalence::Counterexample { .. }
        ));
        let mut c = Netlist::new("two-in");
        let x = c.input("x");
        let _y = c.input("y");
        c.output("o", x);
        assert!(matches!(
            check_equivalence_on(&a, &c, thermometer_patterns(&[1])),
            Equivalence::Mismatched { .. }
        ));
    }

    #[test]
    fn wide_netlists_use_random_sampling() {
        // 24 inputs: beyond the exhaustive limit; identical netlists verify
        // non-exhaustively.
        let build = || {
            let mut nl = Netlist::new("wide");
            let bus = nl.input_bus("i", 24);
            let o = blocks::and_tree(&mut nl, &bus);
            nl.output("o", o);
            nl
        };
        let verdict = check_equivalence(&build(), &build(), 42);
        assert_eq!(verdict, Equivalence::Equivalent { exhaustive: false });
    }
}
