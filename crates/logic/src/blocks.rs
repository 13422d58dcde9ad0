//! Reusable combinational building blocks.
//!
//! These generators produce the recurring structures of printed classifier
//! circuits: balanced AND/OR trees, bespoke constant comparators (the heart
//! of the baseline decision tree of Mubarik et al.) and multiplexer buses
//! (the baseline's label-selection network).
//!
//! ```
//! use printed_logic::blocks;
//! use printed_logic::netlist::Netlist;
//!
//! // A bespoke comparator: is the 4-bit input ≥ 11?
//! let mut nl = Netlist::new("ge11");
//! let bits = nl.input_bus("i", 4);
//! let ge = blocks::gte_const(&mut nl, &bits, 11);
//! nl.output("ge", ge);
//! assert_eq!(nl.eval(&[true, true, false, true]), vec![true]);  // 11 ≥ 11
//! assert_eq!(nl.eval(&[false, true, false, true]), vec![false]); // 10 < 11
//! ```

use printed_pdk::CellKind;

use crate::netlist::{Netlist, Signal};

/// Reduces `signals` with a balanced tree of AND gates (using the widest
/// available cells). An empty slice yields constant `true` (the identity of
/// AND); a single signal is returned unchanged.
pub fn and_tree(nl: &mut Netlist, signals: &[Signal]) -> Signal {
    reduce_tree(nl, signals, true)
}

/// Reduces `signals` with a balanced tree of OR gates. An empty slice yields
/// constant `false`; a single signal is returned unchanged.
pub fn or_tree(nl: &mut Netlist, signals: &[Signal]) -> Signal {
    reduce_tree(nl, signals, false)
}

fn reduce_tree(nl: &mut Netlist, signals: &[Signal], is_and: bool) -> Signal {
    let mut level: Vec<Signal> = signals.to_vec();
    if level.is_empty() {
        return Signal::Const(is_and);
    }
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len() / 4 + 1);
        let mut chunk_iter = level.chunks(4);
        for chunk in &mut chunk_iter {
            let sig = match chunk.len() {
                1 => chunk[0],
                n => {
                    let kind = if is_and {
                        CellKind::and_of(n).expect("2..=4")
                    } else {
                        CellKind::or_of(n).expect("2..=4")
                    };
                    nl.gate(kind, chunk)
                }
            };
            next.push(sig);
        }
        level = next;
    }
    level[0]
}

/// Inverts a signal.
pub fn not(nl: &mut Netlist, s: Signal) -> Signal {
    nl.gate(CellKind::Inv, &[s])
}

/// Bespoke unsigned comparator `I ≥ C` for a constant `C`.
///
/// `bits` is the input LSB-first. Hardwiring the constant collapses the
/// comparator to an alternating AND/OR chain over the input bits — exactly
/// the "bespoke" trick of the baseline printed decision trees:
/// scanning from the MSB, a constant 1 bit demands `i_k AND rest`, a
/// constant 0 bit allows `i_k OR rest`.
///
/// # Panics
///
/// Panics if `bits` is empty, longer than 16, or `c` does not fit in
/// `bits.len()` bits.
pub fn gte_const(nl: &mut Netlist, bits: &[Signal], c: u32) -> Signal {
    assert!(!bits.is_empty() && bits.len() <= 16, "1..=16 input bits");
    assert!(
        (c as u64) < (1u64 << bits.len()),
        "constant {c} does not fit in {} bits",
        bits.len()
    );
    // acc = comparison over bits below the current one; base: equal ⇒ ≥.
    let mut acc = Signal::Const(true);
    for (k, &bit) in bits.iter().enumerate() {
        let c_k = (c >> k) & 1 == 1;
        acc = if c_k {
            nl.gate(CellKind::And2, &[bit, acc])
        } else {
            nl.gate(CellKind::Or2, &[bit, acc])
        };
    }
    acc
}

/// 2:1 multiplexer: returns `sel ? when_true : when_false`.
pub fn mux2(nl: &mut Netlist, when_false: Signal, when_true: Signal, sel: Signal) -> Signal {
    if when_false == when_true {
        return when_false;
    }
    nl.gate(CellKind::Mux2, &[when_false, when_true, sel])
}

/// Per-bit 2:1 multiplexer over two equal-width buses.
///
/// # Panics
///
/// Panics if the buses differ in width.
pub fn mux2_bus(
    nl: &mut Netlist,
    when_false: &[Signal],
    when_true: &[Signal],
    sel: Signal,
) -> Vec<Signal> {
    assert_eq!(when_false.len(), when_true.len(), "mux bus width mismatch");
    when_false
        .iter()
        .zip(when_true)
        .map(|(&f, &t)| mux2(nl, f, t, sel))
        .collect()
}

/// Hardwires an unsigned constant onto a bus of `width` bits (LSB first).
pub fn const_bus(value: u32, width: usize) -> Vec<Signal> {
    assert!(width <= 32, "width must be ≤ 32");
    (0..width)
        .map(|k| Signal::Const((value >> k) & 1 == 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits_of(v: u32, width: usize) -> Vec<bool> {
        (0..width).map(|k| (v >> k) & 1 == 1).collect()
    }

    #[test]
    fn gte_const_exhaustive_4bit() {
        for c in 0..16u32 {
            let mut nl = Netlist::new("ge");
            let bus = nl.input_bus("i", 4);
            let out = gte_const(&mut nl, &bus, c);
            nl.output("o", out);
            for v in 0..16u32 {
                assert_eq!(nl.eval(&bits_of(v, 4))[0], v >= c, "v={v}, c={c}");
            }
        }
    }

    #[test]
    fn gte_zero_is_free() {
        let mut nl = Netlist::new("ge0");
        let bus = nl.input_bus("i", 4);
        let out = gte_const(&mut nl, &bus, 0);
        assert_eq!(out, Signal::Const(true));
        assert_eq!(nl.gate_count(), 0, "I ≥ 0 must cost no gates");
    }

    #[test]
    fn and_or_trees_cover_sizes() {
        for n in 0..=13usize {
            let mut nl = Netlist::new("tree");
            let sigs: Vec<Signal> = (0..n).map(|i| nl.input(format!("x{i}"))).collect();
            let a = and_tree(&mut nl, &sigs);
            let o = or_tree(&mut nl, &sigs);
            nl.output("a", a);
            nl.output("o", o);
            for pattern in 0..(1u32 << n.min(10)) {
                let input = bits_of(pattern, n);
                let got = nl.eval(&input);
                assert_eq!(got[0], input.iter().all(|&b| b), "AND n={n} p={pattern}");
                assert_eq!(got[1], input.iter().any(|&b| b), "OR n={n} p={pattern}");
            }
        }
    }

    #[test]
    fn mux_bus_selects() {
        let mut nl = Netlist::new("mux");
        let a = nl.input_bus("a", 3);
        let b = nl.input_bus("b", 3);
        let s = nl.input("s");
        let out = mux2_bus(&mut nl, &a, &b, s);
        for (i, &o) in out.iter().enumerate() {
            nl.output(format!("o[{i}]"), o);
        }
        // a = 0b101, b = 0b010
        let mut input = vec![true, false, true, false, true, false, false];
        assert_eq!(nl.eval(&input), vec![true, false, true]);
        input[6] = true;
        assert_eq!(nl.eval(&input), vec![false, true, false]);
    }

    #[test]
    fn mux_with_identical_arms_collapses() {
        let mut nl = Netlist::new("muxsame");
        let a = nl.input("a");
        let s = nl.input("s");
        assert_eq!(mux2(&mut nl, a, a, s), a);
        assert_eq!(nl.gate_count(), 0);
    }

    #[test]
    fn const_bus_encodes_lsb_first() {
        assert_eq!(
            const_bus(0b1011, 4),
            vec![
                Signal::Const(true),
                Signal::Const(true),
                Signal::Const(false),
                Signal::Const(true)
            ]
        );
    }
}
