//! Gate-level netlists.
//!
//! A [`Netlist`] is a combinational DAG of standard cells from the
//! `printed-pdk` library. Gates are appended in topological order by
//! construction (a gate may only reference already-created signals), which
//! keeps evaluation, timing, and reporting simple single passes.
//!
//! Structural hashing is built in: creating a gate with the same kind and
//! the same input signals as an existing gate returns the existing gate's
//! signal, so common subexpressions are shared automatically — this mirrors
//! what a synthesis tool's structuring step would do and keeps area reports
//! honest.
//!
//! ```
//! use printed_logic::netlist::Netlist;
//! use printed_pdk::CellKind;
//!
//! let mut nl = Netlist::new("maj3");
//! let a = nl.input("a");
//! let b = nl.input("b");
//! let c = nl.input("c");
//! let ab = nl.gate(CellKind::And2, &[a, b]);
//! let bc = nl.gate(CellKind::And2, &[b, c]);
//! let ac = nl.gate(CellKind::And2, &[a, c]);
//! let maj = nl.gate(CellKind::Or3, &[ab, bc, ac]);
//! nl.output("maj", maj);
//! assert_eq!(nl.eval(&[true, true, false]), vec![true]);
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use printed_pdk::CellKind;

/// A value in the netlist: a primary input, a gate output, or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Signal {
    /// The `n`-th primary input.
    Input(usize),
    /// The output of the `n`-th gate.
    Gate(usize),
    /// A hardwired constant (costs nothing; tie cells are free routing in
    /// this technology).
    Const(bool),
}

/// One instantiated cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Gate {
    /// The standard cell implementing this gate.
    pub kind: CellKind,
    /// Input connections, in cell-pin order.
    pub inputs: Vec<Signal>,
}

/// The structural-hashing key of a gate: its kind and its inputs padded
/// to the widest cell's four pins. A kind fixes its arity, so the padding
/// never makes two different gates collide.
type GateKey = (CellKind, [Signal; 4]);

fn gate_key(kind: CellKind, inputs: &[Signal]) -> GateKey {
    let mut pins = [Signal::Const(false); 4];
    pins[..inputs.len()].copy_from_slice(inputs);
    (kind, pins)
}

/// A multiply-rotate hasher for [`GateKey`]s: a handful of small integers
/// per key, hashed in a few instructions. The keys are gates synthesis
/// builds, not input from outside the program, so collision resistance
/// buys nothing; lookup order never leaks out of the map, so the hash
/// only sets speed.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// A combinational gate-level netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    name: String,
    input_names: Vec<String>,
    gates: Vec<Gate>,
    outputs: Vec<(String, Signal)>,
    structural: HashMap<GateKey, usize, BuildHasherDefault<KeyHasher>>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            input_names: Vec::new(),
            gates: Vec::new(),
            outputs: Vec::new(),
            structural: HashMap::default(),
        }
    }

    /// The netlist's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares a new primary input and returns its signal.
    pub fn input(&mut self, name: impl Into<String>) -> Signal {
        self.input_names.push(name.into());
        Signal::Input(self.input_names.len() - 1)
    }

    /// Declares `width` inputs named `prefix[0]`, `prefix[1]`, … (LSB
    /// first) and returns their signals.
    pub fn input_bus(&mut self, prefix: &str, width: usize) -> Vec<Signal> {
        (0..width)
            .map(|i| self.input(format!("{prefix}[{i}]")))
            .collect()
    }

    /// Instantiates a cell (or reuses a structurally identical one) and
    /// returns its output signal.
    ///
    /// Trivial identities are folded instead of instantiated: constant
    /// inputs propagate (e.g. `AND(x, 0) = 0`, `AND(x, 1) = x` for 2-input
    /// gates), `BUF(x) = x`, and `INV(INV(x)) = x`.
    ///
    /// # Panics
    ///
    /// Panics if the number of inputs does not match the cell's arity or if
    /// any input signal does not exist in this netlist.
    pub fn gate(&mut self, kind: CellKind, inputs: &[Signal]) -> Signal {
        assert_eq!(
            inputs.len(),
            kind.inputs(),
            "cell {kind} expects {} inputs, got {}",
            kind.inputs(),
            inputs.len()
        );
        for &s in inputs {
            self.check_signal(s);
        }

        if let Some(folded) = self.try_fold(kind, inputs) {
            return folded;
        }

        let next = self.gates.len();
        let idx = *self
            .structural
            .entry(gate_key(kind, inputs))
            .or_insert(next);
        if idx == next {
            self.gates.push(Gate {
                kind,
                inputs: inputs.to_vec(),
            });
        }
        Signal::Gate(idx)
    }

    /// Constant-folding and local identities. Returns `Some(signal)` when no
    /// gate needs to be instantiated.
    fn try_fold(&mut self, kind: CellKind, inputs: &[Signal]) -> Option<Signal> {
        use CellKind::*;
        // Fully-constant inputs fold to a constant output.
        if inputs.iter().all(|s| matches!(s, Signal::Const(_))) {
            let mut vals = [false; 4];
            for (val, s) in vals.iter_mut().zip(inputs) {
                *val = *s == Signal::Const(true);
            }
            return Some(Signal::Const(kind.eval(&vals[..inputs.len()])));
        }
        match kind {
            Buf => Some(inputs[0]),
            Inv => match inputs[0] {
                Signal::Const(b) => Some(Signal::Const(!b)),
                Signal::Gate(g) if self.gates[g].kind == Inv => Some(self.gates[g].inputs[0]),
                _ => None,
            },
            And2 | And3 | And4 => {
                if inputs.contains(&Signal::Const(false)) {
                    return Some(Signal::Const(false));
                }
                self.fold_variadic(true, inputs)
            }
            Or2 | Or3 | Or4 => {
                if inputs.contains(&Signal::Const(true)) {
                    return Some(Signal::Const(true));
                }
                self.fold_variadic(false, inputs)
            }
            _ => None,
        }
    }

    /// Shared AND/OR folding: strips the identity constants (`1` for AND,
    /// `0` for OR) and collapses to a smaller gate when possible. Returns
    /// `None` when the original arity is still required.
    fn fold_variadic(&mut self, is_and: bool, inputs: &[Signal]) -> Option<Signal> {
        let mut pins = [Signal::Const(is_and); 4];
        let mut n = 0;
        for &s in inputs {
            if s != Signal::Const(is_and) {
                pins[n] = s;
                n += 1;
            }
        }
        let live = &pins[..n];
        match n {
            0 => Some(Signal::Const(is_and)),
            1 => Some(live[0]),
            n if n < inputs.len() => {
                let kind = if is_and {
                    CellKind::and_of(n).expect("arity 2..=3 exists")
                } else {
                    CellKind::or_of(n).expect("arity 2..=3 exists")
                };
                Some(self.gate(kind, live))
            }
            _ => None,
        }
    }

    /// Appends a gate with neither folding nor sharing — the only way to
    /// instantiate tie cells, which simulator tests need.
    #[cfg(test)]
    pub(crate) fn push_unfolded(&mut self, kind: CellKind, inputs: &[Signal]) -> Signal {
        assert_eq!(inputs.len(), kind.inputs(), "cell {kind} arity");
        for &s in inputs {
            self.check_signal(s);
        }
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
        });
        Signal::Gate(self.gates.len() - 1)
    }

    fn check_signal(&self, s: Signal) {
        match s {
            Signal::Input(i) => {
                assert!(
                    i < self.input_names.len(),
                    "input signal {i} does not exist"
                )
            }
            Signal::Gate(g) => assert!(g < self.gates.len(), "gate signal {g} does not exist"),
            Signal::Const(_) => {}
        }
    }

    /// Binds a named primary output.
    ///
    /// # Panics
    ///
    /// Panics if the signal does not exist in this netlist.
    pub fn output(&mut self, name: impl Into<String>, signal: Signal) {
        self.check_signal(signal);
        self.outputs.push((name.into(), signal));
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.input_names.len()
    }

    /// Names of the primary inputs, in declaration order.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Number of instantiated gates (after folding/sharing).
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// The instantiated gates in topological order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The named outputs.
    pub fn outputs(&self) -> &[(String, Signal)] {
        &self.outputs
    }

    /// Evaluates the netlist on one input assignment (`inputs[i]` drives the
    /// `i`-th declared input); returns the output values in declaration
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.input_count()`.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        let values = self.eval_all(inputs);
        self.outputs
            .iter()
            .map(|&(_, s)| Self::value_of(s, inputs, &values))
            .collect()
    }

    /// Evaluates every gate; returns the per-gate output values. Useful for
    /// activity estimation.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.input_count()`.
    pub fn eval_all(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(
            inputs.len(),
            self.input_names.len(),
            "wrong number of input values"
        );
        let mut values = Vec::with_capacity(self.gates.len());
        for gate in &self.gates {
            let args: Vec<bool> = gate
                .inputs
                .iter()
                .map(|&s| Self::value_of(s, inputs, &values))
                .collect();
            values.push(gate.kind.eval(&args));
        }
        values
    }

    fn value_of(signal: Signal, inputs: &[bool], gate_values: &[bool]) -> bool {
        match signal {
            Signal::Input(i) => inputs[i],
            Signal::Gate(g) => gate_values[g],
            Signal::Const(b) => b,
        }
    }

    /// Removes gates that no output (transitively) depends on, preserving
    /// relative order. Returns the number of gates removed.
    ///
    /// Structural sharing can leave dead gates behind when a caller builds
    /// speculative logic it ends up not using; pruning before a report keeps
    /// area/power honest.
    pub fn prune(&mut self) -> usize {
        let mut live = vec![false; self.gates.len()];
        let mut stack: Vec<usize> = self
            .outputs
            .iter()
            .filter_map(|&(_, s)| match s {
                Signal::Gate(g) => Some(g),
                _ => None,
            })
            .collect();
        while let Some(g) = stack.pop() {
            if live[g] {
                continue;
            }
            live[g] = true;
            for &s in &self.gates[g].inputs {
                if let Signal::Gate(h) = s {
                    if !live[h] {
                        stack.push(h);
                    }
                }
            }
        }
        let removed = live.iter().filter(|&&l| !l).count();
        if removed == 0 {
            return 0;
        }
        // Remap indices.
        let mut remap = vec![usize::MAX; self.gates.len()];
        let mut kept = Vec::with_capacity(self.gates.len() - removed);
        for (old, gate) in self.gates.drain(..).enumerate() {
            if live[old] {
                remap[old] = kept.len();
                kept.push(gate);
            }
        }
        for gate in &mut kept {
            for s in &mut gate.inputs {
                if let Signal::Gate(g) = s {
                    *s = Signal::Gate(remap[*g]);
                }
            }
        }
        self.gates = kept;
        for (_, s) in &mut self.outputs {
            if let Signal::Gate(g) = s {
                *s = Signal::Gate(remap[*g]);
            }
        }
        self.structural = self
            .gates
            .iter()
            .enumerate()
            .map(|(i, g)| (gate_key(g.kind, &g.inputs), i))
            .collect();
        removed
    }

    /// Per-cell-kind instance counts, for utilization reports.
    pub fn cell_histogram(&self) -> Vec<(CellKind, usize)> {
        let mut counts: HashMap<CellKind, usize> = HashMap::new();
        for g in &self.gates {
            *counts.entry(g.kind).or_insert(0) += 1;
        }
        let mut v: Vec<_> = counts.into_iter().collect();
        v.sort_by_key(|&(k, _)| k);
        v
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::blocks::{and_tree, or_tree};
    use crate::oracle;

    /// One build step: `(op, picks)`. An `op` below `CellKind::ALL.len()`
    /// instantiates that cell over picked signals; the next one binds two
    /// picked signals as outputs and prunes; the last reduces the picks
    /// with an AND tree (even first pick) or an OR tree. A pick `p`
    /// counts back from the newest signal, so chains such as `INV(INV(x))`
    /// and gates over the constants come up often.
    fn arb_steps() -> impl Strategy<Value = Vec<(usize, Vec<usize>)>> {
        proptest::collection::vec(
            (
                0usize..CellKind::ALL.len() + 2,
                proptest::collection::vec(0usize..8, 1..10),
            ),
            1..48,
        )
    }

    proptest! {
        /// The copy-keyed builder returns the same signal as the
        /// gate-keyed oracle on every call, and holds the same gates and
        /// outputs after every step, pruning included.
        #[test]
        fn builder_matches_the_gate_keyed_oracle(runs in proptest::collection::vec(arb_steps(), 8)) {
            for steps in runs {
                let mut nl = Netlist::new("random");
                let mut reference = oracle::Netlist::default();
                let base: Vec<Signal> = [Signal::Const(false), Signal::Const(true)]
                    .into_iter()
                    .chain(nl.input_bus("x", 3))
                    .collect();
                let mut pool = base.clone();
                for (op, picks) in steps {
                    let picked: Vec<Signal> = picks
                        .iter()
                        .map(|&p| pool[pool.len() - 1 - p % pool.len()])
                        .collect();
                    if let Some(&kind) = CellKind::ALL.get(op) {
                        let inputs: Vec<Signal> =
                            (0..kind.inputs()).map(|i| picked[i % picked.len()]).collect();
                        let got = nl.gate(kind, &inputs);
                        prop_assert_eq!(got, reference.gate(kind, &inputs), "{} {:?}", kind, inputs);
                        pool.push(got);
                    } else if op == CellKind::ALL.len() {
                        for &s in picked.iter().take(2) {
                            nl.output("o", s);
                            reference.output(s);
                        }
                        nl.prune();
                        reference.prune();
                        pool = base.clone();
                        pool.extend(nl.outputs().iter().map(|&(_, s)| s));
                    } else {
                        let is_and = picks[0] % 2 == 0;
                        let got = if is_and {
                            and_tree(&mut nl, &picked)
                        } else {
                            or_tree(&mut nl, &picked)
                        };
                        prop_assert_eq!(got, oracle::reduce_tree(&mut reference, &picked, is_and));
                        pool.push(got);
                    }
                    prop_assert_eq!(nl.gates(), reference.gates());
                    prop_assert!(nl.outputs().iter().map(|&(_, s)| s).eq(reference.outputs().iter().copied()));
                }
            }
        }
    }

    #[test]
    fn structural_hashing_shares_gates() {
        let mut nl = Netlist::new("share");
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.gate(CellKind::And2, &[a, b]);
        let y = nl.gate(CellKind::And2, &[a, b]);
        assert_eq!(x, y);
        assert_eq!(nl.gate_count(), 1);
        // Different pin order is a different structure (cells are not
        // canonicalized by commutativity — matches synthesis-tool behavior).
        let z = nl.gate(CellKind::And2, &[b, a]);
        assert_ne!(x, z);
    }

    #[test]
    fn constant_folding_and_identities() {
        let mut nl = Netlist::new("fold");
        let a = nl.input("a");
        assert_eq!(
            nl.gate(CellKind::And2, &[a, Signal::Const(false)]),
            Signal::Const(false)
        );
        assert_eq!(nl.gate(CellKind::And2, &[a, Signal::Const(true)]), a);
        assert_eq!(
            nl.gate(CellKind::Or2, &[a, Signal::Const(true)]),
            Signal::Const(true)
        );
        assert_eq!(nl.gate(CellKind::Or2, &[a, Signal::Const(false)]), a);
        assert_eq!(nl.gate(CellKind::Buf, &[a]), a);
        let na = nl.gate(CellKind::Inv, &[a]);
        assert_eq!(nl.gate(CellKind::Inv, &[na]), a);
        assert_eq!(
            nl.gate(CellKind::Inv, &[Signal::Const(false)]),
            Signal::Const(true)
        );
        assert_eq!(nl.gate_count(), 1, "only the inverter should remain");
    }

    #[test]
    fn wide_gates_shrink_when_constants_drop_out() {
        let mut nl = Netlist::new("shrink");
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.gate(
            CellKind::And4,
            &[a, Signal::Const(true), b, Signal::Const(true)],
        );
        nl.output("x", x);
        assert_eq!(nl.gate_count(), 1);
        assert_eq!(nl.gates()[0].kind, CellKind::And2);
        assert_eq!(nl.eval(&[true, true]), vec![true]);
        assert_eq!(nl.eval(&[true, false]), vec![false]);
    }

    #[test]
    fn eval_full_adder() {
        let mut nl = Netlist::new("fa");
        let a = nl.input("a");
        let b = nl.input("b");
        let cin = nl.input("cin");
        let axb = nl.gate(CellKind::Xor2, &[a, b]);
        let sum = nl.gate(CellKind::Xor2, &[axb, cin]);
        let ab = nl.gate(CellKind::And2, &[a, b]);
        let c_axb = nl.gate(CellKind::And2, &[axb, cin]);
        let cout = nl.gate(CellKind::Or2, &[ab, c_axb]);
        nl.output("sum", sum);
        nl.output("cout", cout);
        for i in 0..8u32 {
            let bits = [(i & 1) != 0, (i & 2) != 0, (i & 4) != 0];
            let out = nl.eval(&bits);
            let total = bits.iter().filter(|&&b| b).count();
            assert_eq!(out[0], total % 2 == 1, "sum for {bits:?}");
            assert_eq!(out[1], total >= 2, "cout for {bits:?}");
        }
    }

    #[test]
    fn prune_removes_dead_logic() {
        let mut nl = Netlist::new("dead");
        let a = nl.input("a");
        let b = nl.input("b");
        let live = nl.gate(CellKind::And2, &[a, b]);
        let _dead = nl.gate(CellKind::Or2, &[a, b]);
        nl.output("x", live);
        assert_eq!(nl.gate_count(), 2);
        assert_eq!(nl.prune(), 1);
        assert_eq!(nl.gate_count(), 1);
        assert_eq!(nl.eval(&[true, true]), vec![true]);
        assert_eq!(nl.eval(&[true, false]), vec![false]);
        // Idempotent.
        assert_eq!(nl.prune(), 0);
    }

    #[test]
    fn prune_keeps_shared_subexpressions() {
        let mut nl = Netlist::new("shared");
        let a = nl.input("a");
        let b = nl.input("b");
        let c = nl.input("c");
        let ab = nl.gate(CellKind::And2, &[a, b]);
        let abc = nl.gate(CellKind::And2, &[ab, c]);
        let dead = nl.gate(CellKind::Or2, &[ab, c]);
        let _ = dead;
        nl.output("y", abc);
        nl.prune();
        assert_eq!(nl.gate_count(), 2);
        assert_eq!(nl.eval(&[true, true, true]), vec![true]);
        assert_eq!(nl.eval(&[true, true, false]), vec![false]);
    }

    #[test]
    fn const_output_netlist() {
        let mut nl = Netlist::new("const");
        let _a = nl.input("a");
        nl.output("always", Signal::Const(true));
        assert_eq!(nl.eval(&[false]), vec![true]);
        assert_eq!(nl.gate_count(), 0);
    }

    #[test]
    fn cell_histogram_counts_kinds() {
        let mut nl = Netlist::new("hist");
        let a = nl.input("a");
        let b = nl.input("b");
        let c = nl.input("c");
        let x = nl.gate(CellKind::And2, &[a, b]);
        let y = nl.gate(CellKind::And2, &[b, c]);
        let z = nl.gate(CellKind::Or2, &[x, y]);
        nl.output("z", z);
        let hist = nl.cell_histogram();
        assert!(hist.contains(&(CellKind::And2, 2)));
        assert!(hist.contains(&(CellKind::Or2, 1)));
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn gate_rejects_wrong_arity() {
        let mut nl = Netlist::new("bad");
        let a = nl.input("a");
        nl.gate(CellKind::And2, &[a]);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn output_rejects_foreign_signal() {
        let mut nl = Netlist::new("bad");
        nl.output("x", Signal::Gate(3));
    }

    #[test]
    fn input_bus_names_and_order() {
        let mut nl = Netlist::new("bus");
        let bus = nl.input_bus("i", 4);
        assert_eq!(bus.len(), 4);
        assert_eq!(nl.input_names()[2], "i[2]");
        assert_eq!(bus[3], Signal::Input(3));
    }
}
