//! Reference implementations of the synthesis kernels, for tests only:
//! the `BTreeMap`-backed cube with its clone-per-round simplifier, and
//! the netlist builder that hashed whole [`Gate`]s in a SipHash map and
//! stripped constants into heap `Vec`s. The production kernels in
//! [`crate::sop`] and [`crate::netlist`] must match them list for list.
//!
//! The workspace's engine-exactness tests include this file as well, so
//! it names nothing but `crate::netlist` and `printed_pdk`.

use std::collections::{BTreeMap, HashMap};

use printed_pdk::CellKind;

use crate::netlist::{Gate, Signal};

/// A product term as a sorted map variable → polarity.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cube {
    literals: BTreeMap<usize, bool>,
}

impl Cube {
    /// `None` when a variable appears with both polarities.
    pub fn try_from_literals(literals: &[(usize, bool)]) -> Option<Self> {
        let mut map = BTreeMap::new();
        for &(var, pol) in literals {
            if map.insert(var, pol).is_some_and(|prev| prev != pol) {
                return None;
            }
        }
        Some(Self { literals: map })
    }

    /// The `(variable, polarity)` pairs, ascending.
    pub fn literals(&self) -> Vec<(usize, bool)> {
        self.literals.iter().map(|(&v, &p)| (v, p)).collect()
    }

    fn implies(&self, other: &Cube) -> bool {
        other
            .literals
            .iter()
            .all(|(v, p)| self.literals.get(v) == Some(p))
    }

    fn merge_adjacent(&self, other: &Cube) -> Option<Cube> {
        if self.literals.len() != other.literals.len() {
            return None;
        }
        let mut diff_var = None;
        for ((&v1, &p1), (&v2, &p2)) in self.literals.iter().zip(&other.literals) {
            if v1 != v2 {
                return None;
            }
            if p1 != p2 {
                if diff_var.is_some() {
                    return None;
                }
                diff_var = Some(v1);
            }
        }
        diff_var.map(|v| {
            let mut merged = self.literals.clone();
            merged.remove(&v);
            Cube { literals: merged }
        })
    }
}

/// Duplicate removal, absorption and adjacent merging to a fixpoint,
/// detected by comparing each round's output with a clone of its input.
pub fn simplified(mut cubes: Vec<Cube>) -> Vec<Cube> {
    loop {
        let before = cubes.clone();
        cubes.sort();
        cubes.dedup();
        let mut kept: Vec<Cube> = Vec::with_capacity(cubes.len());
        'outer: for (i, cube) in cubes.iter().enumerate() {
            for (j, other) in cubes.iter().enumerate() {
                if i != j && cube.implies(other) && !(other.implies(cube) && i < j) {
                    continue 'outer;
                }
            }
            kept.push(cube.clone());
        }
        cubes = kept;

        let mut merged_any = false;
        let mut result: Vec<Cube> = Vec::with_capacity(cubes.len());
        let mut used = vec![false; cubes.len()];
        for i in 0..cubes.len() {
            if used[i] {
                continue;
            }
            let mut merged_cube = None;
            for j in (i + 1)..cubes.len() {
                if used[j] {
                    continue;
                }
                if let Some(m) = cubes[i].merge_adjacent(&cubes[j]) {
                    used[i] = true;
                    used[j] = true;
                    merged_cube = Some(m);
                    merged_any = true;
                    break;
                }
            }
            result.push(merged_cube.unwrap_or_else(|| cubes[i].clone()));
        }
        cubes = result;

        if !merged_any && cubes == before {
            return cubes;
        }
    }
}

/// A netlist builder with folding, structural hashing on whole gates, and
/// pruning; it tracks only what those rules read and write.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    gates: Vec<Gate>,
    outputs: Vec<Signal>,
    structural: HashMap<Gate, usize>,
}

impl Netlist {
    /// Instantiates, folds or shares a gate, as `crate::netlist::Netlist::gate`.
    pub fn gate(&mut self, kind: CellKind, inputs: &[Signal]) -> Signal {
        assert_eq!(inputs.len(), kind.inputs(), "cell {kind} arity");
        if let Some(folded) = self.try_fold(kind, inputs) {
            return folded;
        }
        let gate = Gate {
            kind,
            inputs: inputs.to_vec(),
        };
        if let Some(&idx) = self.structural.get(&gate) {
            return Signal::Gate(idx);
        }
        self.gates.push(gate.clone());
        let idx = self.gates.len() - 1;
        self.structural.insert(gate, idx);
        Signal::Gate(idx)
    }

    fn try_fold(&mut self, kind: CellKind, inputs: &[Signal]) -> Option<Signal> {
        use CellKind::*;
        if inputs.iter().all(|s| matches!(s, Signal::Const(_))) {
            let vals: Vec<bool> = inputs
                .iter()
                .map(|s| match s {
                    Signal::Const(b) => *b,
                    _ => unreachable!(),
                })
                .collect();
            return Some(Signal::Const(kind.eval(&vals)));
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
                let live: Vec<Signal> = inputs
                    .iter()
                    .copied()
                    .filter(|s| *s != Signal::Const(true))
                    .collect();
                self.fold_variadic(true, &live, inputs.len())
            }
            Or2 | Or3 | Or4 => {
                if inputs.contains(&Signal::Const(true)) {
                    return Some(Signal::Const(true));
                }
                let live: Vec<Signal> = inputs
                    .iter()
                    .copied()
                    .filter(|s| *s != Signal::Const(false))
                    .collect();
                self.fold_variadic(false, &live, inputs.len())
            }
            _ => None,
        }
    }

    fn fold_variadic(&mut self, is_and: bool, live: &[Signal], original: usize) -> Option<Signal> {
        match live.len() {
            0 => Some(Signal::Const(is_and)),
            1 => Some(live[0]),
            n if n < original => {
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

    /// Binds an output.
    pub fn output(&mut self, signal: Signal) {
        self.outputs.push(signal);
    }

    /// Removes the gates no output reaches, remapping indices; when it
    /// removed any, rebuilds the structural map from every remaining gate.
    pub fn prune(&mut self) {
        let mut live = vec![false; self.gates.len()];
        let mut stack: Vec<usize> = self
            .outputs
            .iter()
            .filter_map(|&s| match s {
                Signal::Gate(g) => Some(g),
                _ => None,
            })
            .collect();
        while let Some(g) = stack.pop() {
            if std::mem::replace(&mut live[g], true) {
                continue;
            }
            for &s in &self.gates[g].inputs {
                if let Signal::Gate(h) = s {
                    stack.push(h);
                }
            }
        }
        if live.iter().all(|&l| l) {
            return;
        }
        let mut remap = vec![usize::MAX; self.gates.len()];
        let mut kept = Vec::new();
        for (old, gate) in self.gates.drain(..).enumerate() {
            if live[old] {
                remap[old] = kept.len();
                kept.push(gate);
            }
        }
        let moved = |s: &mut Signal| {
            if let Signal::Gate(g) = s {
                *s = Signal::Gate(remap[*g]);
            }
        };
        kept.iter_mut().flat_map(|g| &mut g.inputs).for_each(moved);
        self.outputs.iter_mut().for_each(moved);
        self.gates = kept;
        self.structural = self
            .gates
            .iter()
            .enumerate()
            .map(|(i, g)| (g.clone(), i))
            .collect();
    }

    /// The gates in topological order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The output signals in binding order.
    pub fn outputs(&self) -> &[Signal] {
        &self.outputs
    }
}

/// A balanced AND (`is_and`) or OR tree over `signals`, widest cells
/// first, as `crate::blocks::and_tree` / `or_tree`.
pub fn reduce_tree(nl: &mut Netlist, signals: &[Signal], is_and: bool) -> Signal {
    let mut level = signals.to_vec();
    if level.is_empty() {
        return Signal::Const(is_and);
    }
    while level.len() > 1 {
        level = level
            .chunks(4)
            .map(|chunk| match chunk.len() {
                1 => chunk[0],
                n if is_and => nl.gate(CellKind::and_of(n).expect("2..=4"), chunk),
                n => nl.gate(CellKind::or_of(n).expect("2..=4"), chunk),
            })
            .collect();
    }
    level[0]
}
