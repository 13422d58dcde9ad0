//! Word-parallel netlist simulation.
//!
//! [`PackedNetlist`] compiles a [`Netlist`] once into a flat op list over
//! one `u64` value arena ([`Lanes`]) laid out as the primary inputs, then
//! the two constants, then the gates. Every signal is `ceil(n / 64)` words
//! wide and bit `l` of word `w` carries pattern `64·w + l`, so one word
//! operation evaluates a gate on 64 patterns. Gates are topologically
//! ordered by construction, so a stuck-at fault on gate `g` can only move
//! gate `g`'s fanout cone: the gates that read `g`, directly or through
//! other cone gates. [`PackedNetlist::for_each_fault`] injects each fault
//! into the good arena, evaluates only that cone, hands the arena to the
//! caller and restores the cone from the good values.
//!
//! Lanes past the last pattern of the final word hold garbage (an inverter
//! turns their zeros into ones); consumers mask them with
//! [`Lanes::valid`]. [`Netlist::eval`] and
//! [`FaultyNetlist::eval`](crate::faults::FaultyNetlist::eval) stay the
//! single-pattern reference every lane is tested against.
//!
//! ```
//! use printed_logic::netlist::Netlist;
//! use printed_logic::sim::PackedNetlist;
//! use printed_pdk::CellKind;
//!
//! let mut nl = Netlist::new("xor");
//! let a = nl.input("a");
//! let b = nl.input("b");
//! let y = nl.gate(CellKind::Xor2, &[a, b]);
//! nl.output("y", y);
//!
//! let sim = PackedNetlist::compile(&nl);
//! let patterns: Vec<Vec<bool>> = (0..4u32)
//!     .map(|p| vec![p & 1 != 0, p & 2 != 0])
//!     .collect();
//! let mut lanes = sim.lanes(patterns.len());
//! lanes.load(&patterns);
//! sim.simulate(&mut lanes);
//! assert_eq!(sim.output(&lanes, 0)[0] & lanes.valid(0), 0b0110);
//! ```

use printed_pdk::CellKind;

use crate::faults::StuckAt;
use crate::netlist::{Netlist, Signal};

/// A netlist compiled for word-parallel simulation.
#[derive(Debug, Clone)]
pub struct PackedNetlist {
    inputs: usize,
    ops: Vec<Op>,
    outputs: Vec<usize>,
}

/// One gate: its cell and the arena slots of its pins (unused pins 0).
/// The gate's own slot is implied by its position in the op list.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: CellKind,
    args: [usize; 4],
}

/// The value arena of one [`PackedNetlist`] simulation: `words` words per
/// signal for up to `64 · words` patterns.
#[derive(Debug, Clone)]
pub struct Lanes {
    inputs: usize,
    patterns: usize,
    words: usize,
    values: Vec<u64>,
}

impl PackedNetlist {
    /// Compiles `netlist` into its op list.
    pub fn compile(netlist: &Netlist) -> Self {
        let inputs = netlist.input_count();
        let slot = |s: Signal| match s {
            Signal::Input(i) => i,
            Signal::Const(b) => inputs + usize::from(b),
            Signal::Gate(g) => inputs + 2 + g,
        };
        let ops = netlist
            .gates()
            .iter()
            .map(|gate| {
                let mut args = [0; 4];
                for (arg, &s) in args.iter_mut().zip(&gate.inputs) {
                    *arg = slot(s);
                }
                Op {
                    kind: gate.kind,
                    args,
                }
            })
            .collect();
        let outputs = netlist.outputs().iter().map(|&(_, s)| slot(s)).collect();
        Self {
            inputs,
            ops,
            outputs,
        }
    }

    /// Number of outputs.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// A zeroed arena for `patterns` patterns, with the constants set.
    pub fn lanes(&self, patterns: usize) -> Lanes {
        let words = patterns.div_ceil(64);
        let mut values = vec![0; (self.inputs + 2 + self.ops.len()) * words];
        values[(self.inputs + 1) * words..(self.inputs + 2) * words].fill(!0);
        Lanes {
            inputs: self.inputs,
            patterns,
            words,
            values,
        }
    }

    /// Evaluates every gate on the input columns of `lanes`.
    pub fn simulate(&self, lanes: &mut Lanes) {
        for g in 0..self.ops.len() {
            self.eval(g, lanes);
        }
    }

    /// Runs every single stuck-at fault against the circuit simulated in
    /// `good`, in [`enumerate_faults`](crate::faults::enumerate_faults)
    /// order: gate by gate, stuck-at-0 before stuck-at-1.
    ///
    /// `visit` gets the fault and an arena holding the faulty circuit's
    /// values. A gate's cone is found on demand from the gates' readers.
    /// Each fault is injected into a copy of `good` and only its cone is
    /// evaluated; after the gate's two faults the cone is restored from
    /// `good`.
    ///
    /// # Panics
    ///
    /// Panics if `good` is not an arena of this netlist.
    pub fn for_each_fault(&self, good: &Lanes, mut visit: impl FnMut(StuckAt, &Lanes)) {
        assert_eq!(
            good.values.len(),
            (self.inputs + 2 + self.ops.len()) * good.words,
            "arena of another netlist"
        );
        let mut fanout = Fanout::new(self);
        let mut faulty = good.clone();
        let mut cone = Vec::new();
        for gate in 0..self.ops.len() {
            fanout.cone(gate, &mut cone);
            for value in [false, true] {
                let fault = StuckAt { gate, value };
                self.inject(fault, &cone, &mut faulty);
                visit(fault, &faulty);
            }
            self.restore(&cone, good, &mut faulty);
        }
    }

    /// Sticks `fault`'s gate and re-evaluates the rest of its `cone`
    /// (ascending, the faulted gate first).
    fn inject(&self, fault: StuckAt, cone: &[usize], lanes: &mut Lanes) {
        let at = (self.inputs + 2 + fault.gate) * lanes.words;
        lanes.values[at..at + lanes.words].fill(if fault.value { !0 } else { 0 });
        for &g in &cone[1..] {
            self.eval(g, lanes);
        }
    }

    /// Copies the good values of `cone`'s gates back into `faulty`.
    fn restore(&self, cone: &[usize], good: &Lanes, faulty: &mut Lanes) {
        let words = good.words;
        for &g in cone {
            let at = (self.inputs + 2 + g) * words;
            faulty.values[at..at + words].copy_from_slice(&good.values[at..at + words]);
        }
    }

    /// Evaluates the circuit with `fault` injected into `faulty`: the good
    /// values below the faulted gate are copied from `good`, the gate is
    /// stuck, and every gate after it is re-simulated. The whole-suffix
    /// oracle of [`for_each_fault`](Self::for_each_fault)'s cones.
    #[cfg(test)]
    pub(crate) fn simulate_fault(&self, good: &Lanes, fault: StuckAt, faulty: &mut Lanes) {
        assert_eq!(
            good.values.len(),
            faulty.values.len(),
            "arena shapes differ"
        );
        let words = good.words;
        let start = (self.inputs + 2 + fault.gate) * words;
        faulty.values[..start].copy_from_slice(&good.values[..start]);
        faulty.values[start..start + words].fill(if fault.value { !0 } else { 0 });
        faulty.patterns = good.patterns;
        for g in fault.gate + 1..self.ops.len() {
            self.eval(g, faulty);
        }
    }

    /// The words of output `k` (lanes past the last pattern unmasked).
    pub fn output<'a>(&self, lanes: &'a Lanes, k: usize) -> &'a [u64] {
        lanes.slot(self.outputs[k])
    }

    /// Every output's value on pattern `p`, in declaration order — what
    /// [`Netlist::eval`] returns for that pattern.
    pub fn outputs_at(&self, lanes: &Lanes, p: usize) -> Vec<bool> {
        self.outputs.iter().map(|&s| lanes.bit(s, p)).collect()
    }

    /// Evaluates gate `g` from its pins' slots, one word kernel per cell
    /// kind. Inlined into each gate loop, as the kernel of one loop body.
    #[inline(always)]
    fn eval(&self, g: usize, lanes: &mut Lanes) {
        let words = lanes.words;
        let op = &self.ops[g];
        let (done, rest) = lanes.values.split_at_mut((self.inputs + 2 + g) * words);
        let out = &mut rest[..words];
        let arg = |k: usize| &done[op.args[k] * words..][..words];
        match op.kind {
            CellKind::TieLo => out.fill(0),
            CellKind::TieHi => out.fill(!0),
            CellKind::Inv => map1(out, arg(0), |a| !a),
            CellKind::Buf => map1(out, arg(0), |a| a),
            CellKind::Nand2 => map2(out, arg(0), arg(1), |a, b| !(a & b)),
            CellKind::Nand3 => map3(out, arg(0), arg(1), arg(2), |a, b, c| !(a & b & c)),
            CellKind::Nand4 => map4(out, [arg(0), arg(1), arg(2), arg(3)], |a, b, c, d| {
                !(a & b & c & d)
            }),
            CellKind::Nor2 => map2(out, arg(0), arg(1), |a, b| !(a | b)),
            CellKind::Nor3 => map3(out, arg(0), arg(1), arg(2), |a, b, c| !(a | b | c)),
            CellKind::Nor4 => map4(out, [arg(0), arg(1), arg(2), arg(3)], |a, b, c, d| {
                !(a | b | c | d)
            }),
            CellKind::And2 => map2(out, arg(0), arg(1), |a, b| a & b),
            CellKind::And3 => map3(out, arg(0), arg(1), arg(2), |a, b, c| a & b & c),
            CellKind::And4 => map4(out, [arg(0), arg(1), arg(2), arg(3)], |a, b, c, d| {
                a & b & c & d
            }),
            CellKind::Or2 => map2(out, arg(0), arg(1), |a, b| a | b),
            CellKind::Or3 => map3(out, arg(0), arg(1), arg(2), |a, b, c| a | b | c),
            CellKind::Or4 => map4(out, [arg(0), arg(1), arg(2), arg(3)], |a, b, c, d| {
                a | b | c | d
            }),
            CellKind::Xor2 => map2(out, arg(0), arg(1), |a, b| a ^ b),
            CellKind::Xnor2 => map2(out, arg(0), arg(1), |a, b| !(a ^ b)),
            CellKind::Aoi21 => map3(out, arg(0), arg(1), arg(2), |a, b, c| !((a & b) | c)),
            CellKind::Oai21 => map3(out, arg(0), arg(1), arg(2), |a, b, c| !((a | b) & c)),
            CellKind::Mux2 => map3(out, arg(0), arg(1), arg(2), |a, b, s| (a & !s) | (b & s)),
        }
    }
}

/// Which gates read each gate, from which
/// [`PackedNetlist::for_each_fault`] finds a fault's cone.
struct Fanout {
    readers: Table,
    /// Scratch marks of the cone being collected; all clear between cones.
    seen: Vec<bool>,
}

impl Fanout {
    fn new(sim: &PackedNetlist) -> Self {
        let base = sim.inputs + 2;
        let gates = sim.ops.len();
        let reads = sim.ops.iter().enumerate().flat_map(|(g, op)| {
            op.args[..op.kind.inputs()]
                .iter()
                .filter(|&&slot| slot >= base)
                .map(move |&slot| (slot - base, g))
        });
        Self {
            readers: Table::new(gates, reads),
            seen: vec![false; gates],
        }
    }

    /// Collects `gate`'s fanout cone into `cone` (ascending, so `gate`
    /// first and every gate after the gates it reads).
    fn cone(&mut self, gate: usize, cone: &mut Vec<usize>) {
        cone.clear();
        cone.push(gate);
        self.seen[gate] = true;
        let mut next = 0;
        while let Some(&g) = cone.get(next) {
            next += 1;
            for &reader in self.readers.get(g) {
                if !self.seen[reader] {
                    self.seen[reader] = true;
                    cone.push(reader);
                }
            }
        }
        for &g in cone.iter() {
            self.seen[g] = false;
        }
        cone.sort_unstable();
    }
}

/// `(key, value)` pairs grouped by key in one flat array: key `k`'s
/// values, in pair order, are `values[start[k]..start[k + 1]]`.
struct Table {
    start: Vec<usize>,
    values: Vec<usize>,
}

impl Table {
    fn new(keys: usize, pairs: impl Iterator<Item = (usize, usize)> + Clone) -> Self {
        let mut start = vec![0; keys + 1];
        for (k, _) in pairs.clone() {
            start[k + 1] += 1;
        }
        for k in 0..keys {
            start[k + 1] += start[k];
        }
        let mut fill = start.clone();
        let mut values = vec![0; start[keys]];
        for (k, v) in pairs {
            values[fill[k]] = v;
            fill[k] += 1;
        }
        Self { start, values }
    }

    fn get(&self, k: usize) -> &[usize] {
        &self.values[self.start[k]..self.start[k + 1]]
    }
}

fn map1(out: &mut [u64], a: &[u64], f: impl Fn(u64) -> u64) {
    for (o, &a) in out.iter_mut().zip(a) {
        *o = f(a);
    }
}

fn map2(out: &mut [u64], a: &[u64], b: &[u64], f: impl Fn(u64, u64) -> u64) {
    for ((o, &a), &b) in out.iter_mut().zip(a).zip(b) {
        *o = f(a, b);
    }
}

fn map3(out: &mut [u64], a: &[u64], b: &[u64], c: &[u64], f: impl Fn(u64, u64, u64) -> u64) {
    for (((o, &a), &b), &c) in out.iter_mut().zip(a).zip(b).zip(c) {
        *o = f(a, b, c);
    }
}

fn map4(out: &mut [u64], [a, b, c, d]: [&[u64]; 4], f: impl Fn(u64, u64, u64, u64) -> u64) {
    for ((((o, &a), &b), &c), &d) in out.iter_mut().zip(a).zip(b).zip(c).zip(d) {
        *o = f(a, b, c, d);
    }
}

impl Lanes {
    /// Words per signal.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Mask of the lanes of word `w` that hold a pattern.
    pub fn valid(&self, w: usize) -> u64 {
        match self.patterns.saturating_sub(64 * w) {
            n if n >= 64 => !0,
            n => (1u64 << n) - 1,
        }
    }

    /// Replaces the input columns with `patterns` (pattern-major, one
    /// value per input), pattern `p` in lane `p`.
    ///
    /// # Panics
    ///
    /// Panics if there are more patterns than the arena holds or a
    /// pattern's length differs from the input count.
    pub fn load(&mut self, patterns: &[Vec<bool>]) {
        assert!(
            patterns.len() <= 64 * self.words,
            "{} patterns overflow {} words",
            patterns.len(),
            self.words
        );
        self.values[..self.inputs * self.words].fill(0);
        for (p, pattern) in patterns.iter().enumerate() {
            assert_eq!(pattern.len(), self.inputs, "wrong number of input values");
            for (i, _) in pattern.iter().enumerate().filter(|(_, &bit)| bit) {
                self.values[i * self.words + p / 64] |= 1 << (p % 64);
            }
        }
        self.patterns = patterns.len();
    }

    /// Replaces input `i`'s column with `words`, pattern `p` in bit
    /// `p % 64` of word `p / 64`, keeping the pattern count the arena was
    /// made for.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not an input or `words` is not one signal wide.
    pub fn set_input(&mut self, i: usize, words: &[u64]) {
        assert!(i < self.inputs, "input {i} out of range");
        assert_eq!(words.len(), self.words, "one signal's words");
        self.values[i * self.words..(i + 1) * self.words].copy_from_slice(words);
    }

    /// The input values of pattern `p`.
    pub(crate) fn inputs_at(&self, p: usize) -> Vec<bool> {
        (0..self.inputs).map(|i| self.bit(i, p)).collect()
    }

    /// The input columns as one slice, input `i` at
    /// `[i · words..(i + 1) · words]`.
    pub(crate) fn columns(&self) -> &[u64] {
        &self.values[..self.inputs * self.words]
    }

    /// Sets the pattern count and returns the input columns for callers
    /// that write them directly instead of [`load`](Self::load)ing
    /// patterns.
    pub(crate) fn columns_mut(&mut self, patterns: usize) -> &mut [u64] {
        assert!(patterns <= 64 * self.words, "too many patterns");
        self.patterns = patterns;
        &mut self.values[..self.inputs * self.words]
    }

    fn slot(&self, s: usize) -> &[u64] {
        &self.values[s * self.words..(s + 1) * self.words]
    }

    fn bit(&self, s: usize, p: usize) -> bool {
        self.slot(s)[p / 64] >> (p % 64) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{enumerate_faults, fault_campaign, FaultyNetlist};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random netlist instantiating every cell kind (tie cells and
    /// buffers through the unfolded path, since `gate` folds them away),
    /// with outputs on gates, a constant and a primary input.
    fn random_netlist(rng: &mut StdRng, inputs: usize, gates: usize) -> Netlist {
        let mut nl = Netlist::new("random");
        let mut pool: Vec<Signal> = (0..inputs).map(|i| nl.input(format!("x{i}"))).collect();
        pool.push(Signal::Const(false));
        pool.push(Signal::Const(true));
        for k in 0..gates {
            let kind = CellKind::ALL[k % CellKind::ALL.len()];
            let pins: Vec<Signal> = (0..kind.inputs())
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect();
            pool.push(nl.push_unfolded(kind, &pins));
        }
        for (k, &s) in pool.iter().rev().take(4).enumerate() {
            nl.output(format!("o{k}"), s);
        }
        nl.output("const", Signal::Const(rng.gen_bool(0.5)));
        nl.output("wire", Signal::Input(rng.gen_range(0..inputs)));
        nl
    }

    fn random_patterns(rng: &mut StdRng, inputs: usize, n: usize) -> Vec<Vec<bool>> {
        (0..n)
            .map(|_| (0..inputs).map(|_| rng.gen_bool(0.5)).collect())
            .collect()
    }

    #[test]
    fn every_lane_matches_the_scalar_evaluator_for_every_cell_kind() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for trial in 0..12 {
            let nl = random_netlist(&mut rng, 5, 42 + trial);
            let kinds: std::collections::BTreeSet<_> = nl.gates().iter().map(|g| g.kind).collect();
            assert_eq!(kinds.len(), CellKind::ALL.len(), "every kind instantiated");
            let sim = PackedNetlist::compile(&nl);
            for n in [1, 63, 64, 65, 129] {
                let patterns = random_patterns(&mut rng, 5, n);
                let mut lanes = sim.lanes(n);
                lanes.load(&patterns);
                sim.simulate(&mut lanes);
                // The same arena written one input column at a time.
                let mut by_input = sim.lanes(n);
                for (i, column) in lanes.columns().chunks(lanes.words()).enumerate() {
                    by_input.set_input(i, column);
                }
                sim.simulate(&mut by_input);
                for (p, pattern) in patterns.iter().enumerate() {
                    assert_eq!(lanes.inputs_at(p), *pattern);
                    assert_eq!(sim.outputs_at(&lanes, p), nl.eval(pattern), "n={n} p={p}");
                    assert_eq!(
                        sim.outputs_at(&by_input, p),
                        nl.eval(pattern),
                        "n={n} p={p}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_fault_mismatch_count_matches_the_scalar_loop() {
        let mut rng = StdRng::seed_from_u64(0xFA17);
        for trial in 0..6 {
            let nl = random_netlist(&mut rng, 6, 30 + trial);
            let sim = PackedNetlist::compile(&nl);
            for n in [1, 63, 64, 65, 129] {
                let patterns = random_patterns(&mut rng, 6, n);
                let mut good = sim.lanes(n);
                good.load(&patterns);
                sim.simulate(&mut good);
                let mut faulty = good.clone();
                let campaign = fault_campaign(&nl, &patterns);
                for (fault, &packed) in enumerate_faults(&nl)
                    .into_iter()
                    .zip(&campaign.mismatch_counts)
                {
                    let reference = FaultyNetlist::new(&nl, fault);
                    let scalar = patterns
                        .iter()
                        .filter(|p| reference.eval(p) != nl.eval(p))
                        .count();
                    assert_eq!(packed, scalar, "n={n} {fault:?}");
                    sim.simulate_fault(&good, fault, &mut faulty);
                    for (p, pattern) in patterns.iter().enumerate() {
                        assert_eq!(sim.outputs_at(&faulty, p), reference.eval(pattern));
                    }
                }
            }
        }
    }

    proptest! {
        /// Every fault of a random netlist with every cell kind, at 1, 63,
        /// 64, 65 and 129 patterns: the cone path leaves the whole-suffix
        /// oracle's arena, the cone is exactly the faulted gate's
        /// transitive readers, and every restore gives back the good
        /// arena bit for bit.
        #[test]
        fn fault_cones_match_the_whole_suffix_oracle_and_restore_the_good_arena(
            seed in any::<u64>(),
            extra_gates in 0usize..40,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let nl = random_netlist(&mut rng, 6, CellKind::ALL.len() + extra_gates);
            let sim = PackedNetlist::compile(&nl);
            let base = sim.inputs + 2;
            let faults = enumerate_faults(&nl);
            for n in [1, 63, 64, 65, 129] {
                let patterns = random_patterns(&mut rng, 6, n);
                let mut good = sim.lanes(n);
                good.load(&patterns);
                sim.simulate(&mut good);
                let mut oracle = good.clone();

                // The steps `for_each_fault` composes, with the arena
                // checked after every restore.
                let mut fanout = Fanout::new(&sim);
                let mut faulty = good.clone();
                let mut cone = Vec::new();
                for gate in 0..sim.ops.len() {
                    fanout.cone(gate, &mut cone);
                    let mut expected = vec![gate];
                    for (g, op) in sim.ops.iter().enumerate().skip(gate + 1) {
                        let pins = &op.args[..op.kind.inputs()];
                        if pins
                            .iter()
                            .any(|&slot| slot >= base && expected.contains(&(slot - base)))
                        {
                            expected.push(g);
                        }
                    }
                    prop_assert_eq!(&cone, &expected, "cone of gate {}", gate);
                    for value in [false, true] {
                        let fault = StuckAt { gate, value };
                        sim.inject(fault, &cone, &mut faulty);
                        sim.simulate_fault(&good, fault, &mut oracle);
                        prop_assert_eq!(&faulty.values, &oracle.values, "n={} {:?}", n, fault);
                    }
                    sim.restore(&cone, &good, &mut faulty);
                    prop_assert_eq!(&faulty.values, &good.values, "n={} restored after gate {}", n, gate);
                }

                // The public loop visits the same faults, in order, with
                // the oracle's arena.
                let mut visited = 0;
                sim.for_each_fault(&good, |fault, lanes| {
                    assert_eq!(fault, faults[visited]);
                    visited += 1;
                    sim.simulate_fault(&good, fault, &mut oracle);
                    assert_eq!(lanes.values, oracle.values, "n={n} {fault:?}");
                });
                prop_assert_eq!(visited, faults.len());
            }
        }
    }

    #[test]
    fn valid_masks_the_tail_word() {
        let mut nl = Netlist::new("wire");
        let a = nl.input("a");
        nl.output("a", a);
        let sim = PackedNetlist::compile(&nl);
        let lanes = sim.lanes(65);
        assert_eq!(lanes.words(), 2);
        assert_eq!(lanes.valid(0), !0);
        assert_eq!(lanes.valid(1), 1);
        assert_eq!(sim.lanes(0).words(), 0);
        assert_eq!(sim.lanes(64).valid(0), !0);
    }
}
