//! Word-parallel netlist simulation.
//!
//! [`PackedNetlist`] compiles a [`Netlist`] once into a flat op list over
//! one `u64` value arena ([`Lanes`]) laid out as the primary inputs, then
//! the two constants, then the gates. Every signal is `ceil(n / 64)` words
//! wide and bit `l` of word `w` carries pattern `64·w + l`, so one word
//! operation evaluates a gate on 64 patterns. Gates are topologically
//! ordered by construction, so a stuck-at fault on gate `g` only needs
//! gates `g + 1..` re-simulated ([`PackedNetlist::simulate_fault`]).
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
        self.run(lanes, 0);
    }

    /// Evaluates the circuit with `fault` injected into `faulty`: the good
    /// values below the faulted gate are copied from `good` (which must
    /// already be simulated on the same patterns), the gate is stuck, and
    /// only the gates after it are re-simulated.
    ///
    /// # Panics
    ///
    /// Panics if the fault references a gate outside the netlist or the
    /// two arenas differ in shape.
    pub fn simulate_fault(&self, good: &Lanes, fault: StuckAt, faulty: &mut Lanes) {
        assert!(
            fault.gate < self.ops.len(),
            "fault on missing gate {}",
            fault.gate
        );
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
        self.run(faulty, fault.gate + 1);
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

    /// Evaluates gates `from..` in order, one word kernel per cell kind.
    fn run(&self, lanes: &mut Lanes, from: usize) {
        let words = lanes.words;
        let base = self.inputs + 2;
        for (g, op) in self.ops.iter().enumerate().skip(from) {
            let (done, rest) = lanes.values.split_at_mut((base + g) * words);
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
