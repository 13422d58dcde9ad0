//! Area, power, and timing analysis of a netlist.
//!
//! This is the workspace's stand-in for Synopsys Design Compiler +
//! PrimeTime: given a [`Netlist`] and the characterized
//! [`CellLibrary`], it reports
//!
//! * **area** — the sum of instantiated cell areas;
//! * **static power** — the sum of cell static powers (dominant in
//!   resistive-load printed logic);
//! * **dynamic power** — `α · C_in · V² · f` summed over every driven cell
//!   input pin (negligible at 20 Hz, reported anyway);
//! * **critical path** — longest combinational delay, found by a single
//!   topological pass.
//!
//! ```
//! use printed_logic::netlist::Netlist;
//! use printed_logic::report::{analyze, AnalysisConfig};
//! use printed_pdk::{CellKind, CellLibrary};
//!
//! let mut nl = Netlist::new("and3");
//! let a = nl.input("a");
//! let b = nl.input("b");
//! let c = nl.input("c");
//! let ab = nl.gate(CellKind::And2, &[a, b]);
//! let abc = nl.gate(CellKind::And2, &[ab, c]);
//! nl.output("y", abc);
//!
//! let report = analyze(&nl, &CellLibrary::egfet(), &AnalysisConfig::printed_20hz());
//! assert_eq!(report.cell_count, 2);
//! assert!(report.meets_timing(50.0));
//! ```

use printed_pdk::{Area, CellKind, CellLibrary, Delay, Power};

use crate::netlist::{Netlist, Signal};

/// Analysis conditions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisConfig {
    /// Operating frequency in hertz.
    pub frequency_hz: f64,
    /// Supply voltage in volts (for dynamic power).
    pub supply_volts: f64,
    /// Average switching activity per pin per cycle (0..1).
    pub activity: f64,
}

impl AnalysisConfig {
    /// The paper's evaluation conditions: 20 Hz, 1 V, 20% toggle activity.
    pub fn printed_20hz() -> Self {
        Self {
            frequency_hz: 20.0,
            supply_volts: 1.0,
            activity: 0.2,
        }
    }
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        Self::printed_20hz()
    }
}

/// The output of [`analyze`].
#[derive(Debug, Clone, PartialEq)]
pub struct DesignReport {
    /// Total cell area.
    pub area: Area,
    /// Total static power.
    pub static_power: Power,
    /// Total dynamic power at the analysis conditions.
    pub dynamic_power: Power,
    /// Longest combinational path delay.
    pub critical_path: Delay,
    /// Number of instantiated cells.
    pub cell_count: usize,
    /// Instance counts by cell kind.
    pub histogram: Vec<(CellKind, usize)>,
}

impl DesignReport {
    /// An empty (zero-cost) report — the report of a constant netlist.
    pub fn empty() -> Self {
        Self {
            area: Area::ZERO,
            static_power: Power::ZERO,
            dynamic_power: Power::ZERO,
            critical_path: Delay::ZERO,
            cell_count: 0,
            histogram: Vec::new(),
        }
    }

    /// Total power (static + dynamic).
    pub fn total_power(&self) -> Power {
        self.static_power + self.dynamic_power
    }

    /// Whether the critical path fits in a cycle of `cycle_ms` milliseconds.
    pub fn meets_timing(&self, cycle_ms: f64) -> bool {
        self.critical_path.ms() <= cycle_ms
    }

    /// Sums two reports (for composing sub-blocks analyzed separately).
    /// The critical path takes the max, as for parallel blocks.
    pub fn combine(&self, other: &DesignReport) -> DesignReport {
        let mut histogram = self.histogram.clone();
        for &(kind, count) in &other.histogram {
            match histogram.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, c)) => *c += count,
                None => histogram.push((kind, count)),
            }
        }
        histogram.sort_by_key(|&(k, _)| k);
        DesignReport {
            area: self.area + other.area,
            static_power: self.static_power + other.static_power,
            dynamic_power: self.dynamic_power + other.dynamic_power,
            critical_path: self.critical_path.max(other.critical_path),
            cell_count: self.cell_count + other.cell_count,
            histogram,
        }
    }
}

/// Analyzes `netlist` against `library` under `config`.
///
/// The netlist is taken as-is: run [`Netlist::prune`] first if dead logic
/// may be present.
pub fn analyze(netlist: &Netlist, library: &CellLibrary, config: &AnalysisConfig) -> DesignReport {
    let mut area = Area::ZERO;
    let mut static_power = Power::ZERO;
    let mut dynamic_uw = 0.0;
    // Arrival time per gate output, in ms.
    let mut arrival: Vec<f64> = Vec::with_capacity(netlist.gate_count());

    for gate in netlist.gates() {
        let params = library.cell(gate.kind);
        area += params.area;
        static_power += params.static_power;
        // Dynamic: each driven input pin switches `activity` times per cycle.
        // P = α · C · V² · f  (C in pF → power in pW when V in volts, f in
        // Hz; convert to µW).
        let pins = gate.inputs.len() as f64;
        dynamic_uw += config.activity
            * params.input_cap.pf()
            * 1e-12
            * config.supply_volts
            * config.supply_volts
            * config.frequency_hz
            * pins
            * 1e6;

        let input_arrival = gate
            .inputs
            .iter()
            .map(|&s| match s {
                Signal::Gate(g) => arrival[g],
                Signal::Input(_) | Signal::Const(_) => 0.0,
            })
            .fold(0.0_f64, f64::max);
        arrival.push(input_arrival + params.delay.ms());
    }

    let critical = netlist
        .outputs()
        .iter()
        .map(|&(_, s)| match s {
            Signal::Gate(g) => arrival[g],
            _ => 0.0,
        })
        .fold(0.0_f64, f64::max);

    DesignReport {
        area,
        static_power,
        dynamic_power: Power::from_uw(dynamic_uw),
        critical_path: Delay::from_ms(critical),
        cell_count: netlist.gate_count(),
        histogram: netlist.cell_histogram(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks;

    fn lib() -> CellLibrary {
        CellLibrary::egfet()
    }

    #[test]
    fn empty_netlist_costs_nothing() {
        let mut nl = Netlist::new("empty");
        let a = nl.input("a");
        nl.output("a", a);
        let r = analyze(&nl, &lib(), &AnalysisConfig::default());
        assert_eq!(r.area, Area::ZERO);
        assert_eq!(r.total_power(), Power::ZERO);
        assert_eq!(r.critical_path, Delay::ZERO);
    }

    #[test]
    fn area_and_power_sum_over_cells() {
        let mut nl = Netlist::new("two");
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.gate(CellKind::And2, &[a, b]);
        let y = nl.gate(CellKind::Or2, &[x, a]);
        nl.output("y", y);
        let r = analyze(&nl, &lib(), &AnalysisConfig::default());
        let expect_area = lib().cell(CellKind::And2).area + lib().cell(CellKind::Or2).area;
        assert!((r.area.mm2() - expect_area.mm2()).abs() < 1e-12);
        assert_eq!(r.cell_count, 2);
    }

    #[test]
    fn critical_path_is_longest_chain() {
        let mut nl = Netlist::new("chain");
        let a = nl.input("a");
        let b = nl.input("b");
        // A 3-deep chain vs a 1-deep side branch.
        let g1 = nl.gate(CellKind::And2, &[a, b]);
        let g2 = nl.gate(CellKind::Or2, &[g1, a]);
        let g3 = nl.gate(CellKind::And2, &[g2, b]);
        let side = nl.gate(CellKind::Nor2, &[a, b]);
        nl.output("deep", g3);
        nl.output("side", side);
        let r = analyze(&nl, &lib(), &AnalysisConfig::default());
        let l = lib();
        let expected = l.cell(CellKind::And2).delay.ms() * 2.0 + l.cell(CellKind::Or2).delay.ms();
        assert!((r.critical_path.ms() - expected).abs() < 1e-12);
    }

    #[test]
    fn dynamic_power_is_negligible_at_20hz() {
        let mut nl = Netlist::new("dyn");
        let bus = nl.input_bus("i", 8);
        let out = blocks::and_tree(&mut nl, &bus);
        nl.output("y", out);
        let r = analyze(&nl, &lib(), &AnalysisConfig::default());
        assert!(r.dynamic_power.uw() < 0.01 * r.static_power.uw());
        assert!(r.dynamic_power.uw() > 0.0);
    }

    #[test]
    fn deep_tree_still_meets_20hz_timing() {
        // Depth-8 comparator chain + label muxing stays well under 50 ms.
        let mut nl = Netlist::new("deep");
        let bus = nl.input_bus("i", 4);
        let mut sigs = Vec::new();
        for c in 1..16 {
            sigs.push(blocks::gte_const(&mut nl, &bus, c));
        }
        let all = blocks::and_tree(&mut nl, &sigs);
        nl.output("y", all);
        let r = analyze(&nl, &lib(), &AnalysisConfig::default());
        assert!(r.meets_timing(50.0), "critical path {}", r.critical_path);
    }

    #[test]
    fn combine_adds_costs_and_maxes_delay() {
        let mut nl1 = Netlist::new("a");
        let a = nl1.input("a");
        let b = nl1.input("b");
        let x = nl1.gate(CellKind::And2, &[a, b]);
        nl1.output("x", x);
        let mut nl2 = Netlist::new("b");
        let c = nl2.input("c");
        let d = nl2.input("d");
        let y0 = nl2.gate(CellKind::Or2, &[c, d]);
        let y = nl2.gate(CellKind::Or2, &[y0, c]);
        nl2.output("y", y);
        let cfg = AnalysisConfig::default();
        let r1 = analyze(&nl1, &lib(), &cfg);
        let r2 = analyze(&nl2, &lib(), &cfg);
        let c12 = r1.combine(&r2);
        assert_eq!(c12.cell_count, 3);
        assert!((c12.area.mm2() - (r1.area + r2.area).mm2()).abs() < 1e-12);
        assert_eq!(c12.critical_path, r1.critical_path.max(r2.critical_path));
        let and2 = c12
            .histogram
            .iter()
            .find(|(k, _)| *k == CellKind::And2)
            .unwrap()
            .1;
        let or2 = c12
            .histogram
            .iter()
            .find(|(k, _)| *k == CellKind::Or2)
            .unwrap()
            .1;
        assert_eq!((and2, or2), (1, 2));
    }

    #[test]
    fn empty_report_is_identity_for_combine() {
        let mut nl = Netlist::new("x");
        let a = nl.input("a");
        let b = nl.input("b");
        let g = nl.gate(CellKind::Xor2, &[a, b]);
        nl.output("g", g);
        let r = analyze(&nl, &lib(), &AnalysisConfig::default());
        let same = r.combine(&DesignReport::empty());
        assert_eq!(same, r);
    }
}
