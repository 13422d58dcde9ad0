//! The EGFET standard-cell library.
//!
//! Electrolyte-Gated FET (EGFET) printed logic is built from n-type
//! transistors with printed resistive pull-up loads. That topology fixes the
//! cost structure this library models:
//!
//! * **Area** scales with transistor count plus one load resistor per output
//!   stage — printed features are huge, so cells are measured in fractions of
//!   a square millimetre.
//! * **Static power** dominates: whenever an output stage drives low, current
//!   flows through its pull-up. We charge each output stage an
//!   activity-averaged static power.
//! * **Delay** is in milliseconds; the benchmark applications only need
//!   ~20 Hz, so even deep combinational paths fit the 50 ms cycle budget.
//!
//! The absolute constants are calibrated (see [`crate::calibration`]) so that
//! a hardwired ("bespoke") 4-bit comparator node of the baseline decision
//! tree costs ≈ 1.1 mm² and ≈ 44 µW — the per-node digital residual implied
//! by Table I of the paper.
//!
//! ```
//! use printed_pdk::cells::{CellKind, CellLibrary};
//!
//! let lib = CellLibrary::egfet();
//! let nand = lib.cell(CellKind::Nand2);
//! assert!(nand.area.mm2() > 0.0);
//! assert_eq!(nand.inputs, 2);
//! ```

use core::fmt;

use crate::units::{Area, Capacitance, Delay, Power};

/// Every combinational cell the technology offers.
///
/// The set intentionally mirrors what a tiny printed standard-cell library
/// provides: inverters/buffers, 2–4 input NAND/NOR/AND/OR, XOR/XNOR for
/// equality logic, AOI/OAI compound gates, a 2:1 multiplexer, and tie cells
/// for hardwired constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellKind {
    /// Logical constant 0 (tie-low). Zero transistors; routing only.
    TieLo,
    /// Logical constant 1 (tie-high). Zero transistors; routing only.
    TieHi,
    /// Inverter.
    Inv,
    /// Non-inverting buffer (two stages).
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 4-input NAND.
    Nand4,
    /// 2-input NOR.
    Nor2,
    /// 3-input NOR.
    Nor3,
    /// 4-input NOR.
    Nor4,
    /// 2-input AND (NAND2 + INV).
    And2,
    /// 3-input AND.
    And3,
    /// 4-input AND.
    And4,
    /// 2-input OR (NOR2 + INV).
    Or2,
    /// 3-input OR.
    Or3,
    /// 4-input OR.
    Or4,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// AND-OR-invert: `!(a·b + c)`.
    Aoi21,
    /// OR-AND-invert: `!((a + b)·c)`.
    Oai21,
    /// 2:1 multiplexer: `s ? b : a`.
    Mux2,
}

impl CellKind {
    /// All cell kinds, in a stable order (useful for iteration and reports).
    pub const ALL: [CellKind; 21] = [
        CellKind::TieLo,
        CellKind::TieHi,
        CellKind::Inv,
        CellKind::Buf,
        CellKind::Nand2,
        CellKind::Nand3,
        CellKind::Nand4,
        CellKind::Nor2,
        CellKind::Nor3,
        CellKind::Nor4,
        CellKind::And2,
        CellKind::And3,
        CellKind::And4,
        CellKind::Or2,
        CellKind::Or3,
        CellKind::Or4,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Aoi21,
        CellKind::Oai21,
        CellKind::Mux2,
    ];

    /// Number of logic inputs this cell takes.
    pub const fn inputs(self) -> usize {
        match self {
            CellKind::TieLo | CellKind::TieHi => 0,
            CellKind::Inv | CellKind::Buf => 1,
            CellKind::Nand2
            | CellKind::Nor2
            | CellKind::And2
            | CellKind::Or2
            | CellKind::Xor2
            | CellKind::Xnor2 => 2,
            CellKind::Nand3
            | CellKind::Nor3
            | CellKind::And3
            | CellKind::Or3
            | CellKind::Aoi21
            | CellKind::Oai21
            | CellKind::Mux2 => 3,
            CellKind::Nand4 | CellKind::Nor4 | CellKind::And4 | CellKind::Or4 => 4,
        }
    }

    /// Evaluates the cell's Boolean function on `inputs`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.inputs()`.
    pub fn eval(self, inputs: &[bool]) -> bool {
        assert_eq!(
            inputs.len(),
            self.inputs(),
            "cell {self} expects {} inputs, got {}",
            self.inputs(),
            inputs.len()
        );
        match self {
            CellKind::TieLo => false,
            CellKind::TieHi => true,
            CellKind::Inv => !inputs[0],
            CellKind::Buf => inputs[0],
            CellKind::Nand2 | CellKind::Nand3 | CellKind::Nand4 => !inputs.iter().all(|&b| b),
            CellKind::Nor2 | CellKind::Nor3 | CellKind::Nor4 => !inputs.iter().any(|&b| b),
            CellKind::And2 | CellKind::And3 | CellKind::And4 => inputs.iter().all(|&b| b),
            CellKind::Or2 | CellKind::Or3 | CellKind::Or4 => inputs.iter().any(|&b| b),
            CellKind::Xor2 => inputs[0] ^ inputs[1],
            CellKind::Xnor2 => !(inputs[0] ^ inputs[1]),
            CellKind::Aoi21 => !((inputs[0] && inputs[1]) || inputs[2]),
            CellKind::Oai21 => !((inputs[0] || inputs[1]) && inputs[2]),
            CellKind::Mux2 => {
                if inputs[2] {
                    inputs[1]
                } else {
                    inputs[0]
                }
            }
        }
    }

    /// The wide AND gate of the library covering `n` inputs, when one exists.
    pub fn and_of(n: usize) -> Option<CellKind> {
        match n {
            2 => Some(CellKind::And2),
            3 => Some(CellKind::And3),
            4 => Some(CellKind::And4),
            _ => None,
        }
    }

    /// The wide OR gate of the library covering `n` inputs, when one exists.
    pub fn or_of(n: usize) -> Option<CellKind> {
        match n {
            2 => Some(CellKind::Or2),
            3 => Some(CellKind::Or3),
            4 => Some(CellKind::Or4),
            _ => None,
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CellKind::TieLo => "TIELO",
            CellKind::TieHi => "TIEHI",
            CellKind::Inv => "INV",
            CellKind::Buf => "BUF",
            CellKind::Nand2 => "NAND2",
            CellKind::Nand3 => "NAND3",
            CellKind::Nand4 => "NAND4",
            CellKind::Nor2 => "NOR2",
            CellKind::Nor3 => "NOR3",
            CellKind::Nor4 => "NOR4",
            CellKind::And2 => "AND2",
            CellKind::And3 => "AND3",
            CellKind::And4 => "AND4",
            CellKind::Or2 => "OR2",
            CellKind::Or3 => "OR3",
            CellKind::Or4 => "OR4",
            CellKind::Xor2 => "XOR2",
            CellKind::Xnor2 => "XNOR2",
            CellKind::Aoi21 => "AOI21",
            CellKind::Oai21 => "OAI21",
            CellKind::Mux2 => "MUX2",
        };
        f.write_str(s)
    }
}

/// Physical characterization of one standard cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellParams {
    /// Foil area occupied by the cell.
    pub area: Area,
    /// Activity-averaged static power drawn by the cell's pull-up loads.
    pub static_power: Power,
    /// Propagation delay through the cell (input to output, worst arc).
    pub delay: Delay,
    /// Capacitive load each cell input presents to its driver.
    pub input_cap: Capacitance,
    /// Number of logic inputs (mirrors [`CellKind::inputs`], kept here so a
    /// characterization row is self-contained when serialized).
    pub inputs: usize,
}

/// Characterization of the sequential cells (used only by multi-cycle
/// architecture *estimates* — the classifier netlists themselves are purely
/// combinational, which is the point the estimates make).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequentialParams {
    /// Area of one D flip-flop.
    pub dff_area: Area,
    /// Static power of one D flip-flop.
    pub dff_static_power: Power,
    /// Clock-to-Q delay of one D flip-flop.
    pub dff_delay: Delay,
}

impl SequentialParams {
    /// EGFET flip-flop: two latches ≈ 10 transistors + 4 pull-ups; printed
    /// registers are expensive, which is exactly why the paper's parallel
    /// unary architecture avoids them.
    pub fn egfet() -> Self {
        Self {
            dff_area: Area::from_mm2(10.0 * 0.022 + 4.0 * 0.030),
            dff_static_power: Power::from_uw(4.0 * 2.6),
            dff_delay: Delay::from_ms(2.2),
        }
    }
}

impl Default for SequentialParams {
    fn default() -> Self {
        Self::egfet()
    }
}

/// A characterized standard-cell library.
///
/// Construct the default printed EGFET library with [`CellLibrary::egfet`],
/// or build a custom one with [`CellLibrary::from_rows`] for what-if studies
/// (e.g. a faster organic technology).
#[derive(Debug, Clone, PartialEq)]
pub struct CellLibrary {
    name: String,
    rows: Vec<(CellKind, CellParams)>,
}

impl CellLibrary {
    /// The default inorganic EGFET library.
    ///
    /// Derivation of the constants: each cell is `t` transistors plus `s`
    /// output stages (one printed load resistor each).
    ///
    /// * area = `t`·A_FET + `s`·A_LOAD with A_FET = 0.022 mm²,
    ///   A_LOAD = 0.030 mm²;
    /// * static power = `s`·P_STAGE with P_STAGE = 2.6 µW (activity-averaged
    ///   pull-up current at 0.8 V supply);
    /// * delay = `s` stages at ~0.9 ms plus 0.12 ms per series transistor.
    ///
    /// These track the published EGFET numbers qualitatively and are scaled so
    /// the baseline decision-tree node cost matches the paper's Table I
    /// residuals (see [`crate::calibration`]).
    pub fn egfet() -> Self {
        const A_FET: f64 = 0.022; // mm² per printed transistor
        const A_LOAD: f64 = 0.030; // mm² per printed pull-up resistor
        const P_STAGE: f64 = 2.6; // µW activity-averaged per output stage
        const D_STAGE: f64 = 0.9; // ms per inverting stage
        const D_SERIES: f64 = 0.12; // ms extra per series transistor
        const C_IN: f64 = 18.0; // pF per gate input

        // (kind, transistors, stages, series transistors on worst path)
        let table: &[(CellKind, f64, f64, f64)] = &[
            (CellKind::TieLo, 0.0, 0.0, 0.0),
            (CellKind::TieHi, 0.0, 0.0, 0.0),
            (CellKind::Inv, 1.0, 1.0, 1.0),
            (CellKind::Buf, 2.0, 2.0, 1.0),
            (CellKind::Nand2, 2.0, 1.0, 2.0),
            (CellKind::Nand3, 3.0, 1.0, 3.0),
            (CellKind::Nand4, 4.0, 1.0, 4.0),
            (CellKind::Nor2, 2.0, 1.0, 1.0),
            (CellKind::Nor3, 3.0, 1.0, 1.0),
            (CellKind::Nor4, 4.0, 1.0, 1.0),
            (CellKind::And2, 3.0, 2.0, 2.0),
            (CellKind::And3, 4.0, 2.0, 3.0),
            (CellKind::And4, 5.0, 2.0, 4.0),
            (CellKind::Or2, 3.0, 2.0, 1.0),
            (CellKind::Or3, 4.0, 2.0, 1.0),
            (CellKind::Or4, 5.0, 2.0, 1.0),
            (CellKind::Xor2, 5.0, 2.0, 2.0),
            (CellKind::Xnor2, 5.0, 2.0, 2.0),
            (CellKind::Aoi21, 3.0, 1.0, 2.0),
            (CellKind::Oai21, 3.0, 1.0, 2.0),
            (CellKind::Mux2, 5.0, 2.0, 2.0),
        ];

        let rows = table
            .iter()
            .map(|&(kind, t, s, series)| {
                let params = CellParams {
                    area: Area::from_mm2(t * A_FET + s * A_LOAD),
                    static_power: Power::from_uw(s * P_STAGE),
                    delay: Delay::from_ms(s * D_STAGE + series * D_SERIES),
                    input_cap: Capacitance::from_pf(C_IN),
                    inputs: kind.inputs(),
                };
                (kind, params)
            })
            .collect();

        Self {
            name: "egfet-1v".to_owned(),
            rows,
        }
    }

    /// An organic (e.g. carbon-based) printed technology preset for
    /// what-if studies: organic transistors are cheaper to print but slower
    /// and leakier than inorganic EGFETs, and they need higher supply
    /// voltages. Modeled as the EGFET library with area ×0.8, static power
    /// ×2.2, and delay ×6 — coarse, but representative of the published
    /// gap, and enough to show which co-design conclusions are
    /// technology-portable (most) and which are not (timing slack).
    pub fn organic() -> Self {
        let egfet = Self::egfet();
        let rows = egfet
            .rows
            .iter()
            .map(|&(kind, p)| {
                (
                    kind,
                    CellParams {
                        area: p.area * 0.8,
                        static_power: p.static_power * 2.2,
                        delay: p.delay * 6.0,
                        input_cap: p.input_cap,
                        inputs: p.inputs,
                    },
                )
            })
            .collect();
        Self {
            name: "organic-2v".to_owned(),
            rows,
        }
    }

    /// Builds a library from explicit characterization rows.
    ///
    /// # Errors
    ///
    /// Returns [`MissingCellError`] if any [`CellKind`] lacks a row, so a
    /// partial library can never be constructed by accident.
    pub fn from_rows(
        name: impl Into<String>,
        rows: Vec<(CellKind, CellParams)>,
    ) -> Result<Self, MissingCellError> {
        for kind in CellKind::ALL {
            if !rows.iter().any(|(k, _)| *k == kind) {
                return Err(MissingCellError { kind });
            }
        }
        Ok(Self {
            name: name.into(),
            rows,
        })
    }

    /// The library's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Looks up the characterization of `kind`.
    ///
    /// # Panics
    ///
    /// Panics if the library lacks the cell — impossible for libraries built
    /// through [`CellLibrary::egfet`] or [`CellLibrary::from_rows`].
    pub fn cell(&self, kind: CellKind) -> CellParams {
        self.rows
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, p)| *p)
            .unwrap_or_else(|| panic!("cell library {} has no row for {kind}", self.name))
    }

    /// Iterates over all `(kind, params)` rows.
    pub fn iter(&self) -> impl Iterator<Item = (CellKind, CellParams)> + '_ {
        self.rows.iter().copied()
    }
}

impl Default for CellLibrary {
    fn default() -> Self {
        Self::egfet()
    }
}

/// Error returned by [`CellLibrary::from_rows`] when a cell kind is missing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissingCellError {
    /// The kind that had no characterization row.
    pub kind: CellKind,
}

impl fmt::Display for MissingCellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell library is missing a characterization row for {}",
            self.kind
        )
    }
}

impl std::error::Error for MissingCellError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_covers_every_kind() {
        let lib = CellLibrary::egfet();
        for kind in CellKind::ALL {
            let p = lib.cell(kind);
            assert_eq!(p.inputs, kind.inputs(), "{kind}");
            assert!(p.area.mm2() >= 0.0);
            assert!(p.static_power.uw() >= 0.0);
        }
    }

    #[test]
    fn tie_cells_are_free() {
        let lib = CellLibrary::egfet();
        assert_eq!(lib.cell(CellKind::TieLo).area, Area::ZERO);
        assert_eq!(lib.cell(CellKind::TieHi).static_power, Power::ZERO);
    }

    #[test]
    fn eval_matches_truth_tables() {
        assert!(CellKind::Nand2.eval(&[true, false]));
        assert!(!CellKind::Nand2.eval(&[true, true]));
        assert!(!CellKind::Nor2.eval(&[true, false]));
        assert!(CellKind::Nor3.eval(&[false, false, false]));
        assert!(CellKind::And4.eval(&[true, true, true, true]));
        assert!(!CellKind::And4.eval(&[true, true, false, true]));
        assert!(CellKind::Xor2.eval(&[true, false]));
        assert!(CellKind::Xnor2.eval(&[true, true]));
        // AOI21: !(a·b + c)
        assert!(!CellKind::Aoi21.eval(&[true, true, false]));
        assert!(CellKind::Aoi21.eval(&[true, false, false]));
        // OAI21: !((a+b)·c)
        assert!(!CellKind::Oai21.eval(&[false, true, true]));
        assert!(CellKind::Oai21.eval(&[false, false, true]));
        // MUX2: s ? b : a
        assert!(CellKind::Mux2.eval(&[true, false, false]));
        assert!(!CellKind::Mux2.eval(&[true, false, true]));
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn eval_panics_on_arity_mismatch() {
        CellKind::And2.eval(&[true]);
    }

    #[test]
    fn and_gates_cost_more_than_nand() {
        let lib = CellLibrary::egfet();
        assert!(lib.cell(CellKind::And2).area > lib.cell(CellKind::Nand2).area);
        assert!(lib.cell(CellKind::And2).static_power > lib.cell(CellKind::Nand2).static_power);
    }

    #[test]
    fn organic_preset_trades_area_for_power_and_speed() {
        let egfet = CellLibrary::egfet();
        let organic = CellLibrary::organic();
        assert_eq!(organic.name(), "organic-2v");
        for kind in [CellKind::Inv, CellKind::Nand2, CellKind::Mux2] {
            let e = egfet.cell(kind);
            let o = organic.cell(kind);
            assert!(o.area < e.area, "{kind}: organic prints smaller");
            assert!(o.static_power > e.static_power, "{kind}: but leaks more");
            assert!(o.delay > e.delay, "{kind}: and switches slower");
        }
    }

    #[test]
    fn from_rows_rejects_partial_library() {
        let lib = CellLibrary::egfet();
        let mut rows: Vec<_> = lib.iter().collect();
        rows.pop();
        let err = CellLibrary::from_rows("partial", rows).unwrap_err();
        assert_eq!(err.kind, CellKind::Mux2);
        assert!(err.to_string().contains("MUX2"));
    }

    #[test]
    fn from_rows_roundtrip() {
        let lib = CellLibrary::egfet();
        let rebuilt = CellLibrary::from_rows("copy", lib.iter().collect()).unwrap();
        assert_eq!(rebuilt.cell(CellKind::Nand3), lib.cell(CellKind::Nand3));
    }

    #[test]
    fn and_or_selectors() {
        assert_eq!(CellKind::and_of(3), Some(CellKind::And3));
        assert_eq!(CellKind::or_of(4), Some(CellKind::Or4));
        assert_eq!(CellKind::and_of(5), None);
        assert_eq!(CellKind::or_of(1), None);
    }
}
