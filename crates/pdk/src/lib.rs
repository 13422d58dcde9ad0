//! # printed-pdk
//!
//! Technology data for an inorganic Electrolyte-Gated FET (EGFET) printed
//! process: physical-unit newtypes, a characterized standard-cell library,
//! and a calibrated analog cost model for flash-ADC components.
//!
//! This crate is the single source of truth for *how much things cost* in
//! the printed technology. Everything downstream — netlist area/power
//! reports in `printed-logic`, ADC models in `printed-adc`, the co-design
//! explorer in `printed-codesign` — prices hardware through the constants
//! defined here, so a recalibration (or a what-if study on a different
//! printed process) happens in exactly one place.
//!
//! ## Quick start
//!
//! ```
//! use printed_pdk::{AnalogModel, CellKind, CellLibrary, HARVESTER_BUDGET};
//!
//! let lib = CellLibrary::egfet();
//! let analog = AnalogModel::egfet();
//!
//! // Digital: a 2-input AND occupies a small fraction of a mm².
//! let and2 = lib.cell(CellKind::And2);
//! assert!(and2.area.mm2() < 0.2);
//!
//! // Analog: the low-order comparator of a flash ADC is the cheap one.
//! assert!(analog.comparator_power(1) < analog.comparator_power(15));
//!
//! // The self-powering question everything leads up to:
//! assert_eq!(HARVESTER_BUDGET.mw(), 2.0);
//! ```
//!
//! ## Calibration
//!
//! Absolute constants are calibrated against the numbers published in the
//! DATE 2024 paper (conventional 4-bit flash ADC = 11 mm²; 4-U_D bespoke ADC
//! power spans 47–205 µW; Table I system totals). The derivation of each
//! constant is documented on the field that holds it, and
//! [`calibration`] records the anchors plus the one documented deviation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analog;
pub mod calibration;
pub mod cells;
pub mod harvester;
pub mod units;

pub use analog::AnalogModel;
pub use calibration::HARVESTER_BUDGET;
pub use cells::{CellKind, CellLibrary, CellParams, MissingCellError, SequentialParams};
pub use harvester::Harvester;
pub use units::{Area, Capacitance, Delay, Power, Resistance, Voltage};
