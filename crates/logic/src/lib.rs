//! # printed-logic
//!
//! The digital substrate for the printed-ML co-design workspace: gate-level
//! netlists over the `printed-pdk` EGFET cell library, generators for the
//! recurring classifier blocks, two-level logic minimization, and an
//! area/power/timing analyzer that stands in for the paper's Synopsys
//! Design Compiler + PrimeTime flow.
//!
//! * [`netlist`] — combinational DAGs with structural hashing, constant
//!   folding, and dead-logic pruning.
//! * [`blocks`] — AND/OR trees, bespoke constant comparators, mux buses,
//!   thermometer-to-binary priority encoders.
//! * [`sop`] — sum-of-products covers with safe simplification and netlist
//!   lowering (the unary decision tree's two-level logic).
//! * [`qm`] — exact Quine–McCluskey minimization for small functions.
//! * [`sim`] — word-parallel simulation, 64 patterns per `u64`, for
//!   stuck-at fault campaigns and equivalence checking.
//! * [`report`] — area / static+dynamic power / critical path at 20 Hz.
//!
//! ```
//! use printed_logic::{blocks, netlist::Netlist, report};
//! use printed_pdk::CellLibrary;
//!
//! // Price a bespoke "input ≥ 11" comparator in the printed technology.
//! let mut nl = Netlist::new("ge11");
//! let bus = nl.input_bus("i", 4);
//! let ge = blocks::gte_const(&mut nl, &bus, 11);
//! nl.output("ge", ge);
//! let r = report::analyze(&nl, &CellLibrary::egfet(), &Default::default());
//! assert!(r.area.mm2() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
pub mod equiv;
pub mod fanout;
pub mod faults;
pub mod netlist;
pub mod qm;
pub mod report;
pub mod sim;
pub mod sop;
pub mod verilog;

pub use equiv::{check_equivalence, Equivalence};
pub use fanout::{fanout_counts, legalize_fanout, max_fanout};
pub use faults::{enumerate_faults, fault_campaign, FaultCampaign, FaultyNetlist, StuckAt};
pub use netlist::{Gate, Netlist, Signal};
pub use report::{analyze, AnalysisConfig, DesignReport};
pub use sim::{Lanes, PackedNetlist};
pub use sop::{Cube, PackedCover, Sop};
pub use verilog::to_verilog;
