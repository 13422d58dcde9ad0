//! # printed-analog
//!
//! The analog substrate for the printed-ML co-design workspace: a miniature
//! DC circuit engine and the behavioral front-end models that stand in for
//! the paper's Cadence/SPICE flow.
//!
//! * [`linalg`] — dense Gaussian elimination with partial pivoting.
//! * [`mna`] — Modified Nodal Analysis for resistive DC circuits (resistors
//!   and voltage sources).
//! * [`ladder`] — flash-ADC reference ladders; proves electrically that a
//!   pruned bespoke ladder keeps every retained tap voltage.
//! * [`comparator`] — behavioral comparator with an input-referred offset.
//! * [`mc`] — Monte-Carlo printing-mismatch sampling.
//!
//! ## Why this exists
//!
//! The paper obtained ADC area/power with Cadence Virtuoso and an EGFET PDK.
//! Those tools are unavailable here, so this crate provides the smallest
//! analog engine that can *verify* (rather than assume) the electrical facts
//! the co-design rests on: divider ratios of the reference ladder, the
//! equivalence of merged bespoke ladders, and the sensitivity of effective
//! comparator thresholds to printing variation.
//!
//! ```
//! use printed_analog::ladder::Ladder;
//!
//! // The bespoke ladder of an ADC that only needs taps 3 and 11:
//! let bespoke = Ladder::pruned(4, &[3, 11], 1.0, 2500.0)?;
//! assert_eq!(bespoke.resistor_count(), 3);
//! let v = bespoke.tap_voltages()?;
//! assert!((v[&11] - 11.0 / 16.0).abs() < 1e-12);
//! # Ok::<(), printed_analog::ladder::LadderError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comparator;
pub mod ladder;
pub mod linalg;
pub mod mc;
pub mod mna;
pub mod spice;

pub use comparator::Comparator;
pub use ladder::{Ladder, LadderError};
pub use linalg::{Matrix, SolveError};
pub use mc::{LadderSampler, MismatchModel, MismatchSample, PerturbedTap};
pub use mna::{Circuit, MnaError, Node, OperatingPoint};
pub use spice::ladder_deck;
