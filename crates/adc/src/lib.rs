//! # printed-adc
//!
//! Flash-ADC models for printed on-sensor classification:
//!
//! * [`unary`] — parallel thermometer codes and the `I ≥ C ⇔ U_C` identity
//!   the whole co-design rests on.
//! * [`conventional`] — conventional `N`-bit flash ADCs (ladder +
//!   comparators + priority encoder) and their shared-ladder bank costs,
//!   calibrated to the paper's Table I.
//! * [`bespoke`] — the paper's bespoke ADCs: retained comparators only, no
//!   encoder, pruned shared reference ladder.
//! * [`cost`] — the [`AdcCost`] inventory type.
//!
//! ```
//! use printed_adc::{BespokeAdcBank, ConventionalAdc};
//! use printed_pdk::AnalogModel;
//!
//! let model = AnalogModel::egfet();
//! // Five sensor inputs, conventional front-end:
//! let conventional = ConventionalAdc::new(4).bank_cost(5, &model);
//! // …versus a bespoke front-end that only needs 7 digits total:
//! let mut bespoke = BespokeAdcBank::new(4);
//! for (feature, tap) in [(0, 3), (0, 9), (1, 5), (2, 5), (3, 2), (3, 12), (4, 7)] {
//!     bespoke.require(feature, tap)?;
//! }
//! let ours = bespoke.cost(&model);
//! assert!(ours.power.uw() < conventional.power.uw() / 5.0);
//! # Ok::<(), printed_adc::bespoke::BespokeAdcError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bespoke;
pub mod conventional;
pub mod cost;
pub mod linearity;
pub mod sar;
pub mod unary;

pub use bespoke::{BespokeAdcBank, BespokeAdcError};
pub use conventional::ConventionalAdc;
pub use cost::AdcCost;
pub use linearity::{linearity_of_thresholds, mc_linearity, LinearityReport, McLinearity};
pub use sar::SarAdc;
pub use unary::UnaryCode;
