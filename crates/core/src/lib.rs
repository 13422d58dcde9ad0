//! # printed-codesign
//!
//! The paper's contribution: a model–circuit co-design framework for
//! self-powered, on-sensor printed decision-tree classifiers.
//!
//! * [`unary`] — the parallel unary architecture: a trained tree becomes
//!   per-class two-level logic over unary literals, each literal one
//!   retained ADC comparator.
//! * [`system`] — full-system synthesis (unary logic + bespoke ADC bank)
//!   with the 2 mW self-powering check and baseline comparisons.
//! * [`train`] — Algorithm 1: ADC-aware Gini training with the
//!   `S_Z`/`S_M`/`S_H` cost classes and low-threshold power tie-break.
//! * [`mod@explore`] — the τ × depth design-space sweep with accuracy-loss
//!   constrained selection (Fig. 5 / Table II methodology).
//! * [`mismatch`] — Monte-Carlo accuracy under printing variation
//!   (extension beyond the paper's nominal analysis).
//! * [`campaign`] — unified robustness campaigns (faults + mismatch +
//!   supply droop) feeding robustness-aware selection.
//! * [`checkpoint`] — grid checkpointing, so interrupted explorations and
//!   robustness campaigns resume without redoing finished grid points.
//!
//! ## End-to-end
//!
//! ```no_run
//! use printed_codesign::explore::{explore, ExplorationConfig};
//! use printed_datasets::Benchmark;
//!
//! let (train, test) = Benchmark::Vertebral2C.load_quantized(4)?;
//! let sweep = explore(&train, &test, &ExplorationConfig::paper());
//! let design = sweep.select(0.01).expect("a 1%-loss design exists");
//! assert!(design.system.is_self_powered());
//! # Ok::<(), printed_datasets::DatasetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod checkpoint;
pub mod datasheet;
pub mod ensemble;
pub mod explore;
pub mod flow;
pub mod lint;
pub mod mismatch;
pub mod robustness;
pub mod serial;
pub mod system;
pub mod train;
pub mod unary;

pub use campaign::{
    AdaptiveBudget, CampaignOutcome, CandidateRobustness, PruneReason, PrunedPoint,
    RobustnessCampaign, RobustnessConstraints, RobustnessProfile, SupplyDroopModel,
};
pub use datasheet::Datasheet;
pub use ensemble::{synthesize_ensemble, EnsembleSystem};
pub use explore::{
    explore, CandidateDesign, CandidateLint, Exploration, ExplorationConfig, FailedCandidate,
};
pub use flow::{record_process_gauges, record_selection, CodesignFlow, FlowOutcome};
pub use lint::{fix_candidate, lint_candidate, record_lint};
pub use mismatch::{
    mismatch_accuracy, AnalogColumns, MismatchReport, MismatchTrialStream, MismatchTrials,
    PackedAnalogTree,
};
pub use printed_lint::{Diagnostic, LintConfig, LintLevel, LintReport, Severity};
pub use robustness::{decode_one_hot, fault_robustness, FaultRobustness};
pub use serial::{estimate_serial_unary, SerialUnaryEstimate};
pub use system::{synthesize_unary, Reduction, UnarySystem};
pub use train::{
    train_adc_aware, train_adc_aware_annotated_with_index, train_adc_aware_forest,
    train_adc_aware_reference, AdcAwareConfig,
};
pub use unary::{PackedClassifier, UnaryClassifier};
