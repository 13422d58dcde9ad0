//! # printed-dtree
//!
//! Decision trees for printed on-sensor classification:
//!
//! * [`tree`] — the validated, immutable [`DecisionTree`] model type, with
//!   the structural queries circuit generators need (paths, distinct
//!   `(feature, threshold)` pairs, used features).
//! * [`cart`] — conventional Gini CART training over quantized thresholds,
//!   the one breadth-first tree grower every trainer shares (the
//!   ADC-aware trainer in `printed-codesign` hands it Algorithm 1 as its
//!   split chooser), and the paper's depth-selection rule.
//! * [`baseline`] — the exact baseline "\[2\]": bespoke binary comparator
//!   tree + mux network + conventional flash ADC bank, synthesized as a
//!   real netlist.
//! * [`approx`] — the approximate baseline "\[7\]": per-input precision
//!   scaling with retrained (deeper) trees and mixed-resolution ADCs.
//!
//! ```
//! use printed_datasets::Benchmark;
//! use printed_dtree::cart::train_depth_selected;
//! use printed_dtree::baseline::synthesize_baseline;
//!
//! let (train, test) = Benchmark::Seeds.load_quantized(4)?;
//! let model = train_depth_selected(&train, &test, 8);
//! let design = synthesize_baseline(&model.tree);
//! println!("Seeds baseline: {:.1} / {:.2}", design.total_area(), design.total_power());
//! # Ok::<(), printed_datasets::DatasetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod arena;
pub mod baseline;
pub mod cart;
pub mod forest;
pub mod metrics;
pub mod tree;

pub use approx::{synthesize_approx, ApproxConfig, ApproxDesign};
pub use arena::IndexArena;
pub use baseline::{synthesize_baseline, synthesize_baseline_with, BaselineDesign};
pub use cart::{
    train, train_depth_selected, CartConfig, SplitCandidate, SplitEngine, TrainedModel,
};
pub use forest::{train_forest, Forest, ForestConfig};
pub use metrics::{evaluate, ClassMetrics, Classifier, Evaluation};
pub use tree::{DecisionTree, Node, Path, TreeError};
