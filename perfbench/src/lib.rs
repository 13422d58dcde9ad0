//! End-to-end and per-layer benchmark of the printed-ml co-design flow
//! and its robustness campaigns.
//!
//! Each workload replays a user's `codesign` command on the paper grid
//! for a fixed set of benchmarks, one pass after another, and checks
//! every selected design and robust selection bit for bit against the
//! outputs pinned in `pins.txt`. See `README.md` for the workloads, the
//! metrics and what each layer metric should move.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod measure;
pub mod replay;
pub mod run;
pub mod tracer;
pub mod workload;
