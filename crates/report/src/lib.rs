//! # printed-report
//!
//! Trace analysis and hardware-cost reporting for the co-design flow.
//! `printed-telemetry` records *what happened* (spans, counters, events,
//! NDJSON dumps); this crate answers *so what* — three questions per run:
//!
//! * **Where did the time go?** [`Profile`] builds the tree of
//!   parent-linked spans and merges same-named siblings into total/self
//!   time, call counts, and exact p50/p90/p99 latencies.
//! * **Where do the area and power go?** [`CostReport`] attributes the
//!   selected design's footprint per bespoke ADC input and per class
//!   output, tallies comparators retained vs dropped and AND/OR gates,
//!   and renders the verdict against the printed harvester's 2 mW budget.
//! * **Did this change make things worse?** [`BenchRecord`] condenses a
//!   run (or a kernel, or a robustness campaign) to its guarded numbers
//!   and [`diff()`] gates a fresh suite against a committed `BENCH_*`
//!   baseline under each metric's gate policy: exact, drift or regress.
//!   Only numbers that replay bit for bit are gated; timings are shown
//!   with their Δ, and the repository benchmark (perfbench) owns them.
//!
//! The `printed-trace` CLI wraps all three (`report`, `diff`) and tails
//! a run in flight (`watch`); the library API serves programmatic use:
//!
//! ```
//! use printed_codesign::{CodesignFlow, ExplorationConfig};
//! use printed_datasets::Benchmark;
//! use printed_report::{parse_trace, CostReport, Profile};
//!
//! let (train, test) = Benchmark::Seeds.load_quantized(4).unwrap();
//! let outcome = CodesignFlow::new(&train, &test)
//!     .grid(ExplorationConfig::quick())
//!     .title("Seeds")
//!     .traced()
//!     .run();
//! let ndjson = outcome.trace().unwrap().to_ndjson();
//!
//! // Round-trip through NDJSON, then analyze.
//! let parsed = parse_trace(&ndjson);
//! assert!(parsed.is_clean());
//! let profile = Profile::from_trace(&parsed.trace);
//! let costs = CostReport::from_trace(&parsed.trace);
//! println!("{}", profile.render_text());
//! println!("{}", costs.render_text());
//! ```
//!
//! Ingestion is deliberately forgiving: [`parse_trace`] never fails, it
//! skips damaged lines with warnings so a Ctrl-C'd run's trace is still
//! analyzable. It is a fold over one per-line decoder,
//! [`parse::records`]; [`Watcher`] folds the same records into a
//! [`WatchState`], rebuilt from the file's complete lines on every poll.
//! Lines are read with the workspace's one JSON codec,
//! [`printed_telemetry::json`], re-exported here as [`json`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod diff;
pub mod parse;
pub mod profile;
pub mod watch;

pub use printed_telemetry::json;

pub use cost::{AdcRow, ClassRow, CostReport, RobustRow, SelectedDesign};
pub use diff::{diff, Axis, BenchRecord, DiffConfig, Metric, Verdict};
pub use parse::{parse_trace, ParsedTrace};
pub use profile::{Profile, ProfileNode};
pub use watch::{WatchState, Watcher};
