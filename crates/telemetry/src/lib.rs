//! # printed-telemetry
//!
//! Zero-dependency (std only) instrumentation for the co-design flow:
//! the τ×depth sweep behind the paper's Fig. 5 / Table II fans out across
//! every core and used to run blind. This crate gives the stack
//!
//! * [`Span`]s over a shared monotonic epoch, each recording its parent:
//!   the span open on its thread when it opened, or on the thread that
//!   handed it its work ([`Span::adopt`]),
//! * named counters ([`Recorder::add`]) and last-value gauges
//!   ([`Recorder::set_gauge`]),
//! * a thread-safe [`Recorder`] that either holds nothing
//!   ([`Recorder::disabled`], the default), which makes every
//!   instrumentation call a no-op so instrumented hot paths cost
//!   ~nothing when tracing is off, or shares one in-memory
//!   [`CollectingSink`] that may also stream to a live writer,
//! * per-kernel hot-path profiling ([`Kernel`], [`KernelTimer`],
//!   [`KernelScope`]): per-thread call/item/self-time tallies for the six
//!   dominant kernels, merged into shared counters at scope close and
//!   inert (one thread-local flag read) outside a scope,
//! * [`FlowTrace`] summaries with NDJSON and human-readable text
//!   renderers, written through [`json`], the workspace's one JSON codec
//!   (writer and parser). The trace has one schema, the snapshot's own
//!   (`span`, `event`, `counter` and `gauge` records after a `flow`
//!   header and a `manifest`): a [`Recorder::streaming`] recorder writes
//!   each span and event as exactly the line the finalized
//!   [`FlowTrace::to_ndjson`] dump later contains, and
//! * a [`Progress`] type for live `k/N candidates done` callbacks from the
//!   sweep's scoped worker threads.
//!
//! ## Quick start
//!
//! ```
//! use printed_telemetry::{keys, FlowTrace, Recorder};
//!
//! let (recorder, sink) = Recorder::collecting();
//! {
//!     let span = recorder.span(keys::CANDIDATE_SPAN).field("depth", 4u64);
//!     recorder.add(keys::GINI_EVALS, 128);
//!     span.finish();
//! }
//! let snapshot = sink.snapshot();
//! assert_eq!(snapshot.counter(keys::GINI_EVALS), 128);
//! assert_eq!(snapshot.spans_named(keys::CANDIDATE_SPAN).count(), 1);
//! let trace = FlowTrace::from_snapshot("demo", &snapshot);
//! println!("{}", trace.to_ndjson()); // one JSON object per line
//! ```
//!
//! When tracing is off, hand the same code [`Recorder::disabled`] (also
//! [`Recorder::default`]): spans skip even the clock reads, and counter
//! and gauge updates are no-ops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod kernel;
mod manifest;
mod process;
mod recorder;
mod sink;
mod span;
mod trace;

pub mod json;
pub mod keys;

pub use clock::fmt_duration;
pub use json::JsonLine;
pub use kernel::{Kernel, KernelScope, KernelTimer};
pub use manifest::RunManifest;
pub use process::peak_rss_kb;
pub use recorder::{Progress, Recorder};
pub use sink::{CollectingSink, TraceSnapshot};
pub use span::{EventRecord, FieldValue, Span, SpanRecord};
pub use trace::{FlowTrace, KernelRecord, SweepTrace};
