//! # printed-telemetry
//!
//! Zero-dependency (std only) instrumentation for the co-design flow:
//! the τ×depth sweep behind the paper's Fig. 5 / Table II fans out across
//! every core and used to run blind. This crate gives the stack
//!
//! * [`Span`]s and [`Timer`]s over a shared monotonic epoch,
//! * lock-free named counters ([`Recorder::add`]) and last-value gauges
//!   ([`Recorder::set_gauge`]),
//! * a thread-safe [`Recorder`] behind a pluggable [`Sink`] trait whose
//!   default ([`NullSink`]) makes every instrumentation call a no-op, so
//!   instrumented hot paths cost ~nothing when tracing is off,
//! * per-kernel hot-path profiling ([`Kernel`], [`KernelTimer`],
//!   [`KernelScope`]): per-thread call/item/self-time tallies for the five
//!   dominant kernels, merged into shared counters at scope close and
//!   inert (one thread-local flag read) outside a scope,
//! * [`FlowTrace`]/[`SweepTrace`] summaries with NDJSON and human-readable
//!   text renderers, written through [`json`], the workspace's one JSON
//!   codec (writer and parser). The trace has one schema: a live
//!   [`StreamSink`] writes each span and event as exactly the line the
//!   finalized [`FlowTrace::to_ndjson`] dump later contains, and
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

// The only unsafe code in the crate is the optional `count-allocs`
// counting global allocator (GlobalAlloc is an unsafe trait); without the
// feature the crate stays forbid-clean.
#![cfg_attr(not(feature = "count-allocs"), forbid(unsafe_code))]
#![cfg_attr(feature = "count-allocs", deny(unsafe_code))]
#![warn(missing_docs)]

mod clock;
mod kernel;
mod manifest;
mod process;
mod recorder;
mod sink;
mod span;
mod stream;
mod trace;

pub mod json;
pub mod keys;

pub use clock::{fmt_duration, Timer};
pub use json::JsonLine;
pub use kernel::{Kernel, KernelScope, KernelTimer};
pub use manifest::RunManifest;
#[cfg(feature = "count-allocs")]
pub use process::CountingAlloc;
pub use process::{alloc_counts, peak_rss_kb};
pub use recorder::{Progress, Recorder};
pub use sink::{CollectingSink, NullSink, Sink, TraceSnapshot};
pub use span::{EventRecord, FieldValue, Span, SpanRecord};
pub use stream::StreamSink;
pub use trace::{FlowTrace, KernelRecord, SweepTrace};
