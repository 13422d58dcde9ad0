//! Per-kernel hot-path profiling: invocation counts, items processed, and
//! cumulative self time for the six kernels that dominate flow wall time.
//!
//! Stage spans say *that* `stage:sweep` is slow; this module says *which
//! kernel* — the Gini candidate scan, node partitioning, thermometer
//! encoding, BFS truncation, cube merging, or netlist synthesis — and at
//! how many items/sec. The design constraints, in order:
//!
//! 1. **Inert off the profiling path.** A [`KernelTimer`] costs one
//!    thread-local flag read when no [`KernelScope`] is active on the
//!    current thread — no clock read, no allocation, no atomics — so the
//!    instrumented kernels stay bit-identical and unperturbed in ordinary
//!    (untraced) runs.
//! 2. **Per-thread tallies, merged at scope close.** The sweep fans
//!    kernels across scoped worker threads; each thread accumulates plain
//!    `u64` tallies and a single [`KernelScope`] drop folds them into the
//!    recorder's shared counters (`kernel.<name>.{calls,items,ns}`),
//!    so the hot path never touches shared state.
//! 3. **Self time, not inclusive time.** Kernels nest (thermometer
//!    encoding runs cube merging internally), so each timer tracks the
//!    time spent in child kernels via a per-thread stack and records only
//!    its exclusive share — the per-kernel table in trace reports sums to
//!    the real time spent, with no double counting.
//!
//! ```
//! use printed_telemetry::{Kernel, KernelScope, KernelTimer, Recorder};
//!
//! let (recorder, sink) = Recorder::collecting();
//! {
//!     let _scope = KernelScope::enter(&recorder);
//!     let timer = KernelTimer::start(Kernel::CubeMerge);
//!     // ... merge 12 cubes ...
//!     timer.finish(12);
//! }
//! let snapshot = sink.snapshot();
//! assert_eq!(snapshot.counter("kernel.cube_merge.calls"), 1);
//! assert_eq!(snapshot.counter("kernel.cube_merge.items"), 12);
//! ```

use std::cell::{Cell, RefCell};
use std::time::Instant;

use crate::recorder::Recorder;

/// The instrumented hot kernels, in fixed tally order: a kernel's
/// discriminant is its index into the tallies and the key table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Algorithm 1's Gini scan over split candidates (one BFS node's
    /// candidate enumeration per call; items = sample-level reads
    /// scanned, i.e. node size × features — the quantity the scan's
    /// work is actually proportional to).
    GiniScan,
    /// Stable in-place partition of a node's sample subset into its two
    /// children after a split commits (items = sample ids moved).
    NodePartition,
    /// Tree → per-class two-level unary logic (items = root-to-leaf paths
    /// encoded).
    ThermoEncode,
    /// BFS truncation of a trained tree to a shallower depth cap (items =
    /// nodes in the source tree).
    BfsTruncate,
    /// Two-level cover simplification — absorption + adjacent-cube
    /// merging to a fixpoint (items = input cubes).
    CubeMerge,
    /// Unary classifier → gate-level netlist lowering (items = gates in
    /// the synthesized netlist).
    NetlistSynth,
}

/// Number of kernels (the tally array width).
const N: usize = 6;

impl Kernel {
    /// Every kernel, in tally order.
    pub const ALL: [Kernel; N] = [
        Kernel::GiniScan,
        Kernel::NodePartition,
        Kernel::ThermoEncode,
        Kernel::BfsTruncate,
        Kernel::CubeMerge,
        Kernel::NetlistSynth,
    ];

    /// The kernel's snake_case name as it appears in trace records.
    pub fn name(self) -> &'static str {
        KEYS[self as usize][0]
    }

    /// Counter key for invocations: `kernel.<name>.calls`.
    pub fn calls_key(self) -> &'static str {
        KEYS[self as usize][1]
    }

    /// Counter key for items processed: `kernel.<name>.items`.
    pub fn items_key(self) -> &'static str {
        KEYS[self as usize][2]
    }

    /// Counter key for cumulative self time in ns: `kernel.<name>.ns`.
    pub fn ns_key(self) -> &'static str {
        KEYS[self as usize][3]
    }
}

/// Each kernel's name and its three counter keys, in tally order.
macro_rules! kernel_keys {
    ($($name:literal),*) => {
        [$([
            $name,
            concat!("kernel.", $name, ".calls"),
            concat!("kernel.", $name, ".items"),
            concat!("kernel.", $name, ".ns"),
        ]),*]
    };
}

const KEYS: [[&str; 4]; N] = kernel_keys!(
    "gini_scan",
    "node_partition",
    "thermo_encode",
    "bfs_truncate",
    "cube_merge",
    "netlist_synth"
);

/// Per-thread tallies: plain integers, touched only by this thread.
#[derive(Default)]
struct Tallies {
    calls: [u64; N],
    items: [u64; N],
    self_ns: [u64; N],
    /// Stack of accumulated child-kernel time, one frame per live timer
    /// on this thread — how nested kernels subtract out of their parent.
    child_ns: Vec<u64>,
}

thread_local! {
    /// Fast path: is a scope active on this thread? Checked by every
    /// timer before it reads the clock.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static TALLIES: RefCell<Tallies> = RefCell::new(Tallies::default());
}

/// Times one kernel invocation. Start it at the kernel's entry, call
/// [`KernelTimer::finish`] with the item count at its exit; dropping
/// without `finish` records nothing (the invocation is discarded, e.g.
/// on unwind).
///
/// When no [`KernelScope`] is active on the current thread the timer is
/// inert: no clock read, no tally writes.
#[must_use = "call finish(items) at the kernel's exit"]
pub struct KernelTimer {
    kernel: Kernel,
    start: Option<Instant>,
}

impl KernelTimer {
    /// Starts timing one invocation of `kernel`.
    pub fn start(kernel: Kernel) -> Self {
        if !ACTIVE.get() {
            return Self {
                kernel,
                start: None,
            };
        }
        TALLIES.with_borrow_mut(|t| t.child_ns.push(0));
        Self {
            kernel,
            start: Some(Instant::now()),
        }
    }

    /// True when the timer is actually measuring (a scope is active).
    pub fn is_live(&self) -> bool {
        self.start.is_some()
    }

    /// Stops the timer and tallies one call, `items` items, and the
    /// invocation's *self* time (elapsed minus time spent in nested
    /// kernels).
    pub fn finish(self, items: u64) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed().as_nanos() as u64;
        let idx = self.kernel as usize;
        TALLIES.with_borrow_mut(|t| {
            let child = t.child_ns.pop().unwrap_or(0);
            t.calls[idx] += 1;
            t.items[idx] += items;
            t.self_ns[idx] += elapsed.saturating_sub(child);
            if let Some(parent) = t.child_ns.last_mut() {
                *parent += elapsed;
            }
        });
    }
}

/// Activates kernel timing on the current thread and, on drop, merges the
/// thread's tallies into `recorder`'s shared counters
/// (`kernel.<name>.{calls,items,ns}`).
///
/// Enter one per worker thread (and one on the coordinating thread) for
/// the region whose kernels should be attributed. A scope entered with a
/// disabled recorder, or nested inside another scope on the same thread,
/// is a no-op — the outermost scope owns the thread's tallies.
#[must_use = "the scope flushes its tallies on drop"]
pub struct KernelScope<'a> {
    recorder: Option<&'a Recorder>,
}

impl<'a> KernelScope<'a> {
    /// Enters a kernel-profiling scope bound to `recorder`.
    pub fn enter(recorder: &'a Recorder) -> Self {
        if !recorder.is_enabled() || ACTIVE.get() {
            return Self { recorder: None };
        }
        TALLIES.with_borrow_mut(|t| *t = Tallies::default());
        ACTIVE.set(true);
        Self {
            recorder: Some(recorder),
        }
    }

    /// True when this scope owns the thread's tallies (enabled recorder,
    /// not nested).
    pub fn is_active(&self) -> bool {
        self.recorder.is_some()
    }
}

impl Drop for KernelScope<'_> {
    fn drop(&mut self) {
        let Some(recorder) = self.recorder else {
            return;
        };
        ACTIVE.set(false);
        let tallies = TALLIES.with_borrow_mut(std::mem::take);
        for kernel in Kernel::ALL {
            let idx = kernel as usize;
            if tallies.calls[idx] == 0 {
                continue;
            }
            recorder.add(kernel.calls_key(), tallies.calls[idx]);
            recorder.add(kernel.items_key(), tallies.items[idx]);
            recorder.add(kernel.ns_key(), tallies.self_ns[idx]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timers_are_inert_without_a_scope() {
        let timer = KernelTimer::start(Kernel::GiniScan);
        assert!(!timer.is_live());
        timer.finish(1_000);
        // Nothing was tallied: a later scope starts from zero.
        let (recorder, sink) = Recorder::collecting();
        drop(KernelScope::enter(&recorder));
        assert_eq!(sink.snapshot().counter(Kernel::GiniScan.calls_key()), 0);
    }

    #[test]
    fn scope_with_disabled_recorder_is_inert() {
        let recorder = Recorder::disabled();
        let scope = KernelScope::enter(&recorder);
        assert!(!scope.is_active());
        let timer = KernelTimer::start(Kernel::CubeMerge);
        assert!(!timer.is_live());
        timer.finish(3);
    }

    #[test]
    fn tallies_merge_into_recorder_counters() {
        let (recorder, sink) = Recorder::collecting();
        {
            let scope = KernelScope::enter(&recorder);
            assert!(scope.is_active());
            for items in [4u64, 6] {
                let timer = KernelTimer::start(Kernel::CubeMerge);
                assert!(timer.is_live());
                timer.finish(items);
            }
        }
        let snapshot = sink.snapshot();
        assert_eq!(snapshot.counter("kernel.cube_merge.calls"), 2);
        assert_eq!(snapshot.counter("kernel.cube_merge.items"), 10);
        // Timing is nonnegative and was recorded (possibly 0 ns on a
        // coarse clock, so only the keys' presence is asserted via calls).
        assert_eq!(snapshot.counter(Kernel::GiniScan.calls_key()), 0);
    }

    #[test]
    fn nested_kernels_attribute_self_time_to_each_level() {
        let (recorder, sink) = Recorder::collecting();
        {
            let _scope = KernelScope::enter(&recorder);
            let outer = KernelTimer::start(Kernel::ThermoEncode);
            let inner = KernelTimer::start(Kernel::CubeMerge);
            std::thread::sleep(std::time::Duration::from_millis(2));
            inner.finish(5);
            outer.finish(1);
        }
        let snapshot = sink.snapshot();
        let inner_ns = snapshot.counter(Kernel::CubeMerge.ns_key());
        let outer_ns = snapshot.counter(Kernel::ThermoEncode.ns_key());
        assert!(inner_ns >= 1_000_000, "inner slept 2 ms, got {inner_ns} ns");
        // The outer kernel's self time excludes the inner sleep.
        assert!(
            outer_ns < inner_ns,
            "outer self {outer_ns} ns must exclude inner {inner_ns} ns"
        );
    }

    #[test]
    fn nested_scopes_flush_once_at_the_outermost() {
        let (recorder, sink) = Recorder::collecting();
        {
            let _outer = KernelScope::enter(&recorder);
            {
                let inner = KernelScope::enter(&recorder);
                assert!(!inner.is_active());
                let t = KernelTimer::start(Kernel::NetlistSynth);
                t.finish(7);
            } // inner drop must not flush or deactivate
            let t = KernelTimer::start(Kernel::NetlistSynth);
            assert!(t.is_live(), "outer scope still active after inner drop");
            t.finish(3);
        }
        let snapshot = sink.snapshot();
        assert_eq!(snapshot.counter(Kernel::NetlistSynth.calls_key()), 2);
        assert_eq!(snapshot.counter(Kernel::NetlistSynth.items_key()), 10);
    }

    #[test]
    fn per_thread_tallies_merge_across_workers() {
        let (recorder, sink) = Recorder::collecting();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let recorder = &recorder;
                s.spawn(move || {
                    let _scope = KernelScope::enter(recorder);
                    let t = KernelTimer::start(Kernel::BfsTruncate);
                    t.finish(25);
                });
            }
        });
        let snapshot = sink.snapshot();
        assert_eq!(snapshot.counter(Kernel::BfsTruncate.calls_key()), 4);
        assert_eq!(snapshot.counter(Kernel::BfsTruncate.items_key()), 100);
    }

    #[test]
    fn kernel_names_round_trip() {
        for kernel in Kernel::ALL {
            assert_eq!(
                kernel.calls_key(),
                format!("kernel.{}.calls", kernel.name())
            );
            assert_eq!(
                kernel.items_key(),
                format!("kernel.{}.items", kernel.name())
            );
            assert_eq!(kernel.ns_key(), format!("kernel.{}.ns", kernel.name()));
        }
    }
}
