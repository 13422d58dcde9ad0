//! Process-level metrics: peak RSS and (optionally) allocation counts.
//!
//! Wall time alone cannot distinguish "the sweep got slower" from "the
//! sweep started thrashing": memory regressions need their own gated
//! axis. This module reads what the kernel already tracks — `VmHWM`
//! (peak resident-set size) from `/proc/self/status`, zero dependencies —
//! and, behind the `count-allocs` feature, counts heap traffic through a
//! [`CountingAlloc`] global allocator. Both surface as gauges
//! ([`crate::keys::PEAK_RSS_KB`], [`crate::keys::ALLOC_COUNT`],
//! [`crate::keys::ALLOC_BYTES`]) stamped into traces at finalization, so
//! `printed-trace diff` can gate them alongside time.

/// Peak resident-set size of the current process in kB, read from
/// `/proc/self/status` (`VmHWM`). `None` off Linux or when procfs is
/// unavailable — callers simply skip the gauge then.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Extracts the `VmHWM` line from a `/proc/self/status` dump. The value
/// is documented as kB on every Linux since 2.6.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Heap-allocation totals `(count, bytes)` since process start, when the
/// `count-allocs` feature is enabled *and* `CountingAlloc` is installed
/// as the global allocator. `None` without the feature; `Some((0, 0))`
/// with the feature but no installed allocator.
pub fn alloc_counts() -> Option<(u64, u64)> {
    #[cfg(feature = "count-allocs")]
    {
        Some(counting::totals())
    }
    #[cfg(not(feature = "count-allocs"))]
    {
        None
    }
}

#[cfg(feature = "count-allocs")]
pub use counting::CountingAlloc;

/// The counting global allocator, gated because it is the crate's only
/// unsafe code: `GlobalAlloc` is an unsafe trait by definition. The
/// counters are plain relaxed atomics — two `fetch_add`s per allocation,
/// cheap enough to leave on for whole benchmark runs.
#[cfg(feature = "count-allocs")]
#[allow(unsafe_code)]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

    /// Totals recorded so far: `(allocation count, bytes requested)`.
    pub(super) fn totals() -> (u64, u64) {
        (
            ALLOCATIONS.load(Ordering::Relaxed),
            ALLOCATED_BYTES.load(Ordering::Relaxed),
        )
    }

    /// A pass-through wrapper over the [`System`] allocator that counts
    /// every allocation. Install it in a binary with:
    ///
    /// ```ignore
    /// #[global_allocator]
    /// static ALLOC: printed_telemetry::CountingAlloc = printed_telemetry::CountingAlloc;
    /// ```
    pub struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_from_a_status_dump() {
        let status = "Name:\tcodesign\nVmPeak:\t  123 kB\nVmHWM:\t   52340 kB\nThreads:\t8\n";
        assert_eq!(parse_vm_hwm(status), Some(52_340));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm(""), None);
    }

    #[test]
    #[cfg_attr(not(target_os = "linux"), ignore = "procfs is Linux-only")]
    fn peak_rss_is_positive_on_linux() {
        // The test process has certainly touched more than a page.
        let kb = peak_rss_kb().expect("procfs available on Linux");
        assert!(kb > 100, "peak RSS {kb} kB is implausibly small");
    }

    #[test]
    fn alloc_counts_match_the_feature_gate() {
        let counts = alloc_counts();
        if cfg!(feature = "count-allocs") {
            assert!(counts.is_some());
        } else {
            assert!(counts.is_none());
        }
    }
}
