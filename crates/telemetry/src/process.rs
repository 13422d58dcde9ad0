//! Process-level metrics: peak RSS.
//!
//! Wall time alone cannot distinguish "the sweep got slower" from "the
//! sweep started thrashing". This module reads what the kernel already
//! tracks — `VmHWM` (peak resident-set size) from `/proc/self/status`,
//! zero dependencies — and the flow stamps it into traces at
//! finalization as the [`crate::keys::PEAK_RSS_KB`] gauge, which
//! `printed-trace diff` shows next to wall time.

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
}
