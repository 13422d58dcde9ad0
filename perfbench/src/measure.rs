//! Process measurements and summary statistics.

/// Clock ticks per second of `/proc/self/stat` times (`getconf CLK_TCK`,
/// 100 on every Linux architecture this builds for).
const CLOCK_TICKS: f64 = 100.0;

/// User plus system CPU seconds of the whole process, every thread
/// included (finished ones too), from `/proc/self/stat`.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesized command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("/proc/self/stat: no command name")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |index: usize| -> Result<f64, String> {
        fields
            .get(index)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| "/proc/self/stat: malformed CPU times".to_owned())
    };
    Ok((ticks(11)? + ticks(12)?) / CLOCK_TICKS)
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    printed_telemetry::peak_rss_kb()
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM".to_owned())
}

/// The median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The machine's available parallelism — the worker count the sweep,
/// the campaign and the fault simulator each use.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn process_readings_are_positive() {
        let spin: u64 = (0..2_000_000u64).map(std::hint::black_box).sum();
        assert!(spin > 0);
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
