//! Monotonic wall-clock timing and duration formatting.

use std::time::{Duration, Instant};

/// A simple monotonic stopwatch.
///
/// ```
/// use printed_telemetry::Timer;
/// let timer = Timer::start();
/// let elapsed = timer.elapsed();
/// assert!(elapsed <= timer.elapsed());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    started: Instant,
}

impl Timer {
    /// Starts the stopwatch now.
    pub fn start() -> Self {
        Self {
            started: Instant::now(),
        }
    }

    /// Time elapsed since [`Timer::start`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Elapsed time in whole microseconds (the trace resolution).
    pub fn elapsed_us(&self) -> u64 {
        self.elapsed().as_micros() as u64
    }
}

/// Formats a duration for humans: `412ns`, `3.4µs`, `18.2ms`, `2.41s`,
/// `1m 12s`.
///
/// ```
/// use std::time::Duration;
/// use printed_telemetry::fmt_duration;
/// assert_eq!(fmt_duration(Duration::from_micros(18_200)), "18.2ms");
/// assert_eq!(fmt_duration(Duration::from_secs(72)), "1m 12s");
/// ```
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else if ns < 60_000_000_000 {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    } else {
        let secs = d.as_secs();
        format!("{}m {}s", secs / 60, secs % 60)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_every_scale() {
        assert_eq!(fmt_duration(Duration::from_nanos(412)), "412ns");
        assert_eq!(fmt_duration(Duration::from_nanos(3_400)), "3.4µs");
        assert_eq!(fmt_duration(Duration::from_millis(2_410)), "2.41s");
        assert_eq!(fmt_duration(Duration::from_secs(135)), "2m 15s");
        assert_eq!(fmt_duration(Duration::ZERO), "0ns");
    }

    #[test]
    fn timer_is_monotone() {
        let t = Timer::start();
        let a = t.elapsed_us();
        let b = t.elapsed_us();
        assert!(b >= a);
    }
}
