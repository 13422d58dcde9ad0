//! Duration formatting for humans.

use std::time::Duration;

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
}
