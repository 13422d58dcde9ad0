//! Atomic counters and log-bucketed duration histograms.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A handle to a named atomic counter.
///
/// Handles resolved from a disabled [`crate::Recorder`] are inert: every
/// operation is a no-op and reads return zero. Enabled handles share one
/// `AtomicU64` per name, so increments from any thread are lock-free and
/// never lost.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// An inert counter (what disabled recorders hand out).
    pub fn noop() -> Self {
        Self(None)
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increments the counter by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (zero for inert handles).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A handle to a named atomic gauge: a last-value-wins instrument for
/// levels (peak RSS, queue depth, allocation totals) as opposed to the
/// monotonically accumulating [`Counter`].
///
/// Inert when resolved from a disabled [`crate::Recorder`]; enabled
/// handles share one `AtomicU64` per name, so `set`/`record_max` from any
/// thread are lock-free.
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<AtomicU64>>);

impl Gauge {
    /// An inert gauge (what disabled recorders hand out).
    pub fn noop() -> Self {
        Self(None)
    }

    /// Sets the gauge to `value` (last write wins).
    pub fn set(&self, value: u64) {
        if let Some(cell) = &self.0 {
            cell.store(value, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `value` if it is higher than the current
    /// reading — the idiom for peak trackers.
    pub fn record_max(&self, value: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Current value (zero for inert handles).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// Number of power-of-two buckets tracked per histogram: bucket `i` counts
/// observations with `value_us < 2^(i+1)`, so the top bucket covers
/// everything beyond ~2.2 years in microseconds.
const BUCKETS: usize = 40;

/// Shared lock-free state behind a [`Histogram`] handle.
#[derive(Debug)]
pub struct HistogramCore {
    count: AtomicU64,
    sum_us: AtomicU64,
    min_us: AtomicU64,
    max_us: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for HistogramCore {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            min_us: AtomicU64::new(u64::MAX),
            max_us: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl HistogramCore {
    fn observe_us(&self, us: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.min_us.fetch_min(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
        // floor(log2(us)) for us ≥ 1, clamped into range; zero lands in
        // bucket 0 (upper bound 2 µs).
        let bucket = (64 - us.leading_zeros() as usize)
            .saturating_sub(1)
            .min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum_us: self.sum_us.load(Ordering::Relaxed),
            min_us: if count == 0 {
                0
            } else {
                self.min_us.load(Ordering::Relaxed)
            },
            max_us: self.max_us.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, cell)| {
                    let n = cell.load(Ordering::Relaxed);
                    (n > 0).then(|| (upper_bound_us(i), n))
                })
                .collect(),
        }
    }
}

/// Exclusive upper bound (µs) of bucket `i`.
fn upper_bound_us(i: usize) -> u64 {
    1u64 << (i + 1).min(63)
}

/// A handle to a named duration histogram (µs resolution, power-of-two
/// buckets). Inert when resolved from a disabled recorder.
#[derive(Debug, Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCore>>);

impl Histogram {
    /// An inert histogram.
    pub fn noop() -> Self {
        Self(None)
    }

    /// Records one observation.
    pub fn observe(&self, d: Duration) {
        self.observe_us(d.as_micros() as u64);
    }

    /// Records one observation given in microseconds.
    pub fn observe_us(&self, us: u64) {
        if let Some(core) = &self.0 {
            core.observe_us(us);
        }
    }

    /// A point-in-time copy (empty for inert handles).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0
            .as_ref()
            .map(|core| core.snapshot())
            .unwrap_or_default()
    }
}

/// A serializable point-in-time copy of a duration histogram.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations, µs.
    pub sum_us: u64,
    /// Smallest observation, µs (zero when empty).
    pub min_us: u64,
    /// Largest observation, µs.
    pub max_us: u64,
    /// `(exclusive upper bound µs, count)` for every non-empty
    /// power-of-two bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the observations, µs (zero when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile in µs (`q` in `[0, 1]`), resolved to the
    /// upper bound of the power-of-two bucket holding the `⌈q·count⌉`-th
    /// observation and clamped into `[min_us, max_us]`. Zero when empty.
    ///
    /// The bucket layout bounds the error: the true quantile is at most 2×
    /// smaller than the reported value, which is plenty for spotting order-
    /// of-magnitude latency shifts in a trace report.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(hi, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return hi.clamp(self.min_us, self.max_us);
            }
        }
        self.max_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_counter_stays_zero() {
        let c = Counter::noop();
        c.incr();
        c.add(10);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn noop_gauge_stays_zero() {
        let g = Gauge::noop();
        g.set(10);
        g.record_max(99);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn live_gauge_sets_and_peaks() {
        let g = Gauge(Some(Arc::new(AtomicU64::new(0))));
        g.set(10);
        assert_eq!(g.get(), 10);
        g.record_max(5); // lower: no change
        assert_eq!(g.get(), 10);
        g.record_max(42);
        assert_eq!(g.get(), 42);
        g.set(7); // last write wins
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn live_counter_accumulates() {
        let c = Counter(Some(Arc::new(AtomicU64::new(0))));
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn histogram_tracks_extremes_and_buckets() {
        let h = Histogram(Some(Arc::new(HistogramCore::default())));
        for us in [4, 5, 100, 1_000_000] {
            h.observe_us(us);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum_us, 1_000_109);
        assert_eq!(s.min_us, 4);
        assert_eq!(s.max_us, 1_000_000);
        assert_eq!(s.mean_us(), 1_000_109.0 / 4.0);
        // 4 and 5 share the `< 8` bucket.
        assert_eq!(s.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 4);
        assert!(s.buckets.iter().any(|&(hi, n)| hi == 8 && n == 2));
    }

    #[test]
    fn empty_histogram_snapshot_is_sane() {
        let s = Histogram::noop().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min_us, 0);
        assert_eq!(s.mean_us(), 0.0);
        assert_eq!(s.percentile(0.5), 0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn percentiles_walk_the_buckets() {
        let h = Histogram(Some(Arc::new(HistogramCore::default())));
        // 90 fast observations, 10 slow outliers.
        for _ in 0..90 {
            h.observe_us(3);
        }
        for _ in 0..10 {
            h.observe_us(5_000);
        }
        let s = h.snapshot();
        // p50/p90 land in the `< 4 µs` bucket, clamped to min 3.
        assert_eq!(s.percentile(0.50), 4);
        assert_eq!(s.percentile(0.90), 4);
        // p99 lands in the outlier bucket, clamped to max 5000.
        assert_eq!(s.percentile(0.99), 5_000);
        // Extremes clamp to the observed range.
        assert_eq!(s.percentile(0.0), 4);
        assert_eq!(s.percentile(1.0), 5_000);
    }
}
