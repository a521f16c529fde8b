//! Lock-free log2-bucketed latency histograms.
//!
//! A histogram has 65 buckets: bucket 0 holds the value `0`, bucket `i`
//! (`1 ..= 64`) holds values in `[2^(i-1), 2^i)` — so any `u64`
//! nanosecond reading lands in exactly one bucket with two instructions
//! of arithmetic and one relaxed `fetch_add`. Percentile readout walks
//! the bucket counts and reports the containing bucket's inclusive upper
//! bound, capped at the exact observed maximum, which makes
//! `p50 ≤ p90 ≤ p99 ≤ max` hold by construction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of buckets: one for zero plus one per power of two.
pub const NUM_BUCKETS: usize = 65;

/// Bucket index of `value`: 0 for 0, else `64 − leading_zeros`.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `idx`.
#[inline]
pub fn bucket_upper(idx: usize) -> u64 {
    match idx {
        0 => 0,
        64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

struct Inner {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Cheaply clonable handle to a shared, lock-free histogram.
///
/// `sum` accumulates with wrapping arithmetic; at nanosecond scale it
/// overflows only after ~584 years of recorded time (or deliberate
/// `u64::MAX` samples), so snapshots treat it as exact.
#[derive(Clone, Default)]
pub struct Histogram {
    inner: Arc<Inner>,
}

/// A point-in-time copy of a histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_upper`] for the bounds).
    pub buckets: [u64; NUM_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values (wrapping).
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample. Lock-free: four relaxed atomic RMWs, two for a
    /// zero sample (which leaves the sum and the maximum unchanged).
    #[inline]
    pub fn record(&self, value: u64) {
        self.inner.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        if value != 0 {
            self.inner.sum.fetch_add(value, Ordering::Relaxed);
            self.inner.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Records `n` samples of the same `value` at the cost of one.
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        self.inner.buckets[bucket_of(value)].fetch_add(n, Ordering::Relaxed);
        self.inner.count.fetch_add(n, Ordering::Relaxed);
        if value != 0 {
            self.inner
                .sum
                .fetch_add(value.wrapping_mul(n), Ordering::Relaxed);
            self.inner.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Total samples recorded so far.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// The samples recorded since `earlier` was taken (see
    /// [`HistogramSnapshot::delta_since`]).
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        self.snapshot().delta_since(earlier)
    }

    /// Copies the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (b, a) in buckets.iter_mut().zip(&self.inner.buckets) {
            *b = a.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.inner.count.load(Ordering::Relaxed),
            sum: self.inner.sum.load(Ordering::Relaxed),
            max: self.inner.max.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        write!(
            f,
            "Histogram(count={}, p50={}, p99={}, max={})",
            s.count,
            s.quantile(0.50),
            s.quantile(0.99),
            s.max
        )
    }
}

impl HistogramSnapshot {
    /// The value at quantile `q` (`0.0 ..= 1.0`): the inclusive upper
    /// bound of the bucket containing the rank-`⌈q·count⌉` sample,
    /// capped at the observed maximum. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`quantile`](HistogramSnapshot::quantile)).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The interval histogram: samples recorded between `earlier` and
    /// `self` (both snapshots of the **same** histogram, `earlier` taken
    /// first). Bucket counts and `count` subtract exactly; `sum`
    /// subtracts wrapping (it accumulates wrapping). The histogram does
    /// not retain per-interval maxima, so `max` is reconstructed as the
    /// tightest bound both sides imply: the upper bound of the highest
    /// non-empty delta bucket, capped at the lifetime max. That keeps
    /// `p50 ≤ p90 ≤ p99 ≤ max` monotone on the delta by construction.
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        let mut top = None;
        for (i, b) in buckets.iter_mut().enumerate() {
            *b = self.buckets[i].saturating_sub(earlier.buckets[i]);
            if *b > 0 {
                top = Some(i);
            }
        }
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.wrapping_sub(earlier.sum),
            max: top.map_or(0, |i| bucket_upper(i).min(self.max)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_one_and_max_land_in_the_right_buckets() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1, "0 lands in bucket 0");
        assert_eq!(s.buckets[1], 1, "1 lands in bucket 1");
        assert_eq!(s.buckets[64], 1, "u64::MAX lands in bucket 64");
        assert_eq!(s.count, 3);
        assert_eq!(s.max, u64::MAX);
    }

    #[test]
    fn bucket_bounds_partition_the_u64_range() {
        // Every bucket's upper bound maps back into the bucket, and the
        // next value up maps into the next bucket.
        for idx in 0..NUM_BUCKETS {
            let hi = bucket_upper(idx);
            assert_eq!(bucket_of(hi), idx, "upper bound of {idx}");
            if hi < u64::MAX {
                assert_eq!(bucket_of(hi + 1), idx + 1, "successor of {idx}");
            }
        }
    }

    #[test]
    fn percentiles_are_monotone() {
        let h = Histogram::new();
        for v in [0u64, 1, 3, 17, 900, 4096, 100_000, u64::MAX] {
            for _ in 0..10 {
                h.record(v);
            }
        }
        let s = h.snapshot();
        let (p50, p90, p99) = (s.p50(), s.p90(), s.p99());
        assert!(p50 <= p90, "{p50} > {p90}");
        assert!(p90 <= p99, "{p90} > {p99}");
        assert!(p99 <= s.max, "{p99} > {}", s.max);
    }

    #[test]
    fn quantiles_bound_the_true_order_statistic() {
        // For single-bucket data, the quantile is exact (capped at max).
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(5);
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), 5);
        assert_eq!(s.p99(), 5);
        assert_eq!(s.mean(), 5.0);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn delta_since_isolates_the_interval() {
        let h = Histogram::new();
        for v in [1_000u64, 2_000, 4_000] {
            h.record(v);
        }
        let baseline = h.snapshot();
        h.record(16);
        h.record(32);
        let delta = h.delta_since(&baseline);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 48);
        assert_eq!(delta.buckets.iter().sum::<u64>(), 2);
        // Only the interval's buckets survive; the delta max bounds them.
        assert_eq!(delta.buckets[bucket_of(16)], 1);
        assert_eq!(delta.buckets[bucket_of(32)], 1);
        assert!(delta.max >= 32 && delta.max < 64, "max {}", delta.max);
        assert!(delta.p99() <= delta.max);
    }

    #[test]
    fn delta_since_empty_interval_reads_zero() {
        let h = Histogram::new();
        h.record(77);
        let baseline = h.snapshot();
        let delta = h.delta_since(&baseline);
        assert_eq!(delta.count, 0);
        assert_eq!(delta.max, 0);
        assert_eq!(delta.p50(), 0);
        assert_eq!(delta.p99(), 0);
    }

    #[test]
    fn delta_since_percentiles_stay_monotone() {
        // Mixed magnitudes before and after the baseline: the interval
        // view must keep quantile ordering on its own.
        let h = Histogram::new();
        for v in [u64::MAX, 5, 0] {
            h.record(v);
        }
        let baseline = h.snapshot();
        for v in [3u64, 900, 17, 100_000, 3, 3, 900] {
            h.record(v);
        }
        let d = h.delta_since(&baseline);
        assert_eq!(d.count, 7);
        let (p50, p90, p99) = (d.p50(), d.p90(), d.p99());
        assert!(
            p50 <= p90 && p90 <= p99 && p99 <= d.max,
            "{p50} {p90} {p99} {}",
            d.max
        );
        // The lifetime max (u64::MAX) must not leak into the interval.
        assert!(d.max < 1 << 17, "interval max {}", d.max);
    }

    #[test]
    fn concurrent_records_lose_no_samples() {
        let h = Histogram::new();
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        h.record(t * 1_000 + (i % 97));
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 8 * per_thread, "samples lost");
        assert_eq!(
            s.buckets.iter().sum::<u64>(),
            8 * per_thread,
            "bucket counts disagree with total"
        );
    }
}
