//! Log-bucketed (HDR-style) latency histograms.
//!
//! Values (nanoseconds) below [`SUBBUCKETS`] are recorded exactly; above
//! that, each power-of-two octave is split into [`SUBBUCKETS`] linear
//! sub-buckets, so the relative quantization error is bounded by
//! `1 / SUBBUCKETS` (≈ 3.1%) at every magnitude — the same trade Gil Tene's
//! HdrHistogram makes.  Recording is O(1) (a shift and a mask, no floating
//! point), merging is element-wise addition, and a histogram is ~15 KiB, so
//! every worker thread records into a private histogram that the executor
//! merges after the trial — no synchronization on the hot path.

// The bucket layout lives in `telemetry::buckets` so the wire-exposed atomic
// histograms and these per-thread bench histograms quantize identically;
// re-exported here because this module's public API predates the split.
pub use telemetry::buckets::{SUBBUCKETS, TRACKABLE_MAX};

use telemetry::buckets::{bucket_index, bucket_upper, NBUCKETS};

/// A fixed-size log-bucketed histogram of `u64` values (nanoseconds).
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
    saturated: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram { counts: vec![0; NBUCKETS], count: 0, sum: 0, max: 0, saturated: 0 }
    }

    /// Record one value.  Values above [`TRACKABLE_MAX`] are clamped to it
    /// (landing in the top bucket) and counted separately — see
    /// [`Self::saturated_count`] — so overflow-long stalls cannot silently
    /// skew the tail percentiles.  `max`, `mean` and the percentiles all
    /// operate on the clamped value; the saturation count is the signal
    /// that clamping happened.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let v = if v > TRACKABLE_MAX {
            self.saturated += 1;
            TRACKABLE_MAX
        } else {
            v
        };
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded value after clamping (exact, not bucketed; at most
    /// [`TRACKABLE_MAX`]).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Number of recorded values that exceeded [`TRACKABLE_MAX`] and were
    /// clamped.  A non-zero count flags that the reported tail is a floor,
    /// not an exact value.
    pub fn saturated_count(&self) -> u64 {
        self.saturated
    }

    /// Mean of the recorded values (exact, from the running sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Add every count of `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.saturated += other.saturated;
    }

    /// The value at quantile `q` in `[0, 1]`: the smallest bucket upper
    /// bound such that at least `ceil(q * count)` samples are ≤ it.
    /// Returns 0 for an empty histogram.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Never report beyond the true maximum.
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Convenience: (p50, p90, p99, p99.9) in one call.
    pub fn percentiles(&self) -> Percentiles {
        Percentiles {
            p50: self.value_at_quantile(0.50),
            p90: self.value_at_quantile(0.90),
            p99: self.value_at_quantile(0.99),
            p999: self.value_at_quantile(0.999),
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("max", &self.max)
            .field("mean", &self.mean())
            .finish()
    }
}

/// The standard percentile set reported per (scenario, structure, threads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Percentiles {
    /// Median, nanoseconds.
    pub p50: u64,
    /// 90th percentile, nanoseconds.
    pub p90: u64,
    /// 99th percentile, nanoseconds.
    pub p99: u64,
    /// 99.9th percentile, nanoseconds.
    pub p999: u64,
}

/// Format nanoseconds for human-readable tables (`1.23µs`, `456ns`, …).
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_round_trip_bounds_error() {
        // Every value's bucket upper bound is >= the value and within
        // 1/SUBBUCKETS relative error.
        for v in (0..2000u64).chain([4_000, 65_537, 1 << 20, (1 << 40) + 12345, u64::MAX >> 1]) {
            let up = bucket_upper(bucket_index(v));
            assert!(up >= v, "upper {up} < value {v}");
            assert!(
                (up - v) as f64 <= (v as f64 / SUBBUCKETS as f64) + 1.0,
                "bucket error too large for {v}: upper {up}"
            );
        }
    }

    #[test]
    fn bucket_index_is_monotone() {
        let mut prev = 0usize;
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            let i = bucket_index(v);
            assert!(i >= prev, "index regressed at {v}");
            prev = i;
            v = v * 3 / 2 + 1;
        }
    }

    #[test]
    fn percentiles_of_uniform_ramp() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        let p = h.percentiles();
        // Each percentile may over-report by at most one bucket (~3.1%).
        for (got, exact) in [(p.p50, 5_000.0), (p.p90, 9_000.0), (p.p99, 9_900.0), (p.p999, 9_990.0)]
        {
            assert!(got as f64 >= exact, "percentile under-reported: {got} < {exact}");
            assert!(got as f64 <= exact * 1.04 + 1.0, "percentile {got} too far above {exact}");
        }
        assert_eq!(h.max(), 10_000);
        assert!((h.mean() - 5000.5).abs() < 1e-6);
    }

    #[test]
    fn merge_equals_union() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut u = LatencyHistogram::new();
        for v in 0..5_000u64 {
            if v % 2 == 0 { a.record(v * 7) } else { b.record(v * 7) }
            u.record(v * 7);
        }
        a.merge(&b);
        assert_eq!(a.count(), u.count());
        assert_eq!(a.max(), u.max());
        for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
            assert_eq!(a.value_at_quantile(q), u.value_at_quantile(q));
        }
    }

    #[test]
    fn oversized_values_are_clamped_and_counted() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        h.record(u64::MAX); // e.g. a timer glitch
        h.record(TRACKABLE_MAX + 1);
        assert_eq!(h.saturated_count(), 2);
        assert_eq!(h.count(), 1002);
        assert_eq!(h.max(), TRACKABLE_MAX);
        // The tail reports the trackable ceiling, not u64::MAX.
        assert!(h.value_at_quantile(1.0) <= TRACKABLE_MAX);
        // p50 is unaffected by the two clamped outliers.
        assert!(h.value_at_quantile(0.5) <= 520);
        // Recording exactly TRACKABLE_MAX is not a saturation.
        let mut g = LatencyHistogram::new();
        g.record(TRACKABLE_MAX);
        assert_eq!(g.saturated_count(), 0);
    }

    #[test]
    fn merge_carries_saturation_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(u64::MAX);
        b.record(u64::MAX - 1);
        b.record(5);
        a.merge(&b);
        assert_eq!(a.saturated_count(), 2);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.value_at_quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..SUBBUCKETS {
            h.record(v);
        }
        assert_eq!(h.value_at_quantile(0.0), 0);
        assert_eq!(h.value_at_quantile(1.0), SUBBUCKETS - 1);
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(750), "750ns");
        assert_eq!(fmt_ns(1_500), "1.50µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
