//! Order statistics over raw samples: exact quantiles, the "highest percentile
//! the sample supports" rule, and the median/spread summary of windows.

/// Median of `values` (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max − min) / median` — the window-to-window spread printed beside a metric.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let (lo, hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    (hi - lo) / m
}

/// Exact quantile of sorted integer-nanosecond samples.
///
/// The clock reports whole nanoseconds, so many samples tie.  Each value `v`
/// stands for the bin `[v, v+1)`; the result is placed inside the bin by the
/// target rank's position among the ties, so the quantile moves smoothly when
/// the distribution shifts by less than a nanosecond.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The epsilon keeps `0.99 * 100` (99.00000000000001 in binary) at rank 99.
    let rank = ((q * sorted.len() as f64 - 1e-9).ceil() as usize).clamp(1, sorted.len()) - 1;
    let v = sorted[rank];
    let first = sorted.partition_point(|&x| x < v);
    let ties = sorted.partition_point(|&x| x <= v) - first;
    v as f64 + (rank - first) as f64 / ties as f64
}

/// Candidate tail percentiles, lowest first: `(quantile, one sample in N lies beyond it, label)`.
const TAILS: [(f64, usize, &str); 5] = [
    (0.99, 100, "p99"),
    (0.999, 1_000, "p99.9"),
    (0.9999, 10_000, "p99.99"),
    (0.99999, 100_000, "p99.999"),
    (0.999999, 1_000_000, "p99.9999"),
];

/// The highest tail percentile that still has at least ten samples beyond it,
/// as `(quantile, label)`; `None` when even p99 does not (fewer than ~1000
/// samples).
pub fn supported_tail(samples: usize) -> Option<(f64, &'static str)> {
    TAILS
        .iter()
        .rev()
        .find(|(_, one_in, _)| samples / one_in >= 10)
        .map(|&(q, _, label)| (q, label))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((spread(&[90.0, 100.0, 110.0]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn quantile_is_exact_and_places_ties_inside_the_bin() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        // Ten ties at 7: the median rank (5th of 10, index 4) sits 4/10 into the bin.
        assert_eq!(quantile(&[7; 10], 0.5), 7.4);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond rank 990.
        assert_eq!(supported_tail(1000).map(|t| t.1), Some("p99"));
        assert_eq!(supported_tail(999), None);
        // 10_000 samples: p99.9 is rank 9990, ten beyond; p99.99 has none.
        assert_eq!(supported_tail(10_000).map(|t| t.1), Some("p99.9"));
        assert_eq!(supported_tail(9_999).map(|t| t.1), Some("p99"));
        assert_eq!(supported_tail(2_000_000).map(|t| t.1), Some("p99.999"));
    }
}
