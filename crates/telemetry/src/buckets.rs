//! The HDR-style log-bucket layout of [`crate::Histogram`].
//!
//! Values below [`SUBBUCKETS`] are recorded exactly; above that, each
//! power-of-two octave is split into [`SUBBUCKETS`] linear sub-buckets, so
//! the relative quantization error is bounded by `1 / SUBBUCKETS` (≈ 3.1%)
//! at every magnitude — the same trade Gil Tene's HdrHistogram makes.

/// Linear sub-buckets per octave (power of two; 32 ⇒ ≤3.1% relative error).
pub const SUBBUCKETS: u64 = 32;
/// `log2(SUBBUCKETS)`.
pub const SUB_BITS: u32 = SUBBUCKETS.trailing_zeros(); // 5
/// Highest bit position a tracked value may have: values up to
/// [`TRACKABLE_MAX`] (≈ 73 minutes in nanoseconds) are bucketed normally.
pub const MAX_EXPONENT: u32 = 41;
/// The largest value tracked with bounded relative error. Recording
/// anything larger clamps to this value, and the histogram counts the event
/// separately, so one absurd sample (e.g. a timer glitch recorded as
/// `u64::MAX`) cannot own the top bucket and drag p99.9 to the ceiling.
pub const TRACKABLE_MAX: u64 = (1u64 << (MAX_EXPONENT + 1)) - 1;
/// Number of buckets: one exact bucket per value below `SUBBUCKETS`, then
/// `SUBBUCKETS` per octave for octaves `SUB_BITS..=MAX_EXPONENT`.
pub const NBUCKETS: usize = ((MAX_EXPONENT - SUB_BITS) as usize + 2) * SUBBUCKETS as usize;

/// Map a value to its bucket index (monotone non-decreasing in the value).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUBBUCKETS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // msb >= SUB_BITS
    let octave = msb - SUB_BITS; // 0-based octave above the linear region
    let sub = (v >> octave) & (SUBBUCKETS - 1); // top SUB_BITS bits below the msb
    ((octave as usize + 1) * SUBBUCKETS as usize) + sub as usize
}

/// The largest value that maps to bucket `i` (the value reported for any
/// sample recorded in that bucket, so percentiles never under-report).
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i < SUBBUCKETS as usize {
        return i as u64;
    }
    let octave = (i / SUBBUCKETS as usize - 1) as u32;
    let sub = (i % SUBBUCKETS as usize) as u64;
    ((SUBBUCKETS + sub) << octave) + ((1u64 << octave) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_round_trip_bounds_error() {
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
    fn bucket_index_is_monotone_and_in_range() {
        let mut prev = 0usize;
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            let i = bucket_index(v);
            assert!(i >= prev, "index regressed at {v}");
            prev = i;
            v = v * 3 / 2 + 1;
        }
        assert!(bucket_index(TRACKABLE_MAX) < NBUCKETS);
    }
}
