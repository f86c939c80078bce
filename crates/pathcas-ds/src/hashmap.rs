//! A fixed-capacity hash map whose buckets are PathCAS sorted lists ("hash
//! tables" and "hash-lists" from the paper's conclusion, §6).

use mapapi::{ConcurrentMap, Key, MapStats, Value};

use crate::list::PathCasList;

/// A concurrent hash map with a fixed number of buckets, each a
/// [`PathCasList`].
pub struct PathCasHashMap {
    buckets: Box<[PathCasList]>,
}

impl PathCasHashMap {
    /// Create a map with `buckets` buckets (rounded up to at least 1).
    pub fn with_buckets(buckets: usize) -> Self {
        let n = buckets.max(1);
        PathCasHashMap { buckets: (0..n).map(|_| PathCasList::new()).collect() }
    }

    /// Create a map with a default bucket count suitable for small/medium
    /// key ranges.
    pub fn new() -> Self {
        Self::with_buckets(256)
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    #[inline]
    fn bucket(&self, key: Key) -> &PathCasList {
        // Fibonacci hashing spreads consecutive keys across buckets.
        let h = ((key as u128 * 0x9E37_79B9_7F4A_7C15u128) >> 64) as u64;
        &self.buckets[(h % self.buckets.len() as u64) as usize]
    }

    /// Quiescent invariant check of every bucket.
    pub fn check_invariants(&self) {
        for b in self.buckets.iter() {
            b.check_invariants();
        }
    }
}

impl Default for PathCasHashMap {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentMap for PathCasHashMap {
    fn name(&self) -> &'static str {
        "hashmap-pathcas"
    }
    fn insert(&self, key: Key, value: Value) -> bool {
        self.bucket(key).insert(key, value)
    }
    fn remove(&self, key: Key) -> bool {
        self.bucket(key).remove(key)
    }
    fn get(&self, key: Key) -> Option<Value> {
        self.bucket(key).get(key)
    }
    fn rmw(&self, key: Key, update: &mut dyn FnMut(Option<Value>) -> Value) -> bool {
        // The bucket list's RMW is atomic, and a key lives in exactly one
        // bucket, so the hash map inherits the single-key atomicity.
        self.bucket(key).rmw(key, update)
    }
    fn scan_into(&self, start: Key, len: usize, out: &mut Vec<(Key, Value)>) {
        // Sorted-snapshot fallback: the map is hash-partitioned, so an
        // ordered range is scattered across buckets.  Each bucket list is
        // scanned with full path validation — and since each bucket is
        // sorted, its first `len` matches are a superset of its contribution
        // to the global first `len` — straight into `out`; then the appended
        // tail is sorted and cut to `len`.  Each bucket's slice is an atomic
        // snapshot; the *union* is not atomic across buckets (keys in
        // different buckets may be observed at different times), which is
        // the documented price of scanning a hash-partitioned structure.
        let base = out.len();
        for b in self.buckets.iter() {
            b.scan_into(start, len, out);
        }
        out[base..].sort_unstable_by_key(|&(k, _)| k);
        out.truncate(base.saturating_add(len));
    }
    fn stats(&self) -> MapStats {
        let mut total = MapStats::default();
        for b in self.buckets.iter() {
            let s = b.stats();
            total.key_count += s.key_count;
            total.key_sum += s.key_sum;
            total.node_count += s.node_count;
            total.key_depth_sum += s.key_depth_sum;
            total.approx_bytes += s.approx_bytes;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapapi::stress::{prefill, stress_disjoint_stripes, stress_keysum};
    use mapapi::suites::*;
    use std::time::Duration;

    #[test]
    fn basic_semantics() {
        check_basic_semantics(&PathCasHashMap::new());
    }

    #[test]
    fn ordered_patterns() {
        let m = PathCasHashMap::with_buckets(16);
        check_ordered_patterns(&m);
        m.check_invariants();
    }

    #[test]
    fn random_vs_oracle() {
        let m = PathCasHashMap::with_buckets(8);
        check_random_against_oracle(&m, 5000, 256, 77);
        check_stats_consistency(&m, 256);
        m.check_invariants();
    }

    #[test]
    fn single_bucket_degenerates_to_list() {
        let m = PathCasHashMap::with_buckets(1);
        check_basic_semantics(&m);
        assert_eq!(m.bucket_count(), 1);
    }

    #[test]
    fn stripes_stress() {
        let m = PathCasHashMap::with_buckets(64);
        stress_disjoint_stripes(&m, 4, 200);
        m.check_invariants();
    }

    #[test]
    fn keysum_stress() {
        let m = PathCasHashMap::with_buckets(32);
        prefill(&m, 1024, 512, 3);
        stress_keysum(&m, 4, 1024, 50, Duration::from_millis(250), 5);
        m.check_invariants();
    }

    #[test]
    fn scan_semantics() {
        check_scan_semantics(&PathCasHashMap::with_buckets(8));
    }

    #[test]
    fn scan_vs_oracle_across_buckets() {
        // A small bucket count forces every bucket to contribute to the
        // merged range, exercising the sorted-snapshot merge.
        let m = PathCasHashMap::with_buckets(4);
        check_scan_against_oracle(&m, 256, 0x4A5);
        m.check_invariants();
    }

    #[test]
    fn rmw_routes_to_the_owning_bucket() {
        let m = PathCasHashMap::with_buckets(16);
        assert!(!m.rmw(9, &mut |v| v.unwrap_or(1)));
        assert!(m.rmw(9, &mut |v| v.unwrap() + 10));
        assert_eq!(m.get(9), Some(11));
        m.check_invariants();
    }
}
