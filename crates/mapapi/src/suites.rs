//! Reusable single-threaded correctness suites.
//!
//! Every map implementation in the workspace runs the same differential
//! suites against the [`LockedBTreeMap`]
//! oracle, so a new structure gets a meaningful test battery by writing a
//! handful of one-line tests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::reference::LockedBTreeMap;
use crate::{ConcurrentMap, Key};

/// Basic single-threaded semantics every map must satisfy.
pub fn check_basic_semantics<M: ConcurrentMap>(map: &M) {
    assert_eq!(map.get(10), None, "{}: empty map should not contain 10", map.name());
    assert!(map.insert(10, 100), "{}: first insert must succeed", map.name());
    assert!(!map.insert(10, 101), "{}: duplicate insert must fail", map.name());
    assert_eq!(map.get(10), Some(100), "{}: value must be the first inserted", map.name());
    assert!(map.remove(10));
    assert!(!map.remove(10), "{}: double remove must fail", map.name());
    assert_eq!(map.get(10), None);

    // Re-insertion after deletion.
    assert!(map.insert(10, 200));
    assert_eq!(map.get(10), Some(200));

    // A small batch of distinct keys.
    for k in [1u64, 5, 3, 7, 2, 9, 4, 8, 6] {
        assert!(map.insert(k, k * 10), "{}: insert {} failed", map.name(), k);
    }
    for k in 1..=9u64 {
        assert_eq!(map.get(k), Some(k * 10), "{}: missing key {}", map.name(), k);
    }
    assert_eq!(map.get(11), None);
}

/// Ascending, descending and alternating insertion/removal orders — the
/// patterns most likely to exercise degenerate tree shapes and the deletion
/// cases (leaf, one child, two children).
pub fn check_ordered_patterns<M: ConcurrentMap>(map: &M) {
    let n: u64 = 200;
    for k in 1..=n {
        assert!(map.insert(k, k));
    }
    for k in 1..=n {
        assert_eq!(map.get(k), Some(k));
    }
    // Remove odd keys (exercises leaf and one-child deletes).
    for k in (1..=n).filter(|k| k % 2 == 1) {
        assert!(map.remove(k), "{}: remove {}", map.name(), k);
    }
    for k in 1..=n {
        assert_eq!(map.get(k), Some(k).filter(|k| k % 2 == 0));
    }
    // Remove the rest in descending order.
    for k in (1..=n).rev().filter(|k| k % 2 == 0) {
        assert!(map.remove(k));
    }
    let s = map.stats();
    assert_eq!(s.key_count, 0, "{}: map should be empty", map.name());

    // Descending insertion.
    for k in (1..=n).rev() {
        assert!(map.insert(k, k + 1));
    }
    for k in 1..=n {
        assert_eq!(map.get(k), Some(k + 1));
    }
    let s = map.stats();
    assert_eq!(s.key_count, n);
    assert_eq!(s.key_sum, (n as u128) * (n as u128 + 1) / 2);
}

/// Differential test against the oracle with a random operation mix.
pub fn check_random_against_oracle<M: ConcurrentMap>(map: &M, ops: usize, key_range: Key, seed: u64) {
    let oracle = LockedBTreeMap::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..ops {
        let key = rng.gen_range(1..=key_range);
        match rng.gen_range(0..3) {
            0 => {
                let v = i as u64;
                assert_eq!(
                    map.insert(key, v),
                    oracle.insert(key, v),
                    "{}: insert({key}) diverged at op {i}",
                    map.name()
                );
            }
            1 => {
                assert_eq!(
                    map.remove(key),
                    oracle.remove(key),
                    "{}: remove({key}) diverged at op {i}",
                    map.name()
                );
            }
            _ => {
                assert_eq!(map.get(key), oracle.get(key), "{}: get({key}) diverged at op {i}", map.name());
            }
        }
    }
    // Final-state equivalence.
    let s = map.stats();
    let o = oracle.stats();
    assert_eq!(s.key_count, o.key_count, "{}: final key count diverged", map.name());
    assert_eq!(s.key_sum, o.key_sum, "{}: final key sum diverged", map.name());
    for key in 1..=key_range {
        assert_eq!(map.get(key), oracle.get(key), "{}: final get({key})", map.name());
    }
}

/// Single-threaded scan semantics every map must satisfy: ordered output,
/// correct range boundaries, and length truncation.
pub fn check_scan_semantics<M: ConcurrentMap>(map: &M) {
    assert!(map.scan(1, 16).is_empty(), "{}: scan of empty map", map.name());
    for k in [40u64, 10, 30, 50, 20] {
        assert!(map.insert(k, k + 1));
    }
    assert_eq!(map.scan(1, 10), vec![(10, 11), (20, 21), (30, 31), (40, 41), (50, 51)], "{}", map.name());
    assert_eq!(map.scan(15, 2), vec![(20, 21), (30, 31)], "{}", map.name());
    assert_eq!(map.scan(30, 2), vec![(30, 31), (40, 41)], "{}: inclusive start", map.name());
    assert_eq!(map.scan(51, 4), vec![], "{}: scan past the last key", map.name());
    assert!(map.scan(1, 0).is_empty(), "{}: zero-length scan", map.name());
    for k in [10u64, 20, 30, 40, 50] {
        assert!(map.remove(k));
    }
    assert!(map.scan(1, 16).is_empty(), "{}: scan after emptying", map.name());
}

/// The [`ConcurrentMap::scan_into`] contract on an empty `map`: whatever
/// `out` holds on entry survives byte for byte, the appended tail is exactly
/// `scan(start, len)`, a second call into the same `out` concatenates, and
/// `len == 0` appends nothing.
pub fn check_scan_into_appends<M: ConcurrentMap + ?Sized>(map: &M) {
    let name = map.name();
    for k in 1..=200u64 {
        assert!(map.insert(k * 3, k), "{name}: insert({})", k * 3);
    }
    // Not sorted, not keys the map could hold: a scan that sorted, cleared
    // or deduplicated "its" vector would show.
    let prefix = [(u64::MAX, 7), (0, u64::MAX), (5, 5)];
    let probes =
        [(1u64, 1usize), (1, 16), (100, 64), (300, 500), (598, 8), (600, 8), (601, 8), (1, usize::MAX)];
    for (start, len) in probes {
        let expected = map.scan(start, len);
        assert_eq!(expected.len(), len.min((start..=600).filter(|k| k % 3 == 0).count()), "{name}");
        let mut out = prefix.to_vec();
        map.scan_into(start, len, &mut out);
        // A second scan into the same vector lands after the first.
        let first_end = out.len();
        map.scan_into(2, 5, &mut out);
        assert_eq!(out[..prefix.len()], prefix, "{name}: scan_into({start}, {len}) touched the prefix");
        assert_eq!(out[prefix.len()..first_end], expected[..], "{name}: scan_into({start}, {len}) tail");
        assert_eq!(out[first_end..], map.scan(2, 5)[..], "{name}: second scan_into tail");
    }
    let mut out = prefix.to_vec();
    map.scan_into(1, 0, &mut out);
    assert_eq!(out, prefix, "{name}: a zero-length scan_into appended");
}

/// Differential scan test against the oracle: after a random build, every
/// `(start, len)` probe must return exactly what the atomic
/// [`LockedBTreeMap`] returns.  Probe lengths go up to 32 pairs, or an eighth
/// of `key_range` where that is more — long enough, on a large range, to
/// drain the bounded chunks a partitioned scan pulls from its parts.
pub fn check_scan_against_oracle<M: ConcurrentMap>(map: &M, key_range: Key, seed: u64) {
    let oracle = LockedBTreeMap::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..(key_range * 2) {
        let key = rng.gen_range(1..=key_range);
        if rng.gen_bool(0.7) {
            let v = i;
            assert_eq!(map.insert(key, v), oracle.insert(key, v), "{}: insert({key})", map.name());
        } else {
            assert_eq!(map.remove(key), oracle.remove(key), "{}: remove({key})", map.name());
        }
    }
    let max_len = (key_range as usize / 8).max(32);
    for _ in 0..64 {
        let start = rng.gen_range(1..=key_range);
        let len = rng.gen_range(0..=max_len);
        assert_eq!(
            map.scan(start, len),
            oracle.scan(start, len),
            "{}: scan({start}, {len}) diverged",
            map.name()
        );
    }
    // Full-range scan equals the oracle's full contents.
    assert_eq!(
        map.scan(1, key_range as usize + 1),
        oracle.scan(1, key_range as usize + 1),
        "{}: full scan diverged",
        map.name()
    );
}

/// Quiescent scan audit shared by the harness and the stress suites: the
/// whole key space, walked through `scan`, must contain exactly the keys
/// that the structural traversal (`stats`, precomputed by the caller after
/// all workers joined) counts.
///
/// The walk is **chunked**: one scan per [`SCAN_AUDIT_CHUNK`] keys, resuming
/// after the last key seen.  A single full-range scan would make the
/// validated read-set of the PathCAS trees span the entire structure, which
/// at paper-scale key ranges (> 2²⁰ keys) exceeds the bounded read-set
/// PathCAS asserts; per-chunk scans stay bounded, and at quiescence the
/// chunked union is exact.
pub fn check_scan_matches_stats<M: ConcurrentMap + ?Sized>(map: &M, stats: &crate::MapStats) {
    let mut count = 0u64;
    let mut sum = 0u128;
    let mut start = 1u64;
    loop {
        let part = map.scan(start, SCAN_AUDIT_CHUNK);
        for &(k, _) in &part {
            count += 1;
            sum += k as u128;
        }
        match part.last() {
            Some(&(k, _)) if part.len() == SCAN_AUDIT_CHUNK && k < crate::MAX_KEY => start = k + 1,
            _ => break,
        }
    }
    assert_eq!(
        count,
        stats.key_count,
        "{}: full chunked scan saw a different key count than stats()",
        map.name()
    );
    assert_eq!(sum, stats.key_sum, "{}: full chunked scan keysum diverged from stats()", map.name());
}

/// Keys per scan in [`check_scan_matches_stats`] — far below the PathCAS
/// read-set bound even with a degenerate traversal path on top.
pub const SCAN_AUDIT_CHUNK: usize = 4096;

/// Quick structural sanity check used after stress runs: key count and key
/// sum reported by `stats()` must be consistent with `get` over the whole
/// key range.
pub fn check_stats_consistency<M: ConcurrentMap>(map: &M, key_range: Key) {
    let s = map.stats();
    let mut count = 0u64;
    let mut sum = 0u128;
    for key in 1..=key_range {
        if map.get(key).is_some() {
            count += 1;
            sum += key as u128;
        }
    }
    assert_eq!(s.key_count, count, "{}: stats key_count vs get()", map.name());
    assert_eq!(s.key_sum, sum, "{}: stats key_sum vs get()", map.name());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::LockedBTreeMap;

    #[test]
    fn oracle_passes_its_own_suites() {
        let m = LockedBTreeMap::new();
        check_basic_semantics(&m);
        let m = LockedBTreeMap::new();
        check_ordered_patterns(&m);
        let m = LockedBTreeMap::new();
        check_random_against_oracle(&m, 2000, 64, 42);
        check_stats_consistency(&m, 64);
        let m = LockedBTreeMap::new();
        check_scan_semantics(&m);
        let m = LockedBTreeMap::new();
        check_scan_against_oracle(&m, 64, 42);
        let m = LockedBTreeMap::new();
        check_scan_into_appends(&m);
    }

    #[test]
    fn chunked_scan_audit_crosses_chunk_boundaries() {
        let m = LockedBTreeMap::new();
        // More keys than SCAN_AUDIT_CHUNK so the audit must resume at least
        // twice; gaps make the resume key non-contiguous.
        for k in (1..=3 * SCAN_AUDIT_CHUNK as u64).filter(|k| k % 3 != 0) {
            m.insert(k, k);
        }
        check_scan_matches_stats(&m, &m.stats());
        // Empty map: audit must terminate immediately.
        check_scan_matches_stats(&LockedBTreeMap::new(), &crate::MapStats::default());
    }
}
