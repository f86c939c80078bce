//! # mapapi — shared interface and validation suites
//!
//! Every search structure in this repository — the PathCAS trees, the
//! handcrafted baselines, the STM trees and the MCMS tree — implements the
//! [`ConcurrentMap`] trait, so the correctness suites, the stress tests and
//! the benchmark harness are written once and reused everywhere.
//!
//! The stress methodology follows Setbench (Brown et al. \[9\], §5 of the
//! PathCAS paper): each thread tracks the sum and count of keys it
//! successfully inserted minus those it successfully deleted; at quiescence
//! the structure's own key sum and key count must match the aggregate, which
//! catches lost updates, duplicated keys, and phantom successes.

#![warn(missing_docs)]

pub mod stress;
pub mod suites;

/// Keys are 62-bit unsigned integers (they must fit in a `CasWord` payload);
/// key `0` and the maximum value are reserved for sentinels by several
/// implementations, so workloads use keys in `1..=MAX_KEY`.
pub type Key = u64;
/// Values share the same representation constraints as keys.
pub type Value = u64;

/// Largest key a workload may use (several trees reserve the extremes for
/// sentinel nodes).
pub const MAX_KEY: Key = (1 << 62) - 2;

/// Most pairs a *reused* scan buffer may keep allocated between scans (64 KiB):
/// the chunk the quiescent audits scan by, so a chunked walk never loses its
/// warm buffer.  The layers that scan into per-thread or per-connection
/// scratch (`shard`'s merge runs, `server`'s session buffer) pass every such
/// buffer through [`release_oversized`] after use, so that one whole-map
/// scan — the wire accepts about 2^20 pairs, 16 MiB — does not stay pinned
/// per thread and per connection for the life of the process.
pub const SCAN_RETAIN_PAIRS: usize = suites::SCAN_AUDIT_CHUNK;

/// Give back the allocation of a reused scan buffer that grew past
/// [`SCAN_RETAIN_PAIRS`]; a smaller one is left alone (contents included).
#[inline]
pub fn release_oversized(buf: &mut Vec<(Key, Value)>) {
    if buf.capacity() > SCAN_RETAIN_PAIRS {
        *buf = Vec::new();
    }
}

/// Intern a dynamically built structure name into a `&'static str`.
///
/// [`ConcurrentMap::name`] returns `&'static str` so benchmark rows can be
/// labeled without lifetime plumbing, but composed structures (a sharded map
/// over an inner algorithm, a service client pool over a remote structure)
/// only know their full name at construction time.  Interning leaks each
/// *distinct* name exactly once — building ten thousand `shard8(...)`
/// instances retains one copy of the string, so repeated benchmark trials
/// do not accumulate leaks.
pub fn intern_name(name: String) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut pool = POOL.get_or_init(Default::default).lock().unwrap();
    if let Some(&interned) = pool.get(name.as_str()) {
        return interned;
    }
    let leaked: &'static str = Box::leak(name.into_boxed_str());
    pool.insert(leaked);
    leaked
}

/// Structural statistics gathered by a quiescent (single-threaded) traversal.
/// These feed the Figure 5 "detailed analysis" table.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct MapStats {
    /// Number of keys logically present.
    pub key_count: u64,
    /// Sum of the keys logically present.
    pub key_sum: u128,
    /// Total number of nodes (including routing/sentinel nodes).
    pub node_count: u64,
    /// Sum over all *present keys* of their depth (root = depth 0).
    pub key_depth_sum: u64,
    /// Approximate bytes of memory retained by nodes.
    pub approx_bytes: u64,
}

impl MapStats {
    /// Average depth of a present key, the paper's "Avg. Key Depth" column.
    pub fn avg_key_depth(&self) -> f64 {
        if self.key_count == 0 {
            0.0
        } else {
            self.key_depth_sum as f64 / self.key_count as f64
        }
    }
}

/// Field-wise sum: the stats of a map made of parts (shards, buckets) are
/// the sum of the parts' stats.
impl std::iter::Sum for MapStats {
    fn sum<I: Iterator<Item = MapStats>>(iter: I) -> MapStats {
        iter.fold(MapStats::default(), |a, s| MapStats {
            key_count: a.key_count + s.key_count,
            key_sum: a.key_sum + s.key_sum,
            node_count: a.node_count + s.node_count,
            key_depth_sum: a.key_depth_sum + s.key_depth_sum,
            approx_bytes: a.approx_bytes + s.approx_bytes,
        })
    }
}

/// Cumulative per-shard operation counts reported by sharded structures (see
/// [`ConcurrentMap::shard_loads`]): which shard the traffic actually hits,
/// not just where the keys sit.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardLoad {
    /// Point operations (insert/remove/get/rmw) routed to the shard.
    pub point_ops: u64,
    /// Inner `scan` calls made on the shard: a cross-shard merged scan
    /// counts one per chunk it pulls — none on a shard whose keys lie beyond
    /// the scan's range, and one more each time it drains a shard's chunk and
    /// asks it again.
    pub scan_ops: u64,
}

/// A concurrent ordered map (dictionary) with `u64` keys and values.
///
/// `insert` has *insert-if-absent* semantics, like the trees in the paper:
/// it returns `false` and leaves the map unchanged if the key is already
/// present.
pub trait ConcurrentMap: Send + Sync {
    /// A short, stable identifier used in benchmark output (e.g.
    /// `int-bst-pathcas`).
    fn name(&self) -> &'static str;

    /// Insert `key` with `value` if absent. Returns `true` if the key was
    /// inserted, `false` if it was already present.
    fn insert(&self, key: Key, value: Value) -> bool;

    /// Remove `key`. Returns `true` if the key was present and removed.
    fn remove(&self, key: Key) -> bool;

    /// Returns the value associated with `key`, if present.
    fn get(&self, key: Key) -> Option<Value>;

    /// YCSB-style read-modify-write: read the current value (if any), apply
    /// `update`, and write the result back. Returns `true` if the key was
    /// present before the call.
    ///
    /// The default implementation composes `get` + `remove` + `insert`, which
    /// is exactly what YCSB's RMW operation does — and it has **two windows**
    /// with respect to concurrent writers to the same key:
    ///
    /// 1. between the `remove` and the `insert` the key is observably
    ///    *absent*, so a concurrent reader (or validated scan) can see the
    ///    key vanish mid-RMW;
    /// 2. a racing insert landing in that window is silently clobbered by
    ///    the write-back (the classic lost update).
    ///
    /// Every PathCAS structure and the [`reference::LockedBTreeMap`] oracle
    /// override this with a genuinely atomic single-key RMW (read, validate,
    /// one KCAS commit — or under the oracle's lock).  The composed default
    /// intentionally survives for the remaining baselines because it is what
    /// YCSB-F itself executes against non-transactional stores — the
    /// benchmark convention measures exactly this composition.  Workloads
    /// that need *multi-key* atomicity use raw KCAS instead (the
    /// `txn-transfer` scenario in the `workload` crate).
    fn rmw(&self, key: Key, update: &mut dyn FnMut(Option<Value>) -> Value) -> bool {
        let prev = self.get(key);
        let new = update(prev);
        if prev.is_some() {
            let _ = self.remove(key);
        }
        let _ = self.insert(key, new);
        prev.is_some()
    }

    /// Ordered range scan: **append** to `out` the first `len` key/value
    /// pairs with key ≥ `start`, in ascending key order (YCSB-E's short range
    /// scan).  The one scan every structure implements; [`Self::scan`] wraps
    /// it.
    ///
    /// The contract on `out`, which callers reuse across scans so that a
    /// warm scan allocates nothing:
    ///
    /// * **append only** — whatever `out` holds on entry is still there, byte
    ///   for byte, on return, and the answer is `out[base..]` where `base` is
    ///   `out.len()` on entry; two calls into one `out` concatenate, and
    ///   `len == 0` appends nothing;
    /// * **restart rule** — an implementation that restarts (a validated scan
    ///   whose validation failed) discards what the failed attempt appended
    ///   with `out.truncate(base)` and nothing else: it never clears `out`,
    ///   never shrinks it below `base`, and leaves no pair of a failed
    ///   attempt behind.
    ///
    /// Every structure implements this natively — there is deliberately no
    /// composed point-lookup default, because a loop of `get`s is not a range
    /// query (it cannot see keys it did not guess) and is not atomic.
    /// Implementations based on path validation (the PathCAS trees and list)
    /// append an **atomic snapshot**: all appended pairs were simultaneously
    /// present at the operation's linearization point.  Hash-partitioned and
    /// optimistic baselines document their weaker per-partition / best-effort
    /// guarantees on the implementation.
    fn scan_into(&self, start: Key, len: usize, out: &mut Vec<(Key, Value)>);

    /// [`Self::scan_into`] into a fresh vector: the first `len` pairs with
    /// key ≥ `start`, ascending.  The reservation is capped, so `len` may be
    /// anything up to `usize::MAX` ("everything from `start`").
    fn scan(&self, start: Key, len: usize) -> Vec<(Key, Value)> {
        let mut out = Vec::with_capacity(len.min(1024));
        self.scan_into(start, len, &mut out);
        out
    }

    /// Quiescent structural statistics (not linearizable; call only while no
    /// other thread is operating on the map).
    fn stats(&self) -> MapStats;

    /// The index of the shard that owns `key`.  An unsharded structure is
    /// one shard, so the default owns every key in shard 0.
    fn shard_of(&self, _key: Key) -> usize {
        0
    }

    /// Cumulative per-shard operation counts, indexed by shard. Structures
    /// that do not track per-shard load (everything unsharded) return an
    /// empty vector, which consumers must treat as "untracked" rather than
    /// "zero load".
    fn shard_loads(&self) -> Vec<ShardLoad> {
        Vec::new()
    }
}

/// Blanket implementation so harness code can box trait objects.
impl<M: ConcurrentMap + ?Sized> ConcurrentMap for Box<M> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn insert(&self, key: Key, value: Value) -> bool {
        (**self).insert(key, value)
    }
    fn remove(&self, key: Key) -> bool {
        (**self).remove(key)
    }
    fn get(&self, key: Key) -> Option<Value> {
        (**self).get(key)
    }
    fn rmw(&self, key: Key, update: &mut dyn FnMut(Option<Value>) -> Value) -> bool {
        (**self).rmw(key, update)
    }
    fn scan_into(&self, start: Key, len: usize, out: &mut Vec<(Key, Value)>) {
        (**self).scan_into(start, len, out)
    }
    fn stats(&self) -> MapStats {
        (**self).stats()
    }
    fn shard_of(&self, key: Key) -> usize {
        (**self).shard_of(key)
    }
    fn shard_loads(&self) -> Vec<ShardLoad> {
        (**self).shard_loads()
    }
}

/// Blanket implementation so harness code can hand out `Arc<T>` etc.
impl<M: ConcurrentMap + ?Sized> ConcurrentMap for std::sync::Arc<M> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn insert(&self, key: Key, value: Value) -> bool {
        (**self).insert(key, value)
    }
    fn remove(&self, key: Key) -> bool {
        (**self).remove(key)
    }
    fn get(&self, key: Key) -> Option<Value> {
        (**self).get(key)
    }
    fn rmw(&self, key: Key, update: &mut dyn FnMut(Option<Value>) -> Value) -> bool {
        (**self).rmw(key, update)
    }
    fn scan_into(&self, start: Key, len: usize, out: &mut Vec<(Key, Value)>) {
        (**self).scan_into(start, len, out)
    }
    fn stats(&self) -> MapStats {
        (**self).stats()
    }
    fn shard_of(&self, key: Key) -> usize {
        (**self).shard_of(key)
    }
    fn shard_loads(&self) -> Vec<ShardLoad> {
        (**self).shard_loads()
    }
}

/// A reference sequential implementation used by the correctness suites.
pub mod reference {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    /// A `Mutex<BTreeMap>`-based [`ConcurrentMap`]: trivially correct, used
    /// as the oracle in differential tests and as the `tle`-style coarse
    /// baseline sanity check.
    #[derive(Default)]
    pub struct LockedBTreeMap {
        inner: Mutex<BTreeMap<Key, Value>>,
    }

    impl LockedBTreeMap {
        /// Create an empty oracle map.
        pub fn new() -> Self {
            Self::default()
        }
    }

    impl ConcurrentMap for LockedBTreeMap {
        fn name(&self) -> &'static str {
            "locked-btreemap"
        }
        fn insert(&self, key: Key, value: Value) -> bool {
            let mut m = self.inner.lock().unwrap();
            if let std::collections::btree_map::Entry::Vacant(e) = m.entry(key) {
                e.insert(value);
                true
            } else {
                false
            }
        }
        fn remove(&self, key: Key) -> bool {
            self.inner.lock().unwrap().remove(&key).is_some()
        }
        fn get(&self, key: Key) -> Option<Value> {
            self.inner.lock().unwrap().get(&key).copied()
        }
        fn rmw(&self, key: Key, update: &mut dyn FnMut(Option<Value>) -> Value) -> bool {
            // Holding the lock across read and write makes this RMW truly
            // atomic, unlike the composed default.
            let mut m = self.inner.lock().unwrap();
            let prev = m.get(&key).copied();
            m.insert(key, update(prev));
            prev.is_some()
        }
        fn scan_into(&self, start: Key, len: usize, out: &mut Vec<(Key, Value)>) {
            // The whole range is read under one lock acquisition, so the
            // result is a genuinely atomic snapshot — the oracle the stress
            // suites cross-check every other structure's scan against.
            let m = self.inner.lock().unwrap();
            out.extend(m.range(start..).take(len).map(|(&k, &v)| (k, v)));
        }
        fn stats(&self) -> MapStats {
            let m = self.inner.lock().unwrap();
            MapStats {
                key_count: m.len() as u64,
                key_sum: m.keys().map(|&k| k as u128).sum(),
                node_count: m.len() as u64,
                key_depth_sum: 0,
                approx_bytes: (m.len() * 3 * 8) as u64,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::LockedBTreeMap;
    use super::*;

    #[test]
    fn oracle_map_basic() {
        let m = LockedBTreeMap::new();
        assert!(m.insert(5, 50));
        assert!(!m.insert(5, 51));
        assert_eq!(m.get(5), Some(50));
        assert!(m.remove(5));
        assert!(!m.remove(5));
        assert_eq!(m.get(5), None);
    }

    #[test]
    fn stats_reflect_contents() {
        let m = LockedBTreeMap::new();
        for k in 1..=10u64 {
            m.insert(k, k);
        }
        let s = m.stats();
        assert_eq!(s.key_count, 10);
        assert_eq!(s.key_sum, 55);
    }

    #[test]
    fn avg_depth_handles_empty() {
        assert_eq!(MapStats::default().avg_key_depth(), 0.0);
    }

    #[test]
    fn interned_names_are_deduplicated() {
        let a = intern_name("shard2(test-intern)".to_string());
        let b = intern_name("shard2(test-intern)".to_string());
        assert_eq!(a, "shard2(test-intern)");
        // Same allocation, not just equal contents.
        assert!(std::ptr::eq(a, b));
        let c = intern_name("shard3(test-intern)".to_string());
        assert_ne!(a, c);
    }

    #[test]
    fn oracle_scan_is_ordered_and_bounded() {
        let m = LockedBTreeMap::new();
        for k in [5u64, 1, 9, 3, 7] {
            m.insert(k, k * 10);
        }
        assert_eq!(m.scan(1, 3), vec![(1, 10), (3, 30), (5, 50)]);
        assert_eq!(m.scan(4, 10), vec![(5, 50), (7, 70), (9, 90)]);
        assert_eq!(m.scan(10, 4), vec![]);
        assert_eq!(m.scan(1, 0), vec![]);
        // Boxed trait objects forward scan.
        let boxed: Box<dyn ConcurrentMap> = Box::new(LockedBTreeMap::new());
        boxed.insert(2, 20);
        assert_eq!(boxed.scan(1, 8), vec![(2, 20)]);
    }

    #[test]
    fn rmw_reads_then_writes_back() {
        let m = LockedBTreeMap::new();
        // Absent key: update sees None, the result is inserted.
        assert!(!m.rmw(7, &mut |v| v.unwrap_or(0) + 1));
        assert_eq!(m.get(7), Some(1));
        // Present key: update sees the old value.
        assert!(m.rmw(7, &mut |v| v.unwrap_or(0) + 10));
        assert_eq!(m.get(7), Some(11));
        // Boxed trait objects forward rmw.
        let boxed: Box<dyn ConcurrentMap> = Box::new(LockedBTreeMap::new());
        assert!(!boxed.rmw(1, &mut |_| 5));
        assert_eq!(boxed.get(1), Some(5));
    }
}
