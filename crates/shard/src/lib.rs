//! # shard — the sharded composition layer
//!
//! [`ShardedMap`] composes N inner [`ConcurrentMap`] instances into one map
//! by hash-partitioning the key space: every key is owned by exactly one
//! shard (FNV-1a of the key, modulo the shard count), so point operations —
//! `get`, `insert`, `remove`, `contains`, `rmw` — delegate to the owning
//! shard with **no cross-shard coordination** and inherit that shard's
//! linearizability unchanged.  This is the classic route past a single
//! structure instance's scalability ceiling: N independent synchronization
//! domains, N independent KCAS/validation hot paths, and (on the PathCAS
//! trees) N shallower trees.
//!
//! Ordered semantics survive partitioning through the scan path:
//! `ShardedMap`'s [`ConcurrentMap::scan_into`] (and so `scan`, its wrapper)
//! is a **lazy k-way merge over per-shard cursors**.
//! Every shard is first asked for a bounded chunk of its keys ≥ `start` —
//! its mean share `⌈len/N⌉` of the answer plus one standard deviation of a
//! hash partition's binomial scatter, never more than `len`, so one shard is
//! a straight pass-through — and the merge emits the smallest buffered head.
//! Only when a shard's buffered run is used up *and that run came back full*
//! is that one shard asked again, from its last key + 1, for a chunk sized
//! from the pairs still needed; a run that comes back short proves the shard
//! holds nothing further.  A scan of `len` pairs therefore reads about
//! `len + √(len·N)` pairs in little more than N inner calls, where asking
//! every shard for `len` read `N·len`.
//!
//! Every key is owned by exactly one shard, so the merge cannot produce
//! duplicates; a refill starts above the key just emitted, so the output
//! stays sorted; and no key is emitted while a shard that may hold further
//! keys has an empty buffer, so the smallest head is the globally smallest
//! key not yet returned.  What a caller may rely on:
//!
//! * **at quiescence** the answer is exactly the first `len` pairs ≥ `start`
//!   of the whole map;
//! * **under concurrency** it is sorted and duplicate-free, every pair was
//!   present at some instant of the call, and any key ≥ `start` that was
//!   present throughout the call and is not beyond the last returned key is
//!   returned.
//!
//! Each *chunk* is one validated snapshot of its shard on the PathCAS
//! structures (taken at slightly different times, and a shard that refills
//! contributes more than one) — not one global snapshot, the same relaxation
//! the `hashmap-pathcas` per-bucket merge documents.  DESIGN.md §8 spells out
//! the argument.
//!
//! The cursors — one run buffer per shard — are **per-thread scratch**: a
//! scan takes its thread's cursor table, refills the runs in place through
//! the shards' `scan_into`, pushes the merged pairs into the caller's vector
//! and puts the table back, so a warm merged scan allocates nothing.  The
//! table is taken *out* of its thread-local for the duration (a shard may
//! itself be a `ShardedMap`, whose merge then takes the next table), and a
//! run that has outgrown [`mapapi::SCAN_RETAIN_PAIRS`] is dropped at the end
//! of the scan rather than kept, so one whole-map scan does not pin its
//! buffers on the thread.
//!
//! Shards may be different algorithms (`stats` aggregation and the scan
//! merge only rely on the trait), which the mixed-shard tests exercise; the
//! harness registry's `shardN(inner)` names build homogeneous instances.

#![warn(missing_docs)]

use std::cell::RefCell;

use mapapi::{ConcurrentMap, Key, MapStats, ShardLoad, Value};
use telemetry::Counter;

/// 64-bit FNV-1a over the key's little-endian bytes — cheap, deterministic,
/// and unrelated to the FNV *rank scrambling* the workload samplers use, so
/// skewed scenarios don't accidentally align their hot set with one shard.
///
/// Public because the replication layer reuses the same canonical key hash
/// for its mutation-serializing stripes.
#[inline]
pub fn fnv1a(key: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// How many pairs to ask one shard for when `need` more pairs are wanted and
/// `shards` shards may still hold keys: the mean share `⌈need/shards⌉` plus
/// one standard deviation of the binomial scatter a hash partition gives that
/// share (`σ ≤ √mean`), capped at `need` — a single shard is asked for
/// exactly `need`.  One deviation leaves about one shard in six to refill,
/// which is where a pair more per chunk (one more visited and validated node,
/// on every shard) starts to cost what the refills it saves (a whole inner
/// descent each) would.
fn chunk_len(need: usize, shards: usize) -> usize {
    let mean = need.div_ceil(shards);
    let floor = mean.isqrt();
    let spread = floor + usize::from(floor * floor < mean);
    mean.saturating_add(spread).min(need)
}

/// One shard's position in a merged scan: the unread rest of the last run
/// pulled from it, and whether that run came back full (a short run proves
/// the shard holds nothing further).
#[derive(Default)]
struct Cursor {
    run: Vec<(Key, Value)>,
    pos: usize,
    more: bool,
}

thread_local! {
    /// This thread's idle cursor tables (the `OpBuilder` idiom: a merged scan
    /// allocates nothing once its thread is warm).  A scan *takes* a table
    /// out and puts it back when done — it never holds the `RefCell` across
    /// an inner `scan_into`, so a shard that is itself a `ShardedMap` takes
    /// the next table (or starts one) instead of finding the cell borrowed.
    /// One table per nesting level is all this ever holds, and
    /// [`mapapi::release_oversized`] bounds every run in them.
    static SCRATCH: RefCell<Vec<Vec<Cursor>>> = const { RefCell::new(Vec::new()) };
}

/// A [`ConcurrentMap`] hash-partitioned over N inner maps.
///
/// See the crate docs for the partitioning and scan-merge semantics.
pub struct ShardedMap {
    name: &'static str,
    shards: Vec<Box<dyn ConcurrentMap>>,
    /// Per-shard cumulative point-op counts (insert/remove/contains/get/rmw
    /// routed to the shard). Striped wait-free counters: routing stays on
    /// the zero-allocation warm path and scales with writer threads.
    point_ops: Vec<Counter>,
    /// Per-shard counts of inner `scan` calls: one per chunk a merged scan
    /// pulled from the shard (at least one per scan, more when it refilled).
    scan_ops: Vec<Counter>,
}

impl ShardedMap {
    /// Compose `shards` into one map.  The name is derived canonically:
    /// `shardN(inner)` when every shard reports the same name, otherwise
    /// `shardN(mixed)`.
    ///
    /// # Panics
    /// Panics if `shards` is empty.
    pub fn new(shards: Vec<Box<dyn ConcurrentMap>>) -> Self {
        assert!(!shards.is_empty(), "ShardedMap needs at least one shard");
        let first = shards[0].name();
        let inner = if shards.iter().all(|s| s.name() == first) { first } else { "mixed" };
        let name = mapapi::intern_name(format!("shard{}({})", shards.len(), inner));
        let point_ops = (0..shards.len()).map(|_| Counter::new()).collect();
        let scan_ops = (0..shards.len()).map(|_| Counter::new()).collect();
        ShardedMap { name, shards, point_ops, scan_ops }
    }

    /// Build `n` shards from a factory (`build` receives the shard index).
    pub fn from_fn(n: usize, mut build: impl FnMut(usize) -> Box<dyn ConcurrentMap>) -> Self {
        Self::new((0..n).map(&mut build).collect())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The composed shards in index order (shard `i` owns the keys with
    /// `fnv1a(k) % n == i`).  The replication layer checkpoints each shard's
    /// validated snapshot as its own section through this.
    pub fn shards(&self) -> &[Box<dyn ConcurrentMap>] {
        &self.shards
    }

    /// The index of the shard owning `key`.
    #[inline]
    fn owner_idx(&self, key: Key) -> usize {
        (fnv1a(key) % self.shards.len() as u64) as usize
    }

    /// Ask shard `i` for its first `chunk` pairs with key ≥ `from`, counting
    /// the inner call: `cursor`'s run is cleared and refilled in place.
    fn pull(&self, i: usize, from: Key, chunk: usize, cursor: &mut Cursor) {
        self.scan_ops[i].inc();
        cursor.run.clear();
        self.shards[i].scan_into(from, chunk, &mut cursor.run);
        cursor.pos = 0;
        cursor.more = cursor.run.len() >= chunk;
    }

    /// The shard owning `key`, counting the routed point op.
    #[inline]
    fn owner(&self, key: Key) -> &dyn ConcurrentMap {
        let i = self.owner_idx(key);
        self.point_ops[i].inc();
        &*self.shards[i]
    }
}

impl ConcurrentMap for ShardedMap {
    fn name(&self) -> &'static str {
        self.name
    }

    fn insert(&self, key: Key, value: Value) -> bool {
        self.owner(key).insert(key, value)
    }

    fn remove(&self, key: Key) -> bool {
        self.owner(key).remove(key)
    }

    fn contains(&self, key: Key) -> bool {
        self.owner(key).contains(key)
    }

    fn get(&self, key: Key) -> Option<Value> {
        self.owner(key).get(key)
    }

    fn rmw(&self, key: Key, update: &mut dyn FnMut(Option<Value>) -> Value) -> bool {
        // Single-key, single-owner: the inner structure's atomicity (or its
        // documented composed default) carries over unchanged.
        self.owner(key).rmw(key, update)
    }

    fn scan_into(&self, start: Key, len: usize, out: &mut Vec<(Key, Value)>) {
        if len == 0 {
            return;
        }
        let n = self.shards.len();
        let base = out.len();
        let mut table = SCRATCH.with_borrow_mut(Vec::pop).unwrap_or_default();
        if table.len() < n {
            table.resize_with(n, Cursor::default);
        }
        let cursors = &mut table[..n];
        for (i, cursor) in cursors.iter_mut().enumerate() {
            self.pull(i, start, chunk_len(len, n), cursor);
        }
        // Shards whose last run came back full: the ones that may hold more.
        let mut live = cursors.iter().filter(|c| c.more).count();
        // Every shard that may hold further keys has a buffered head here and
        // after every refill below, so the smallest head is the globally
        // smallest key not yet emitted; keys are disjoint across shards, so
        // ties cannot occur and the output is duplicate-free.
        while let Some((i, &pair)) = cursors
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.run.get(c.pos).map(|p| (i, p)))
            .min_by_key(|&(_, p)| p.0)
        {
            out.push(pair);
            let need = len - (out.len() - base);
            if need == 0 {
                break;
            }
            let cursor = &mut cursors[i];
            cursor.pos += 1;
            if cursor.pos == cursor.run.len() && cursor.more {
                // The shard's buffer is used up and its run came back full:
                // ask it again, above the key just emitted, for its share
                // (among the live shards) of what is still needed.
                match pair.0.checked_add(1) {
                    Some(next) => self.pull(i, next, chunk_len(need, live), cursor),
                    None => cursor.more = false,
                }
                if !cursor.more {
                    live -= 1;
                }
            }
        }
        // One whole-map scan must not pin its runs on this thread for good.
        for cursor in cursors {
            mapapi::release_oversized(&mut cursor.run);
        }
        SCRATCH.with_borrow_mut(|idle| idle.push(table));
    }

    fn stats(&self) -> MapStats {
        // Aggregation over quiescent per-shard traversals; `key_depth_sum`
        // sums each key's depth *within its own shard* (N shallow trees, not
        // one deep one — exactly what the sharding buys).  The per-shard
        // breakdown this sums over is public as `shard_stats()`.
        let mut agg = MapStats::default();
        for st in self.shard_stats() {
            agg.key_count += st.key_count;
            agg.key_sum += st.key_sum;
            agg.node_count += st.node_count;
            agg.key_depth_sum += st.key_depth_sum;
            agg.approx_bytes += st.approx_bytes;
        }
        agg
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, key: Key) -> usize {
        self.owner_idx(key)
    }

    fn shard_stats(&self) -> Vec<MapStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    fn shard_loads(&self) -> Vec<ShardLoad> {
        self.point_ops
            .iter()
            .zip(&self.scan_ops)
            .map(|(p, s)| ShardLoad { point_ops: p.get(), scan_ops: s.get() })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapapi::reference::LockedBTreeMap;

    fn oracle_shards(n: usize) -> ShardedMap {
        ShardedMap::from_fn(n, |_| Box::new(LockedBTreeMap::new()))
    }

    /// `(idle tables, largest run capacity in them)` of the calling thread's
    /// merge scratch.
    fn scratch() -> (usize, usize) {
        SCRATCH.with_borrow(|idle| {
            let runs = idle.iter().flatten().map(|c| c.run.capacity());
            (idle.len(), runs.max().unwrap_or(0))
        })
    }

    #[test]
    fn name_is_canonical_and_interned() {
        let a = oracle_shards(4);
        assert_eq!(a.name(), "shard4(locked-btreemap)");
        let b = oracle_shards(4);
        assert!(std::ptr::eq(a.name(), b.name()), "same name must be interned once");
        assert_eq!(a.shard_count(), 4);
    }

    #[test]
    fn mixed_shards_get_the_mixed_name() {
        let m = ShardedMap::new(vec![
            Box::new(LockedBTreeMap::new()),
            Box::new(pathcas_ds::PathCasBst::new()),
        ]);
        assert_eq!(m.name(), "shard2(mixed)");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardedMap::new(Vec::new());
    }

    #[test]
    fn keys_route_to_exactly_one_shard() {
        let m = oracle_shards(8);
        for k in 1..=512u64 {
            assert!(m.insert(k, k * 2));
            assert!(!m.insert(k, k * 3), "duplicate insert must fail through the owner");
        }
        // Every key present exactly once in the aggregate.
        let s = m.stats();
        assert_eq!(s.key_count, 512);
        assert_eq!(s.key_sum, (1..=512u128).sum::<u128>());
        // The hash actually spreads keys: no shard owns everything.
        assert!(m.shards.iter().all(|sh| sh.stats().key_count < 512));
        for k in 1..=512u64 {
            assert_eq!(m.get(k), Some(k * 2));
            assert!(m.remove(k));
            assert!(!m.remove(k));
        }
        assert_eq!(m.stats().key_count, 0);
    }

    #[test]
    fn single_shard_degenerates_to_the_inner_map() {
        let m = oracle_shards(1);
        assert_eq!(m.name(), "shard1(locked-btreemap)");
        for k in [5u64, 1, 3] {
            m.insert(k, k);
        }
        assert_eq!(m.scan(1, 10), vec![(1, 1), (3, 3), (5, 5)]);
    }

    #[test]
    fn per_shard_stats_and_loads_sum_to_the_aggregate() {
        let m = oracle_shards(4);
        for k in 1..=256u64 {
            m.insert(k, k); // 256 point ops
        }
        for k in 1..=256u64 {
            assert_eq!(m.get(k), Some(k)); // 256 more
        }
        // Dense keys: every shard owns 4 of the first 16, fewer than the
        // chunk of 6 it is asked for, so nobody refills — one inner call per
        // shard.
        let _ = m.scan(1, 16);

        // shard_stats: the per-shard breakdown sums exactly to stats().
        let per = m.shard_stats();
        assert_eq!(per.len(), 4);
        let agg = m.stats();
        assert_eq!(per.iter().map(|s| s.key_count).sum::<u64>(), agg.key_count);
        assert_eq!(per.iter().map(|s| s.key_sum).sum::<u128>(), agg.key_sum);
        assert!(per.iter().all(|s| s.key_count > 0), "FNV-1a must spread 256 keys: {per:?}");

        // shard_loads: per-shard point ops sum to the total routed, and the
        // scan made exactly one inner call on every shard.
        let loads = ConcurrentMap::shard_loads(&m);
        assert_eq!(loads.len(), 4);
        assert_eq!(loads.iter().map(|l| l.point_ops).sum::<u64>(), 512);
        assert!(loads.iter().all(|l| l.scan_ops == 1), "{loads:?}");

        // shard_of agrees with where the keys actually landed: replaying the
        // ownership map reproduces each shard's key count.
        let mut owned = [0u64; 4];
        for k in 1..=256u64 {
            owned[ConcurrentMap::shard_of(&m, k)] += 1;
        }
        for (i, st) in per.iter().enumerate() {
            assert_eq!(owned[i], st.key_count, "shard {i}");
        }

        // The trait defaults on an unsharded structure: one shard, untracked
        // loads.
        let plain = LockedBTreeMap::new();
        assert_eq!(ConcurrentMap::shard_count(&plain), 1);
        assert_eq!(ConcurrentMap::shard_of(&plain, 99), 0);
        assert_eq!(plain.shard_stats().len(), 1);
        assert!(plain.shard_loads().is_empty());
    }

    #[test]
    fn chunk_len_is_the_mean_share_plus_one_deviation_capped_at_the_need() {
        // One shard: a straight pass-through, whatever the length.
        for need in [1, 2, 7, 64, 4096, usize::MAX] {
            assert_eq!(chunk_len(need, 1), need);
        }
        assert_eq!(chunk_len(1, 8), 1);
        assert_eq!(chunk_len(8, 8), 1 + 1);
        assert_eq!(chunk_len(16, 8), 2 + 2);
        assert_eq!(chunk_len(36, 8), 5 + 3);
        assert_eq!(chunk_len(64, 8), 8 + 3);
        assert_eq!(chunk_len(4096, 8), 512 + 23);
        // Saturating at the top: no overflow, never more than the need.
        assert!((usize::MAX / 2..usize::MAX).contains(&chunk_len(usize::MAX, 2)));
        assert!((usize::MAX / 8..usize::MAX / 4).contains(&chunk_len(usize::MAX, 8)));
    }

    /// `len` is the caller's to choose (the wire takes any 62-bit length):
    /// the reservation is capped and the chunk arithmetic saturates, so a
    /// scan "of everything" is answered, not a `capacity overflow` panic.
    #[test]
    fn scan_of_usize_max_returns_the_full_contents() {
        let m = oracle_shards(8);
        for k in 1..=3000u64 {
            m.insert(k * 7, k);
        }
        let expected: Vec<(u64, u64)> = (1..=3000u64).map(|k| (k * 7, k)).collect();
        assert_eq!(m.scan(1, usize::MAX), expected);
    }

    /// One whole-map scan must not pin its runs on the thread: a run that
    /// grew past the retention bound is dropped when the scan ends, a run
    /// that fits is kept warm.
    #[test]
    fn oversized_runs_are_not_retained() {
        let m = oracle_shards(2);
        for k in 1..=20_000u64 {
            m.insert(k, k);
        }
        assert_eq!(m.scan(1, 64).len(), 64);
        let (tables, warm) = scratch();
        assert_eq!(tables, 1);
        assert!((32..=mapapi::SCAN_RETAIN_PAIRS).contains(&warm), "a short scan's runs stay: {warm}");
        // ~10 000 pairs per shard, in one run each.
        assert_eq!(m.scan(1, usize::MAX).len(), 20_000);
        assert_eq!(m.shard_loads().iter().map(|l| l.scan_ops).collect::<Vec<_>>(), [2, 2]);
        assert_eq!(scratch(), (1, 0), "both runs outgrew the bound and were given back");
        // A chunk of exactly the bound is the largest that stays.
        assert_eq!(m.scan(1, mapapi::SCAN_RETAIN_PAIRS).len(), mapapi::SCAN_RETAIN_PAIRS);
        let (_, kept) = scratch();
        assert!((1..=mapapi::SCAN_RETAIN_PAIRS).contains(&kept), "{kept}");
    }

    /// `shard2(shard2(..))` is a registry name: the inner merges run while
    /// the outer scan is using its cursor table, so each nesting level takes
    /// a table of its own — and finds it again on the next scan.
    #[test]
    fn nested_sharded_maps_scan_out_of_one_table_per_level() {
        let m = ShardedMap::from_fn(2, |_| Box::new(oracle_shards(2)));
        assert_eq!(m.name(), "shard2(shard2(locked-btreemap))");
        for k in 1..=500u64 {
            m.insert(k, k * 2);
        }
        let expected: Vec<(u64, u64)> = (100..164u64).map(|k| (k, k * 2)).collect();
        for _ in 0..3 {
            assert_eq!(m.scan(100, 64), expected);
            assert_eq!(scratch().0, 2, "one idle table per nesting level, however many scans");
        }
        let mut out = vec![(7, 7)];
        m.scan_into(100, 64, &mut out);
        assert_eq!(out[0], (7, 7));
        assert_eq!(out[1..], expected[..]);
    }

    /// A full run may end at the largest key, which has no successor to
    /// refill from: the shard is then exhausted, not asked again from a
    /// wrapped-around 0.
    #[test]
    fn a_full_run_ending_at_the_largest_key_is_not_refilled() {
        let m = oracle_shards(8);
        // Four keys at the very top on one shard: exactly the chunk a scan of
        // 16 asks each of 8 shards for.
        let home = m.owner_idx(u64::MAX);
        let top: Vec<u64> =
            (0..).map(|d| u64::MAX - d).filter(|&k| m.owner_idx(k) == home).take(4).collect();
        for &k in &top {
            m.insert(k, k);
        }
        m.insert(5, 5);
        let expected: Vec<(u64, u64)> = top.iter().rev().map(|&k| (k, k)).collect();
        assert_eq!(m.scan(top[3], 16), expected);
        assert_eq!(m.shard_loads()[home].scan_ops, 1);
    }

    /// A hash partition can be skewed (here: every key on one shard).  The
    /// refill is sized for the shards still holding keys, so once the others
    /// came back short the hot shard is asked for everything still needed:
    /// one extra inner call, not one per `need/N` pairs.
    #[test]
    fn a_skewed_partition_refills_the_hot_shard_once() {
        let m = oracle_shards(8);
        let hot: Vec<u64> = (1..).filter(|&k| m.owner_idx(k) == 3).take(6000).collect();
        for &k in &hot {
            m.insert(k, k);
        }
        let got = m.scan(1, 4096);
        assert_eq!(got.iter().map(|p| p.0).collect::<Vec<_>>(), hot[..4096]);
        let calls: Vec<u64> = m.shard_loads().iter().map(|l| l.scan_ops).collect();
        assert_eq!(calls, [1, 1, 1, 2, 1, 1, 1, 1]);
    }

    #[test]
    fn rmw_delegates_to_the_owning_shard() {
        let m = oracle_shards(4);
        assert!(!m.rmw(9, &mut |v| v.unwrap_or(0) + 7));
        assert_eq!(m.get(9), Some(7));
        assert!(m.rmw(9, &mut |v| v.unwrap_or(0) + 7));
        assert_eq!(m.get(9), Some(14));
    }
}
