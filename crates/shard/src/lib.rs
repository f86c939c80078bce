//! # shard — the sharded composition layer
//!
//! [`ShardedMap`] composes N inner [`ConcurrentMap`] instances into one map
//! by partitioning the key space into **blocks** of 128 consecutive keys and
//! hashing each block to a shard: the owner of key `k` is a Fibonacci
//! multiplicative hash of `k >> 7`, reduced onto `[0, N)` by a multiply-high
//! (no modulo).  Every key is owned by exactly one shard, so point
//! operations — `get`, `insert`, `remove`, `rmw` — delegate to
//! the owning shard with **no cross-shard coordination** and inherit that
//! shard's linearizability unchanged.  This is the classic route past a
//! single structure instance's scalability ceiling: N independent
//! synchronization domains, N independent KCAS/validation hot paths, and (on
//! the PathCAS trees) N shallower trees.  Hashing blocks rather than keys
//! spreads dense, strided and skewed key sets alike (the Fibonacci sequence
//! puts neighbouring blocks on different shards), while a short range of
//! keys stays on one or two shards.
//!
//! Ordered semantics survive partitioning through the scan path:
//! `ShardedMap`'s [`ConcurrentMap::scan_into`] (and so `scan`, its wrapper)
//! is a **lazy k-way merge over per-shard cursors**, lazy across shards as
//! well as within them.  Ownership is known without asking a shard, so a scan
//! walks blocks up from `start`'s only as far as it needs: the first block
//! not walked stands in as the head of every shard not yet met, and when it
//! is the smallest head the walk takes it and meets its owner, whose *bound*
//! is the block's first key ≥ `start` (after 32 blocks, every shard left
//! meets there).  A met shard with nothing buffered shows its bound as its
//! head, and is asked for a bounded chunk of its keys from there only when
//! that is the smallest head; a scan that stays inside one or two blocks
//! therefore meets, asks and compares one or two shards, whatever N is.  A
//! buffered smallest head is emitted together with every key of its run below
//! all other heads, so a run is copied out in slices rather than pair by
//! pair.  A shard whose buffered run is used up and came back full shows the
//! key after its last one as its bound; a run that comes back short proves
//! the shard holds nothing further.  A chunk is sized for the rest of its
//! block, at the density of present keys the merge has measured, and is never
//! smaller than the shard's mean share of the pairs still needed plus one
//! standard deviation, nor larger than what is still needed.
//!
//! Every key is owned by exactly one shard, so the merge cannot produce
//! duplicates; a refill starts above the key just emitted, so the output
//! stays sorted; and no key is emitted while a shard that may own a smaller
//! key has an empty buffer, so the smallest head is the globally smallest
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
//! contributes more than one) — not one global snapshot.  DESIGN.md §8
//! spells out the argument.
//!
//! The cursors — one run buffer per shard — are **per-thread scratch**: a
//! scan takes its thread's cursor table, refills the runs in place through
//! the shards' `scan_into`, pushes the merged pairs into the caller's vector
//! and puts the table back, so a warm merged scan allocates nothing.  The
//! table also carries the density the thread's last merge measured, which
//! sizes the next scan's first chunk.  The table is taken *out* of its
//! thread-local for the duration (a shard may itself be a `ShardedMap`,
//! whose merge then takes the next table), and a run that has outgrown
//! [`mapapi::SCAN_RETAIN_PAIRS`] is dropped at the end of the scan rather
//! than kept, so one whole-map scan does not pin its buffers on the thread.
//!
//! Shards may be different algorithms (`stats` aggregation and the scan
//! merge only rely on the trait), which the mixed-shard tests exercise; the
//! harness registry's `shardN(inner)` names build homogeneous instances.
//! One of them, `shard256(list-pathcas)` — 256 PathCAS sorted lists — is the
//! hash table of lists that the paper's conclusion (§6) names.

#![warn(missing_docs)]

use std::{cell::RefCell, cmp::Reverse};

use mapapi::{ConcurrentMap, Key, MapStats, ShardLoad, Value};
use telemetry::Counter;

/// log₂ of the block size: a shard owns keys in runs of `1 << BLOCK_BITS`
/// (DESIGN.md §8 has the sweep that picked 128).
const BLOCK_BITS: u32 = 7;
/// Keys per block.
const BLOCK: u64 = 1 << BLOCK_BITS;
/// The index of the block holding `u64::MAX`.
const LAST_BLOCK: u64 = u64::MAX >> BLOCK_BITS;
/// How many blocks a scan walks one by one before it meets every shard left.
const WALK_BLOCKS: u64 = 32;

/// The shard of `shards` that owns block `block`: Fibonacci hashing (the
/// block index times 2⁶⁴/φ) reduced onto `[0, shards)` by a multiply-high,
/// which reads the product's top bits — the well-mixed ones.
#[inline]
fn block_owner(block: u64, shards: usize) -> usize {
    let mixed = block.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((u128::from(mixed) * shards as u128) >> 64) as usize
}

/// `mean` plus one standard deviation of the binomial scatter around it
/// (`σ ≤ √mean`, rounded up).
fn with_spread(mean: usize) -> usize {
    let floor = mean.isqrt();
    mean.saturating_add(floor + usize::from(floor * floor < mean))
}

/// How many pairs to ask one shard for at least when `need` more pairs are
/// wanted and `shards` shards may still hold keys: the mean share
/// `⌈need/shards⌉` plus one standard deviation, capped at `need` — a single
/// shard is asked for exactly `need`.  One deviation leaves about one shard
/// in six to refill, which is where a pair more per chunk (one more visited
/// and validated node) starts to cost what the refills it saves (a whole
/// inner descent each) would.
fn chunk_len(need: usize, shards: usize) -> usize {
    with_spread(need.div_ceil(shards)).min(need)
}

/// Present keys per key of block room, as measured by a merge's chunks.
#[derive(Clone, Copy, Default)]
struct Density {
    /// Keys the measured chunks found inside their rooms ...
    pairs: u64,
    /// ... out of this many keys of room they covered.
    span: u64,
}

impl Density {
    /// The number of keys `room` consecutive keys are expected to hold.
    fn expect(self, room: u64) -> usize {
        if self.span == 0 {
            return 0;
        }
        (room * self.pairs).div_ceil(self.span) as usize
    }

    /// Both measurements together.
    fn and(self, other: Density) -> Density {
        Density { pairs: self.pairs + other.pairs, span: self.span + other.span }
    }

    /// Account for a chunk pulled from `from`: the keys it holds inside
    /// `room`, out of the part of the room it covered — all of it, unless a
    /// full run stopped inside the room.
    fn measure(&mut self, from: Key, room: u64, run: &[(Key, Value)], full: bool) {
        let inside = run.partition_point(|&(k, _)| k - from < room);
        let covered = match run.last() {
            Some(&(last, _)) if full && inside == run.len() => last - from + 1,
            _ => room,
        };
        self.pairs += inside as u64;
        self.span += covered;
    }
}

/// How many pairs to ask a shard for from `from`: the keys the rest of
/// `from`'s block is expected to hold, plus one deviation so the run usually
/// reaches into the shard's next block and its buffer does not run dry at
/// the block's end; never fewer than `chunk_len(need, live)`, never more
/// than `need`.
fn pull_len(from: Key, need: usize, live: usize, density: Density) -> usize {
    let room = BLOCK - (from & (BLOCK - 1));
    with_spread(density.expect(room)).max(chunk_len(need, live)).min(need)
}

/// One shard's position in a merged scan: the unread rest of the last run
/// pulled from it, and where its keys not yet pulled start.
#[derive(Default)]
struct Cursor {
    run: Vec<(Key, Value)>,
    pos: usize,
    /// `Some(b)`: the shard may own keys ≥ `b` that were not pulled (and
    /// none below `b`); `None`: it holds nothing beyond its run.
    next: Option<Key>,
    /// The stamp of the scan that met the shard and set the fields above.
    met: u64,
}

/// A shard's head in the merge: a key, and whether it is only the shard's
/// bound.  A buffered key comes before an equal bound, whose shard does not
/// own the key; equal bounds go to the frontier, then to the highest shard
/// index, so pulls come in one order whatever order the shards were met in.
type Head = (Key, bool);

impl Cursor {
    /// The shard's head: its smallest buffered key, or, with nothing
    /// buffered, its bound.
    #[inline]
    fn head(&self) -> Option<Head> {
        match self.run.get(self.pos) {
            Some(&(k, _)) => Some((k, false)),
            None => self.next.map(|b| (b, true)),
        }
    }
}

/// A merge's scratch: one cursor per shard, the shards the current scan
/// (the `scans`th) has met, and the density the last merge that used this
/// table measured (the estimate a scan starts from).
#[derive(Default)]
struct Table {
    cursors: Vec<Cursor>,
    met: Vec<usize>,
    scans: u64,
    density: Density,
}

thread_local! {
    /// This thread's idle cursor tables (the `OpBuilder` idiom: a merged scan
    /// allocates nothing once its thread is warm).  A scan *takes* a table
    /// out and puts it back when done — it never holds the `RefCell` across
    /// an inner `scan_into`, so a shard that is itself a `ShardedMap` takes
    /// the next table (or starts one) instead of finding the cell borrowed.
    /// One table per nesting level is all this ever holds, and
    /// [`mapapi::release_oversized`] bounds every run in them.
    static SCRATCH: RefCell<Vec<Table>> = const { RefCell::new(Vec::new()) };
}

/// A [`ConcurrentMap`] block-partitioned over N inner maps.
///
/// See the crate docs for the partitioning and scan-merge semantics.
pub struct ShardedMap {
    name: &'static str,
    shards: Vec<Box<dyn ConcurrentMap>>,
    /// Per-shard cumulative point-op counts (insert/remove/get/rmw
    /// routed to the shard). Striped wait-free counters: routing stays on
    /// the zero-allocation warm path and scales with writer threads.
    point_ops: Vec<Counter>,
    /// Per-shard counts of inner `scan` calls: one per chunk a merged scan
    /// pulled from the shard (none for a shard the scan did not reach, more
    /// than one when it refilled).
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

    /// The index of the shard owning `key`.
    #[inline]
    fn owner_idx(&self, key: Key) -> usize {
        block_owner(key >> BLOCK_BITS, self.shards.len())
    }

    /// The shard owning `key`, counting the routed point op.
    #[inline]
    fn owner(&self, key: Key) -> &dyn ConcurrentMap {
        let i = self.owner_idx(key);
        self.point_ops[i].inc();
        &*self.shards[i]
    }

    /// Ask shard `i` for its first `chunk` pairs with key ≥ `from`, counting
    /// the inner call and measuring the run into `density`: `cursor`'s run
    /// is cleared and refilled in place.
    fn pull(&self, i: usize, from: Key, chunk: usize, cursor: &mut Cursor, density: &mut Density) {
        self.scan_ops[i].inc();
        cursor.run.clear();
        self.shards[i].scan_into(from, chunk, &mut cursor.run);
        cursor.pos = 0;
        let full = cursor.run.len() >= chunk;
        // A full run may end at the largest key, which has no successor.
        cursor.next = match cursor.run.last() {
            Some(&(last, _)) if full => last.checked_add(1),
            _ => None,
        };
        // A bound past the walk, or past a block's last key, may lie in a
        // block the shard does not own; its room says nothing of density.
        if self.owner_idx(from) == i {
            density.measure(from, BLOCK - (from & (BLOCK - 1)), &cursor.run, full);
        }
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
        if table.cursors.len() < n {
            table.cursors.resize_with(n, Cursor::default);
            table.met.reserve(n);
        }
        table.scans += 1;
        table.met.clear();
        // The first key of the first block not walked: no shard not yet met owns
        // a key below it, so it is their head (as shard `n`) until all are met or the walk ends.
        let mut frontier = Some(start);
        let cap = (start >> BLOCK_BITS) + WALK_BLOCKS;
        // Shards that may hold further keys: no short run, not past the walk's end.
        let mut live = n;
        // Chunks are sized from this scan's measurements together with the
        // last merge's on this thread, so the first chunk has an estimate and
        // one tiny room cannot swing the next.
        let mut measured = Density::default();
        // Every shard that may own a key below the smallest head has that
        // key buffered, so a buffered smallest head is the globally smallest
        // key not yet emitted, and so is each key of its run below every
        // other head; keys are disjoint across shards, so the output is
        // duplicate-free.
        loop {
            let (mut first, mut second): (Option<(usize, Head)>, Option<Head>) = (None, None);
            let met = table.met.iter().map(|&i| (i, table.cursors[i].head()));
            for (i, head) in met.chain([(n, frontier.map(|f| (f, true)))]) {
                let Some(head) = head else { continue };
                match first {
                    Some((j, smallest)) if (smallest, Reverse(j)) < (head, Reverse(i)) => {
                        second = Some(second.map_or(head, |s| s.min(head)));
                    }
                    _ => {
                        second = first.map(|(_, smallest)| smallest).or(second);
                        first = Some((i, head));
                    }
                }
            }
            let Some((i, (key, is_bound))) = first else { break };
            if i == n {
                // The walk takes the frontier's block and meets its owner,
                // or, past the cap, every shard, at the frontier: a shard not
                // met before owns no key ≥ `start` below it.
                let block = key >> BLOCK_BITS;
                let owner = block_owner(block, n);
                let meet = if block < cap { owner..owner + 1 } else { 0..n };
                for j in meet {
                    let cursor = &mut table.cursors[j];
                    if cursor.met != table.scans {
                        cursor.run.clear();
                        (cursor.pos, cursor.next, cursor.met) = (0, Some(key), table.scans);
                        table.met.push(j);
                    }
                }
                if block == LAST_BLOCK {
                    live -= n - table.met.len();
                }
                frontier =
                    (block < LAST_BLOCK && table.met.len() < n).then(|| (block + 1) << BLOCK_BITS);
                continue;
            }
            let cursor = &mut table.cursors[i];
            let need = len - (out.len() - base);
            if is_bound {
                let estimate = measured.and(table.density);
                self.pull(i, key, pull_len(key, need, live, estimate), cursor, &mut measured);
                if cursor.next.is_none() {
                    live -= 1;
                }
                continue;
            }
            // The head, then every key of its run below all other heads.
            let rest = &cursor.run[cursor.pos..];
            let below =
                second.map_or(rest.len(), |s| 1 + rest[1..].partition_point(|p| (p.0, false) < s));
            let take = below.min(need);
            out.extend_from_slice(&rest[..take]);
            cursor.pos += take;
            if take == need {
                break;
            }
        }
        if measured.span > 0 {
            table.density = measured;
        }
        // One whole-map scan must not pin its runs on this thread for good.
        for &i in &table.met {
            mapapi::release_oversized(&mut table.cursors[i].run);
        }
        SCRATCH.with_borrow_mut(|idle| idle.push(table));
    }

    fn stats(&self) -> MapStats {
        // Aggregation over quiescent per-shard traversals; `key_depth_sum`
        // sums each key's depth *within its own shard* (N shallow trees, not
        // one deep one — exactly what the sharding buys).
        self.shards.iter().map(|s| s.stats()).sum()
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
            let runs = idle.iter().flat_map(|t| &t.cursors).map(|c| c.run.capacity());
            (idle.len(), runs.max().unwrap_or(0))
        })
    }

    fn scan_calls(m: &ShardedMap) -> Vec<u64> {
        m.shard_loads().iter().map(|l| l.scan_ops).collect()
    }

    #[test]
    fn name_is_canonical_and_interned() {
        let a = oracle_shards(4);
        assert_eq!(a.name(), "shard4(locked-btreemap)");
        let b = oracle_shards(4);
        assert!(std::ptr::eq(a.name(), b.name()), "same name must be interned once");
        assert_eq!(a.shards.len(), 4);
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

    /// Key sets spread by block: dense keys, stride-8 keys and stride-64 keys
    /// over 1024 blocks each land on every shard, every shard within ±25 % of
    /// the mean — for every shard count from 2 to 16.
    #[test]
    fn dense_and_strided_keys_spread_evenly_over_the_shards() {
        for n in 2..=16usize {
            for (what, stride) in [("dense", 1), ("stride-8", 8), ("stride-64", 64)] {
                let mut owned = vec![0u64; n];
                for block in 1..=1024u64 {
                    for k in (block * BLOCK..(block + 1) * BLOCK).step_by(stride) {
                        owned[block_owner(k >> BLOCK_BITS, n)] += 1;
                    }
                }
                let mean = owned.iter().sum::<u64>() as f64 / n as f64;
                assert!(
                    owned.iter().all(|&c| (c as f64 - mean).abs() <= 0.25 * mean),
                    "{what} keys over {n} shards: {owned:?}"
                );
            }
        }
        // The multiply-high reaches every index and never `shards` itself.
        let hit: std::collections::BTreeSet<usize> = (0..64).map(|b| block_owner(b, 7)).collect();
        assert_eq!(hit.into_iter().collect::<Vec<_>>(), (0..7).collect::<Vec<_>>());
        assert_eq!(block_owner(LAST_BLOCK, 1), 0);
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
        let keys = 1..=5 * BLOCK; // five blocks
        for k in keys.clone() {
            m.insert(k, k); // 5·BLOCK point ops
        }
        for k in keys.clone() {
            assert_eq!(m.get(k), Some(k)); // as many more
        }
        // The first 16 keys lie in block 0: the scan asks its owner alone.
        let home = m.owner_idx(1);
        assert_eq!(m.scan(1, 16), (1..=16).map(|k| (k, k)).collect::<Vec<_>>());

        // The per-shard breakdown sums exactly to stats().
        let per: Vec<MapStats> = m.shards.iter().map(|s| s.stats()).collect();
        assert_eq!(per.len(), 4);
        let agg = m.stats();
        assert_eq!(per.iter().map(|s| s.key_count).sum::<u64>(), agg.key_count);
        assert_eq!(per.iter().map(|s| s.key_sum).sum::<u128>(), agg.key_sum);
        assert!(per.iter().all(|s| s.key_count > 0), "5 blocks must reach all 4 shards: {per:?}");

        // shard_loads: per-shard point ops sum to the total routed, and the
        // scan made inner calls on block 0's owner and nowhere else.
        let loads = ConcurrentMap::shard_loads(&m);
        assert_eq!(loads.len(), 4);
        assert_eq!(loads.iter().map(|l| l.point_ops).sum::<u64>(), 2 * 5 * BLOCK);
        for (i, l) in loads.iter().enumerate() {
            assert_eq!(l.scan_ops > 0, i == home, "{loads:?}");
        }

        // Routing agrees with where the keys actually landed: replaying the
        // ownership map reproduces each shard's key count.
        let mut owned = [0u64; 4];
        for k in keys {
            owned[m.owner_idx(k)] += 1;
        }
        for (i, st) in per.iter().enumerate() {
            assert_eq!(owned[i], st.key_count, "shard {i}");
        }

        // The trait default on an unsharded structure: untracked loads.
        let plain = LockedBTreeMap::new();
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

    #[test]
    fn a_pull_is_sized_for_the_rest_of_its_block_between_the_share_and_the_need() {
        let half = Density { pairs: 1, span: 2 };
        let block = 3 * BLOCK;
        // A whole block of room (128 keys) at half density: 64 expected,
        // plus one deviation.
        assert_eq!(pull_len(block, 256, 8, half), 64 + 8);
        // 16 keys of room left: 8 expected, plus 3.
        assert_eq!(pull_len(block + BLOCK - 16, 64, 16, half), 8 + 3);
        // Never below the share of what is still needed ...
        assert_eq!(pull_len(block + BLOCK - 1, 64, 8, half), chunk_len(64, 8));
        assert_eq!(pull_len(block, 64, 8, Density::default()), chunk_len(64, 8));
        // ... and never above the need.
        assert_eq!(pull_len(block, 20, 8, half), 20);
        assert_eq!(pull_len(u64::MAX, usize::MAX, 8, half), chunk_len(usize::MAX, 8));
    }

    #[test]
    fn density_counts_the_keys_inside_the_room_a_run_covered() {
        let run = |keys: &[u64]| keys.iter().map(|&k| (k, k)).collect::<Vec<_>>();
        let mut d = Density::default();
        // Short run: it covered the whole room, 2 of whose 8 keys it holds.
        d.measure(10, 8, &run(&[11, 13]), false);
        assert_eq!((d.pairs, d.span), (2, 8));
        // Full run reaching past the room: the room is covered, and only
        // the keys inside it count.
        d.measure(10, 8, &run(&[10, 12, 14, 70]), true);
        assert_eq!((d.pairs, d.span), (2 + 3, 8 + 8));
        // Full run stopping inside the room: covered up to its last key.
        d.measure(10, 8, &run(&[10, 11, 12]), true);
        assert_eq!((d.pairs, d.span), (5 + 3, 16 + 3));
        assert_eq!(Density { pairs: 3, span: 4 }.expect(64), 48);
        assert_eq!(Density::default().expect(64), 0);
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
        let before = scan_calls(&m);
        assert_eq!(m.scan(1, usize::MAX).len(), 20_000);
        let calls: Vec<u64> = scan_calls(&m).iter().zip(&before).map(|(a, b)| a - b).collect();
        assert_eq!(calls, [1, 1]);
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

    /// A merge's work follows the shards it meets, not N: on 256 shards and
    /// 50 %-dense keys a scan of `len ≤ 64` pairs covers about `2·len` keys,
    /// so it meets the owners of the one or two blocks it reaches and asks
    /// each once — from 128 consecutive starts (every offset in a block),
    /// from the thread's first scan on.
    #[test]
    fn short_scans_meet_only_the_shards_of_their_blocks() {
        let m = oracle_shards(256);
        for k in (2..=100_000u64).step_by(2) {
            m.insert(k, k);
        }
        // Inner calls so far per shard, brought up to date for the shards
        // each scan met; a shard asked without being met shows at the end.
        let mut seen = vec![0; 256];
        let mut worst = (0, 0);
        for len in 1..=64usize {
            for start in 50_000..50_000 + 128 {
                let got = m.scan(start, len);
                let met = SCRATCH.with_borrow(|idle| idle[0].met.clone());
                let calls: u64 = met
                    .iter()
                    .map(|&i| {
                        m.scan_ops[i].get() - std::mem::replace(&mut seen[i], m.scan_ops[i].get())
                    })
                    .sum();
                let first = start.next_multiple_of(2);
                assert!(got.iter().map(|p| p.0).eq((0..len as u64).map(|i| first + 2 * i)));
                assert!(
                    met.len() <= 2 && calls <= 2,
                    "scan({start}, {len}) met {met:?}, asked {calls}"
                );
                worst = worst.max((met.len(), calls));
            }
        }
        assert_eq!(scan_calls(&m), seen, "only met shards are asked");
        assert_eq!(worst, (2, 2), "some scan crossed a block boundary");
    }

    /// A full run may end at the largest key, which has no successor to
    /// refill from: the shard is then exhausted, not asked again from a
    /// wrapped-around 0.
    #[test]
    fn a_full_run_ending_at_the_largest_key_is_not_refilled() {
        let m = oracle_shards(8);
        let home = m.owner_idx(u64::MAX);
        for k in u64::MAX - 3..=u64::MAX {
            m.insert(k, k);
        }
        m.insert(5, 5);
        let mut cursor = Cursor::default();
        m.pull(home, u64::MAX - 3, 4, &mut cursor, &mut Density::default());
        assert_eq!(cursor.run.len(), 4, "the run came back full ...");
        assert_eq!(cursor.next, None, "... and leaves no bound to refill from");
        // Through the merge: the top block is the last, so its owner is the
        // only shard asked, once.
        let expected: Vec<(u64, u64)> = (u64::MAX - 3..=u64::MAX).map(|k| (k, k)).collect();
        assert_eq!(m.scan(u64::MAX - 3, 16), expected);
        assert_eq!(scan_calls(&m).iter().sum::<u64>(), 2);
        assert_eq!(m.shard_loads()[home].scan_ops, 2);
    }

    /// A partition can be skewed (here: every key on one shard).  The refill
    /// is sized for the shards still holding keys, so once the others came
    /// back short the hot shard is asked for everything still needed: one
    /// extra inner call, not one per `need/N` pairs.
    #[test]
    fn a_skewed_partition_refills_the_hot_shard_once() {
        let m = oracle_shards(8);
        let hot: Vec<u64> = (1..).filter(|&k| m.owner_idx(k) == 3).take(6000).collect();
        for &k in &hot {
            m.insert(k, k);
        }
        let got = m.scan(1, 4096);
        assert_eq!(got.iter().map(|p| p.0).collect::<Vec<_>>(), hot[..4096]);
        // The scan covers ~500 blocks, so its bound reaches every shard.
        assert_eq!(scan_calls(&m), [1, 1, 1, 2, 1, 1, 1, 1]);
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
