//! The cross-shard-boundary scan tests: the lazy k-way merge must return
//! globally sorted, duplicate-free results no matter how the keys scatter
//! over the shards, and must read little more than it returns — counted by
//! wrapping each shard in a `CountingShard`.  The generic `mapapi` suites run
//! on the sharded names (homogeneous, nested, over the oracle, and a mixed
//! set of four algorithms) in `tests/cross_structure.rs`'s battery.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mapapi::reference::LockedBTreeMap;
use mapapi::suites::*;
use mapapi::{ConcurrentMap, Key, MapStats, Value};
use shard::ShardedMap;

fn sharded_avl(n: usize) -> ShardedMap {
    ShardedMap::from_fn(n, |_| Box::new(pathcas_ds::PathCasAvl::new()))
}

/// The differential on a range large enough, with probes long enough (up to
/// 512 pairs over 4096 keys), that shards drain a chunk and are asked again:
/// the refill path, not just the first pull of each shard, must agree with
/// the oracle.  A refill is an inner call that starts right above the last
/// key of the same shard's previous run, which came back full; a probe
/// refills a shard that owns two blocks of its range, since a chunk is sized
/// for the rest of one block.
#[test]
fn sharded_scans_that_refill_match_the_oracle() {
    for (n, seed) in [(2usize, 0xD205u64), (8, 0xD202)] {
        let tally = Arc::new(ScanTally::default());
        let m = counting_avl(n, &tally);
        check_scan_against_oracle(&m, 4096, seed);
        let log = tally.log.lock().unwrap();
        let refills = log
            .iter()
            .enumerate()
            .filter(|&(j, call)| {
                let previous = log[..j].iter().rev().find(|p| p.shard == call.shard);
                previous.and_then(|p| p.full_last).and_then(|k| k.checked_add(1)) == Some(call.from)
            })
            .count();
        assert!(refills > 0, "shard{n}: no probe refilled in {} inner calls", log.len());
    }
}

/// A shard that counts what its scans were asked for and what they returned,
/// and logs every call.
struct CountingShard {
    inner: Box<dyn ConcurrentMap>,
    id: usize,
    tally: Arc<ScanTally>,
}

#[derive(Default)]
struct ScanTally {
    calls: AtomicU64,
    asked: AtomicU64,
    returned: AtomicU64,
    log: Mutex<Vec<Call>>,
}

/// One inner scan call: the shard, the key it started from, and the last
/// key of the run if it came back full.
struct Call {
    shard: usize,
    from: Key,
    full_last: Option<Key>,
}

fn counting(n: usize, tally: &Arc<ScanTally>, inner: fn() -> Box<dyn ConcurrentMap>) -> ShardedMap {
    ShardedMap::from_fn(n, |id| {
        Box::new(CountingShard { inner: inner(), id, tally: Arc::clone(tally) })
    })
}

fn counting_avl(n: usize, tally: &Arc<ScanTally>) -> ShardedMap {
    counting(n, tally, || Box::new(pathcas_ds::PathCasAvl::new()))
}

impl ConcurrentMap for CountingShard {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn insert(&self, key: Key, value: Value) -> bool {
        self.inner.insert(key, value)
    }
    fn remove(&self, key: Key) -> bool {
        self.inner.remove(key)
    }
    fn get(&self, key: Key) -> Option<Value> {
        self.inner.get(key)
    }
    fn scan_into(&self, start: Key, len: usize, out: &mut Vec<(Key, Value)>) {
        let base = out.len();
        self.inner.scan_into(start, len, out);
        let returned = out.len() - base;
        self.tally.calls.fetch_add(1, Ordering::Relaxed);
        self.tally.asked.fetch_add(len as u64, Ordering::Relaxed);
        self.tally.returned.fetch_add(returned as u64, Ordering::Relaxed);
        let full_last = out.last().filter(|_| returned == len && len > 0).map(|p| p.0);
        self.tally.log.lock().unwrap().push(Call { shard: self.id, from: start, full_last });
    }
    fn stats(&self) -> MapStats {
        self.inner.stats()
    }
}

/// A scan meets the shards lazily, and each shard's first inner call starts
/// at its bound: its first owned key ≥ `start` in the 32 blocks of 128 keys
/// from `start`'s, or, owning none of them, the first block past them; a
/// shard that owns no block from `start`'s to the last is never asked.  Each scan wants more pairs than
/// the map holds, so it meets every shard it can.  Ownership is read off the
/// routing: a `get` counts a point op on its key's owner.
#[test]
fn first_pulls_start_at_each_shards_first_owned_key() {
    const LAST_BLOCK: u64 = u64::MAX >> 7;
    for n in [1usize, 3, 8, 64] {
        for start in [0u64, 1, 1000, 12_345_678, u64::MAX - 5000, u64::MAX - 3] {
            let tally = Arc::new(ScanTally::default());
            let m = counting(n, &tally, || Box::new(LockedBTreeMap::new()));
            let owner = |k: Key| {
                let before = m.shard_loads();
                m.get(k);
                m.shard_loads().iter().zip(&before).position(|(a, b)| a.point_ops > b.point_ops)
            };
            // Keys in the walked blocks and past them, so first pulls return
            // pairs and some shards refill.
            let mut keys: Vec<Key> = (0..80).map(|j| start.saturating_add(1 + 97 * j)).collect();
            keys.dedup();
            for &k in &keys {
                m.insert(k, k);
            }
            assert_eq!(m.scan(start, usize::MAX), keys.iter().map(|&k| (k, k)).collect::<Vec<_>>());

            let block = start >> 7;
            let walked: Vec<Key> = (block..block + 32)
                .take_while(|&b| b <= LAST_BLOCK)
                .map(|b| start.max(b << 7))
                .collect();
            let past = (block + 32 <= LAST_BLOCK).then_some((block + 32) << 7);
            let log = tally.log.lock().unwrap();
            for i in 0..n {
                let expected = walked.iter().copied().find(|&k| owner(k) == Some(i)).or(past);
                let first = log.iter().find(|c| c.shard == i).map(|c| c.from);
                assert_eq!(first, expected, "shard {i} of {n} from {start}");
            }
        }
    }
}

/// The over-read itself: a merged scan of `len` pairs over N shards may read
/// at most `2·len + 2·N` pairs in at most `2·N` inner calls, whatever `len`
/// is — asking every shard for `len` reads `N·len`.  Keys are drawn at
/// random from a sparse range (about one per 420 blocks), so every shard's
/// bound sits near `start` and the merge asks all of them, as a hash
/// partition of single keys would — at N = 256 most of them met together
/// where the block walk stops.
#[test]
fn merged_scans_read_little_more_than_they_return() {
    for n in [8usize, 256] {
        let tally = Arc::new(ScanTally::default());
        let m = counting_avl(n, &tally);
        let oracle = LockedBTreeMap::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..80_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = 1 + (x >> 24) % (1 << 32);
            assert_eq!(m.insert(k, k), oracle.insert(k, k));
        }
        for len in [8usize, 36, 64, 4096] {
            for i in 0..24u64 {
                let start = 1 + i * (1 << 27) + i;
                let got = m.scan(start, len);
                let [calls, asked, returned] = [&tally.calls, &tally.asked, &tally.returned]
                    .map(|c| c.swap(0, Ordering::Relaxed) as usize);
                assert_eq!(got, oracle.scan(start, len), "shard{n}: scan({start}, {len})");
                assert_eq!(got.len(), len, "the range holds more than {len} keys past {start}");
                assert!(
                    calls <= 2 * n && asked <= 2 * len + 2 * n && returned <= asked,
                    "shard{n}: scan({start}, {len}): {calls} inner calls asked for {asked} pairs, got {returned}"
                );
            }
        }
    }
}

/// The other side of the block partition: on 50 %-dense keys a scan of
/// `len ≤ 64` pairs covers about `2·len` keys, so it reaches one or two
/// blocks and asks at most `⌈len/32⌉ + 2` chunks — what blocks as small as
/// 64 keys would allow, one chunk per block reached plus one refill — where
/// a hash partition of single keys asks every shard.  Every length, from 128
/// consecutive starts (every offset in a block), on a cold thread and then a
/// warm one.
#[test]
fn short_scans_over_dense_keys_ask_only_the_shards_of_their_blocks() {
    let tally = Arc::new(ScanTally::default());
    let m = counting_avl(8, &tally);
    for k in (2..=20_000u64).step_by(2) {
        m.insert(k, k);
    }
    let mut worst = 0;
    for round in ["cold", "warm"] {
        for len in 1..=64usize {
            for start in 1000..1000 + 128 {
                let got = m.scan(start, len);
                let calls = tally.calls.swap(0, Ordering::Relaxed) as usize;
                let first = start.next_multiple_of(2);
                let expected: Vec<(u64, u64)> =
                    (0..len as u64).map(|i| (first + 2 * i, first + 2 * i)).collect();
                assert_eq!(got, expected);
                assert!(
                    calls <= len.div_ceil(32) + 2,
                    "{round}: scan({start}, {len}) made {calls} inner calls"
                );
                worst = worst.max(calls);
            }
        }
    }
    assert!(worst >= 2, "some scan crossed a block boundary");
}

/// The dedicated cross-shard case: dense and sparse key sets whose scans
/// must cross shard boundaries constantly — with 8 shards, consecutive
/// 128-key blocks land on different shards, so every merged window that
/// crosses a block boundary is assembled from several runs.  Asserts global
/// sortedness, duplicate freedom, and exact agreement with the expected
/// window.
#[test]
fn cross_shard_scans_are_sorted_and_duplicate_free() {
    let m = sharded_avl(8);
    let n: u64 = 2_000;
    for k in 1..=n {
        assert!(m.insert(k, k * 10));
    }
    for (start, len) in [(1u64, 64usize), (137, 100), (n - 50, 200), (1, n as usize + 10)] {
        let got = m.scan(start, len);
        // Strictly ascending keys <=> sorted AND duplicate-free.
        for w in got.windows(2) {
            assert!(w[0].0 < w[1].0, "scan({start},{len}) not strictly sorted: {w:?}");
        }
        let expected: Vec<(u64, u64)> = (start.max(1)..=n).take(len).map(|k| (k, k * 10)).collect();
        assert_eq!(got, expected, "scan({start},{len}) window mismatch");
    }
    // Sparse keys: gaps force the merge to resume past exhausted runs.
    let sparse = sharded_avl(8);
    let keys: Vec<u64> = (1..=600u64).map(|i| i * 7 + (i % 5)).collect();
    for &k in &keys {
        sparse.insert(k, k);
    }
    let got = sparse.scan(50, 300);
    for w in got.windows(2) {
        assert!(w[0].0 < w[1].0, "sparse scan not strictly sorted: {w:?}");
    }
    let mut expected: Vec<u64> = keys.iter().copied().filter(|&k| k >= 50).collect();
    expected.sort_unstable();
    expected.truncate(300);
    assert_eq!(got.iter().map(|&(k, _)| k).collect::<Vec<_>>(), expected);
}
