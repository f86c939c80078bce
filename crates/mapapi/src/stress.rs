//! Multi-threaded stress suites with Setbench-style keysum validation.
//!
//! The PathCAS paper validates its implementations by checking consistency
//! between the final tree contents and the return values of all updates
//! recorded throughout the experiment (Appendix F: both published lock-free
//! internal BSTs it examined *fail* this check).  We reproduce that
//! methodology: every thread accumulates the sum/count of keys whose
//! insertion it observed succeed minus those whose deletion it observed
//! succeed; at quiescence the structure must contain exactly that multiset.
//!
//! Every multi-threaded loop here also carries a progress oracle: each worker
//! publishes how many operations it has completed, and the run waits for its
//! workers (the timed loops, once `stop` is raised) only while that count
//! moves: one that stands still for 5 s aborts the process, naming the map
//! and the per-thread counts.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{ConcurrentMap, Key, Value};

/// Outcome of a stress run, for additional assertions by callers.
#[derive(Debug, Clone, Copy)]
pub struct StressOutcome {
    /// Total operations attempted across all threads.
    pub total_ops: u64,
    /// Net number of keys the threads believe are present.
    pub expected_count: i64,
    /// Net key sum the threads believe is present.
    pub expected_sum: i128,
}

/// Run `threads` worker threads performing a random mix of operations for
/// `duration`, then validate the final contents against the per-thread
/// success records.  `update_percent` is split evenly between inserts and
/// deletes; the rest are `get`s.
///
/// Panics (with the map's name) on any inconsistency.
pub fn stress_keysum<M: ConcurrentMap + ?Sized>(
    map: &M,
    threads: usize,
    key_range: Key,
    update_percent: u32,
    duration: Duration,
    seed: u64,
) -> StressOutcome {
    stress_keysum_with(map, threads, key_range, update_percent, duration, seed, &|_| {})
}

/// [`stress_keysum`] with a hook: worker `t` calls `on_worker_start(t)` on
/// its own thread before its first operation (e.g. to put half the workers
/// on a different commit path of the structure under test).
pub fn stress_keysum_with<M: ConcurrentMap + ?Sized>(
    map: &M,
    threads: usize,
    key_range: Key,
    update_percent: u32,
    duration: Duration,
    seed: u64,
    on_worker_start: &(dyn Fn(usize) + Sync),
) -> StressOutcome {
    // Account for keys already present (e.g. from a prefill phase).
    let initial = map.stats();

    #[derive(Default)]
    struct ThreadRecord {
        sum: i128,
        count: i64,
        ops: u64,
    }

    let records = run_workers(map.name(), threads, Some(duration), |t, done, stop| {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(t as u64 * 0x9E37));
        let mut rec = ThreadRecord::default();
        on_worker_start(t);
        // ORDERING: Relaxed — see `run_workers`.
        while !stop.load(Ordering::Relaxed) {
            let key = rng.gen_range(1..=key_range);
            let roll = rng.gen_range(0..100u32);
            if roll < update_percent / 2 {
                if map.insert(key, key.wrapping_mul(31)) {
                    rec.sum += key as i128;
                    rec.count += 1;
                }
            } else if roll < update_percent {
                if map.remove(key) {
                    rec.sum -= key as i128;
                    rec.count -= 1;
                }
            } else {
                let _ = map.get(key);
            }
            rec.ops += 1;
            done.publish(rec.ops);
        }
        rec
    });

    let expected_sum: i128 = initial.key_sum as i128 + records.iter().map(|r| r.sum).sum::<i128>();
    let expected_count: i64 = initial.key_count as i64 + records.iter().map(|r| r.count).sum::<i64>();
    let total_ops: u64 = records.iter().map(|r| r.ops).sum();

    let s = map.stats();
    assert!(expected_count >= 0, "{}: negative net key count?!", map.name());
    assert_eq!(
        s.key_count as i64,
        expected_count,
        "{}: keysum validation failed (count): structure has {} keys, threads recorded {}",
        map.name(),
        s.key_count,
        expected_count
    );
    assert_eq!(
        s.key_sum as i128,
        expected_sum,
        "{}: keysum validation failed (sum)",
        map.name()
    );

    StressOutcome { total_ops, expected_count, expected_sum }
}

/// [`ConcurrentMap::scan_into`] under churn: `writers` threads insert and
/// remove random keys of `1..=key_range` while `scanners` threads scan random
/// windows — up to half the range long, so that validated scans do restart —
/// into a vector that already holds a prefix.  After every call the prefix
/// must be intact and the appended tail strictly ascending from `start`, at
/// most `len` pairs, each with the value the writers store: a restart that
/// left a failed attempt's pairs behind, or cut into the prefix, fails one
/// of these.  `map` starts empty (every other key is inserted first); returns
/// the number of scans made.
pub fn stress_scan_into<M: ConcurrentMap + ?Sized>(
    map: &M,
    writers: usize,
    scanners: usize,
    key_range: Key,
    duration: Duration,
    seed: u64,
) -> u64 {
    const PREFIX: [(Key, Value); 2] = [(u64::MAX, 1), (0, 2)];
    for key in (1..=key_range).step_by(2) {
        assert!(map.insert(key, key.wrapping_mul(31)), "{}: the map must start empty", map.name());
    }
    let scans = run_workers(map.name(), writers + scanners, Some(duration), |t, done, stop| {
        let mut ops = 0u64;
        if t < writers {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(t as u64 * 0x9E37));
            // ORDERING: Relaxed — see `run_workers`.
            while !stop.load(Ordering::Relaxed) {
                let key = rng.gen_range(1..=key_range);
                if rng.gen_bool(0.5) {
                    map.insert(key, key.wrapping_mul(31));
                } else {
                    map.remove(key);
                }
                ops += 1;
                done.publish(ops);
            }
            return 0;
        }
        let mut rng = StdRng::seed_from_u64(seed ^ (0x5CA0 + (t - writers) as u64));
        let mut out = Vec::new();
        // ORDERING: Relaxed — as in the writers.
        while !stop.load(Ordering::Relaxed) {
            let start = rng.gen_range(1..=key_range);
            let len = rng.gen_range(1..=(key_range as usize / 2).max(1));
            out.clear();
            out.extend_from_slice(&PREFIX);
            map.scan_into(start, len, &mut out);
            let name = map.name();
            assert_eq!(out[..PREFIX.len()], PREFIX, "{name}: scan_into cut into the prefix");
            let tail = &out[PREFIX.len()..];
            assert!(tail.len() <= len, "{name}: {} pairs for len {len}", tail.len());
            assert!(tail.first().is_none_or(|p| p.0 >= start), "{name}: tail starts below {start}");
            assert!(tail.windows(2).all(|w| w[0].0 < w[1].0), "{name}: tail not ascending");
            assert!(tail.iter().all(|&(k, v)| v == k.wrapping_mul(31)), "{name}: torn pair");
            ops += 1;
            done.publish(ops);
        }
        ops
    });
    scans.into_iter().sum()
}

/// Run `worker(t, done, stop)` on `threads` scoped threads, `t` in
/// `0..threads`, and return what each returns, in order of `t`.  A worker
/// calls `done.publish(n)` after its `n`th operation.  The workers start
/// together; with a `window`, `stop` is raised once it has passed, and each
/// worker must poll it; without one they run to completion.  Either way the
/// wait for them is under the progress oracle ([`await_workers`]).
fn run_workers<R: Send>(
    name: &str,
    threads: usize,
    window: Option<Duration>,
    worker: impl Fn(usize, &OpCount, &AtomicBool) -> R + Sync,
) -> Vec<R> {
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(threads + 1);
    let progress: Vec<OpCount> = (0..threads).map(|_| OpCount::default()).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = progress
            .iter()
            .enumerate()
            .map(|(t, done)| {
                let (worker, barrier, stop) = (&worker, &barrier, &stop);
                s.spawn(move || {
                    barrier.wait();
                    worker(t, done, stop)
                })
            })
            .collect();
        barrier.wait();
        if let Some(window) = window {
            std::thread::sleep(window);
            // ORDERING: Relaxed — the workers poll the flag in a loop and
            // read nothing it publishes; the joins below synchronize what
            // they return.
            stop.store(true, Ordering::Relaxed);
        }
        await_workers(name, &progress, || handles.iter().all(|h| h.is_finished()));
        handles.into_iter().map(|h| h.join().expect("stress worker panicked")).collect()
    })
}

/// How long the workers' summed op count may stand still while a worker is
/// still running.  A worker that is not stuck completes an op far sooner
/// (or returns), so a count that stays put this long means an op that never
/// completes: a livelock, a deadlock or a lost wake-up.
const STALL_LIMIT: Duration = Duration::from_secs(5);

/// One worker's count of completed operations, alone on its 128 B (the
/// adjacent-line prefetch pair), so that no worker's store shares a line
/// with another's.
#[derive(Default)]
#[repr(align(128))]
struct OpCount(AtomicU64);

impl OpCount {
    fn publish(&self, ops: u64) {
        // ORDERING: Relaxed — a progress gauge with one writer, read only by
        // `await_workers`; it orders no other memory, and the watchdog needs
        // only that a new count becomes visible eventually.
        self.0.store(ops, Ordering::Relaxed);
    }

    fn read(&self) -> u64 {
        // ORDERING: Relaxed — see `publish`.
        self.0.load(Ordering::Relaxed)
    }
}

/// Wait until `all_finished` holds (a timed loop calls this once it has
/// raised `stop`).  If the summed op count of `progress` stands still for
/// [`STALL_LIMIT`] meanwhile, print `name` and the per-thread counts and
/// abort the process: a panic here would unwind into `thread::scope`, which
/// would then wait forever on the stuck workers.
fn await_workers(name: &str, progress: &[OpCount], all_finished: impl Fn() -> bool) {
    let sum = || progress.iter().map(OpCount::read).sum::<u64>();
    let (mut last, mut moved_at) = (sum(), Instant::now());
    while !all_finished() {
        std::thread::sleep(Duration::from_millis(1));
        let now_sum = sum();
        match still_progressing(last, now_sum, moved_at, Instant::now(), STALL_LIMIT) {
            Some(at) => (last, moved_at) = (now_sum, at),
            None => {
                let counts: Vec<u64> = progress.iter().map(OpCount::read).collect();
                // Straight to the stderr handle: the test harness captures
                // `eprintln!` per test and would lose it with the process.
                let _ = writeln!(
                    std::io::stderr(),
                    "{name}: no operation completed for {STALL_LIMIT:?}; per-thread op counts {counts:?}"
                );
                std::process::abort();
            }
        }
    }
}

/// The stall decision.  The summed op count was `last` when it last moved,
/// at `moved_at`, and reads `sum` at `now`.  Returns when it last moved as
/// of `now`, or `None` once it has stood still for `limit`.
fn still_progressing(
    last: u64,
    sum: u64,
    moved_at: Instant,
    now: Instant,
    limit: Duration,
) -> Option<Instant> {
    if sum != last {
        Some(now)
    } else if now.duration_since(moved_at) < limit {
        Some(moved_at)
    } else {
        None
    }
}

/// Derive the prefill RNG seed from a trial's base seed (`PATHCAS_SEED`).
/// Every prefill site uses this one derivation, so "same base seed ⇒ same
/// prefilled contents" holds across the harness, the workload engine, and
/// the reproducibility tests.
pub fn prefill_seed(base_seed: u64) -> u64 {
    base_seed ^ 0xF00D
}

/// A prefill helper shared by tests and the benchmark harness: inserts
/// random keys until the map holds `target` keys.
pub fn prefill<M: ConcurrentMap + ?Sized>(map: &M, key_range: Key, target: u64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut present = map.stats().key_count;
    while present < target {
        let key = rng.gen_range(1..=key_range);
        if map.insert(key, key) {
            present += 1;
        }
    }
}

/// Deterministic multi-threaded smoke test: each thread owns a disjoint key
/// stripe, inserts it, verifies it, deletes half of it, and verifies again.
/// Catches gross races without any timing dependence.
pub fn stress_disjoint_stripes<M: ConcurrentMap + ?Sized>(map: &M, threads: usize, keys_per_thread: u64) {
    run_workers(map.name(), threads, None, |t, done, _| {
        let base = t as u64 * keys_per_thread + 1;
        let stripe = base..base + keys_per_thread;
        let mut ops = 0u64;
        let mut step = || {
            ops += 1;
            done.publish(ops);
        };
        for k in stripe.clone() {
            assert!(map.insert(k, k * 2), "{}: stripe insert {}", map.name(), k);
            step();
        }
        for k in stripe.clone() {
            assert_eq!(map.get(k), Some(k * 2));
            step();
        }
        for k in stripe.clone().step_by(2) {
            assert!(map.remove(k), "{}: stripe remove {}", map.name(), k);
            step();
        }
        for k in stripe {
            let expect = Some(k * 2).filter(|_| (k - base) % 2 == 1);
            assert_eq!(map.get(k), expect, "{}: stripe post-check {}", map.name(), k);
            step();
        }
    });
    let total = threads as u64 * keys_per_thread;
    let s = map.stats();
    assert_eq!(s.key_count, total / 2, "{}: stripe final count", map.name());
}

/// The lost-update litmus: `threads` workers each add 1 to one key
/// `per_thread` times through [`ConcurrentMap::rmw`], and the sum must be
/// exact.  The trait's composed remove + insert loses increments here.
/// Worker `t` calls `on_worker_start(t)` first, as in [`stress_keysum_with`].
/// The map must not hold key 42.
pub fn stress_rmw_increments<M: ConcurrentMap + ?Sized>(
    map: &M,
    threads: usize,
    per_thread: u64,
    on_worker_start: &(dyn Fn(usize) + Sync),
) {
    const KEY: Key = 42;
    assert!(map.insert(KEY, 0), "{}: the map must not hold key {KEY}", map.name());
    run_workers(map.name(), threads, None, |t, done, _| {
        on_worker_start(t);
        for ops in 1..=per_thread {
            map.rmw(KEY, &mut |v| v.unwrap() + 1);
            done.publish(ops);
        }
    });
    let total = threads as u64 * per_thread;
    assert_eq!(map.get(KEY), Some(total), "{}: an increment was lost", map.name());
}

/// The value litmus: a `get` racing a removal must never return another
/// key's value.  A two-child removal in an internal tree writes the
/// successor's key and value into the removed node, so a `get` that matched
/// the key, then read the value after such a commit, would return the
/// successor's value under the removed key.
///
/// Keys `1..=48` go in midpoints first, so that even a tree that does not
/// rebalance is bushy and most removed nodes have two children; every value
/// is a fixed function of its key.  Two writers remove and re-insert keys
/// over the band, out of phase, while two readers assert that each `get(k)`
/// is `None` or `k`'s own value, for `duration`.  At quiescence every key is
/// back with its own value.  Workers `0, 1` write and `2, 3` read; worker
/// `t` calls `on_worker_start(t)` first.  `map` starts empty.
pub fn stress_values_belong_to_their_keys<M: ConcurrentMap + ?Sized>(
    map: &M,
    duration: Duration,
    on_worker_start: &(dyn Fn(usize) + Sync),
) {
    const BAND: Key = 48;
    let value_of = |key: Key| key * 1_000_003 + 17;
    let mut order = Vec::with_capacity(BAND as usize);
    let mut spans = vec![(1, BAND)];
    while let Some((lo, hi)) = spans.pop() {
        if lo <= hi {
            let mid = lo + (hi - lo) / 2;
            order.push(mid);
            spans.push((lo, mid - 1));
            spans.push((mid + 1, hi));
        }
    }
    for &k in &order {
        assert!(map.insert(k, value_of(k)), "{}: the map must start empty", map.name());
    }

    run_workers(map.name(), 4, Some(duration), |t, done, stop| {
        on_worker_start(t);
        let mut ops = 0u64;
        if t < 2 {
            let mut sweep = 0u64;
            // ORDERING: Relaxed — see `run_workers`.
            while !stop.load(Ordering::Relaxed) {
                // Out of phase, so that each key's neighbours keep coming
                // and going too.
                let skip = (sweep + t as u64 * 7) % BAND;
                for &k in order.iter().skip(skip as usize) {
                    if map.remove(k) {
                        map.insert(k, value_of(k));
                    }
                    ops += 1;
                    done.publish(ops);
                }
                sweep += 1;
            }
            return;
        }
        // ORDERING: Relaxed — see `run_workers`.
        while !stop.load(Ordering::Relaxed) {
            for k in 1..=BAND {
                if let Some(v) = map.get(k) {
                    assert_eq!(v, value_of(k), "{}: get({k}) returned another key's value", map.name());
                }
                ops += 1;
                done.publish(ops);
            }
        }
    });
    for k in 1..=BAND {
        assert_eq!(map.get(k), Some(value_of(k)), "{}: key {k} after the churn", map.name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::LockedBTreeMap;

    #[test]
    fn oracle_survives_stress() {
        let m = LockedBTreeMap::new();
        prefill(&m, 128, 64, 7);
        let out = stress_keysum(&m, 3, 128, 50, Duration::from_millis(100), 1);
        assert!(out.total_ops > 0);
    }

    #[test]
    fn oracle_scans_into_a_prefix_under_churn() {
        let m = LockedBTreeMap::new();
        assert!(stress_scan_into(&m, 2, 1, 256, Duration::from_millis(60), 3) > 0);
    }

    #[test]
    fn the_watchdog_passes_advancing_counts_and_fails_a_frozen_one() {
        let limit = Duration::from_millis(50);
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        // Advancing: samples 100 ms apart, twice the limit, never stall.
        let mut moved_at = t0;
        for i in 1..10 {
            moved_at = still_progressing(i - 1, i, moved_at, at(100 * i), limit)
                .expect("an advancing count must pass");
            assert_eq!(moved_at, at(100 * i));
        }
        // Frozen: passes inside the limit, fails at and past it.
        assert_eq!(still_progressing(7, 7, t0, at(49), limit), Some(t0));
        assert_eq!(still_progressing(7, 7, t0, at(50), limit), None);
        assert_eq!(still_progressing(7, 7, t0, at(500), limit), None);
    }

    #[test]
    fn oracle_survives_stripes() {
        let m = LockedBTreeMap::new();
        stress_disjoint_stripes(&m, 4, 100);
    }
}
