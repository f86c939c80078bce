//! The phased scenario executor: **load → warmup → timed run**, one worker
//! loop for every mode.  Each worker draws operations from its own
//! [`OpGen`] and hands them to a [`BatchApply`] backend `depth` at a time:
//! [`run_scenario`] is that loop at depth 1 over the in-process
//! [`LoopBatch`], [`run_scenario_batched`] the same loop over any backend
//! (the KV service's pipelined client pool).  Operations are counted, not
//! timed: the only clock reads are the two around the recorded window.
//!
//! The executor drives any [`mapapi::ConcurrentMap`], so every structure in
//! the harness registry runs every scenario with zero per-structure glue.
//! Scenarios with a `transfer` component additionally own a bank of
//! [`kcas::CasWord`] accounts: a transfer is a `mapapi::get` metadata lookup
//! composed with a two-word [`kcas::execute`], so the sum over all accounts
//! is conserved iff the KCAS substrate is linearizable — the invariant the
//! `txn_transfer` integration test asserts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use kcas::{CasWord, KcasArg};
use mapapi::{ConcurrentMap, Key, MapStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dist::{Sampler, SharedState};
use crate::spec::{InsertKind, ScanLen, Scenario, INITIAL_BALANCE};

/// One generated operation, ready to apply to a map (and bank).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point lookup.
    Read(Key),
    /// Insert-if-absent (`key` doubles as the value, as elsewhere in the
    /// workspace).
    Insert(Key),
    /// Delete.
    Remove(Key),
    /// YCSB-F read-modify-write (increment the stored value).
    Rmw(Key),
    /// Forward scan of `len` successive keys starting at the key.
    Scan(Key, u64),
    /// Atomic transfer of `amount` between two distinct bank accounts.
    Transfer {
        /// Source account index.
        from: u64,
        /// Destination account index.
        to: u64,
        /// Units moved.
        amount: u64,
    },
}

/// A deterministic per-thread operation generator for one scenario.
///
/// Two `OpGen`s with the same scenario, key range and seed yield the same
/// operation sequence (given the same [`SharedState`] observations), which
/// is what the determinism proptests pin down.
pub struct OpGen {
    rng: StdRng,
    sampler: Sampler,
    // Cumulative per-mille thresholds, in mix order.
    t_read: u32,
    t_insert: u32,
    t_remove: u32,
    t_rmw: u32,
    t_scan: u32,
    insert_kind: InsertKind,
    scan_len: Option<ScanLen>,
    accounts: u64,
}

impl OpGen {
    /// Build a generator for `sc` over `1..=key_range`, seeded with `seed`.
    pub fn new(sc: &Scenario, key_range: Key, seed: u64) -> Self {
        assert!(sc.mix.is_valid(), "{}: op mix must sum to 1000", sc.name);
        let m = &sc.mix;
        OpGen {
            rng: StdRng::seed_from_u64(seed),
            sampler: Sampler::new(sc.dist, key_range),
            t_read: m.read,
            t_insert: m.read + m.insert,
            t_remove: m.read + m.insert + m.remove,
            t_rmw: m.read + m.insert + m.remove + m.rmw,
            t_scan: m.read + m.insert + m.remove + m.rmw + m.scan,
            insert_kind: sc.insert_kind,
            scan_len: sc.scan_len,
            accounts: sc.accounts,
        }
    }

    /// Generate the next operation.
    pub fn next_op(&mut self, shared: &SharedState) -> Op {
        let roll = self.rng.gen_range(0..1000u32);
        if roll < self.t_read {
            Op::Read(self.sampler.next_key(&mut self.rng, shared))
        } else if roll < self.t_insert {
            let key = match self.insert_kind {
                InsertKind::Sampled => self.sampler.next_key(&mut self.rng, shared),
                InsertKind::Fresh => shared.claim_insert_key(),
            };
            Op::Insert(key)
        } else if roll < self.t_remove {
            Op::Remove(self.sampler.next_key(&mut self.rng, shared))
        } else if roll < self.t_rmw {
            Op::Rmw(self.sampler.next_key(&mut self.rng, shared))
        } else if roll < self.t_scan {
            let len = match self.scan_len.expect("scan op without a scan_len") {
                ScanLen::Fixed(n) => n,
                ScanLen::Uniform { min, max } => self.rng.gen_range(min..=max),
            };
            Op::Scan(self.sampler.next_key(&mut self.rng, shared), len)
        } else {
            let from = self.rng.gen_range(0..self.accounts);
            let mut to = self.rng.gen_range(0..self.accounts - 1);
            if to >= from {
                to += 1; // uniform over accounts != from
            }
            Op::Transfer { from, to, amount: self.rng.gen_range(1..=3u64) }
        }
    }
}

/// Apply one operation. Returns `true` if the operation "succeeded" (hit an
/// existing key, inserted/removed successfully, or committed a transfer).
pub fn apply<M: ConcurrentMap + ?Sized>(map: &M, bank: Option<&[CasWord]>, op: Op) -> bool {
    match op {
        Op::Read(k) => map.get(k).is_some(),
        Op::Insert(k) => map.insert(k, k),
        Op::Remove(k) => map.remove(k),
        Op::Rmw(k) => map.rmw(k, &mut |v| v.map_or(1, |x| (x + 1) & mapapi::MAX_KEY)),
        // A real validated range query — the structure's native ordered
        // iteration, not a loop of point lookups.
        Op::Scan(k, len) => !map.scan(k, len as usize).is_empty(),
        Op::Transfer { from, to, amount } => {
            let bank = bank.expect("transfer op without a bank");
            transfer(map, bank, from, to, amount)
        }
    }
}

/// One atomic 2-key transfer: look up the source account's metadata through
/// the map (`mapapi::get`), then move `amount` between the two balance words
/// with a single two-word [`kcas::execute`].  Fails (returns `false`)
/// without retry if the account is unknown, the balance is insufficient, or
/// the KCAS loses a race — the caller counts attempts and successes.
pub fn transfer<M: ConcurrentMap + ?Sized>(
    map: &M,
    bank: &[CasWord],
    from: u64,
    to: u64,
    amount: u64,
) -> bool {
    debug_assert_ne!(from, to);
    // Metadata lookup: account keys are 1-based (key 0 is reserved).
    if map.get(from + 1).is_none() {
        return false;
    }
    let guard = crossbeam_epoch::pin();
    let bal_from = kcas::read(&bank[from as usize], &guard);
    let bal_to = kcas::read(&bank[to as usize], &guard);
    if bal_from < amount {
        return false;
    }
    let args = [
        KcasArg { addr: &bank[from as usize], old: bal_from, new: bal_from - amount },
        KcasArg { addr: &bank[to as usize], old: bal_to, new: bal_to + amount },
    ];
    kcas::execute(&args, &[], &guard)
}

/// Load the account bank: metadata keys `1..=accounts` into the map (in
/// FNV-scrambled order — sequential insertion would degenerate the
/// unbalanced trees into lists and charge every transfer for it, the same
/// reason YCSB hashes its load order) and one balance word per account.
fn load_bank<M: ConcurrentMap + ?Sized>(map: &M, accounts: u64) -> Vec<CasWord> {
    let mut order: Vec<u64> = (0..accounts).collect();
    order.sort_by_key(|&i| (crate::dist::fnv1a(i), i));
    for i in order {
        let _ = map.insert(i + 1, INITIAL_BALANCE);
    }
    (0..accounts).map(|_| CasWord::new(INITIAL_BALANCE)).collect()
}

/// Parameters of one scenario run (one point of the sweep).
#[derive(Debug, Clone)]
pub struct RunParams {
    /// Worker thread count.
    pub threads: usize,
    /// Keys are drawn from `1..=key_range`.
    pub key_range: Key,
    /// Keys loaded before the timer starts (ignored by bank scenarios,
    /// which load exactly their accounts).
    pub prefill: u64,
    /// Untimed warmup before recording starts.
    pub warmup: Duration,
    /// Timed, recorded window.
    pub duration: Duration,
    /// Base seed; per-thread RNGs derive from it, so the whole run is
    /// reproducible.
    pub seed: u64,
}

impl RunParams {
    /// Standard parameters: prefill to half the key range, warmup = 1/5 of
    /// the timed duration.
    pub fn standard(threads: usize, key_range: Key, duration: Duration, seed: u64) -> Self {
        RunParams {
            threads,
            key_range,
            prefill: key_range / 2,
            warmup: duration / 5,
            duration,
            seed,
        }
    }
}

/// The conserved-sum check of a bank scenario.
#[derive(Debug, Clone, Copy)]
pub struct BankCheck {
    /// `accounts * INITIAL_BALANCE`.
    pub expected_sum: u128,
    /// Sum over all account words after the run.
    pub actual_sum: u128,
    /// Number of transfers that committed (warmup window included — those
    /// move money too).
    pub committed: u64,
}

impl BankCheck {
    /// True iff money was neither created nor destroyed.
    pub fn conserved(&self) -> bool {
        self.expected_sum == self.actual_sum
    }
}

/// The measured outcome of one scenario run.
#[derive(Debug)]
pub struct Outcome {
    /// Operations that started inside the recorded window.
    pub total_ops: u64,
    /// Operations that "succeeded" (see [`apply`]).
    pub ok_ops: u64,
    /// The [`Op::Scan`]s among `total_ops` (0 when the scenario has no scan
    /// component).
    pub scans: u64,
    /// Wall-clock length of the recorded window, read after every worker
    /// has joined: an op still in flight when the stop flag rises is counted,
    /// so the window runs until it completes.
    pub elapsed: Duration,
    /// Present iff the scenario uses the KCAS account bank.
    pub bank: Option<BankCheck>,
    /// Quiescent structural statistics, collected in the executor's
    /// teardown **after every worker thread has been joined** — `MapStats`
    /// is documented quiescent-only, so the executor owns the
    /// join-then-collect ordering as part of its contract (one extra
    /// traversal per trial, dwarfed by the per-trial prefill).
    pub final_stats: MapStats,
}

impl Outcome {
    /// Throughput in millions of operations per second.
    pub fn mops(&self) -> f64 {
        self.total_ops as f64 / self.elapsed.as_secs_f64() / 1e6
    }
}

/// Run one scenario against `map`: load the structure (or the bank), warm
/// up untimed, then count operations for `params.duration`.
pub fn run_scenario<M: ConcurrentMap + ?Sized>(
    map: &M,
    sc: &Scenario,
    params: &RunParams,
) -> Outcome {
    // Account metadata in the map, balances in the CasWord bank.
    let bank = sc.uses_bank().then(|| load_bank(map, sc.accounts));
    execute(map, &LoopBatch(map, bank.as_deref()), sc, params, 1, bank.as_deref())
}

/// A backend that can apply a whole batch of operations at once — the
/// **service mode** hook.  The canonical implementation is the KV service's
/// client pool (`server::ServiceMap`), which encodes the batch as one
/// pipelined burst of request frames, flushes once, and reads the batched
/// responses; [`LoopBatch`] is the in-process backend that applies the
/// same batch as a plain loop, so both run the one executor loop on
/// identical op streams.
pub trait BatchApply {
    /// Apply `ops` in order as one batch; returns how many succeeded (same
    /// success notion as [`apply`]).  [`run_scenario_batched`] rejects bank
    /// scenarios, so only [`run_scenario`]'s [`LoopBatch`] is ever handed an
    /// [`Op::Transfer`].
    fn apply_batch(&self, ops: &[Op]) -> u64;
}

/// The in-process [`BatchApply`] backend: a plain loop of [`apply`] over a
/// map and, for bank scenarios, its account bank.  No pipelining — this is
/// what [`run_scenario`] runs at depth 1, and the baseline a wire-pipelined
/// backend is measured against.
pub struct LoopBatch<'a, M: ConcurrentMap + ?Sized>(pub &'a M, pub Option<&'a [CasWord]>);

impl<M: ConcurrentMap + ?Sized> BatchApply for LoopBatch<'_, M> {
    fn apply_batch(&self, ops: &[Op]) -> u64 {
        ops.iter().map(|&op| apply(self.0, self.1, op) as u64).sum()
    }
}

/// Run one scenario in **batched (service) mode**: load through `map`,
/// warm up, then count operations while each worker hands `depth` of them
/// at a time to `backend` as one batch.
///
/// # Panics
/// Panics if `sc` uses the KCAS account bank (transfers are in-process by
/// construction and cannot be batched over a wire backend) or if
/// `depth == 0`.
pub fn run_scenario_batched<M, B>(
    map: &M,
    backend: &B,
    sc: &Scenario,
    params: &RunParams,
    depth: usize,
) -> Outcome
where
    M: ConcurrentMap + ?Sized,
    B: BatchApply + Sync + ?Sized,
{
    assert!(!sc.uses_bank(), "{}: bank scenarios cannot run batched", sc.name);
    assert!(depth >= 1, "batch depth must be at least 1");
    execute(map, backend, sc, params, depth, None)
}

/// The executor: prefill `map` (bank scenarios arrive with their bank
/// loaded), release `params.threads` workers through one barrier, sleep the
/// untimed warmup, raise `recording`, time `duration`, raise `stop`, join,
/// and only then read the clock and collect the quiescent stats.
fn execute<M, B>(
    map: &M,
    backend: &B,
    sc: &Scenario,
    params: &RunParams,
    depth: usize,
    bank: Option<&[CasWord]>,
) -> Outcome
where
    M: ConcurrentMap + ?Sized,
    B: BatchApply + Sync + ?Sized,
{
    if !sc.uses_bank() {
        let seed = mapapi::stress::prefill_seed(params.seed);
        mapapi::stress::prefill(map, params.key_range, params.prefill, seed);
    }
    let key_range = if sc.uses_bank() { sc.accounts } else { params.key_range };
    let shared = SharedState::new(key_range);
    let recording = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(params.threads + 1);
    // Per worker: (ops, ok, scans) inside the window, transfers committed.
    let (tallies, elapsed): (Vec<[u64; 4]>, Duration) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..params.threads)
            .map(|t| {
                let (shared, recording, stop, barrier) = (&shared, &recording, &stop, &barrier);
                s.spawn(move || {
                    let mut gen = OpGen::new(sc, key_range, params.seed ^ ((t as u64 + 1) << 17));
                    let mut batch = Vec::with_capacity(depth);
                    let [mut ops, mut ok, mut scans, mut committed] = [0u64; 4];
                    barrier.wait();
                    // ORDERING: Relaxed — phase flags polled in a loop; the
                    // join is the real synchronization point, and a stale
                    // iteration only blurs a phase boundary, never the data.
                    while !stop.load(Ordering::Relaxed) {
                        batch.clear();
                        batch.extend((0..depth).map(|_| gen.next_op(shared)));
                        // ORDERING: Relaxed — see `stop` above.
                        let recorded = recording.load(Ordering::Relaxed);
                        let succeeded = backend.apply_batch(&batch);
                        if recorded {
                            ops += depth as u64;
                            ok += succeeded;
                            scans += batch.iter().filter(|op| matches!(op, Op::Scan(..))).count() as u64;
                        }
                        // Committed transfers count in the warmup too: they
                        // move money, so the conserved-sum check spans every
                        // commit.  Bank scenarios run at depth 1, so the
                        // batch's success count is the transfer's own.
                        if matches!(batch[0], Op::Transfer { .. }) {
                            committed += succeeded;
                        }
                    }
                    [ops, ok, scans, committed]
                })
            })
            .collect();
        barrier.wait();
        std::thread::sleep(params.warmup);
        // ORDERING: Relaxed — see the workers' poll.
        recording.store(true, Ordering::Relaxed);
        let start = Instant::now();
        std::thread::sleep(params.duration);
        // ORDERING: Relaxed — see the workers' poll.
        stop.store(true, Ordering::Relaxed);
        let tallies = workers.into_iter().map(|w| w.join().expect("worker panicked")).collect();
        // Read after the join, so every counted op completed inside it.
        (tallies, start.elapsed())
    });
    let [total_ops, ok_ops, scans, committed] =
        tallies.iter().fold([0; 4], |sum, t| std::array::from_fn(|i| sum[i] + t[i]));
    // Every worker is joined: the map is quiescent, which `stats()`
    // requires (over a wire backend too — the server executes batches
    // synchronously, so no request is in flight once every client worker
    // has returned).
    let bank = bank.map(|bank| {
        let guard = crossbeam_epoch::pin();
        BankCheck {
            expected_sum: sc.accounts as u128 * INITIAL_BALANCE as u128,
            actual_sum: bank.iter().map(|w| kcas::read(w, &guard) as u128).sum(),
            committed,
        }
    });
    Outcome { total_ops, ok_ops, scans, elapsed, bank, final_stats: map.stats() }
}

/// Apply `ops` operations of `sc` to `map` single-threadedly (no timing, no
/// phases) and return the number of successful operations: fixed work
/// instead of fixed duration.
/// Loading the map is the caller's responsibility (bank scenarios excepted:
/// the account metadata is inserted here because the bank is created here).
pub fn run_ops<M: ConcurrentMap + ?Sized>(
    map: &M,
    sc: &Scenario,
    key_range: Key,
    ops: u64,
    seed: u64,
) -> u64 {
    let key_range = if sc.uses_bank() { sc.accounts } else { key_range };
    let shared = SharedState::new(key_range);
    let bank: Option<Vec<CasWord>> = sc.uses_bank().then(|| load_bank(map, sc.accounts));
    let mut gen = OpGen::new(sc, key_range, seed);
    let mut ok = 0u64;
    for _ in 0..ops {
        ok += apply(map, bank.as_deref(), gen.next_op(&shared)) as u64;
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{all_scenarios, paper_mix, scenario};
    use mapapi::reference::LockedBTreeMap;

    #[test]
    fn opgen_respects_the_mix() {
        // (scenario, expected read share, expected insert share = remove share)
        let cases = [
            (scenario("ycsb-b"), 0.95, 0.025),
            (paper_mix(1), 0.99, 0.005),
            (paper_mix(10), 0.90, 0.05),
            (paper_mix(100), 0.0, 0.5),
        ];
        for (sc, read, half_update) in cases {
            let shared = SharedState::new(10_000);
            let mut gen = OpGen::new(&sc, 10_000, 1);
            let [mut reads, mut inserts, mut removes] = [0u64; 3];
            let n = 20_000;
            for _ in 0..n {
                match gen.next_op(&shared) {
                    Op::Read(_) => reads += 1,
                    Op::Insert(_) => inserts += 1,
                    Op::Remove(_) => removes += 1,
                    other => panic!("{}: generated {other:?}", sc.name),
                }
            }
            for (kind, count, want) in
                [("read", reads, read), ("insert", inserts, half_update), ("remove", removes, half_update)]
            {
                let frac = count as f64 / n as f64;
                assert!((frac - want).abs() < 0.01, "{}: {kind} fraction {frac}, want {want}", sc.name);
            }
        }
    }

    #[test]
    fn transfer_ops_pick_distinct_accounts() {
        let sc = scenario("txn-transfer");
        let shared = SharedState::new(sc.accounts);
        let mut gen = OpGen::new(&sc, sc.accounts, 3);
        for _ in 0..5_000 {
            match gen.next_op(&shared) {
                Op::Transfer { from, to, amount } => {
                    assert_ne!(from, to);
                    assert!(from < sc.accounts && to < sc.accounts);
                    assert!((1..=3).contains(&amount));
                }
                other => panic!("txn-transfer generated {other:?}"),
            }
        }
    }

    #[test]
    fn every_scenario_runs_on_the_oracle() {
        for sc in all_scenarios() {
            let map = LockedBTreeMap::new();
            // run_ops leaves loading to the caller.
            mapapi::stress::prefill(&map, 512, 256, 7);
            let ok = run_ops(&map, &sc, 512, 2_000, 7);
            assert!(ok > 0, "{}: no operation succeeded", sc.name);
        }
    }

    #[test]
    fn short_timed_run_produces_latencies() {
        let sc = scenario("ycsb-a");
        let map = LockedBTreeMap::new();
        let params = RunParams::standard(2, 512, Duration::from_millis(40), 0xABCD);
        let out = run_scenario(&map, &sc, &params);
        assert!(out.total_ops > 0);
        assert!(0 < out.ok_ops && out.ok_ops < out.total_ops);
        assert!(out.mops() > 0.0);
        assert!(out.elapsed >= params.duration);
    }

    #[test]
    fn scan_heavy_records_scan_latencies_and_quiescent_stats() {
        let sc = scenario("scan-heavy");
        let map = LockedBTreeMap::new();
        let params = RunParams::standard(2, 512, Duration::from_millis(40), 0xE5);
        let out = run_scenario(&map, &sc, &params);
        assert!(out.scans > 0, "no scans recorded");
        assert!(out.scans < out.total_ops, "scans should be a strict subset");
        // final_stats was collected after every worker joined, so it must
        // agree with a fresh quiescent traversal now.
        let now = map.stats();
        assert_eq!(out.final_stats.key_count, now.key_count);
        assert_eq!(out.final_stats.key_sum, now.key_sum);
    }

    #[test]
    fn point_scenarios_record_no_scan_latencies() {
        let sc = scenario("ycsb-a");
        let map = LockedBTreeMap::new();
        let params = RunParams::standard(1, 256, Duration::from_millis(25), 3);
        let out = run_scenario(&map, &sc, &params);
        assert!(out.total_ops > 0);
        assert_eq!(out.scans, 0);
    }

    /// A map whose lookups take `SLOW_GET` each.
    struct SlowReads(LockedBTreeMap);

    const SLOW_GET: Duration = Duration::from_millis(80);

    impl ConcurrentMap for SlowReads {
        fn insert(&self, key: Key, value: mapapi::Value) -> bool {
            self.0.insert(key, value)
        }
        fn remove(&self, key: Key) -> bool {
            self.0.remove(key)
        }
        fn get(&self, key: Key) -> Option<mapapi::Value> {
            std::thread::sleep(SLOW_GET);
            self.0.get(key)
        }
        fn name(&self) -> &'static str {
            "slow-reads"
        }
        fn scan_into(&self, start: Key, len: usize, out: &mut Vec<(Key, mapapi::Value)>) {
            self.0.scan_into(start, len, out)
        }
        fn stats(&self) -> MapStats {
            self.0.stats()
        }
    }

    #[test]
    fn elapsed_covers_ops_that_overrun_the_stop_flag() {
        // One worker, reads only.  Its first get spans [0, 80 ms) and straddles
        // the warmup's end at 60 ms, so it is not counted; the second starts
        // at 80 ms, inside the 40 ms window [60, 100), and runs to 160 ms —
        // 60 ms past the stop flag.  Each counted get lies wholly inside the
        // window, so the window is at least as long as the gets it counts.
        let params = RunParams {
            warmup: Duration::from_millis(60),
            ..RunParams::standard(1, 64, Duration::from_millis(40), 1)
        };
        let out = run_scenario(&SlowReads(LockedBTreeMap::new()), &paper_mix(0), &params);
        assert!(out.total_ops >= 1, "no get started inside the window");
        assert!(
            out.elapsed >= SLOW_GET * out.total_ops as u32,
            "elapsed {:?} does not cover {} gets of {SLOW_GET:?}",
            out.elapsed,
            out.total_ops
        );
    }

    #[test]
    fn scan_lengths_follow_the_scenario_distribution() {
        let sc = scenario("scan-heavy");
        let (min, max) = match sc.scan_len {
            Some(crate::spec::ScanLen::Uniform { min, max }) => (min, max),
            other => panic!("scan-heavy should draw uniform lengths, got {other:?}"),
        };
        let shared = SharedState::new(10_000);
        let mut gen = OpGen::new(&sc, 10_000, 9);
        let mut seen_min = false;
        let mut seen_max = false;
        for _ in 0..20_000 {
            if let Op::Scan(_, len) = gen.next_op(&shared) {
                assert!((min..=max).contains(&len), "scan length {len} outside [{min},{max}]");
                seen_min |= len == min;
                seen_max |= len == max;
            }
        }
        assert!(seen_min && seen_max, "uniform draw never hit an endpoint");
    }

    #[test]
    fn batched_runs_match_batch_accounting() {
        let sc = scenario("service-mixed");
        let map = LockedBTreeMap::new();
        let params = RunParams::standard(2, 512, Duration::from_millis(40), 0xBA7C);
        let out = run_scenario_batched(&map, &LoopBatch(&map, None), &sc, &params, 8);
        assert!(out.total_ops > 0);
        assert_eq!(out.total_ops % 8, 0, "ops are counted in whole batches");
        assert!(out.scans > 0, "service-mixed must ship scans");
        assert!(out.ok_ops <= out.total_ops);
        assert!(out.bank.is_none());
        // Quiescent stats collected after the join must match a fresh read.
        assert_eq!(out.final_stats.key_count, map.stats().key_count);
    }

    #[test]
    fn batch_depth_one_equals_point_mode_semantics() {
        let sc = scenario("ycsb-b");
        let map = LockedBTreeMap::new();
        let params = RunParams::standard(1, 256, Duration::from_millis(25), 0xD1);
        let out = run_scenario_batched(&map, &LoopBatch(&map, None), &sc, &params, 1);
        assert!(out.total_ops > 0);
        assert!(out.ok_ops <= out.total_ops);
    }

    #[test]
    fn loop_batch_counts_successes_like_apply() {
        let map = LockedBTreeMap::new();
        map.insert(1, 1);
        let ops = [Op::Read(1), Op::Read(2), Op::Insert(3), Op::Remove(9), Op::Scan(1, 4)];
        // read(1) hits, read(2) misses, insert(3) succeeds, remove(9)
        // fails, scan sees keys 1 and 3 => 3 successes.
        assert_eq!(LoopBatch(&map, None).apply_batch(&ops), 3);
    }

    #[test]
    #[should_panic(expected = "bank scenarios cannot run batched")]
    fn batched_executor_rejects_bank_scenarios() {
        let sc = scenario("txn-transfer");
        let map = LockedBTreeMap::new();
        let params = RunParams::standard(1, 64, Duration::from_millis(5), 1);
        let _ = run_scenario_batched(&map, &LoopBatch(&map, None), &sc, &params, 4);
    }

    #[test]
    fn transfer_conserves_the_bank_sum_single_threaded() {
        let sc = scenario("txn-transfer");
        let map = LockedBTreeMap::new();
        let params = RunParams::standard(1, 512, Duration::from_millis(30), 1);
        let out = run_scenario(&map, &sc, &params);
        let bank = out.bank.expect("txn-transfer must report a bank check");
        assert!(bank.conserved(), "sum {} != expected {}", bank.actual_sum, bank.expected_sum);
        assert!(bank.committed > 0);
    }
}
