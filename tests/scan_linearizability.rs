//! Multi-thread scan-linearizability suite.
//!
//! The same conserved-sum methodology as the `txn-transfer` scenario and the
//! Setbench keysum stress, applied to range scans: a fixed **region** of keys
//! is inserted once and never removed, so the region's key count and key sum
//! are conserved quantities — every scan over the region must observe exactly
//! that multiset, no matter how much the rest of the structure churns around
//! it (rotations, two-child deletions promoting keys through scanned nodes,
//! list splices).  A scan that misses a present key, double-counts a
//! relocated one, or observes a half-applied RMW breaks the check.
//!
//! Structures with an atomic `rmw` additionally run an RMW writer hammering
//! the region itself: values start at `k` and every RMW adds `k`, so any
//! value a scan observes must be a positive multiple of its key.  With the
//! old composed `remove`+`insert` RMW this suite fails immediately — the key
//! is observably absent mid-RMW and the scan's region count drops.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use mapapi::ConcurrentMap;

const REGION_START: u64 = 1000;
const REGION_LEN: usize = 64;
const REGION_END: u64 = REGION_START + REGION_LEN as u64; // exclusive

/// Conserved key sum of the region.
fn region_keysum() -> u128 {
    (REGION_START..REGION_END).map(|k| k as u128).sum()
}

/// Run churn + (optionally) region RMW writers while the main thread scans
/// the region and asserts the conserved count/sum on every observation.
fn run_suite<M: ConcurrentMap + ?Sized>(map: &M, with_rmw: bool, scans: usize) {
    run_suite_on(map, map, true, with_rmw, scans, false);
}

/// [`run_suite`] (with RMW writers) on mixed commit paths: one churn writer
/// and one RMW writer are pinned to the KCAS software path, while the other
/// writer of each pair — where the CPU has RTM — commits in hardware
/// transactions.  Every scan validates against both kinds of commit.
fn run_suite_on_mixed_commit_paths<M: ConcurrentMap + ?Sized>(map: &M, scans: usize) {
    run_suite_on(map, map, true, true, scans, true);
}

/// The generalized suite: all writes (prefill, churn, RMW) go to
/// `write_map`, all scans go to `scan_map`.  For ordinary structures the two
/// are the same object; for replication they are a primary and a follower
/// observing it through the change stream — whose scans must *still* conserve
/// the region on every observation, because sequential event application
/// means any follower state is a consistent (if stale) prefix of the
/// primary's history.  `prefill_region` is false when the caller already
/// installed the region (e.g. before cutting the checkpoint a follower
/// bootstraps from, so the region is never mid-replay during a scan).
/// `pin_second_writers` pins the second churn writer and the second RMW
/// writer to the KCAS software path (see `run_suite_on_mixed_commit_paths`).
fn run_suite_on<W: ConcurrentMap + ?Sized, S: ConcurrentMap + ?Sized>(
    write_map: &W,
    scan_map: &S,
    prefill_region: bool,
    with_rmw: bool,
    scans: usize,
    pin_second_writers: bool,
) {
    if prefill_region {
        for k in REGION_START..REGION_END {
            assert!(write_map.insert(k, k), "{}: region prefill {k}", write_map.name());
        }
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Churn writers: insert/remove keys strictly outside the scanned
        // range, on both sides, so tree restructuring runs through the
        // region's ancestors without ever changing the region itself.
        for (i, (lo, hi, seed)) in
            [(1u64, REGION_START - 1, 0x1111u64), (REGION_END, 3000, 0x2222)].into_iter().enumerate()
        {
            let stop = &stop;
            let map = &*write_map;
            s.spawn(move || {
                kcas::software_path_only(pin_second_writers && i == 1);
                let mut x = seed;
                while !stop.load(Ordering::Relaxed) {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let k = lo + x % (hi - lo + 1);
                    if x & 1 == 0 {
                        let _ = map.insert(k, k);
                    } else {
                        let _ = map.remove(k);
                    }
                }
            });
        }
        if with_rmw {
            // RMW writers on the region itself: always-present keys whose
            // values stay multiples of their key only if the RMW is atomic.
            for (i, seed) in [0x3333u64, 0x4444].into_iter().enumerate() {
                let stop = &stop;
                let map = &*write_map;
                s.spawn(move || {
                    kcas::software_path_only(pin_second_writers && i == 1);
                    let mut x = seed;
                    while !stop.load(Ordering::Relaxed) {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let k = REGION_START + x % REGION_LEN as u64;
                        // The closure tolerates `None`: PathCAS `rmw` may
                        // invoke it speculatively on a stale not-found
                        // traversal whose validation then fails and retries,
                        // so the key only *looks* absent.  No detection power
                        // is lost — if such an insert ever committed, the
                        // `was_present` assert below would fire and the scan
                        // invariant would reject the value 0.
                        let was_present = map.rmw(k, &mut |v| v.map_or(0, |v| v + k));
                        assert!(was_present, "{}: rmw found region key {k} absent", map.name());
                    }
                });
            }
        }

        for i in 0..scans {
            let got = scan_map.scan(REGION_START, REGION_LEN);
            assert_eq!(
                got.len(),
                REGION_LEN,
                "{}: scan #{i} lost region keys: {:?}",
                scan_map.name(),
                got.iter().map(|&(k, _)| k).collect::<Vec<_>>()
            );
            let mut sum = 0u128;
            for (j, &(k, v)) in got.iter().enumerate() {
                assert_eq!(k, REGION_START + j as u64, "{}: scan #{i} out of order", scan_map.name());
                assert!(
                    v >= k && v % k == 0,
                    "{}: scan #{i} saw torn value {v} at {k}",
                    scan_map.name()
                );
                sum += k as u128;
            }
            assert_eq!(sum, region_keysum(), "{}: scan #{i} keysum not conserved", scan_map.name());
        }
        stop.store(true, Ordering::Relaxed);
    });
}

// ---- structures with atomic scans AND atomic rmw: full suite -------------

#[test]
fn pathcas_bst_scans_never_observe_partial_state() {
    run_suite(&pathcas_ds::PathCasBst::new(), true, 400);
}

#[test]
fn pathcas_avl_scans_never_observe_partial_state() {
    let t = pathcas_ds::PathCasAvl::new();
    run_suite(&t, true, 400);
    t.check_invariants();
}

#[test]
fn pathcas_trees_scans_never_observe_partial_state_on_mixed_commit_paths() {
    run_suite_on_mixed_commit_paths(&pathcas_ds::PathCasBst::new(), 4000);
    let t = pathcas_ds::PathCasAvl::new();
    run_suite_on_mixed_commit_paths(&t, 4000);
    t.check_invariants();
}

#[test]
fn pathcas_list_scans_never_observe_partial_state() {
    let l = pathcas_ds::PathCasList::new();
    run_suite(&l, true, 150);
    l.check_invariants();
}

#[test]
fn pathcas_hashmap_scans_never_observe_partial_state() {
    // The registered hash table of lists, `shard256(list-pathcas)`, over
    // handles the test keeps.  The region spans two blocks, so each scan
    // merges validated chunks of the two lists that own them; every region
    // key is always present in its list, so the merge must conserve it.
    let lists: Vec<Arc<pathcas_ds::PathCasList>> =
        (0..256).map(|_| Arc::new(pathcas_ds::PathCasList::new())).collect();
    let map = shard::ShardedMap::new(
        lists.iter().map(|l| Box::new(Arc::clone(l)) as Box<dyn ConcurrentMap>).collect(),
    );
    run_suite(&map, true, 400);
    for list in &lists {
        list.check_invariants();
    }
}

#[test]
fn oracle_scans_never_observe_partial_state() {
    run_suite(&mapapi::reference::LockedBTreeMap::new(), true, 400);
}

#[test]
fn sharded_avl_scans_never_observe_partial_state() {
    // The k-way merge composes atomic snapshots of per-shard chunks.  Region
    // keys never move between shards (ownership is a pure hash of the key),
    // and each is always present in its owner, so every merged scan must
    // still observe the full conserved region — even with RMW writers
    // hammering the region through the per-shard atomic rmw.
    run_suite(
        &shard::ShardedMap::from_fn(8, |_| Box::new(pathcas_ds::PathCasAvl::new())),
        true,
        400,
    );
}

#[test]
fn sharded_avl_scans_that_refill_never_observe_partial_state() {
    // The region straddles the block boundary at 1024 (blocks are 128
    // keys), so a scan of it asks two of the eleven shards.  A merge sizes its chunks
    // from the key density it measures, starting from what the thread's
    // last merge measured; `AfterSparseScan` scans a sparse map before every
    // region scan, so each region scan starts from an estimate near zero.
    // Its first chunk is then the owner's share of the scan, 9 of block
    // 1000..1024's 24 region keys, and that shard is asked again — it
    // contributes at least two validated chunks taken at different times,
    // with churn and RMW commits in between.  A refilled chunk starts above
    // the last key emitted and every region key is present throughout, so
    // the region must still be observed whole.
    const SHARDS: usize = 11;
    const SCANS: usize = 400;
    let map = shard::ShardedMap::from_fn(SHARDS, |_| Box::new(pathcas_ds::PathCasAvl::new()));
    let sparse =
        shard::ShardedMap::from_fn(SHARDS, |_| Box::new(mapapi::reference::LockedBTreeMap::new()));
    for k in 1..=64u64 {
        sparse.insert(k << 16, k);
    }
    let scans = AfterSparseScan { map: &map, sparse, refilled: AtomicUsize::new(0) };
    run_suite_on(&map, &scans, true, true, SCANS, false);
    assert_eq!(
        scans.refilled.load(Ordering::Relaxed),
        SCANS,
        "not every scan of the region refilled a shard"
    );
}

/// Scans `map` right after a scan of `sparse` on the same thread, and counts
/// the scans of `map` that refilled a shard: only the owners of the region's
/// two blocks own keys up to the region's end, so an inner call beyond two
/// asked one of them again.
struct AfterSparseScan<'a> {
    map: &'a shard::ShardedMap,
    sparse: shard::ShardedMap,
    refilled: AtomicUsize,
}

impl AfterSparseScan<'_> {
    fn inner_calls(&self) -> u64 {
        self.map.shard_loads().iter().map(|l| l.scan_ops).sum()
    }
}

impl ConcurrentMap for AfterSparseScan<'_> {
    fn name(&self) -> &'static str {
        self.map.name()
    }
    fn insert(&self, key: u64, value: u64) -> bool {
        self.map.insert(key, value)
    }
    fn remove(&self, key: u64) -> bool {
        self.map.remove(key)
    }
    fn get(&self, key: u64) -> Option<u64> {
        self.map.get(key)
    }
    fn scan_into(&self, start: u64, len: usize, out: &mut Vec<(u64, u64)>) {
        assert_eq!(self.sparse.scan(1, 8).len(), 8);
        let before = self.inner_calls();
        self.map.scan_into(start, len, out);
        if self.inner_calls() - before > 2 {
            self.refilled.fetch_add(1, Ordering::Relaxed);
        }
    }
    fn stats(&self) -> mapapi::MapStats {
        self.map.stats()
    }
}

// ---- baselines without an atomic rmw: churn-only (their composed rmw
// would legitimately make region keys transiently absent) ------------------

#[test]
fn stm_avl_scans_never_observe_partial_state_under_churn() {
    run_suite(&stm::TxAvl::new(stm::Norec::new()), false, 150);
}

#[test]
fn mcms_bst_scans_never_observe_partial_state_under_churn() {
    run_suite(&mcms::McmsBst::new(), false, 150);
}

#[test]
fn ticket_bst_scans_never_observe_partial_state_under_churn() {
    // Best-effort scan, but single-key updates still publish atomically and
    // the region is immutable — so the conserved region must be observed.
    run_suite(&baselines::TicketBst::new(), false, 400);
}

// ---- replication: writes on the primary, scans on a live follower --------

/// The conserved region observed **through the change stream**: churn and
/// region RMW hammer the primary while the main thread scans a follower
/// that a background thread is tailing.  The region was checkpointed before
/// the follower bootstrapped, so it is present at every applied seqno, and
/// sequential replay means every follower scan is a consistent prefix of
/// the primary's history — the conserved count/sum and the
/// multiple-of-key value discipline must hold on every observation even
/// though the follower is arbitrarily stale.  At the end the drained
/// follower must match the primary exactly.
#[test]
fn follower_scans_never_observe_partial_state() {
    let primary = replica::ReplicatedMap::new(Box::new(pathcas_ds::PathCasAvl::new()));
    for k in REGION_START..REGION_END {
        assert!(primary.insert(k, k), "region prefill {k}");
    }
    // A different structure on purpose: replay is shape-independent.
    let follower =
        replica::Follower::bootstrap(Box::new(pathcas_ds::PathCasBst::new()), &primary.checkpoint());
    let log = primary.log();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| replica::tail_log(&log, &follower, &stop));
        run_suite_on(&primary, &follower, false, true, 400, false);
        stop.store(true, Ordering::Release);
    });
    // `tail_log` drains before exiting: the follower is now *exactly* the
    // primary, not just a prefix of it.
    assert_eq!(follower.applied_seqno(), primary.log().seqno());
    let (ps, fs) = (primary.stats(), follower.stats());
    assert_eq!((ps.key_count, ps.key_sum), (fs.key_count, fs.key_sum), "drained follower diverged");
    mapapi::suites::check_scan_matches_stats(&follower, &fs);
}

// ---- the composition served over loopback TCP ----------------------------

/// The conserved region through the full service stack: `shard8(avl)`
/// behind a real TCP server, driven through a `ServiceMap` pool.  Churn-only
/// (the wire RMW is the masked affine update `(v + δ) & MAX_KEY`, whose even
/// mask breaks the multiple-of-key value discipline for odd keys), which is
/// exactly the scan-atomicity oracle: framing, pipelining, and the k-way
/// shard merge must never lose, duplicate, or reorder a region key.
#[test]
fn service_scans_never_observe_partial_state_under_churn() {
    let map: std::sync::Arc<dyn ConcurrentMap> =
        std::sync::Arc::from(harness::make("shard8(int-avl-pathcas)"));
    let srv = server::Server::start(map, "127.0.0.1:0").unwrap();
    // 2 churn writers + the scanning main thread; one spare connection.
    let svc = server::ServiceMap::connect(srv.local_addr(), 4, "shard8(int-avl-pathcas)").unwrap();
    run_suite(&svc, false, 150);
    let stats = svc.stats();
    mapapi::suites::check_scan_matches_stats(&svc, &stats);
    drop(svc);
    srv.shutdown();
}

/// Differential check under concurrency: the same region discipline on the
/// oracle and a PathCAS tree simultaneously; quiescent full scans of both
/// must agree exactly (catches keys leaking between churn and region).
#[test]
fn quiescent_full_scans_agree_with_the_oracle_after_stress() {
    let tree = pathcas_ds::PathCasAvl::new();
    let oracle = mapapi::reference::LockedBTreeMap::new();
    run_suite(&tree, true, 50);
    run_suite(&oracle, true, 50);
    // The churn is pseudo-random but seeded identically, yet thread timing
    // differs — so compare each structure against its *own* stats instead.
    for map in [&tree as &dyn ConcurrentMap, &oracle] {
        let stats = map.stats();
        mapapi::suites::check_scan_matches_stats(map, &stats);
    }
}
