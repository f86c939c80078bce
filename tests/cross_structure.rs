//! The one battery of generic `mapapi::{suites, stress}` cases — the
//! Setbench-style validation the paper applies to every structure alike (§5,
//! Appendix F) — run on every name a map is known by: each
//! `harness::registry()` name, `list-pathcas`, the nested
//! `shard2(shard2(int-bst-pathcas))`, `shard3(locked-btreemap)`, and a sharded
//! map of four different algorithms built here.
//!
//! `battery!` makes each (name, case) pair its own test, so a failure names
//! both: `int_avl_pathcas::keysum_stress_update_heavy_4_threads`.  A leaf name
//! is built by its concrete type and every case ends in that type's quiescent
//! `check_invariants` where it has one; a composed name comes from
//! `harness::make`.  Trailing case names in an instance add cases that hold
//! only for some names (an atomic `rmw`).  A registry name with no instance,
//! or an instance whose map reports another name, fails
//! `every_registry_name_has_a_battery_under_its_own_name`.  The per-crate
//! tests keep only what is specific to one structure.

use std::time::Duration;

use baselines::TicketBst;
use harness::registry;
use mapapi::reference::LockedBTreeMap;
use mapapi::stress::{
    prefill, stress_disjoint_stripes, stress_keysum, stress_keysum_with, stress_rmw_increments,
    stress_scan_into, stress_values_belong_to_their_keys,
};
use mapapi::suites::*;
use mapapi::ConcurrentMap;
use mcms::McmsBst;
use pathcas_ds::{PathCasAvl, PathCasBst, PathCasList};
use stm::{Norec, Tl2, Tle, TxAvl, TxBst};

macro_rules! battery {
    (@cases $module:ident, $name:literal, $build:expr, $check:expr; $($case:ident),*) => {
        mod $module {
            use super::*;

            pub const NAME: &str = $name;

            pub fn boxed() -> Box<dyn ConcurrentMap> {
                Box::new($build)
            }

            $(
                #[test]
                fn $case() {
                    super::$case(|| $build, $check)
                }
            )*
        }
    };
    // A composed name: built by `harness::make`, checked only by the cases.
    ($module:ident, $name:literal $(, $extra:ident)*) => {
        battery!($module, $name, harness::make($name), |_| {} $(, $extra)*);
    };
    ($module:ident, $name:literal, $build:expr, $check:expr $(, $extra:ident)*) => {
        battery!(@cases $module, $name, $build, $check;
            basic_semantics, ordered_patterns, random_vs_oracle, random_vs_oracle_dense_keyspace,
            scan_semantics, scan_vs_oracle, scan_into_appends,
            chunked_audit_covers_maps_larger_than_one_chunk, stripes_stress, keysum_stress_mixed,
            keysum_stress_update_heavy_2_threads, keysum_stress_update_heavy_4_threads,
            values_belong_to_their_keys $(, $extra)*);
    };
}

battery!(
    int_bst_pathcas,
    "int-bst-pathcas",
    PathCasBst::new(),
    PathCasBst::check_invariants,
    rmw_is_atomic
);
battery!(
    int_avl_pathcas,
    "int-avl-pathcas",
    PathCasAvl::new(),
    PathCasAvl::check_invariants,
    rmw_is_atomic
);
battery!(
    list_pathcas,
    "list-pathcas",
    PathCasList::new(),
    PathCasList::check_invariants,
    rmw_is_atomic
);
battery!(ext_bst_locks, "ext-bst-locks", TicketBst::new(), TicketBst::check_invariants);
battery!(int_bst_norec, "int-bst-norec", TxBst::new(Norec::new()), |_| {});
battery!(int_avl_norec, "int-avl-norec", TxAvl::new(Norec::new()), |_| {});
battery!(int_avl_tl2, "int-avl-tl2", TxAvl::new(Tl2::new()), |_| {});
battery!(int_avl_tle, "int-avl-tle", TxAvl::new(Tle::new()), |_| {});
battery!(int_bst_mcms, "int-bst-mcms", McmsBst::new(), |_| {});
battery!(locked_btreemap, "locked-btreemap", LockedBTreeMap::new(), |_| {}, rmw_is_atomic);
battery!(shard8_int_avl_pathcas, "shard8(int-avl-pathcas)", rmw_is_atomic);
battery!(shard4_int_bst_pathcas, "shard4(int-bst-pathcas)", rmw_is_atomic);
battery!(shard256_list_pathcas, "shard256(list-pathcas)", rmw_is_atomic);
// The inner merges run while the outer one holds its cursor table.
battery!(shard2_shard2_int_bst_pathcas, "shard2(shard2(int-bst-pathcas))", rmw_is_atomic);
battery!(shard3_locked_btreemap, "shard3(locked-btreemap)", rmw_is_atomic);
// The aggregation and the scan merge rely only on the trait, so shards of
// four algorithms must behave as one algorithm's do.  No litmus: the ticket
// tree's `rmw` is the trait's composed default.
battery!(shard4_mixed, "shard4(mixed)", mixed(), |_| {});

fn mixed() -> shard::ShardedMap {
    shard::ShardedMap::new(vec![
        Box::new(PathCasAvl::new()),
        Box::new(PathCasBst::new()),
        Box::new(TicketBst::new()),
        Box::new(LockedBTreeMap::new()),
    ])
}

type Build = fn() -> Box<dyn ConcurrentMap>;

/// Every instance above; `harness::make` builds each name but the mixed one.
const BATTERY: &[(&str, Build)] = &[
    (int_bst_pathcas::NAME, int_bst_pathcas::boxed),
    (int_avl_pathcas::NAME, int_avl_pathcas::boxed),
    (list_pathcas::NAME, list_pathcas::boxed),
    (ext_bst_locks::NAME, ext_bst_locks::boxed),
    (int_bst_norec::NAME, int_bst_norec::boxed),
    (int_avl_norec::NAME, int_avl_norec::boxed),
    (int_avl_tl2::NAME, int_avl_tl2::boxed),
    (int_avl_tle::NAME, int_avl_tle::boxed),
    (int_bst_mcms::NAME, int_bst_mcms::boxed),
    (locked_btreemap::NAME, locked_btreemap::boxed),
    (shard8_int_avl_pathcas::NAME, shard8_int_avl_pathcas::boxed),
    (shard4_int_bst_pathcas::NAME, shard4_int_bst_pathcas::boxed),
    (shard256_list_pathcas::NAME, shard256_list_pathcas::boxed),
    (shard2_shard2_int_bst_pathcas::NAME, shard2_shard2_int_bst_pathcas::boxed),
    (shard3_locked_btreemap::NAME, shard3_locked_btreemap::boxed),
    (shard4_mixed::NAME, shard4_mixed::boxed),
];

/// The coverage guard: a structure added to the registry is checked from its
/// first commit, and an instance tests the map its name says.
#[test]
fn every_registry_name_has_a_battery_under_its_own_name() {
    for factory in registry() {
        assert!(
            BATTERY.iter().any(|&(name, _)| name == factory.name),
            "registry name {} has no battery! instance",
            factory.name
        );
    }
    for &(name, build) in BATTERY {
        assert_eq!(build().name(), name, "battery {name} builds a map of another name");
        match harness::try_make(name) {
            Ok(map) => {
                assert_eq!(map.name(), name, "harness::make({name}) resolves to another map")
            }
            Err(e) => assert_eq!(name, shard4_mixed::NAME, "battery {name}: {e}"),
        }
    }
}

fn basic_semantics<M: ConcurrentMap>(build: impl Fn() -> M, check: impl Fn(&M)) {
    let map = build();
    check_basic_semantics(&map);
    check(&map);
}

fn ordered_patterns<M: ConcurrentMap>(build: impl Fn() -> M, check: impl Fn(&M)) {
    let map = build();
    check_ordered_patterns(&map);
    check(&map);
}

/// Keys up to 512 span five 128-key blocks, so a sharded name routes them to
/// more than one shard; 6 000 ops over 128 keys churn one block's worth.
fn random_vs_oracle<M: ConcurrentMap>(build: impl Fn() -> M, check: impl Fn(&M)) {
    for (ops, keys, seed) in [(3000, 512, 0x5EED), (6000, 128, 0xBEEF)] {
        let map = build();
        check_random_against_oracle(&map, ops, keys, seed);
        check_stats_consistency(&map, keys);
        check(&map);
    }
}

fn random_vs_oracle_dense_keyspace<M: ConcurrentMap>(build: impl Fn() -> M, check: impl Fn(&M)) {
    let map = build();
    check_random_against_oracle(&map, 4000, 16, 7);
    check_stats_consistency(&map, 16);
    check(&map);
}

fn scan_semantics<M: ConcurrentMap>(build: impl Fn() -> M, check: impl Fn(&M)) {
    let map = build();
    check_scan_semantics(&map);
    check(&map);
}

fn scan_vs_oracle<M: ConcurrentMap>(build: impl Fn() -> M, check: impl Fn(&M)) {
    let map = build();
    check_scan_against_oracle(&map, 256, 0x5CA9);
    check(&map);
}

fn scan_into_appends<M: ConcurrentMap>(build: impl Fn() -> M, check: impl Fn(&M)) {
    let map = build();
    check_scan_into_appends(&map);
    check(&map);
}

/// The scan audit walks in `SCAN_AUDIT_CHUNK`-sized scans, so a map of more
/// than two chunks resumes twice.  The keys go in 128 at a time from the top
/// down, each run in a scrambled order: a sorted list then inserts near its
/// head, and an unbalanced tree stays about `n / 128` deep.
fn chunked_audit_covers_maps_larger_than_one_chunk<M: ConcurrentMap>(
    build: impl Fn() -> M,
    check: impl Fn(&M),
) {
    let map = build();
    let n = 2 * SCAN_AUDIT_CHUNK as u64 + 77;
    for run in (0..n.div_ceil(128)).rev() {
        for k in (0..128).map(|i| run * 128 + 1 + (i * 37) % 128).filter(|&k| k <= n) {
            assert!(map.insert(k, k), "{}: insert({k})", map.name());
        }
    }
    assert_eq!(map.stats().key_count, n, "{}", map.name());
    check_scan_matches_stats(&map, &map.stats());
    check(&map);
}

fn stripes_stress<M: ConcurrentMap>(build: impl Fn() -> M, check: impl Fn(&M)) {
    let map = build();
    stress_disjoint_stripes(&map, 4, 300);
    check(&map);
}

/// How long each timed case runs.  Tier-1 runs this file in a debug build,
/// where sixteen names of four timed cases each at full length would
/// outweigh every copy of the suites it replaced; CI's release step runs the
/// full length.  The short window still catches witness (v) (every KCAS lock
/// a plain CAS, so helpers livelock) in most runs: see CHANGES.md.
const WINDOW: Duration = Duration::from_millis(if cfg!(debug_assertions) { 100 } else { 300 });

/// The worker hook of the contended keysum and the two litmus cases: odd
/// workers publish descriptors and even ones commit in hardware
/// transactions, where the CPU has RTM.  A transactional commit that
/// overwrote a descriptor, or a helper that re-applied one over a
/// transactional commit, would lose or double an update.
fn odd_workers_on_the_software_path(worker: usize) {
    kcas::software_path_only(worker % 2 == 1)
}

fn keysum_stress_mixed<M: ConcurrentMap>(build: impl Fn() -> M, check: impl Fn(&M)) {
    let map = build();
    prefill(&map, 512, 256, 99);
    stress_keysum(&map, 4, 512, 40, WINDOW, 3);
    check(&map);
}

/// The contended shape: 64 keys half full, every op an update, on mixed
/// commit paths.  A structure that stops making progress aborts the run,
/// naming the map (the stress suite's progress oracle, which every
/// concurrent case here carries).
fn keysum_stress_update_heavy<M: ConcurrentMap>(
    threads: usize,
    build: impl Fn() -> M,
    check: impl Fn(&M),
) {
    let map = build();
    prefill(&map, 64, 32, 5);
    stress_keysum_with(&map, threads, 64, 100, WINDOW, 11, &odd_workers_on_the_software_path);
    check(&map);
}

fn keysum_stress_update_heavy_2_threads<M: ConcurrentMap>(
    build: impl Fn() -> M,
    check: impl Fn(&M),
) {
    keysum_stress_update_heavy(2, build, check)
}

fn keysum_stress_update_heavy_4_threads<M: ConcurrentMap>(
    build: impl Fn() -> M,
    check: impl Fn(&M),
) {
    keysum_stress_update_heavy(4, build, check)
}

/// The lost-update litmus, 4 × 2 000 increments of one key through `rmw`.
fn rmw_is_atomic<M: ConcurrentMap>(build: impl Fn() -> M, check: impl Fn(&M)) {
    let map = build();
    stress_rmw_increments(&map, 4, 2_000, &odd_workers_on_the_software_path);
    check(&map);
}

/// The value litmus: a `get` racing a two-child removal returns the removed
/// key's value or nothing, never the successor's.  Caught `int-bst-mcms`
/// reading the value of a node whose key a removal had just promoted over.
fn values_belong_to_their_keys<M: ConcurrentMap>(build: impl Fn() -> M, check: impl Fn(&M)) {
    let map = build();
    stress_values_belong_to_their_keys(&map, WINDOW, &odd_workers_on_the_software_path);
    check(&map);
}

/// The restart rule: scans that fail validation and start over keep the
/// caller's prefix and leave nothing of the failed attempt in the tail.
/// One writer never restarts by itself (nothing else writes), so a restart
/// counted by the tree or the list is a scan's.
#[test]
fn scan_into_restarts_keep_the_prefix_and_leave_no_stale_tail() {
    let round = Duration::from_millis(100);
    let avl = PathCasAvl::new();
    assert!(stress_scan_into(&avl, 1, 2, 512, round, 0xA71) > 0);
    assert!(avl.retry_count() > 0, "int-avl-pathcas: no scan restarted in {round:?}");
    avl.check_invariants();
    let list = PathCasList::new();
    assert!(stress_scan_into(&list, 1, 2, 128, round, 0xA72) > 0);
    assert!(list.retry_count() > 0, "list-pathcas: no scan restarted in {round:?}");
    list.check_invariants();
    assert!(
        stress_scan_into(&harness::make("shard8(int-avl-pathcas)"), 2, 2, 2048, round, 0xA73) > 0
    );
}
