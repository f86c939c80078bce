//! Cross-crate integration tests for the workload engine: every scenario
//! runs against real registry structures, and the `txn-transfer` scenario's
//! conserved-sum linearizability invariant holds under genuine multi-thread
//! contention on the PathCAS structures and the STM baseline.

use std::time::Duration;

use mapapi::ConcurrentMap;
use workload::{all_scenarios, run_scenario, scenario, RunParams};

/// The acceptance set: PathCAS AVL, BST, one STM baseline, and the three
/// registered sharded compositions, the hash table of PathCAS lists among
/// them (bank conservation and the post-scenario scan audit must hold
/// through the composition layer too).
const STRUCTURES: [&str; 6] = [
    "int-avl-pathcas",
    "int-bst-pathcas",
    "int-avl-norec",
    "shard8(int-avl-pathcas)",
    "shard4(int-bst-pathcas)",
    "shard256(list-pathcas)",
];

#[test]
fn every_scenario_runs_against_every_acceptance_structure() {
    for sc in all_scenarios() {
        for name in STRUCTURES {
            let map = harness::make(name);
            let params = RunParams::standard(2, 512, Duration::from_millis(30), 0xBEEF);
            let out = run_scenario(&map, &sc, &params);
            assert!(out.total_ops > 0, "{}/{}: no ops completed", sc.name, name);
            assert!(out.ok_ops <= out.total_ops, "{}/{}: more successes than ops", sc.name, name);
        }
    }
}

/// The linearizability check of the acceptance criteria: concurrent 2-key
/// KCAS transfers must conserve the total balance — lost updates, partial
/// applications, or doubly-applied transfers would all break the sum.
#[test]
fn txn_transfer_conserves_balance_under_contention() {
    let sc = scenario("txn-transfer");
    for name in STRUCTURES {
        let map = harness::make(name);
        let params = RunParams::standard(4, 512, Duration::from_millis(150), 0x7AB5);
        let out = run_scenario(&map, &sc, &params);
        let bank = out.bank.expect("txn-transfer must produce a bank check");
        assert!(
            bank.conserved(),
            "{name}: bank sum {} != expected {} after {} committed transfers",
            bank.actual_sum,
            bank.expected_sum,
            bank.committed
        );
        assert!(bank.committed > 0, "{name}: no transfer committed");
        // The account metadata must still be fully present in the map.
        for i in 0..sc.accounts {
            assert!(map.get(i + 1).is_some(), "{name}: lost account metadata {i}");
        }
    }
}

/// The scan scenarios must drive the native `scan` on real structures:
/// scans are counted, and after the (joined) run a quiescent full-range
/// scan agrees exactly with `stats()`.
#[test]
fn scan_scenarios_exercise_native_scans() {
    for sc_name in ["ycsb-e", "scan-heavy"] {
        let sc = scenario(sc_name);
        for name in STRUCTURES {
            let map = harness::make(name);
            let params = RunParams::standard(2, 512, Duration::from_millis(40), 0x5CA2);
            let out = run_scenario(&map, &sc, &params);
            assert!(out.scans > 0, "{sc_name}/{name}: no scans counted");
            assert!(out.scans <= out.total_ops, "{sc_name}/{name}: more scans than ops");
            // Post-join audit: the executor collected final_stats after all
            // workers exited; a full scan must see exactly those contents.
            mapapi::suites::check_scan_matches_stats(&map, &out.final_stats);
        }
    }
}

/// Non-scan scenarios must not issue scans.
#[test]
fn point_scenarios_issue_no_scans() {
    let sc = scenario("ycsb-a");
    let map = harness::make("int-bst-pathcas");
    let params = RunParams::standard(2, 256, Duration::from_millis(25), 0xF00);
    let out = run_scenario(&map, &sc, &params);
    assert!(out.total_ops > 0);
    assert_eq!(out.scans, 0);
}

/// Same seed, same single-threaded scenario ⇒ identical op counts and
/// contents — the end-to-end reproducibility a fixed seed promises (the
/// op *count* varies with timing, so compare the deterministic pieces:
/// final structure contents after a fixed op count).
#[test]
fn fixed_op_runs_are_reproducible_end_to_end() {
    for name in ["int-avl-pathcas", "int-bst-pathcas"] {
        let run = |seed: u64| {
            let map = harness::make(name);
            mapapi::stress::prefill(&map, 1024, 512, mapapi::stress::prefill_seed(seed));
            workload::run_ops(&map, &scenario("ycsb-a"), 1024, 5_000, seed);
            let s = map.stats();
            (s.key_count, s.key_sum)
        };
        assert_eq!(run(1234), run(1234), "{name}: same seed must reproduce");
    }
}
