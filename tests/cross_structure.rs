//! Cross-crate integration tests: every algorithm registered in the harness —
//! the PathCAS trees, the handcrafted baseline, the TM trees and the MCMS
//! tree — is run through the same correctness and stress suites, exactly the
//! Setbench-style validation methodology the paper uses (§5, Appendix F).

use std::time::Duration;

use harness::registry;
use mapapi::stress::{prefill, stress_disjoint_stripes, stress_keysum, stress_scan_into};
use mapapi::suites::*;

#[test]
fn every_algorithm_passes_basic_semantics() {
    for factory in registry() {
        let map = (factory.build)();
        check_basic_semantics(&map);
    }
}

#[test]
fn every_algorithm_matches_the_oracle() {
    for factory in registry() {
        let map = (factory.build)();
        // Keys up to 512 span five 128-key blocks, so a sharded entry
        // routes them to more than one shard.
        check_random_against_oracle(&map, 3000, 512, 0x5EED ^ factory.name.len() as u64);
        check_stats_consistency(&map, 512);
    }
}

#[test]
fn every_algorithm_passes_ordered_patterns() {
    for factory in registry() {
        let map = (factory.build)();
        check_ordered_patterns(&map);
    }
}

/// The `scan_into` append contract, on every registered name and on a
/// sharded map whose shards are sharded maps (the inner merges run while the
/// outer one holds its cursor table).
#[test]
fn every_algorithm_scans_into_a_prefilled_buffer() {
    let names = registry().into_iter().map(|f| f.name).chain(["shard2(shard2(int-bst-pathcas))"]);
    for name in names {
        check_scan_into_appends(&harness::make(name));
    }
}

/// The restart rule: scans that fail validation and start over keep the
/// caller's prefix and leave nothing of the failed attempt in the tail.
/// One writer never restarts by itself (nothing else writes), so a restart
/// counted by the tree or the list is a scan's.
#[test]
fn scan_into_restarts_keep_the_prefix_and_leave_no_stale_tail() {
    let round = Duration::from_millis(100);
    let avl = pathcas_ds::PathCasAvl::new();
    assert!(stress_scan_into(&avl, 1, 2, 512, round, 0xA71) > 0);
    assert!(avl.retry_count() > 0, "int-avl-pathcas: no scan restarted in {round:?}");
    avl.check_invariants();
    let list = pathcas_ds::PathCasList::new();
    assert!(stress_scan_into(&list, 1, 2, 128, round, 0xA72) > 0);
    assert!(list.retry_count() > 0, "list-pathcas: no scan restarted in {round:?}");
    list.check_invariants();
    assert!(stress_scan_into(&harness::make("shard8(int-avl-pathcas)"), 2, 2, 2048, round, 0xA73) > 0);
}

#[test]
fn every_algorithm_survives_disjoint_stripes() {
    for factory in registry() {
        let map = (factory.build)();
        stress_disjoint_stripes(&map, 4, 120);
    }
}

#[test]
fn every_algorithm_passes_keysum_validation_under_contention() {
    for factory in registry() {
        let map = (factory.build)();
        prefill(&map, 256, 128, 7);
        stress_keysum(&map, 4, 256, 50, Duration::from_millis(150), 0xFACE);
    }
}

#[test]
fn harness_trials_run_on_every_algorithm() {
    let params = workload::RunParams::standard(2, 512, Duration::from_millis(40), harness::DEFAULT_SEED);
    for factory in registry() {
        let map = (factory.build)();
        let out = workload::run_scenario(&map, &workload::paper_mix(20), &params);
        assert!(out.total_ops > 0, "{} performed no operations", factory.name);
    }
}
