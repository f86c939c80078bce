//! Smoke coverage for everything the figure binaries depend on: every
//! algorithm in [`harness::registry`] must round-trip a small deterministic
//! insert/get/remove sequence, agree with a `BTreeMap` model, and survive a
//! short multi-threaded trial of the paper's mix
//! ([`workload::run_scenario`]). This keeps the harness binaries covered by
//! `cargo test`, not only by manual runs.

use std::collections::BTreeMap;
use std::time::Duration;

use harness::registry;
use workload::{paper_mix, run_scenario, RunParams};

/// A deterministic mixed sequence over a small key universe: inserts,
/// re-inserts (must fail), point lookups, removes and double-removes.
fn round_trip_sequence(map: &dyn mapapi::ConcurrentMap) {
    let name = map.name();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();

    // Phase 1: insert 1..=64 with value 10*k; odd keys twice (second fails).
    for k in 1..=64u64 {
        assert!(map.insert(k, 10 * k), "{name}: fresh insert({k}) must succeed");
        model.insert(k, 10 * k);
        if k % 2 == 1 {
            assert!(!map.insert(k, 11 * k), "{name}: duplicate insert({k}) must fail");
        }
    }

    // Phase 2: every key readable, absent keys not.
    for k in 1..=64u64 {
        assert_eq!(map.get(k), Some(10 * k), "{name}: get({k}) after insert");
    }
    // Key 0 is excluded: mapapi reserves it (and the max) for sentinels.
    for k in [65u64, 100, 1000] {
        assert_eq!(map.get(k), None, "{name}: get({k}) of absent key");
    }

    // Phase 3: remove every third key; a second remove must fail.
    for k in (3..=64u64).step_by(3) {
        assert!(map.remove(k), "{name}: remove({k}) of present key");
        model.remove(&k);
        assert!(!map.remove(k), "{name}: double remove({k}) must fail");
        assert_eq!(map.get(k), None, "{name}: get({k}) after remove");
    }

    // Phase 4: structure statistics agree with the model (Setbench keysum).
    let stats = map.stats();
    assert_eq!(stats.key_count, model.len() as u64, "{name}: key count");
    assert_eq!(
        stats.key_sum,
        model.keys().map(|&k| k as u128).sum::<u128>(),
        "{name}: key sum"
    );
    for (&k, &v) in &model {
        assert_eq!(map.get(k), Some(v), "{name}: get({k}) at quiescence");
    }
}

#[test]
fn every_registered_structure_round_trips() {
    let reg = registry();
    assert!(reg.len() >= 10, "registry unexpectedly shrank: {} entries", reg.len());
    for factory in reg {
        let map = (factory.build)();
        assert_eq!(map.name(), factory.name, "factory/name mismatch");
        round_trip_sequence(&*map);
    }
}

#[test]
fn every_registered_structure_survives_a_short_trial() {
    // The same code path the fig* binaries take: build by name, prefill,
    // hammer from several threads, then check the structure is still sane.
    let params = RunParams::standard(3, 512, Duration::from_millis(40), harness::DEFAULT_SEED);
    for factory in registry() {
        let map = (factory.build)();
        let out = run_scenario(&*map, &paper_mix(40), &params);
        assert!(out.total_ops > 0, "{}: trial completed no operations", factory.name);
        let stats = out.final_stats;
        // Prefill plus a churn of inserts/removes: the structure must stay
        // within the key universe and keep count/sum consistent.
        assert!(stats.key_count <= 512, "{}: more keys than the universe", factory.name);
        let mut sum = 0u128;
        for k in 1..=512u64 {
            if map.get(k).is_some() {
                sum += k as u128;
            }
        }
        assert_eq!(stats.key_sum, sum, "{}: key sum inconsistent at quiescence", factory.name);
    }
}
