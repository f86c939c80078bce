//! The structures that actually produce long validated paths, on the
//! descriptor path.
//!
//! A fresh KCAS descriptor slot has room for a balanced structure's
//! operations and grows to fit anything larger (DESIGN.md §3).  Only two
//! shapes in this crate make it grow: the unbalanced tree on sorted keys and
//! the list, whose searches visit every node of the prefix they cross.  Both
//! are driven here with every thread pinned to the software path — where
//! the CPU has RTM a long path commits in one hardware transaction and
//! publishes no descriptor at all.

use std::time::Duration;

use mapapi::stress::stress_keysum_with;
use mapapi::suites::check_ordered_patterns;
use mapapi::{ConcurrentMap, Key, MapStats, Value};
use pathcas_ds::{PathCasAvl, PathCasBst, PathCasList};

/// Keys `1..=SPINE`, inserted in ascending order: a 640-node right spine in
/// the unbalanced tree, a 640-node prefix in the list.
const SPINE: Key = 640;

/// A map seen from beyond its spine: key `k` is the inner key `SPINE + k`,
/// so every operation first crosses all `SPINE` prefilled nodes, and `stats`
/// leaves the spine out.
struct FarEnd<M>(M);

impl<M: ConcurrentMap> FarEnd<M> {
    fn behind_a_spine(map: M) -> Self {
        for k in 1..=SPINE {
            assert!(map.insert(k, k));
        }
        FarEnd(map)
    }
}

impl<M: ConcurrentMap> ConcurrentMap for FarEnd<M> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn insert(&self, key: Key, value: Value) -> bool {
        self.0.insert(SPINE + key, value)
    }
    fn remove(&self, key: Key) -> bool {
        self.0.remove(SPINE + key)
    }
    fn get(&self, key: Key) -> Option<Value> {
        self.0.get(SPINE + key)
    }
    fn scan_into(&self, start: Key, len: usize, out: &mut Vec<(Key, Value)>) {
        let base = out.len();
        self.0.scan_into(SPINE + start, len, out);
        for pair in &mut out[base..] {
            pair.0 -= SPINE;
        }
    }
    fn stats(&self) -> MapStats {
        let mut stats = self.0.stats();
        stats.key_count -= SPINE;
        stats.key_sum -= u128::from(SPINE * (SPINE + 1) / 2);
        stats.key_sum -= u128::from(SPINE * stats.key_count);
        stats
    }
}

/// Four threads insert and remove 64 keys at the far end: every commit
/// validates more than `SPINE` nodes, far more than a fresh slot holds, so
/// slots grow while other threads are helping operations published through
/// them, and the Setbench keysum check must still balance.
fn far_end_updates_conserve_the_keysum(map: impl ConcurrentMap) {
    let map = FarEnd::behind_a_spine(map);
    let pin = |_worker: usize| kcas::software_path_only(true);
    let outcome = stress_keysum_with(&map, 4, 64, 100, Duration::from_millis(300), 0x10a9, &pin);
    assert!(outcome.total_ops > 0);
}

#[test]
fn unbalanced_tree_commits_past_a_sorted_spine() {
    far_end_updates_conserve_the_keysum(PathCasBst::new());
}

#[test]
fn list_commits_past_a_long_prefix() {
    far_end_updates_conserve_the_keysum(PathCasList::new());
}

#[test]
fn ordered_patterns_hold_on_the_descriptor_path() {
    // 200 ascending keys give the unbalanced tree a 201-node search path —
    // three fresh slots' worth — and the AVL a dozen nodes.
    kcas::software_path_only(true);
    check_ordered_patterns(&PathCasAvl::new());
    check_ordered_patterns(&PathCasBst::new());
}
