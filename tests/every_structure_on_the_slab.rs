//! Every structure in the registry keeps its nodes in the one record manager,
//! the epoch shim's slab: building one reserves slab bytes, and one dropped
//! on a thread that then exits hands its slots on to the next build.
//!
//! The slab's reserved-bytes counter is process-wide, so this file holds one
//! test.

use crossbeam_epoch::slab;
use mapapi::ConcurrentMap;

const KEYS: u64 = 10_000;
const CYCLES: usize = 20;

fn reserved() -> usize {
    slab::stats().reserved_bytes
}

/// `1..=KEYS` in a seeded random order, so that the unbalanced trees stay
/// shallow.
fn shuffled_keys() -> Vec<u64> {
    let mut keys: Vec<u64> = (1..=KEYS).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..keys.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        keys.swap(i, (x % (i as u64 + 1)) as usize);
    }
    keys
}

fn build(factory: &harness::AlgoFactory, keys: &[u64]) -> Box<dyn ConcurrentMap> {
    let map = (factory.build)();
    for &key in keys {
        assert!(map.insert(key, key), "{}: insert {key}", factory.name);
    }
    map
}

#[test]
fn every_registered_structure_reserves_slab_bytes_and_recycles_them() {
    let keys = shuffled_keys();
    // The oracle is a `BTreeMap` behind a lock: not a structure of ours.
    let factories: Vec<_> =
        harness::registry().into_iter().filter(|f| f.name != "locked-btreemap").collect();

    // With every earlier build still alive there is no free slot to take, so
    // a structure whose nodes are slots must reserve fresh ones — though the
    // rest of a partly used chunk may hold a build or three: a chunk is at
    // most 2 MiB, 32 768 slots, so by the fourth copy it has run out.
    let mut alive = Vec::new();
    for factory in &factories {
        let before = reserved();
        let grew = (0..4).any(|_| {
            alive.push(build(factory, &keys));
            reserved() > before
        });
        assert!(grew, "{}: four copies of {KEYS} keys reserved no slab bytes", factory.name);
    }
    drop(alive);

    // Built here, dropped on a thread that exits: the shape of a served map
    // whose last `Arc` a connection thread holds.
    for factory in &factories {
        let after_cycle: Vec<usize> = (0..CYCLES)
            .map(|_| {
                let map = build(factory, &keys);
                std::thread::spawn(move || drop(map)).join().expect("the dropping thread panicked");
                reserved()
            })
            .collect();
        assert!(
            after_cycle[2..].iter().all(|&bytes| bytes == after_cycle[1]),
            "{}: bytes reserved after each cycle: {after_cycle:?}",
            factory.name
        );
    }
}
