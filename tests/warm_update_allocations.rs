//! Warm updates do not allocate: not for a node, not for retiring it.
//!
//! A node is a slot of its thread's slab (the epoch shim's record manager), a
//! removed node's slot comes back from the epoch collector, the deferred
//! `free` is stored inline in the collector's bag, and the AVL's rebalancing
//! walk keeps its work list per thread.  What is left to allocate over
//! thousands of updates is a handful of things that grow in steps: a slab
//! chunk per 4 096 new nodes, the orphan pool's vector, a bag's storage.
//!
//! `int-bst-mcms` is measured and printed, not held to this: every MCMS
//! operation builds its path and argument vectors afresh.
//!
//! The allocation counter is process-global, so this file holds one test.

use telemetry::alloc::{self, CountingAllocator};
use mapapi::ConcurrentMap;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The one or two slab chunks that 4 096 inserts bump into (2 measured), and
/// room for a bag or the slab's orphan pool to grow a step.
const ALLOWED: u64 = 8;
const OPS: u64 = 4_096;

/// Allocations made by `OPS` inserts and `OPS` removes on `map`, once warm:
/// 1 024 keys stay resident (the even ones), and each measured insert puts an
/// odd key between them that the next remove takes out again.
fn warm_pair_allocations(map: &dyn ConcurrentMap) -> u64 {
    let odd = |i: u64| (i * 769 % 1_024) * 2 + 1;
    for i in 0..1_024 {
        assert!(map.insert((i * 389 % 1_024) * 2 + 2, i));
    }
    let pairs = |range: std::ops::Range<u64>| {
        for i in range {
            assert!(map.insert(odd(i), i), "{}: insert", map.name());
            assert!(map.remove(odd(i)), "{}: remove", map.name());
        }
    };
    // The warm-up registers the thread's builder, descriptor pool, slab and
    // epoch record, and takes the collector's bags through a few epochs.
    pairs(0..1_024);
    let before = alloc::allocations();
    pairs(0..OPS);
    alloc::allocations() - before
}

#[test]
fn warm_updates_do_not_allocate_per_operation() {
    let tree = pathcas_ds::PathCasAvl::new();
    // Ascending keys rotate on a steady share of the inserts.  The warm-up
    // also grows the rebalancing work list to its working size.
    for k in 1..=4_096u64 {
        assert!(tree.insert(k, k));
    }
    for k in 1..=1_024u64 {
        assert!(tree.remove(k));
    }
    let (rotations, before) = (tree.rotation_count(), alloc::allocations());
    for k in 4_097..4_097 + OPS {
        assert!(tree.insert(k, k));
    }
    for k in 4_097..4_097 + OPS {
        assert!(tree.remove(k));
    }
    let allocations = alloc::allocations() - before;
    assert!(tree.rotation_count() > rotations + OPS / 4, "the measured updates barely rotated");
    assert!(allocations <= ALLOWED, "int-avl-pathcas: {allocations} allocations over {OPS} inserts and {OPS} removes");
    tree.check_invariants();

    let others: [(Box<dyn ConcurrentMap>, bool); 3] = [
        (Box::new(pathcas_ds::PathCasList::new()), true),
        (Box::new(baselines::TicketBst::new()), true),
        (Box::new(mcms::McmsBst::new()), false),
    ];
    for (map, asserted) in others {
        let allocations = warm_pair_allocations(&*map);
        println!("{}: {allocations} allocations over {OPS} inserts and {OPS} removes", map.name());
        if asserted {
            assert!(allocations <= ALLOWED, "{}: {allocations} allocations over {OPS} inserts and {OPS} removes", map.name());
        }
    }
}
