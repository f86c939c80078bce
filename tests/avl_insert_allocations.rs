//! A warm AVL update does not allocate: not for its node, not for retiring it.
//!
//! A node is a slot of its thread's slab (`pathcas_ds`'s record manager), a
//! removed node's slot comes back from the epoch collector, the deferred
//! `free` is stored inline in the collector's bag, and the rebalancing walk
//! keeps its work list per thread.  What is left to allocate over thousands
//! of updates is a handful of things that grow in steps: a slab chunk per
//! 4 096 new nodes, the orphan pool's vector, a bag's storage.
//!
//! The allocation counter is process-global, so this file holds one test.

use harness::alloc_count::{heap_allocations, CountingAllocator};
use mapapi::ConcurrentMap;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The one or two slab chunks that 4 096 inserts bump into (2 measured), and
/// room for a bag or the slab's orphan pool to grow a step.
const ALLOWED: u64 = 8;

#[test]
fn warm_avl_inserts_and_removes_do_not_allocate_per_operation() {
    let tree = pathcas_ds::PathCasAvl::new();
    // Ascending keys rotate on a steady share of the inserts.  The warm-up
    // registers the thread's builder, descriptor pool, slab and epoch record,
    // grows the rebalancing work list to its working size, and takes the
    // collector's bags through a few epochs.
    for k in 1..=4_096u64 {
        assert!(tree.insert(k, k));
    }
    for k in 1..=1_024u64 {
        assert!(tree.remove(k));
    }
    let (rotations, before) = (tree.rotation_count(), heap_allocations());
    let ops = 4_096u64;
    for k in 4_097..4_097 + ops {
        assert!(tree.insert(k, k));
    }
    for k in 4_097..4_097 + ops {
        assert!(tree.remove(k));
    }
    let allocations = heap_allocations() - before;
    assert!(tree.rotation_count() > rotations + ops / 4, "the measured updates barely rotated");
    assert!(allocations <= ALLOWED, "{allocations} allocations over {ops} inserts and {ops} removes");
    tree.check_invariants();
}
