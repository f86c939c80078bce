//! A successful AVL insert allocates exactly once — the node.
//!
//! The rebalancing walk that follows every successful update used to build
//! its work list (`vec![start]`) and one `recheck` vector per rotation on
//! the heap; since a KCAS commits in a few dozen nanoseconds where the CPU
//! has RTM, two `malloc`/`free` pairs were a visible share of an update.
//!
//! The allocation counter is process-global, so this file holds one test.

use harness::alloc_count::{heap_allocations, CountingAllocator};
use mapapi::ConcurrentMap;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn successful_avl_insert_allocates_only_its_node() {
    let tree = pathcas_ds::PathCasAvl::new();
    // Ascending keys rotate on a steady share of the inserts.  The warm-up
    // registers the thread's builder, descriptor pool and epoch record and
    // grows the rebalancing work list to its working size.
    for k in 1..=4_096u64 {
        assert!(tree.insert(k, k));
    }
    let (rotations, before) = (tree.rotation_count(), heap_allocations());
    let inserts = 4_096u64;
    for k in 4_097..4_097 + inserts {
        assert!(tree.insert(k, k));
    }
    let allocations = heap_allocations() - before;
    assert!(tree.rotation_count() > rotations + inserts / 4, "the measured inserts barely rotated");
    assert_eq!(allocations, inserts, "{allocations} allocations over {inserts} successful inserts");
    tree.check_invariants();
}
