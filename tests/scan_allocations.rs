//! A warm sharded `scan_into` does not allocate, and `scan` allocates exactly
//! its result.
//!
//! `ShardedMap::scan_into` merges out of its thread's cursor table, each
//! shard's tree scans into that table's run through the thread's in-order
//! stack and `OpBuilder`, and the pairs land in the caller's vector — so once
//! all of those have grown to their working size, a scan is allocation-free
//! from the router down.  `scan` is the provided wrapper: one `Vec`, then
//! `scan_into`.  The shards are the benchmark's (`Box<Arc<PathCasAvl>>`), so
//! this also holds the `Box` / `Arc` forwards to it: an unforwarded
//! `scan_into` would fall back to the allocating default.
//!
//! The allocation counter is process-global, so this file holds one test.

use std::sync::Arc;

use telemetry::alloc::{self, CountingAllocator};
use mapapi::ConcurrentMap;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn warm_sharded_scans_allocate_nothing_but_the_vec_scan_returns() {
    let map = shard::ShardedMap::from_fn(8, |_| Box::new(Arc::new(pathcas_ds::PathCasAvl::new())));
    assert_eq!(map.name(), "shard8(int-avl-pathcas)");
    for k in 1..=20_000u64 {
        assert!(map.insert(k * 5, k));
    }
    // Start keys and lengths (8..=64, the benchmark's range) off one LCG.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut probe = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (1 + (x >> 33) % 90_000, 8 + (x >> 20) as usize % 57)
    };
    // Warm-up: the cursor table, its eight runs, the in-order stack, the
    // builder, the epoch record and `out` all reach their working size.
    let mut out = Vec::new();
    for _ in 0..1_000 {
        let (start, len) = probe();
        out.clear();
        map.scan_into(start, len, &mut out);
        assert_eq!(out.len(), len);
    }

    let before = alloc::allocations();
    let mut pairs = 0;
    for _ in 0..1_000 {
        let (start, len) = probe();
        out.clear();
        map.scan_into(start, len, &mut out);
        pairs += out.len();
    }
    let allocations = alloc::allocations() - before;
    assert!(pairs >= 8_000);
    assert_eq!(allocations, 0, "{allocations} allocations over 1000 warm scan_into calls");

    let before = alloc::allocations();
    for _ in 0..1_000 {
        let (start, len) = probe();
        assert_eq!(map.scan(start, len).len(), len);
    }
    let allocations = alloc::allocations() - before;
    assert_eq!(allocations, 1_000, "{allocations} allocations over 1000 scan calls");
}
