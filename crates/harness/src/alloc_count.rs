//! A heap-allocation-counting global allocator for allocation-sensitive
//! tests (`tests/warm_update_allocations.rs` asserts that warm inserts and
//! removes allocate a small constant, not once per operation).
//!
//! A binary opts in with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: harness::alloc_count::CountingAllocator =
//!     harness::alloc_count::CountingAllocator;
//! ```
//!
//! and then brackets measured regions with [`heap_allocations`].  The
//! counter is process-global and monotonically increasing; concurrent
//! allocations from unrelated threads are included, so measured regions
//! should quiesce everything except the workload under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts calls to `alloc`/`realloc`.
pub struct CountingAllocator;

// SAFETY: defers to `System` for every operation; only adds counting.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // ORDERING: Relaxed — an allocation tally read only at quiescent
        // measurement points; no happens-before relationship is needed.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's — delegated to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's — delegated to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // ORDERING: Relaxed — allocation tally (see `alloc`).
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's — delegated to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // ORDERING: Relaxed — allocation tally (see `alloc`).
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's — delegated to `System`.
        unsafe { System.alloc_zeroed(layout) }
    }
}

/// Total number of heap allocations performed by the process so far
/// (0 forever unless the binary installed [`CountingAllocator`]).
pub fn heap_allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}
