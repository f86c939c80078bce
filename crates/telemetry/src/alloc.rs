//! A counting global allocator, for the test binaries that hold a path to an
//! allocation contract: the warm server path and the KCAS success path
//! allocate nothing, a closed connection gives its buffers back, a warm scan
//! or update allocates a bounded number of times.
//!
//! A binary opts in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: telemetry::alloc::CountingAllocator = telemetry::alloc::CountingAllocator;
//! ```
//!
//! and brackets a measured window with [`allocations`] or [`live_bytes`].
//! Both are process-wide: a window sees every thread's allocations, so a
//! test that measures one quiesces everything but the work under test.
//!
//! The tallies are std atomics, never the model checker's mocks: a global
//! allocator runs in every build, the `pathcas_loom` one included, and must
//! stay invisible to its scheduler.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering}; // xtask: allow(facade) — module docs

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// A [`System`]-backed allocator that counts `alloc`, `alloc_zeroed` and
/// `realloc` calls and tracks the bytes left live.
pub struct CountingAllocator;

/// Count one allocating call that changed the live heap by `delta` bytes.
#[inline]
fn allocated(delta: isize) {
    // ORDERING: Relaxed — tallies read at quiescent points of a test; no
    // memory is published through them.
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    LIVE_BYTES.fetch_add(delta as i64, Ordering::Relaxed);
}

// SAFETY: every method passes its arguments to `System` unchanged and
// returns what `System` returns; the counting touches two statics and
// never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        allocated(layout.size() as isize);
        // SAFETY: the caller's contract, passed on to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        allocated(layout.size() as isize);
        // SAFETY: the caller's contract, passed on to `System`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        allocated(new_size as isize - layout.size() as isize);
        // SAFETY: the caller's contract, passed on to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // ORDERING: Relaxed — see `allocated`.
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed on to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `alloc`, `alloc_zeroed` and `realloc` calls made by the process so far
/// (0 forever unless the binary installed [`CountingAllocator`]).
pub fn allocations() -> u64 {
    // ORDERING: Relaxed — see `allocated`.
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Heap bytes allocated and not yet freed, counted from the first
/// allocation the process made through [`CountingAllocator`].
pub fn live_bytes() -> i64 {
    // ORDERING: Relaxed — see `allocated`.
    LIVE_BYTES.load(Ordering::Relaxed)
}
