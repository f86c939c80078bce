//! The benchmark binary's counting allocator.  Counting is switched on only
//! for traced windows and the ladder, so the untraced end-to-end windows pay
//! one relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Threads add to the shared tally in batches of this many, so two allocating
/// threads do not bounce its cache line on every allocation.  Up to a batch
/// per thread goes unreported, against millions counted.
const BATCH: u64 = 64;

thread_local! {
    // Const-initialised and without a destructor, so touching it never allocates.
    static PENDING: Cell<u64> = const { Cell::new(0) };
}

pub struct CountingAllocator;

#[inline]
fn count() {
    // ORDERING: Relaxed — a tally read at quiescent points; publishes nothing.
    if COUNTING.load(Ordering::Relaxed) {
        PENDING.with(|p| {
            let n = p.get() + 1;
            if n == BATCH {
                ALLOCATIONS.fetch_add(BATCH, Ordering::Relaxed);
                p.set(0);
            } else {
                p.set(n);
            }
        });
    }
}

// SAFETY: every operation is delegated to `System` unchanged; only a counter is added.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed through to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed through to `System`.
        unsafe { System.alloc_zeroed(layout) }
    }
}

pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Allocations counted so far (only while counting was on).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}
