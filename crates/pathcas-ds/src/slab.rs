//! The record manager of the PathCAS trees: where a node's 64 bytes live.
//!
//! The split is Brown's (PODC '15, PAPERS.md): an *allocator* takes memory
//! from the system — 64 B-aligned chunks that are never given back, the
//! grow-only rule descriptor slots already follow; a *pool* keeps freed
//! records for reuse — a LIFO free list per thread, and one global orphan pool
//! that bounds what threads hoard; and a *reclaimer* decides when a removed
//! record may enter the pool — the epoch collector, because [`retire`] defers
//! the [`free`].  A slot is reused exactly where a `Box` would have been
//! handed back to `malloc`, so reuse needs no argument `free` did not need;
//! DESIGN.md §3 ("Node slabs") has the rest.

use std::alloc::{alloc as system_alloc, handle_alloc_error, Layout};
use std::cell::RefCell;
use std::mem::{replace, take, MaybeUninit};
use std::ptr::{null_mut, NonNull};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crossbeam_epoch::Guard;

/// Size and alignment of a slot: one cache line.
pub(crate) const SLOT_BYTES: usize = 64;
/// Free slots change hands between a thread and the orphan pool this many at
/// a time; a thread keeps two batches at most.
const BATCH: usize = 1024;
/// A thread's first chunks are small: a tree of a few thousand keys, or a
/// thread that inserts now and then, reserves no more than this at a time.
const SMALL_CHUNK: usize = 256 << 10;
/// Once a thread has opened [`HUGE_AFTER`] bytes its chunks are one
/// 2 MiB-aligned huge-page candidate each.
const HUGE_CHUNK: usize = 2 << 20;
const HUGE_AFTER: usize = 4 << 20;
/// How often a thread bumping through a run looks for slots to recycle
/// instead: at each page it has not touched yet.  (A larger real page only
/// makes the look more frequent than it need be.)
const PAGE_BYTES: usize = 4096;

/// One node's storage.
#[repr(C, align(64))]
pub(crate) struct Slot(MaybeUninit<[u8; SLOT_BYTES]>);

#[cfg(target_os = "linux")]
extern "C" {
    // SAFETY: libc's `madvise(2)`; `size_t` is `usize` and `int` is `i32` on
    // every Linux target.
    fn madvise(addr: *mut u8, length: usize, advice: i32) -> i32;
}
/// `madvise` advice: back the range with transparent huge pages.
#[cfg(target_os = "linux")]
const MADV_HUGEPAGE: i32 = 14;

/// Bytes of every chunk ever opened, process-wide.
static RESERVED: AtomicUsize = AtomicUsize::new(0);

/// An intrusive LIFO list of free slots: the first word of a slot on the list
/// (a node's `key`) holds the address of the next.
struct Chain {
    head: *mut Slot,
    len: usize,
}

impl Default for Chain {
    fn default() -> Self {
        Chain::EMPTY
    }
}

impl Chain {
    const EMPTY: Chain = Chain { head: null_mut(), len: 0 };

    /// # Safety
    /// `slot` is a slab slot that nothing else refers to any more.
    #[inline]
    unsafe fn push(&mut self, slot: NonNull<Slot>) {
        // SAFETY: per the contract the slot is this chain's alone, and it is
        // large and aligned enough for a pointer.
        unsafe { slot.cast::<*mut Slot>().write(self.head) };
        self.head = slot.as_ptr();
        self.len += 1;
    }

    #[inline]
    fn pop(&mut self) -> Option<NonNull<Slot>> {
        let slot = NonNull::new(self.head)?;
        // SAFETY: `push` wrote this word when it linked the slot, and nothing
        // but the chain has touched the slot since.
        self.head = unsafe { slot.cast::<*mut Slot>().read() };
        self.len -= 1;
        // The next pop reads the link in the new head, a line nobody has
        // touched since it was freed: asked for now, it is there by then.
        // (Eight shards dropped one after the other leave chains that stride
        // over each other's slots, which no hardware prefetcher follows: the
        // miss per pop made their rebuild 5 % slower than `malloc`'s, 1.5 %
        // with this line.)
        prefetch(self.head);
        Some(slot)
    }
}

/// Hint that the line at `slot` will be read soon.
#[inline]
pub(crate) fn prefetch(slot: *const Slot) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint without architectural effect; it cannot
    // fault, whatever the address (null included).
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(slot.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = slot;
}

/// The tail of a chunk that has never been handed out: slots `next..end`.
struct Run {
    next: *mut Slot,
    end: *mut Slot,
}

impl Default for Run {
    fn default() -> Self {
        Run::EMPTY
    }
}

impl Run {
    const EMPTY: Run = Run { next: null_mut(), end: null_mut() };

    fn is_empty(&self) -> bool {
        self.next == self.end
    }

    /// Whether the next slot is the first of a page (or the run is empty):
    /// memory that bumping would touch for the first time.
    fn at_fresh_page(&self) -> bool {
        self.is_empty() || (self.next as usize).is_multiple_of(PAGE_BYTES)
    }

    fn bump(&mut self) -> Option<NonNull<Slot>> {
        if self.is_empty() {
            return None;
        }
        let slot = NonNull::new(self.next);
        // SAFETY: `next < end`, so the slot after it is inside the chunk or
        // one past its end.
        self.next = unsafe { self.next.add(1) };
        slot
    }
}

/// What no thread owns: the free lists and unused runs of threads that have
/// exited, and the batches that threads freeing more than they allocate have
/// given up.  Chains come back out last in, first out — see [`free_all`].
#[derive(Default)]
struct Orphans {
    chains: Vec<Chain>,
    runs: Vec<Run>,
}

// SAFETY: the pool owns every slot its chains and runs point into — a slot
// gets here only from the thread that owned it, and leaves only to the one
// thread that pops it — so the pointers may cross threads with the pool.
unsafe impl Send for Orphans {}

static ORPHANS: Mutex<Orphans> = Mutex::new(Orphans { chains: Vec::new(), runs: Vec::new() });

/// A panic cannot leave the pool half-updated (every update is one `Vec` push
/// or pop), and `Drop` must not panic: a poisoned lock is entered anyway.
fn lock(pool: &Mutex<Orphans>) -> MutexGuard<'_, Orphans> {
    pool.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One thread's share of the slab.
struct Slab {
    pool: &'static Mutex<Orphans>,
    /// Where `free` pushes and `alloc` pops.
    free: Chain,
    /// A full batch kept back, so that a thread hovering around a batch
    /// boundary goes to the pool once per [`BATCH`] operations at most.
    full: Chain,
    run: Run,
    /// Bytes of the chunks this thread has opened.
    opened: usize,
}

impl Slab {
    const fn new(pool: &'static Mutex<Orphans>) -> Self {
        Slab { pool, free: Chain::EMPTY, full: Chain::EMPTY, run: Run::EMPTY, opened: 0 }
    }

    /// The free list first, then the bump run.  Recycled slots come before
    /// fresh memory: a thread adopts from the orphan pool before it touches
    /// a new page of its run, let alone opens a chunk.
    #[inline]
    fn alloc(&mut self) -> NonNull<Slot> {
        match self.free.pop() {
            Some(slot) => slot,
            None => self.alloc_bumping(),
        }
    }

    fn alloc_bumping(&mut self) -> NonNull<Slot> {
        if self.full.len != 0 {
            self.free = take(&mut self.full);
        } else if !self.run.at_fresh_page() {
            return self.run.bump().expect("a run that is not empty");
        } else {
            // Once per 64 slots bumped, so the lock costs a build nothing.
            let mut pool = lock(self.pool);
            if let Some(chain) = pool.chains.pop() {
                self.free = chain;
            } else {
                if self.run.is_empty() {
                    self.run = match pool.runs.pop() {
                        Some(run) => run,
                        None => {
                            drop(pool);
                            self.open_chunk()
                        }
                    };
                }
                return self.run.bump().expect("a run that is not empty");
            }
        }
        self.free.pop().expect("a chain that is not empty")
    }

    fn open_chunk(&mut self) -> Run {
        let huge = self.opened >= HUGE_AFTER;
        let (bytes, align) = if huge { (HUGE_CHUNK, HUGE_CHUNK) } else { (SMALL_CHUNK, SLOT_BYTES) };
        let layout = Layout::from_size_align(bytes, align).expect("a power-of-two chunk layout");
        // SAFETY: the layout's size is not zero.
        let base = unsafe { system_alloc(layout) };
        if base.is_null() {
            handle_alloc_error(layout);
        }
        #[cfg(target_os = "linux")]
        if huge {
            // SAFETY: the range is exactly the chunk just allocated, which is
            // never freed; the advice changes how it is backed, not what it
            // holds.  A refusal (no THP, an old kernel) leaves plain pages.
            unsafe { madvise(base, bytes, MADV_HUGEPAGE) };
        }
        self.opened += bytes;
        // ORDERING: Relaxed — a statistic read by `slab_stats`; publishes nothing.
        RESERVED.fetch_add(bytes, Ordering::Relaxed);
        let next = base.cast::<Slot>();
        // SAFETY: `bytes` is a multiple of the slot size, so `end` is the one
        // past the end of the chunk.
        Run { next, end: unsafe { next.add(bytes / SLOT_BYTES) } }
    }

    /// # Safety
    /// As [`Chain::push`].
    #[inline]
    unsafe fn free(&mut self, slot: NonNull<Slot>) {
        if self.free.len == BATCH {
            let donated = replace(&mut self.full, take(&mut self.free));
            if donated.len != 0 {
                lock(self.pool).chains.push(donated);
            }
        }
        // SAFETY: the caller's contract.
        unsafe { self.free.push(slot) };
    }

    /// # Safety
    /// As [`Chain::push`], for the slot at every address in `words`.
    unsafe fn free_all(&mut self, words: &mut [u64]) {
        words.sort_unstable();
        for &word in words.iter().rev() {
            let slot = NonNull::new(word as usize as *mut Slot).expect("a node address");
            // SAFETY: the caller's contract.
            unsafe { self.free(slot) };
        }
    }
}

impl Drop for Slab {
    /// Thread exit: everything the thread held goes to the orphan pool —
    /// `free` last, so that it is the first chain to come back out.
    fn drop(&mut self) {
        let mut pool = lock(self.pool);
        for chain in [take(&mut self.full), take(&mut self.free)] {
            if chain.len != 0 {
                pool.chains.push(chain);
            }
        }
        if !self.run.is_empty() {
            pool.runs.push(take(&mut self.run));
        }
    }
}

thread_local! {
    static SLAB: RefCell<Slab> = const { RefCell::new(Slab::new(&ORPHANS)) };
}

/// Run `f` on the calling thread's slab.  A thread whose slab is already
/// destroyed (a tree dropped from a later thread-local destructor) gets a
/// throwaway one, which hands whatever it ends up holding to the orphan pool.
#[inline]
fn with_slab<R>(mut f: impl FnMut(&mut Slab) -> R) -> R {
    SLAB.try_with(|slab| f(&mut slab.borrow_mut())).unwrap_or_else(|_| f(&mut Slab::new(&ORPHANS)))
}

/// A slot nothing else refers to: 64 bytes, 64 B-aligned, uninitialised.
#[inline]
pub(crate) fn alloc() -> NonNull<Slot> {
    with_slab(Slab::alloc)
}

/// Put a slot on the calling thread's free list; the next [`alloc`] on this
/// thread hands it out again.
///
/// # Safety
/// `slot` came from [`alloc`], no thread can reach it any more, and it is
/// freed once.  What it held is not dropped.
#[inline]
pub(crate) unsafe fn free(slot: NonNull<Slot>) {
    // SAFETY: the caller's contract.
    with_slab(|slab| unsafe { slab.free(slot) });
}

/// Free the slot of an unlinked node once no guard pinned now remains.  The
/// collector runs the deferred `free` on this thread, so the slot comes back
/// to the free list of the thread that retired it, unsynchronised.
///
/// # Safety
/// `slot` came from [`alloc`], is unreachable for operations that start
/// later, and is retired once.
#[inline]
pub(crate) unsafe fn retire(slot: NonNull<Slot>, guard: &Guard) {
    // SAFETY: per the contract only operations pinned now can still hold the
    // slot, and the closure runs after all of them have unpinned; it captures
    // one pointer and borrows nothing.
    unsafe { guard.defer_unchecked(move || free(slot)) };
}

/// Free every slot of a dropped tree (`words` are their addresses, in any
/// order) so that they are handed out again in ascending address order: the
/// next tree's first — upper-level — nodes then share a few pages instead of
/// being strewn over all of them in the order a walk happened to free them.
/// The order survives the orphan pool: batches go in highest addresses first
/// and come back out last in, first out.
///
/// # Safety
/// As [`free`], for every word.
pub(crate) unsafe fn free_all(words: &mut [u64]) {
    // SAFETY: the caller's contract.
    with_slab(|slab| unsafe { slab.free_all(words) });
}

/// Test support: `(bytes reserved, free slots, orphan runs)` — the bytes of
/// every chunk opened so far in the process, the free slots of the calling
/// thread plus the orphan pool's, and the unused runs in the orphan pool.
#[doc(hidden)]
pub fn slab_stats() -> (usize, usize, usize) {
    let local = with_slab(|slab| slab.free.len + slab.full.len);
    let pool = lock(&ORPHANS);
    let orphaned: usize = pool.chains.iter().map(|chain| chain.len).sum();
    // ORDERING: Relaxed — a statistic; see `open_chunk`.
    (RESERVED.load(Ordering::Relaxed), local + orphaned, pool.runs.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avl::Avl;
    use crate::tree::Node;
    use crate::PathCasAvl;
    use mapapi::ConcurrentMap;

    /// Slots in one small chunk.
    const CHUNK_SLOTS: usize = SMALL_CHUNK / SLOT_BYTES;

    /// A slab on an orphan pool of its own, so that what sibling tests do to
    /// the global pool cannot reach it.
    fn private_pool() -> &'static Mutex<Orphans> {
        Box::leak(Box::default())
    }

    fn address(slot: NonNull<Slot>) -> usize {
        slot.as_ptr() as usize
    }

    #[test]
    fn every_slot_is_aligned_and_distinct() {
        // Enough to cross two chunk boundaries.
        let slots: Vec<_> = (0..2 * CHUNK_SLOTS + 100).map(|_| alloc()).collect();
        let mut addresses: Vec<usize> = slots.iter().map(|&s| address(s)).collect();
        assert!(addresses.iter().all(|a| a.is_multiple_of(SLOT_BYTES)));
        addresses.sort_unstable();
        assert!(addresses.windows(2).all(|w| w[1] - w[0] >= SLOT_BYTES), "two slots overlap");
        for slot in slots {
            // SAFETY: handed out above, never shared, freed once.
            unsafe { free(slot) };
        }
    }

    #[test]
    fn a_freed_slot_is_the_next_one_handed_out() {
        let (a, b) = (alloc(), alloc());
        // SAFETY: both were just handed out and are freed once each.
        unsafe {
            free(a);
            free(b);
        }
        assert_eq!((alloc(), alloc()), (b, a));
        // SAFETY: as above.
        unsafe {
            free(a);
            free(b);
        }
    }

    #[test]
    fn a_huge_chunk_follows_the_small_ones() {
        let mut slab = Slab::new(private_pool());
        let small = HUGE_AFTER / SLOT_BYTES;
        let slots: Vec<_> = (0..small + 1).map(|_| slab.alloc()).collect();
        assert_eq!(slab.opened, HUGE_AFTER + HUGE_CHUNK);
        assert_eq!(address(slots[small]) % HUGE_CHUNK, 0, "a huge chunk is not 2 MiB-aligned");
        // The whole chunk is usable whether or not the kernel took the advice.
        // SAFETY: the slot is this test's alone.
        unsafe { slots[small].as_ptr().write_bytes(0xA5, 1) };
        assert_eq!(address(slab.alloc()), address(slots[small]) + SLOT_BYTES);
    }

    #[test]
    fn an_exiting_thread_hands_its_free_list_and_run_to_the_next_dry_one() {
        let pool = private_pool();
        let mut first = Slab::new(pool);
        let slots: Vec<_> = (0..3000).map(|_| first.alloc()).collect();
        for &slot in &slots {
            // SAFETY: handed out above, freed once.
            unsafe { first.free(slot) };
        }
        assert_eq!(first.opened, SMALL_CHUNK);
        drop(first);
        {
            let orphans = lock(pool);
            assert_eq!(orphans.chains.iter().map(|chain| chain.len).sum::<usize>(), 3000);
            assert_eq!(orphans.runs.len(), 1);
        }

        // Everything the chunk holds comes back out before a chunk is opened.
        let mut second = Slab::new(pool);
        let mut adopted: Vec<usize> = (0..CHUNK_SLOTS).map(|_| address(second.alloc())).collect();
        assert_eq!(second.opened, 0, "a dry thread opened a chunk with orphans in the pool");
        adopted.sort_unstable();
        adopted.dedup();
        assert_eq!(adopted.len(), CHUNK_SLOTS);
        second.alloc();
        assert_eq!(second.opened, SMALL_CHUNK);
    }

    #[test]
    fn recycled_slots_come_before_a_fresh_page() {
        let pool = private_pool();
        let mut builder = Slab::new(pool);
        let built: Vec<_> = (0..100).map(|_| builder.alloc()).collect();
        // Another thread drops what this one built, and exits.
        let mut dropper = Slab::new(pool);
        for &slot in &built {
            // SAFETY: handed out above, freed once.
            unsafe { dropper.free(slot) };
        }
        drop(dropper);
        // The builder has most of a chunk left to bump through: it finishes
        // the page it is on, then takes the 100 back before it touches the next.
        let fresh = (builder.run.next as usize).next_multiple_of(PAGE_BYTES);
        let in_page = (fresh - builder.run.next as usize) / SLOT_BYTES;
        for _ in 0..in_page + built.len() {
            assert!(address(builder.alloc()) < fresh, "a fresh page was touched with orphans in the pool");
        }
        assert_eq!(address(builder.alloc()), fresh);
    }

    #[test]
    fn a_thread_that_only_frees_donates_what_it_is_given() {
        let pool = private_pool();
        let (mut producer, mut consumer) = (Slab::new(pool), Slab::new(pool));
        for _round in 0..20 {
            for _ in 0..CHUNK_SLOTS {
                let slot = producer.alloc();
                // SAFETY: just handed out, freed once (by the other slab, as
                // a node removed by another thread is).
                unsafe { consumer.free(slot) };
            }
            assert!(consumer.free.len + consumer.full.len <= 2 * BATCH);
        }
        // The producer drains a chunk before it looks at the pool, and finds
        // there all but the two batches the consumer may keep.
        assert!(producer.opened <= 2 * SMALL_CHUNK, "{} bytes opened", producer.opened);
    }

    #[test]
    fn a_dropped_trees_slots_come_back_in_address_order_through_the_pool() {
        let mut slab = Slab::new(private_pool());
        // One whole chunk, so that no unused run is left to come first.
        let mut words: Vec<u64> = (0..CHUNK_SLOTS).map(|_| address(slab.alloc()) as u64).collect();
        // Return them as a walk would: in no useful order.
        words.sort_unstable_by_key(|w| w.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        assert!(!words.is_sorted());
        // SAFETY: handed out above, freed once.
        unsafe { slab.free_all(&mut words) };
        assert!(lock(slab.pool).chains.len() >= 2, "nothing went through the pool");
        let again: Vec<u64> = (0..CHUNK_SLOTS).map(|_| address(slab.alloc()) as u64).collect();
        assert!(again.is_sorted(), "slots do not come back in address order");
        assert_eq!(again, words);
        assert_eq!(slab.opened, SMALL_CHUNK);
    }

    /// Address of the node holding `key` (quiescent).
    fn word_of(tree: &PathCasAvl, key: u64) -> u64 {
        let mut word = None;
        tree.for_each_node(|_, k, at| {
            if k == key {
                word = Some(at.word);
            }
        });
        word.expect("the key is present")
    }

    #[test]
    fn a_rebuilt_tree_gets_ascending_addresses() {
        const KEYS: u64 = 1_000;
        // The thread is new and keeps everything the dropped tree returns:
        // it held less than a batch when the tree was dropped, and two
        // batches fit before anything goes to the pool other tests share.
        const { assert!(KEYS as usize + 2 < BATCH) };
        std::thread::spawn(|| {
            let build = || {
                let tree = PathCasAvl::new();
                for key in 1..=KEYS {
                    assert!(tree.insert(key, key));
                }
                tree
            };
            drop(build());
            let tree = build();
            let words: Vec<u64> = (1..=KEYS).map(|key| word_of(&tree, key)).collect();
            assert!(words.windows(2).all(|w| w[0] < w[1]), "insertion order is not address order");
        })
        .join()
        .expect("the rebuilding thread panicked");
    }

    #[test]
    fn a_retired_slot_is_not_handed_out_while_a_guard_from_before_is_pinned() {
        let tree = PathCasAvl::new();
        for key in 1..=64u64 {
            assert!(tree.insert(key, key));
        }
        // A leaf: removing it unlinks and retires its own node.
        let (mut leaf_key, mut leaf_word) = (0, 0);
        tree.for_each_node(|node, key, at| {
            if node.left.load_quiescent() == crate::node::NIL
                && node.right.load_quiescent() == crate::node::NIL
            {
                (leaf_key, leaf_word) = (key, at.word);
            }
        });
        let guard = crossbeam_epoch::pin();
        assert!(tree.remove(leaf_key));
        // Churn that would reuse the slot at once if it were already free.
        for key in 1_000..1_500u64 {
            assert!(tree.insert(key, key));
            assert_ne!(word_of(&tree, key), leaf_word, "a retired slot was reused under a guard");
            if key % 2 == 0 {
                assert!(tree.remove(key));
            }
            guard.flush();
        }
        // SAFETY: `guard` was pinned before the node was retired, which is
        // what keeps the slot a node.
        let node = unsafe { &*(leaf_word as usize as *const Node<Avl>) };
        assert_eq!(node.ver.load_quiescent() & 1, 1, "the removed node is not marked");
        assert_eq!(node.key.load_quiescent(), leaf_key);
        drop(guard);

        // Unpinned, the epoch moves on and the slot comes back.  By the
        // clock: sibling tests' threads get descheduled while pinned.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        // The inserts stay, so that the free list drains down to the slot
        // (it was collected first and lies deepest).
        let mut key = 2_000u64;
        loop {
            crossbeam_epoch::pin().flush();
            assert!(tree.insert(key, key));
            if word_of(&tree, key) == leaf_word {
                break;
            }
            key += 1;
            assert!(std::time::Instant::now() < deadline, "the retired slot never came back");
        }
        tree.check_invariants();
    }
}
