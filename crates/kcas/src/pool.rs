//! Per-thread reusable descriptor pools (the Arbel-Raviv & Brown
//! descriptor-reuse transformation, DISC '17).
//!
//! Instead of heap-allocating a fresh descriptor for every published KCAS /
//! DCSS operation and retiring it through epoch-based reclamation, each
//! thread owns one KCAS and one DCSS descriptor *slot* that it recycles
//! across operations.  A slot lives forever (it is allocated once, on the
//! first operation of a thread, and returned to a free list when the thread
//! exits so a later thread can adopt it), which makes reading a slot's
//! fields always memory-safe — the only hazard is reading fields that belong
//! to a *newer* operation than the one a helper meant to help.
//!
//! That hazard is handled with sequence numbers:
//!
//! * every published descriptor word encodes `(slot index, seqno)`
//!   (see [`crate::word`]);
//! * a KCAS slot packs its seqno and its 2-bit status into one atomic word
//!   (`KcasSlot::seqstat`), so the DCSS control expectation
//!   `(seqno, UNDECIDED)` can never match a recycled descriptor — this is
//!   what prevents a stalled helper from resurrecting a completed operation;
//! * a DCSS slot keeps a plain seqno (`DcssSlot::seq`).
//!
//! ## The reuse protocol
//!
//! The owner of a slot publishes a new operation in this order:
//!
//! 1. **Invalidate**: bump the seqno (store `seqstat = (seq+1, UNDECIDED)`
//!    resp. `seq = seq+1`).  From this point every helper of the *previous*
//!    operation fails its seqno validation and aborts; the previous
//!    operation is necessarily complete, because the owner only reuses a
//!    slot after its own help routine returned.
//! 2. **Write** the operation's fields (entries, path), growing their
//!    storage first if they do not fit (below).  No thread can be reading
//!    them under the *new* seqno yet, because the new descriptor word has
//!    not been installed anywhere.
//! 3. **Publish** the word `(slot, seq+1)` by installing it into shared
//!    memory: the DCSS installation CAS, resp. the KCAS owner's lock of its
//!    first entry — a plain CAS, not a DCSS, because before it succeeds no
//!    helper can know the word, so the status is certainly `UNDECIDED`
//!    (every later lock of phase 1 is a DCSS).
//!
//! A helper must in turn:
//!
//! * validate `slot.seq == word.seq` *after* reading any field and *before*
//!   acting on it (in particular before dereferencing an address read from
//!   the slot) — on mismatch it abandons the help: the operation it meant to
//!   help is already decided and fully uninstalled;
//! * perform all its CASes with the seqno-carrying word itself, so a CAS
//!   prepared against a recycled descriptor can never succeed (the stale
//!   word never reappears in shared memory).
//!
//! ## Memory orderings
//!
//! Field cells, buffer pointers and lengths use release stores and acquire
//! loads.  The KCAS seqno word (`seqstat`) uses `SeqCst` throughout — it
//! doubles as the DCSS control word and the decide-CAS target, so it is on
//! the algorithm's linearizing path anyway.  The DCSS seqno (`seq`) is
//! *stored* with `Release` (it is bumped once per DCSS, and a full fence
//! there is measurable) and loaded with `SeqCst` by validators.
//! Release/acquire suffices for recycling detection because the owner bumps
//! the seqno *before* rewriting fields: if a helper's acquire field load
//! observes any value written for a newer operation, that load
//! synchronizes-with the release store, making the (program-order earlier)
//! seqno bump visible — so the helper's post-read seqno validation is
//! guaranteed to detect the recycling.  If every field load returned
//! old-operation values, the helper acts on a consistent (merely stale) field
//! set, which is harmless: its CASes carry the stale seqno-bearing word,
//! which was permanently removed from shared memory before the slot could be
//! recycled, so they fail by coherence. Publication in the other direction
//! (owner fields → helper) is ordered by the installing CAS (a `SeqCst` RMW)
//! that first makes the descriptor word reachable.
//!
//! ## Grow-only field storage
//!
//! A KCAS slot keeps its entry triples and path pairs in two heap buffers it
//! owns ([`GrowBuf`]).  When an operation does not fit, the owner — after
//! step 1, before step 3 — allocates the next power of two, stores the new
//! pointer and **never frees the old buffer**, exactly as slots themselves
//! are never freed.  The founding invariant above therefore holds unchanged:
//! whatever buffer pointer a helper loaded stays readable forever, and a
//! helper that loaded a stale pointer or length is caught by the same seqno
//! re-check that catches a stale field.  No epoch is involved.  A buffer at
//! least doubles each time it grows, so the abandoned ones sum to less than
//! the live one and a slot's footprint stays below twice the largest
//! operation ever published through it (DESIGN.md §3).

use std::cell::RefCell;
// Slot registration runs once per thread lifetime and is not part of the
// checked protocols: it stays on std atomics in every build, invisible to
// the model scheduler (a mock operation under the free-list lock would
// deadlock its cooperative scheduler).
use std::sync::atomic as registration; // xtask: allow(facade)
use std::sync::Mutex;

use loom_shim::facade::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use crate::engine::RawEntry;
use crate::word::{MAX_POOL_SLOTS, MAX_SEQ};

/// Status: the operation has not been decided yet.
pub(crate) const UNDECIDED: u64 = 0;
/// Status: the operation succeeded; helpers write new values.
pub(crate) const SUCCEEDED: u64 = 1;
/// Status: the operation failed; helpers restore old values.
pub(crate) const FAILED: u64 = 2;

/// Entries and path pairs a fresh KCAS slot has room for.  No operation of a
/// balanced structure comes near it (an AVL double rotation adds fewer than
/// 20 addresses; a 2^20-key AVL search visits about 30 nodes, and the
/// `vexec_strong` slow path turns those into as many more entries), so only
/// degenerate shapes — the unbalanced trees on sorted keys, a long list —
/// ever grow a slot.
const INITIAL_CAP: usize = 64;

/// Number of low bits of [`KcasSlot::seqstat`] holding the operation status.
const STATUS_BITS: u32 = 2;

/// Pack a seqno and a status into a `seqstat` word.
#[inline]
pub(crate) fn pack_seqstat(seq: u64, status: u64) -> u64 {
    debug_assert!(status <= 0b11);
    (seq << STATUS_BITS) | status
}

/// The seqno half of a `seqstat` word.
#[inline]
pub(crate) fn seqstat_seq(seqstat: u64) -> u64 {
    seqstat >> STATUS_BITS
}

/// The status half of a `seqstat` word.
#[inline]
pub(crate) fn seqstat_status(seqstat: u64) -> u64 {
    seqstat & 0b11
}

/// One `⟨addr, old, new⟩` triple of a published KCAS.  Values are stored in
/// their raw (tagged) representation so that helpers can CAS them directly.
#[derive(Default)]
pub(crate) struct EntryCell {
    /// Target address (`*const CasWord` as `usize`).
    pub(crate) addr: AtomicUsize,
    /// Expected value.
    pub(crate) old: AtomicU64,
    /// New value.
    pub(crate) new: AtomicU64,
}

/// One `⟨node version word, observed version⟩` pair of a published path.
#[derive(Default)]
pub(crate) struct VisitCell {
    /// Version-word address (`*const CasWord` as `usize`).
    pub(crate) ver_addr: AtomicUsize,
    /// Observed version (raw tagged representation).
    pub(crate) seen: AtomicU64,
}

/// Grow-only storage for one field array of a [`KcasSlot`] (module docs).
///
/// `ptr` always points at a leaked allocation of `cap` cells, and every
/// `len` ever stored alongside a given `ptr` is at most that allocation's
/// size; the two are only meaningful as a pair read under one seqno.
struct GrowBuf<T: 'static> {
    ptr: AtomicPtr<T>,
    len: AtomicUsize,
    /// Size of the allocation behind `ptr`.  Read and written by the slot's
    /// owner only; an atomic because the slot is shared.
    cap: AtomicUsize,
}

impl<T: Default + 'static> GrowBuf<T> {
    fn new() -> Self {
        GrowBuf {
            ptr: AtomicPtr::new(Self::alloc(INITIAL_CAP)),
            len: AtomicUsize::new(0),
            cap: AtomicUsize::new(INITIAL_CAP),
        }
    }

    fn alloc(cap: usize) -> *mut T {
        Box::leak((0..cap).map(|_| T::default()).collect::<Box<[T]>>()).as_mut_ptr()
    }

    /// Owner only, after the seqno bump: make room for `len` cells, record
    /// `len`, and return the cells for the owner to fill.
    fn reserve(&self, len: usize) -> &'static [T] {
        // ORDERING: Relaxed — `cap` is owner-only; ownership of a slot moves
        // between threads through the free list's mutex.
        if len > self.cap.load(Ordering::Relaxed) {
            let cap = len.next_power_of_two();
            self.ptr.store(Self::alloc(cap), Ordering::Release);
            // ORDERING: Relaxed — owner-only, as above.
            self.cap.store(cap, Ordering::Relaxed);
        }
        self.len.store(len, Ordering::Release);
        // SAFETY: `ptr` is the owner's own latest store — a leaked
        // allocation of `cap >= len` default-initialized cells.
        unsafe { std::slice::from_raw_parts(self.ptr.load(Ordering::Acquire), len) }
    }

    /// The `(ptr, len)` pair as currently stored.  The halves may belong to
    /// different operations until the caller has re-validated the seqno.
    fn load(&self) -> (*const T, usize) {
        (self.ptr.load(Ordering::Acquire), self.len.load(Ordering::Acquire))
    }
}

/// A reusable KCAS / PathCAS descriptor slot.
///
/// All fields are atomics because helpers may read them concurrently with
/// the owner recycling the slot; the seqno protocol (module docs) makes such
/// races benign.  Within one seqno the fields other than `seqstat` are
/// written only by the owner, before the descriptor word is published.
///
/// Aligned to a cache line of its own: `seqstat` is written by every
/// published operation of the owner, and two threads' slots must not share
/// a line because the allocator happened to place them side by side.
#[repr(align(64))]
pub(crate) struct KcasSlot {
    /// `(seqno << 2) | status`; the status moves `UNDECIDED →
    /// SUCCEEDED | FAILED` exactly once per seqno, via CAS.
    pub(crate) seqstat: AtomicU64,
    entries: GrowBuf<EntryCell>,
    path: GrowBuf<VisitCell>,
}

impl Default for KcasSlot {
    fn default() -> Self {
        KcasSlot { seqstat: AtomicU64::new(0), entries: GrowBuf::new(), path: GrowBuf::new() }
    }
}

impl KcasSlot {
    /// Owner only: steps 1 and 2a of the reuse protocol.  Bumps the seqno —
    /// invalidating every stalled helper of the slot's previous operation
    /// *before* any of its fields is overwritten — then makes room for the
    /// new operation.  Returns the new seqno and the cells to fill before
    /// the descriptor word is published.
    pub(crate) fn recycle(
        &self,
        entries: usize,
        path: usize,
    ) -> (u64, &'static [EntryCell], &'static [VisitCell]) {
        let seq = seqstat_seq(self.seqstat.load(Ordering::SeqCst)) + 1;
        debug_assert!(seq <= MAX_SEQ, "KCAS slot seqno overflow");
        self.seqstat.store(pack_seqstat(seq, UNDECIDED), Ordering::SeqCst);
        (seq, self.entries.reserve(entries), self.path.reserve(path))
    }

    /// Whether the slot still holds operation `seq`.
    #[inline]
    pub(crate) fn holds(&self, seq: u64) -> bool {
        seqstat_seq(self.seqstat.load(Ordering::SeqCst)) == seq
    }

    /// The entry and path cells of operation `seq`, or `None` if the slot
    /// has been recycled since.  The *cells* can still be overwritten by a
    /// later operation at any time: re-check [`holds`](Self::holds) after
    /// reading one and before acting on what was read.
    pub(crate) fn fields(&self, seq: u64) -> Option<(&'static [EntryCell], &'static [VisitCell])> {
        let (entries, len) = self.entries.load();
        let (path, path_len) = self.path.load();
        if !self.holds(seq) {
            return None;
        }
        // SAFETY: the owner bumps the seqno before it stores a pointer or a
        // length for a newer operation, with release stores, so acquire
        // loads followed by a matching seqno all returned operation `seq`'s
        // values (module docs, "Memory orderings").  Each pair is therefore
        // a leaked, never-freed allocation and a length within it.
        Some(unsafe {
            (std::slice::from_raw_parts(entries, len), std::slice::from_raw_parts(path, path_len))
        })
    }
}

/// A reusable DCSS descriptor slot (same protocol as [`KcasSlot`], with a
/// bare seqno because a DCSS has no multi-step status — completion removes
/// the descriptor word from the target).  On a cache line of its own, like
/// a [`KcasSlot`]: every DCSS of the owner rewrites it.
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct DcssSlot {
    /// Monotonically increasing sequence number; bumped before the fields
    /// are rewritten for a new operation.
    pub(crate) seq: AtomicU64,
    /// Control-word address (`*const AtomicU64` as `usize`).
    pub(crate) addr1: AtomicUsize,
    /// Expected control-word value.
    pub(crate) exp1: AtomicU64,
    /// Target-word address (`*const CasWord` as `usize`).
    pub(crate) addr2: AtomicUsize,
    /// Expected target value (raw tagged representation).
    pub(crate) old2: AtomicU64,
    /// New target value (raw tagged representation).
    pub(crate) new2: AtomicU64,
}

/// A global table of descriptor slots of one kind.  A slot index that has
/// ever appeared in a published descriptor word maps to a non-null pointer
/// forever: slots are allocated once and never freed; thread exit only
/// returns the *index* to the free list so a later thread can adopt the
/// existing slot, seqno intact.
pub(crate) struct SlotTable<S: 'static> {
    slots: [registration::AtomicPtr<S>; MAX_POOL_SLOTS],
    next: registration::AtomicUsize,
    /// Indices of slots whose owning thread has exited.  Only touched at
    /// thread birth/death, never on the operation hot path.
    free: Mutex<Vec<usize>>,
}

pub(crate) static KCAS_SLOTS: SlotTable<KcasSlot> = SlotTable::new();
pub(crate) static DCSS_SLOTS: SlotTable<DcssSlot> = SlotTable::new();

impl<S: Default + 'static> SlotTable<S> {
    const fn new() -> Self {
        SlotTable {
            slots: [const { registration::AtomicPtr::new(std::ptr::null_mut()) }; MAX_POOL_SLOTS],
            next: registration::AtomicUsize::new(0),
            free: Mutex::new(Vec::new()),
        }
    }

    fn free_list(&self) -> std::sync::MutexGuard<'_, Vec<usize>> {
        self.free.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Take a slot for the calling thread: an exited thread's, or a new one.
    fn acquire(&self) -> (usize, &'static S) {
        // ORDERING: Relaxed — the dispenser only needs the RMW's atomicity
        // for index uniqueness; slot contents are published by the table's
        // Release store below.
        let idx = self.free_list().pop().unwrap_or_else(|| self.next.fetch_add(1, Ordering::Relaxed));
        assert!(
            idx < MAX_POOL_SLOTS,
            "descriptor pool exhausted ({MAX_POOL_SLOTS} slots, one per live thread)"
        );
        let existing = self.slots[idx].load(Ordering::Acquire);
        if existing.is_null() {
            let fresh: &'static S = Box::leak(Box::default());
            self.slots[idx].store(fresh as *const S as *mut S, Ordering::Release);
            (idx, fresh)
        } else {
            // SAFETY: table entries, once set, point at leaked (never freed)
            // slots; the index was handed to exactly this thread.
            (idx, unsafe { &*existing })
        }
    }

    /// Resolve a slot index read from a published descriptor word.
    ///
    /// The pointer is non-null for every index that has ever been published:
    /// the owner registers the slot (with a release store) before the
    /// descriptor word can first be installed, and slots are never freed.
    pub(crate) fn get(&self, idx: usize) -> &'static S {
        let ptr = self.slots[idx & (MAX_POOL_SLOTS - 1)].load(Ordering::Acquire);
        assert!(!ptr.is_null(), "descriptor word names an unregistered slot");
        // SAFETY: non-null table entries point at leaked slots.
        unsafe { &*ptr }
    }
}

/// The calling thread's descriptor pool: one KCAS and one DCSS slot
/// (Arbel-Raviv & Brown: one reusable descriptor per thread per type),
/// registered on first use and returned to the free lists when the thread
/// exits, plus the scratch buffer its operations are sorted in.
struct ThreadPool {
    kcas: (usize, &'static KcasSlot),
    dcss: (usize, &'static DcssSlot),
    sort_scratch: RefCell<Vec<RawEntry>>,
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Return the slot *indices*; the slots themselves (and their current
        // seqnos) stay in the table so stale helpers of this thread's last
        // operations still validate correctly against the adopting thread's
        // future seqnos.
        KCAS_SLOTS.free_list().push(self.kcas.0);
        DCSS_SLOTS.free_list().push(self.dcss.0);
    }
}

thread_local! {
    static POOL: ThreadPool = ThreadPool {
        kcas: KCAS_SLOTS.acquire(),
        dcss: DCSS_SLOTS.acquire(),
        sort_scratch: RefCell::new(Vec::with_capacity(INITIAL_CAP)),
    };
}

/// Run `f` with the calling thread's KCAS slot and its (empty) sort scratch.
/// The owner reuses the slot only after its own help returned, and helping
/// others never publishes, so `f` is never re-entered.
pub(crate) fn with_kcas_slot<R>(
    f: impl FnOnce(usize, &'static KcasSlot, &mut Vec<RawEntry>) -> R,
) -> R {
    POOL.with(|p| {
        let mut scratch = p.sort_scratch.borrow_mut();
        scratch.clear();
        f(p.kcas.0, p.kcas.1, &mut scratch)
    })
}

/// Run `f` with the calling thread's DCSS slot.
pub(crate) fn with_dcss_slot<R>(f: impl FnOnce(usize, &'static DcssSlot) -> R) -> R {
    POOL.with(|p| f(p.dcss.0, p.dcss.1))
}

/// A diagnostic snapshot of the calling thread's descriptor pool, for tests
/// (e.g. asserting that operations recycle slots instead of allocating).
#[derive(Debug, Clone, Copy)]
pub struct PoolStats {
    /// Global table index of this thread's KCAS slot.
    pub kcas_slot: usize,
    /// Current sequence number of the KCAS slot (one publish = one bump).
    pub kcas_seq: u64,
    /// Global table index of this thread's DCSS slot.
    pub dcss_slot: usize,
    /// Current sequence number of the DCSS slot (one DCSS = one bump).
    pub dcss_seq: u64,
}

/// Snapshot the calling thread's descriptor pool (registering it if this
/// thread has not performed an operation yet).
pub fn local_pool_stats() -> PoolStats {
    POOL.with(|p| PoolStats {
        kcas_slot: p.kcas.0,
        kcas_seq: seqstat_seq(p.kcas.1.seqstat.load(Ordering::SeqCst)),
        dcss_slot: p.dcss.0,
        dcss_seq: p.dcss.1.seq.load(Ordering::SeqCst),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seqstat_packing_roundtrip() {
        for seq in [0u64, 1, 7, 1 << 40] {
            for status in [0u64, 1, 2] {
                let ss = pack_seqstat(seq, status);
                assert_eq!(seqstat_seq(ss), seq);
                assert_eq!(seqstat_status(ss), status);
            }
        }
    }

    #[test]
    fn thread_pool_registers_distinct_slots() {
        // One slot of each kind per thread, and never a slot that another
        // live thread holds.
        let mine = local_pool_stats();
        let theirs = std::thread::spawn(local_pool_stats).join().unwrap();
        assert_ne!(mine.kcas_slot, theirs.kcas_slot);
        assert_ne!(mine.dcss_slot, theirs.dcss_slot);
    }

    #[test]
    fn grown_slot_keeps_its_room_and_its_old_buffers() {
        let slot = KcasSlot::default();
        let (_, small, _) = slot.recycle(3, 0);
        small[2].old.store(7, Ordering::Release);
        let (seq, big, path) = slot.recycle(INITIAL_CAP + 1, 5 * INITIAL_CAP);
        assert_eq!((big.len(), path.len()), (INITIAL_CAP + 1, 5 * INITIAL_CAP));
        assert_ne!(small.as_ptr(), big.as_ptr(), "the entry buffer did not grow");
        // A helper of the first operation can still read what it was reading.
        assert_eq!(small[2].old.load(Ordering::Acquire), 7);
        assert!(slot.fields(seq - 1).is_none() && slot.fields(seq).is_some());
        // Smaller operations reuse the grown buffers.
        let (_, again, path_again) = slot.recycle(2, 1);
        assert_eq!((again.as_ptr(), path_again.as_ptr()), (big.as_ptr(), path.as_ptr()));
    }

    #[test]
    fn exited_threads_slots_are_adopted() {
        // The second thread starts after the first exited, so it adopts the
        // same table index from the free list.  Other
        // unit tests run concurrently in this binary and may snatch the
        // returned indices between our two spawns, so accept success on any
        // of several attempts instead of demanding it on the first.
        for _ in 0..20 {
            let first = std::thread::spawn(local_pool_stats).join().unwrap();
            let second = std::thread::spawn(local_pool_stats).join().unwrap();
            if second.kcas_slot == first.kcas_slot {
                return;
            }
        }
        panic!("no slot adoption observed in 20 attempts — free list is not recycling indices");
    }
}
