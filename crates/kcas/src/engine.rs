//! The KCAS engine: `help`, path validation, `read` (the paper's `KCASRead`)
//! and the multi-word CAS entry points.
//!
//! This is the Harris-Fraser-Pratt KCAS algorithm (§3.1) extended with the
//! two "red lines" of Algorithm 1: after all addresses have been "locked"
//! with DCSS, the visited path is validated (Algorithm 2) before the status
//! is decided.  A descriptor with an empty path behaves exactly like the
//! original HFP KCAS.
//!
//! Where the CPU has RTM, [`execute`] and [`execute_raw`] first try to do
//! all of that inside one hardware transaction ([`crate::htm`]) and reach
//! the descriptor protocol below only when it cannot commit.
//!
//! Operations publish through reusable per-thread descriptor slots
//! ([`crate::pool`]) — the Arbel-Raviv & Brown reuse transformation the
//! paper applies — so the success path performs **zero heap allocations**.
//! Two situations use the legacy heap-allocated descriptor instead: an
//! operation too large for a slot (capacity [`SLOT_ENTRY_CAP`] /
//! [`SLOT_PATH_CAP`]), and explicit calls to [`execute_alloc`], the
//! benchmark baseline.

use std::mem::MaybeUninit;
use crate::sync::Ordering;

use crossbeam_epoch::Guard;

use crate::descriptor::{Descriptor, Entry, PathEntry, FAILED, SUCCEEDED, UNDECIDED};
use crate::dcss::{dcss, help_dcss};
use crate::pool::{
    self, pack_seqstat, seqstat_seq, seqstat_status, KcasSlot, SLOT_ENTRY_CAP, SLOT_PATH_CAP,
};
use crate::word::{
    decode, encode, is_any_kcas_desc, is_dcss_desc, is_kcas_boxed, is_value, pack_pooled,
    pooled_seq, pooled_slot, tag_boxed_kcas_ptr, untag_ptr, CasWord, MAX_SEQ, TAG_KCAS,
};

/// Read the application value of a word that may be modified by KCAS /
/// PathCAS operations (the paper's `KCASRead`).
///
/// If the word currently holds a descriptor reference, the corresponding
/// operation is helped to completion and the read retries, so the returned
/// value is always a plain application value.
#[inline]
pub fn read(word: &CasWord, guard: &Guard) -> u64 {
    loop {
        let raw = word.load_raw(Ordering::SeqCst);
        if is_value(raw) {
            return decode(raw);
        }
        if is_dcss_desc(raw) {
            help_dcss(raw, guard);
            continue;
        }
        debug_assert!(is_any_kcas_desc(raw));
        help_by_word(raw, guard);
    }
}

/// Read the raw (possibly descriptor-tagged) contents of a word without
/// helping.  Used by validation, which treats any descriptor other than its
/// own as a (possibly spurious) conflict.
#[inline]
pub(crate) fn read_raw(word: &CasWord) -> u64 {
    word.load_raw(Ordering::SeqCst)
}

/// Help the KCAS / PathCAS operation whose descriptor word was observed in a
/// shared word — pooled or boxed, according to the tag.
pub(crate) fn help_by_word(raw: u64, guard: &Guard) {
    debug_assert!(is_any_kcas_desc(raw));
    crate::metrics::help();
    if is_kcas_boxed(raw) {
        // SAFETY: the boxed descriptor was observed in a shared word while
        // `guard` was pinned, so it is protected from reclamation until we
        // unpin.
        let desc = unsafe { &*(untag_ptr(raw) as *const Descriptor) };
        help_boxed(desc, raw, guard);
    } else {
        let slot = pool::kcas_slot(pooled_slot(raw));
        // A `None` return means the slot was recycled: the operation `raw`
        // named is complete and uninstalled, so the caller's re-read will
        // observe a different value.
        let _ = help_pooled(slot, pooled_seq(raw), raw, guard);
    }
}

// ---------------------------------------------------------------------------
// Pooled (descriptor-reuse) path
// ---------------------------------------------------------------------------

/// Help the pooled operation published as `self_word` (= `(slot, seq)`).
/// Called by the owner and by any helper that encounters the word.
///
/// Returns `None` if the slot's seqno no longer matches `seq` — the
/// operation is already decided, fully uninstalled, and its slot recycled —
/// and `Some(success)` otherwise.  The owner always receives `Some`, because
/// only the owning thread recycles a slot.
///
/// Every field read from the slot is validated by re-reading the seqno
/// *before the value is acted upon* (dereferenced or handed to a CAS); see
/// the protocol in [`crate::pool`].  All CASes carry `self_word`, whose
/// embedded seqno guarantees stale attempts can never succeed.
pub(crate) fn help_pooled(
    slot: &'static KcasSlot,
    seq: u64,
    self_word: u64,
    guard: &Guard,
) -> Option<bool> {
    let undecided = pack_seqstat(seq, UNDECIDED);
    let ss = slot.seqstat.load(Ordering::SeqCst);
    if seqstat_seq(ss) != seq {
        return None;
    }
    if seqstat_status(ss) == UNDECIDED {
        // Phase 1: "lock" every address for this operation.
        let n = slot.len.load(Ordering::Acquire);
        let path_len = slot.path_len.load(Ordering::Acquire);
        if seqstat_seq(slot.seqstat.load(Ordering::SeqCst)) != seq {
            return None;
        }
        let mut new_status = SUCCEEDED;
        'entries: for i in 0..n {
            loop {
                let addr = slot.addrs[i].load(Ordering::Acquire) as *const CasWord;
                let old_raw = slot.olds[i].load(Ordering::Acquire);
                if seqstat_seq(slot.seqstat.load(Ordering::SeqCst)) != seq {
                    return None;
                }
                // SAFETY: the seqno re-check above proves `addr`/`old_raw`
                // belong to this operation, and entry addresses point at
                // epoch-protected CasWords (crate-level contract).  The
                // control word is this slot's seqstat — static memory.
                let seen = unsafe {
                    dcss(&slot.seqstat as *const _, undecided, addr, old_raw, self_word, guard)
                };
                if is_any_kcas_desc(seen) {
                    if seen == self_word {
                        // Another helper already locked this address for us.
                        break;
                    }
                    // Locked by a different operation: help it, then retry.
                    crate::metrics::retry();
                    help_by_word(seen, guard);
                    continue;
                }
                if seen != old_raw {
                    // The address no longer holds the expected old value.
                    new_status = FAILED;
                    break 'entries;
                }
                break;
            }
        }
        // The two "red lines": validate the visited path before deciding.
        if new_status == SUCCEEDED {
            match validate_pooled(slot, seq, path_len, self_word) {
                None => return None,
                Some(ok) => {
                    if !ok {
                        new_status = FAILED;
                    }
                }
            }
        }
        // The expected value embeds the seqno, so this can never decide a
        // recycled descriptor's newer operation.
        let _ = slot.seqstat.compare_exchange(
            undecided,
            pack_seqstat(seq, new_status),
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    // Phase 2: "unlock" every address according to the decided status.
    let ss = slot.seqstat.load(Ordering::SeqCst);
    if seqstat_seq(ss) != seq {
        return None;
    }
    let success = seqstat_status(ss) == SUCCEEDED;
    let n = slot.len.load(Ordering::Acquire);
    if seqstat_seq(slot.seqstat.load(Ordering::SeqCst)) != seq {
        return None;
    }
    for i in 0..n {
        let addr = slot.addrs[i].load(Ordering::Acquire) as *const CasWord;
        let final_raw = if success {
            slot.news[i].load(Ordering::Acquire)
        } else {
            slot.olds[i].load(Ordering::Acquire)
        };
        if seqstat_seq(slot.seqstat.load(Ordering::SeqCst)) != seq {
            // Recycled mid-loop: the owner finished phase 2 before reusing
            // the slot, so every remaining unlock already happened.
            return None;
        }
        // SAFETY: seqno re-validated after the field reads (entry addresses
        // are epoch-protected CasWords per the crate contract).
        let word = unsafe { &*addr };
        let _ = word.cas_raw(self_word, final_raw);
    }
    Some(success)
}

/// Validate the visited path of a pooled descriptor (Algorithm 2).
///
/// Returns `Some(true)` only if every visited node still carries the version
/// observed by `visit`, is not marked, and is not "locked" by a *different*
/// operation; `Some(false)` on a validation failure; `None` if the slot was
/// recycled (the operation is already decided).
fn validate_pooled(slot: &'static KcasSlot, seq: u64, path_len: usize, self_word: u64) -> Option<bool> {
    for i in 0..path_len {
        let ver_addr = slot.ver_addrs[i].load(Ordering::Acquire) as *const CasWord;
        let seen_raw = slot.seens[i].load(Ordering::Acquire);
        if seqstat_seq(slot.seqstat.load(Ordering::SeqCst)) != seq {
            return None;
        }
        // SAFETY: seqno re-validated after the field reads; version words
        // live inside epoch-protected nodes and every participant holds a
        // guard.
        let current = read_raw(unsafe { &*ver_addr });
        if current == self_word {
            // "Locked" for our own PathCAS: the version cannot change under us.
            continue;
        }
        if !is_value(current) {
            // Locked for a different PathCAS (or a DCSS is in flight):
            // fail, possibly spuriously — permitted by the semantics (§3.2).
            return Some(false);
        }
        if current != seen_raw {
            return Some(false);
        }
        if decode(seen_raw) & 1 == 1 {
            // The node was already marked when it was visited.
            return Some(false);
        }
    }
    Some(true)
}

/// Publish `entries`/`path` through the calling thread's next pooled slot
/// and run the operation to completion.  `entries` must already be sorted by
/// address and deduplicated.
fn publish_pooled(entries: &[RawEntry], path: &[RawVisit], guard: &Guard) -> bool {
    debug_assert!(entries.len() <= SLOT_ENTRY_CAP && path.len() <= SLOT_PATH_CAP);
    pool::with_kcas_slot(|idx, slot| {
        let seq = seqstat_seq(slot.seqstat.load(Ordering::SeqCst)) + 1;
        debug_assert!(seq <= MAX_SEQ, "KCAS slot seqno overflow");
        // Invalidate stalled helpers of the slot's previous operation
        // *before* overwriting its fields (pool module docs, step 1).
        slot.seqstat.store(pack_seqstat(seq, UNDECIDED), Ordering::SeqCst);
        slot.len.store(entries.len(), Ordering::Release);
        for (i, e) in entries.iter().enumerate() {
            slot.addrs[i].store(e.addr as usize, Ordering::Release);
            slot.olds[i].store(encode(e.old), Ordering::Release);
            slot.news[i].store(encode(e.new), Ordering::Release);
        }
        slot.path_len.store(path.len(), Ordering::Release);
        for (i, v) in path.iter().enumerate() {
            slot.ver_addrs[i].store(v.ver_addr as usize, Ordering::Release);
            slot.seens[i].store(encode(v.seen), Ordering::Release);
        }
        let self_word = pack_pooled(TAG_KCAS, idx, seq);
        help_pooled(slot, seq, self_word, guard)
            .expect("only the owning thread recycles a slot, and it is running this operation")
    })
}

// ---------------------------------------------------------------------------
// Boxed (legacy / fallback) path
// ---------------------------------------------------------------------------

/// Validate the visited path of a boxed descriptor (Algorithm 2).
fn validate_boxed(desc: &Descriptor, self_word: u64) -> bool {
    for p in desc.path.iter() {
        // SAFETY: version words live inside epoch-protected nodes and every
        // participant holds a guard.
        let current = read_raw(unsafe { &*p.ver_addr });
        if current == self_word {
            continue;
        }
        if !is_value(current) {
            return false;
        }
        if current != p.seen_raw {
            return false;
        }
        if decode(p.seen_raw) & 1 == 1 {
            return false;
        }
    }
    true
}

/// The help routine for boxed descriptors (Algorithm 1, original form: the
/// descriptor's slices are immutable after publication, so no seqno
/// validation is needed — only epoch protection).
pub(crate) fn help_boxed(desc: &Descriptor, self_word: u64, guard: &Guard) -> bool {
    if desc.status() == UNDECIDED {
        let mut new_status = SUCCEEDED;
        'entries: for e in desc.entries.iter() {
            loop {
                // SAFETY: entry addresses point at epoch-protected CasWords;
                // the control word is the descriptor's own status field.
                let seen = unsafe {
                    dcss(&desc.status as *const _, UNDECIDED, e.addr, e.old_raw, self_word, guard)
                };
                if is_any_kcas_desc(seen) {
                    if seen == self_word {
                        break;
                    }
                    crate::metrics::retry();
                    help_by_word(seen, guard);
                    continue;
                }
                if seen != e.old_raw {
                    new_status = FAILED;
                    break 'entries;
                }
                break;
            }
        }
        if new_status == SUCCEEDED && !validate_boxed(desc, self_word) {
            new_status = FAILED;
        }
        let _ = desc.status.compare_exchange(
            UNDECIDED,
            new_status,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    let success = desc.status() == SUCCEEDED;
    for e in desc.entries.iter() {
        let final_raw = if success { e.new_raw } else { e.old_raw };
        // SAFETY: as above.
        let word = unsafe { &*e.addr };
        let _ = word.cas_raw(self_word, final_raw);
    }
    success
}

/// Publish `entries`/`path` through a fresh heap-allocated descriptor,
/// retired through the epoch collector after the owner's help returns.
/// `entries` must already be sorted by address and deduplicated.
fn publish_boxed(entries: &[RawEntry], path: &[RawVisit], guard: &Guard) -> bool {
    let raw_entries: Vec<Entry> = entries
        .iter()
        .map(|e| Entry { addr: e.addr, old_raw: encode(e.old), new_raw: encode(e.new) })
        .collect();
    let raw_path: Vec<PathEntry> = path
        .iter()
        .map(|v| PathEntry { ver_addr: v.ver_addr, seen_raw: encode(v.seen) })
        .collect();
    let desc = crossbeam_epoch::Owned::new(Descriptor::new(
        raw_entries.into_boxed_slice(),
        raw_path.into_boxed_slice(),
    ))
    .into_shared(guard);
    let self_word = tag_boxed_kcas_ptr(desc.as_raw() as usize);
    // SAFETY: we just created the descriptor; it is valid.
    let result = help_boxed(unsafe { desc.deref() }, self_word, guard);
    // SAFETY: after our own `help_boxed` returns, phase 2 has removed
    // `self_word` from every entry address and the decided status prevents
    // reinstallation, so no *new* reference to the descriptor can be
    // created. Helpers that already hold it are pinned. Deferred destruction
    // is therefore safe.
    unsafe { guard.defer_destroy(desc) };
    result
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// An argument triple for [`kcas`] and the PathCAS builder: change `addr`
/// from the application value `old` to `new`.
#[derive(Clone, Copy)]
pub struct KcasArg<'a> {
    /// The word to change.
    pub addr: &'a CasWord,
    /// Expected current application value.
    pub old: u64,
    /// New application value.
    pub new: u64,
}

/// A visited-node record for PathCAS: the version word of a node and the
/// (decoded) version value observed when it was visited.
#[derive(Clone, Copy)]
pub struct VisitArg<'a> {
    /// The node's version word.
    pub ver_addr: &'a CasWord,
    /// Decoded version value returned by `visit`.
    pub seen: u64,
}

/// The raw-pointer form of [`KcasArg`], for callers (like `pathcas`'s
/// reusable builder) that accumulate arguments in long-lived scratch buffers
/// where a borrow-based type cannot express the lifetimes.  Values are
/// decoded application values, exactly as in [`KcasArg`].
#[derive(Clone, Copy, Debug)]
pub struct RawEntry {
    /// The word to change.
    pub addr: *const CasWord,
    /// Expected current application value.
    pub old: u64,
    /// New application value.
    pub new: u64,
}

/// The raw-pointer form of [`VisitArg`]; see [`RawEntry`].
#[derive(Clone, Copy, Debug)]
pub struct RawVisit {
    /// The node's version word.
    pub ver_addr: *const CasWord,
    /// Decoded version value returned by `visit`.
    pub seen: u64,
}

impl From<KcasArg<'_>> for RawEntry {
    #[inline]
    fn from(a: KcasArg<'_>) -> Self {
        RawEntry { addr: a.addr, old: a.old, new: a.new }
    }
}

impl From<VisitArg<'_>> for RawVisit {
    #[inline]
    fn from(v: VisitArg<'_>) -> Self {
        RawVisit { ver_addr: v.ver_addr, seen: v.seen }
    }
}

/// Sort `entries` by address and drop duplicate addresses in place,
/// returning the deduplicated length.  Sorting is required for the
/// lock-freedom argument of Appendix C; adding the same address twice with
/// conflicting values is undefined behaviour per §3.2 (asserted in debug
/// builds, first entry wins in release builds).
fn sort_dedup(entries: &mut [RawEntry]) -> usize {
    entries.sort_unstable_by_key(|e| e.addr as usize);
    let mut kept = 0;
    for i in 0..entries.len() {
        if kept > 0 && entries[i].addr == entries[kept - 1].addr {
            debug_assert!(
                entries[i].old == entries[kept - 1].old
                    && entries[i].new == entries[kept - 1].new,
                "the same address was added twice with conflicting values"
            );
            continue;
        }
        entries[kept] = entries[i];
        kept += 1;
    }
    kept
}

/// Copy up to `CAP` items produced by `fill` into an uninitialized stack
/// buffer and hand the initialized prefix to `then`.
#[inline]
fn with_stack_entries<R>(
    count: usize,
    fill: impl Fn(usize) -> RawEntry,
    then: impl FnOnce(&mut [RawEntry]) -> R,
) -> R {
    debug_assert!(count <= SLOT_ENTRY_CAP);
    let mut buf = [const { MaybeUninit::<RawEntry>::uninit() }; SLOT_ENTRY_CAP];
    for (i, item) in buf.iter_mut().enumerate().take(count) {
        item.write(fill(i));
    }
    // SAFETY: the first `count` elements were just initialized.
    let init = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<RawEntry>(), count) };
    then(init)
}

/// Build, publish and execute an operation from the given entries and path.
///
/// Entries are sorted by address (required for the lock-freedom argument of
/// Appendix C) and exact duplicates are removed.  Returns `true` on success.
///
/// Where the CPU has RTM the operation is first attempted as one hardware
/// transaction (the private `htm` module), which publishes nothing at all;
/// a `false` from that attempt is a genuine failure (some word held another
/// *value*).
///
/// Otherwise — no RTM, a descriptor in the way, a transaction that cannot
/// commit — operations that fit a pooled slot ([`SLOT_ENTRY_CAP`] entries,
/// [`SLOT_PATH_CAP`] path pairs — every operation the paper's structures
/// issue does) are published through the calling thread's reusable
/// descriptor pool and perform **no heap allocation**; larger operations
/// fall back to a heap-allocated descriptor.
///
/// The caller must hold `guard` for the whole duration of the enclosing data
/// structure operation (so that every address passed in refers to live
/// memory) — this is the same contract as the paper's C++ implementation,
/// where operations run under a DEBRA guard.
pub fn execute(entries: &[KcasArg<'_>], path: &[VisitArg<'_>], guard: &Guard) -> bool {
    crate::metrics::metrics().ops.inc();
    // SAFETY: every address is a reference that outlives the call.
    if let Some(decided) = unsafe { crate::htm::attempt(entries, path) } {
        return decided;
    }
    if entries.len() <= SLOT_ENTRY_CAP && path.len() <= SLOT_PATH_CAP {
        with_stack_entries(
            entries.len(),
            |i| entries[i].into(),
            |buf| {
                let n = sort_dedup(buf);
                let mut path_buf = [const { MaybeUninit::<RawVisit>::uninit() }; SLOT_PATH_CAP];
                for (i, &v) in path.iter().enumerate() {
                    path_buf[i].write(v.into());
                }
                // SAFETY: the first `path.len()` elements were just initialized.
                let path_init = unsafe {
                    std::slice::from_raw_parts(path_buf.as_ptr().cast::<RawVisit>(), path.len())
                };
                publish_pooled(&buf[..n], path_init, guard)
            },
        )
    } else {
        crate::metrics::metrics().boxed_fallbacks.inc();
        let mut raw: Vec<RawEntry> = entries.iter().map(|&a| a.into()).collect();
        let n = sort_dedup(&mut raw);
        let raw_path: Vec<RawVisit> = path.iter().map(|&v| v.into()).collect();
        publish_boxed(&raw[..n], &raw_path, guard)
    }
}

/// [`execute`] over pre-accumulated raw argument buffers — the zero-copy
/// entry point used by `pathcas`'s reusable per-thread builder.
///
/// Semantics are identical to [`execute`] (transactional attempt, then
/// sorting, deduplication, pooled path with boxed fallback).
///
/// # Safety
/// Every `addr` in `entries` and every `ver_addr` in `path` must point to a
/// live [`CasWord`] and remain valid for the duration of the call — i.e. the
/// words must be protected by the epoch `guard` the caller holds (or be
/// owned by the caller), exactly as if they had been passed by reference
/// through [`KcasArg`] / [`VisitArg`].
pub unsafe fn execute_raw(entries: &[RawEntry], path: &[RawVisit], guard: &Guard) -> bool {
    crate::metrics::metrics().ops.inc();
    // SAFETY: the addresses are live per the function contract.
    if let Some(decided) = unsafe { crate::htm::attempt(entries, path) } {
        return decided;
    }
    if entries.len() <= SLOT_ENTRY_CAP && path.len() <= SLOT_PATH_CAP {
        with_stack_entries(
            entries.len(),
            |i| entries[i],
            |buf| {
                let n = sort_dedup(buf);
                publish_pooled(&buf[..n], path, guard)
            },
        )
    } else {
        crate::metrics::metrics().boxed_fallbacks.inc();
        let mut raw = entries.to_vec();
        let n = sort_dedup(&mut raw);
        publish_boxed(&raw[..n], path, guard)
    }
}

/// [`execute`] through the legacy allocate-and-epoch-retire descriptor path,
/// regardless of operation size.
///
/// This is **not** the hot path: it exists so the descriptor-reuse speedup
/// can be measured against the old scheme on identical workloads (the
/// `bench_descriptor_reuse` harness binary and DESIGN.md §3), and as the
/// code path oversized operations fall back to.  Correctness is identical
/// to [`execute`], and both kinds of operation interoperate freely on the
/// same words.
pub fn execute_alloc(entries: &[KcasArg<'_>], path: &[VisitArg<'_>], guard: &Guard) -> bool {
    crate::metrics::metrics().ops.inc();
    let mut raw: Vec<RawEntry> = entries.iter().map(|&a| a.into()).collect();
    let n = sort_dedup(&mut raw);
    let raw_path: Vec<RawVisit> = path.iter().map(|&v| v.into()).collect();
    publish_boxed(&raw[..n], &raw_path, guard)
}

/// A plain multi-word compare-and-swap (no path validation), i.e. the HFP
/// KCAS operation: atomically, if every `addr_i` holds `old_i`, store `new_i`
/// into every `addr_i` and return `true`; otherwise return `false`.
#[inline]
pub fn kcas(entries: &[KcasArg<'_>], guard: &Guard) -> bool {
    execute(entries, &[], guard)
}

/// Validate a path without publishing anything: re-read every version word
/// (helping any in-flight operation it encounters) and check it still equals
/// the observed version and is unmarked.
///
/// Unlike the internal descriptor validation this never fails spuriously: encountering a
/// descriptor helps it and then compares the resolved value.  It is the
/// building block of validated read-only operations (e.g. `contains`).
pub fn validate_path(path: &[VisitArg<'_>], guard: &Guard) -> bool {
    path.iter().all(|v| {
        let current = read(v.ver_addr, guard);
        current == v.seen && v.seen & 1 == 0
    })
}

/// [`validate_path`] over a pre-accumulated raw buffer; see [`execute_raw`].
///
/// # Safety
/// Every `ver_addr` in `path` must point to a live [`CasWord`] protected by
/// the epoch `guard` the caller holds (or owned by the caller).
pub unsafe fn validate_path_raw(path: &[RawVisit], guard: &Guard) -> bool {
    path.iter().all(|v| {
        // SAFETY: per the function contract.
        let current = read(unsafe { &*v.ver_addr }, guard);
        current == v.seen && v.seen & 1 == 0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn words(vals: &[u64]) -> Vec<CasWord> {
        vals.iter().map(|&v| CasWord::new(v)).collect()
    }

    /// Run `case` with the calling thread pinned to the software path and,
    /// where the CPU has RTM, again on the transactional path.
    fn on_both_paths(case: impl Fn(&str)) {
        crate::software_path_only(true);
        case("software path");
        crate::software_path_only(false);
        if crate::htm_available() {
            case("transactional path");
        } else {
            eprintln!("note: no RTM on this CPU — transactional half skipped");
        }
    }

    #[test]
    fn kcas_succeeds_on_matching_olds() {
        let ws = words(&[1, 2, 3]);
        let guard = crossbeam_epoch::pin();
        let args: Vec<KcasArg> = ws
            .iter()
            .enumerate()
            .map(|(i, w)| KcasArg { addr: w, old: (i + 1) as u64, new: (i + 10) as u64 })
            .collect();
        assert!(kcas(&args, &guard));
        for (i, w) in ws.iter().enumerate() {
            assert_eq!(read(w, &guard), (i + 10) as u64);
        }
    }

    #[test]
    fn kcas_fails_and_rolls_back_on_mismatch() {
        let ws = words(&[1, 2, 3]);
        let guard = crossbeam_epoch::pin();
        let args = [
            KcasArg { addr: &ws[0], old: 1, new: 10 },
            KcasArg { addr: &ws[1], old: 99, new: 20 }, // wrong old
            KcasArg { addr: &ws[2], old: 3, new: 30 },
        ];
        assert!(!kcas(&args, &guard));
        assert_eq!(read(&ws[0], &guard), 1);
        assert_eq!(read(&ws[1], &guard), 2);
        assert_eq!(read(&ws[2], &guard), 3);
    }

    #[test]
    fn empty_kcas_succeeds() {
        let guard = crossbeam_epoch::pin();
        assert!(kcas(&[], &guard));
    }

    #[test]
    fn successive_operations_recycle_the_same_slots() {
        // A transactional commit publishes nothing, so it bumps no seqno.
        crate::software_path_only(true);
        let ws = words(&[0, 0]);
        let before = crate::pool::local_pool_stats();
        let ops = 60u64;
        for i in 0..ops {
            let guard = crossbeam_epoch::pin();
            let args = [
                KcasArg { addr: &ws[0], old: i, new: i + 1 },
                KcasArg { addr: &ws[1], old: i, new: i + 1 },
            ];
            assert!(kcas(&args, &guard));
        }
        let after = crate::pool::local_pool_stats();
        assert_eq!(before.kcas_slots, after.kcas_slots);
        let bumps: u64 = after.kcas_seqs.iter().sum::<u64>() - before.kcas_seqs.iter().sum::<u64>();
        assert_eq!(bumps, ops, "every KCAS publishes by recycling one pooled slot");
    }

    #[test]
    fn alloc_baseline_matches_pooled_semantics() {
        let ws = words(&[1, 2]);
        let guard = crossbeam_epoch::pin();
        let ok = [KcasArg { addr: &ws[0], old: 1, new: 5 }, KcasArg { addr: &ws[1], old: 2, new: 6 }];
        assert!(execute_alloc(&ok, &[], &guard));
        assert_eq!(read(&ws[0], &guard), 5);
        let bad = [KcasArg { addr: &ws[0], old: 99, new: 7 }];
        assert!(!execute_alloc(&bad, &[], &guard));
        assert_eq!(read(&ws[0], &guard), 5);
        // Path validation works identically through the boxed path.
        let ver = CasWord::new(4);
        let visited = VisitArg { ver_addr: &ver, seen: 4 };
        assert!(execute_alloc(&[KcasArg { addr: &ws[1], old: 6, new: 8 }], &[visited], &guard));
        ver.store(6);
        assert!(!execute_alloc(&[KcasArg { addr: &ws[1], old: 8, new: 9 }], &[visited], &guard));
    }

    #[test]
    fn oversized_operations_execute_on_both_paths() {
        // More path entries than a pooled slot can hold: the software path
        // must take the heap-allocated fallback, the transactional path
        // needs no descriptor at all.
        on_both_paths(|which| {
            let vers: Vec<CasWord> = (0..SLOT_PATH_CAP + 8).map(|_| CasWord::new(2)).collect();
            let target = CasWord::new(0);
            let guard = crossbeam_epoch::pin();
            let path: Vec<VisitArg> =
                vers.iter().map(|v| VisitArg { ver_addr: v, seen: 2 }).collect();
            let args = [KcasArg { addr: &target, old: 0, new: 1 }];
            assert!(execute(&args, &path, &guard), "{which}");
            assert_eq!(read(&target, &guard), 1, "{which}");
            vers[0].store(4);
            assert!(!execute(&[KcasArg { addr: &target, old: 1, new: 2 }], &path, &guard), "{which}");
            assert_eq!(read(&target, &guard), 1, "{which}");
        });
    }

    #[test]
    fn path_validation_on_both_paths() {
        // (version stored, version seen, expected outcome)
        let cases = [
            ("changed version", 6, 4, false),
            ("marked version", 5, 5, false), // odd = marked
            ("unchanged version", 4, 4, true),
        ];
        on_both_paths(|which| {
            for (name, stored, seen, expected) in cases {
                let ver = CasWord::new(stored);
                let target = CasWord::new(0);
                let guard = crossbeam_epoch::pin();
                let visited = VisitArg { ver_addr: &ver, seen };
                let args = [KcasArg { addr: &target, old: 0, new: 1 }];
                assert_eq!(execute(&args, &[visited], &guard), expected, "{name}, {which}");
                assert_eq!(read(&target, &guard), expected as u64, "{name}, {which}");
                assert_eq!(read(&ver, &guard), stored, "{name}, {which}: a visited word was written");
            }
        });
    }

    #[test]
    fn validate_path_standalone() {
        let v1 = CasWord::new(2);
        let v2 = CasWord::new(8);
        let guard = crossbeam_epoch::pin();
        let path = [VisitArg { ver_addr: &v1, seen: 2 }, VisitArg { ver_addr: &v2, seen: 8 }];
        assert!(validate_path(&path, &guard));
        v2.store(10);
        assert!(!validate_path(&path, &guard));
    }

    #[test]
    fn duplicate_identical_entries_are_deduped() {
        on_both_paths(|which| {
            let w = CasWord::new(5);
            let guard = crossbeam_epoch::pin();
            let args =
                [KcasArg { addr: &w, old: 5, new: 6 }, KcasArg { addr: &w, old: 5, new: 6 }];
            assert!(kcas(&args, &guard), "{which}");
            assert_eq!(read(&w, &guard), 6, "{which}");
        });
    }

    /// An undecided 1-word operation of "some other thread", stalled after
    /// phase 1: its descriptor word sits in `w`, which must hold `old`.
    #[cfg(all(target_arch = "x86_64", not(pathcas_loom)))]
    fn stall_foreign_kcas(w: &CasWord, old: u64, new: u64) -> Box<Descriptor> {
        assert_eq!(w.load_quiescent(), old);
        let foreign = Box::new(Descriptor::new(
            vec![Entry { addr: w, old_raw: encode(old), new_raw: encode(new) }].into_boxed_slice(),
            Vec::new().into_boxed_slice(),
        ));
        w.0.store(tag_boxed_kcas_ptr(&*foreign as *const Descriptor as usize), Ordering::SeqCst);
        foreign
    }

    /// Sum of the calling thread's KCAS slot seqnos: one bump per operation
    /// that reached the software path.
    #[cfg(all(target_arch = "x86_64", not(pathcas_loom)))]
    fn published() -> u64 {
        crate::pool::local_pool_stats().kcas_seqs.iter().sum()
    }

    #[cfg(all(target_arch = "x86_64", not(pathcas_loom)))]
    #[test]
    fn streak_gate_closes_after_consecutive_fallbacks_and_reopens() {
        use crate::htm::{GATE_SKIP_OPS, STREAK_LIMIT};
        if !crate::htm_available() {
            eprintln!("note: no RTM on this CPU — skipped");
            return;
        }
        let guard = crossbeam_epoch::pin();
        let w = CasWord::new(0);
        // `ops` increments of `w`; returns how many of them published.
        let bump = |ops: u32| {
            let before = published();
            for _ in 0..ops {
                let value = w.load_quiescent();
                assert!(kcas(&[KcasArg { addr: &w, old: value, new: value + 1 }], &guard));
            }
            published() - before
        };
        assert!(bump(100) < 10, "the gate of a fresh thread is not open");
        // STREAK_LIMIT operations in a row that each meet a descriptor...
        for _ in 0..STREAK_LIMIT {
            let current = w.load_quiescent();
            let _foreign = stall_foreign_kcas(&w, current, current + 1);
            assert!(kcas(&[KcasArg { addr: &w, old: current + 1, new: current + 2 }], &guard));
        }
        // ...close the gate: the next GATE_SKIP_OPS operations publish a
        // descriptor although nothing is in their way (a few less if an
        // interrupt had started the streak early),
        assert!(bump(GATE_SKIP_OPS) >= u64::from(GATE_SKIP_OPS - STREAK_LIMIT));
        // and the first attempt after them commits and reopens it.
        assert!(bump(100) < 10, "the gate did not reopen");
    }

    #[cfg(all(target_arch = "x86_64", not(pathcas_loom)))]
    #[test]
    fn transactional_attempt_helps_a_foreign_descriptor_and_fails_without_publishing() {
        if !crate::htm_available() {
            eprintln!("note: no RTM on this CPU — skipped");
            return;
        }
        let guard = crossbeam_epoch::pin();

        // `w` logically still holds 5.
        let w = CasWord::new(5);
        let foreign = stall_foreign_kcas(&w, 5, 6);
        let before = published();
        let fallbacks = crate::metrics::metrics().htm_fallbacks.get();
        // Reading a descriptor as a value mismatch would return `false` here;
        // the attempt must fall back, help 5 -> 6, and then apply 6 -> 7.
        assert!(kcas(&[KcasArg { addr: &w, old: 6, new: 7 }], &guard));
        assert_eq!(w.load_quiescent(), 7);
        assert_eq!(foreign.status(), SUCCEEDED, "the foreign operation was not helped");
        assert_eq!(published() - before, 1, "the operation did not take the software path");
        assert!(crate::metrics::metrics().htm_fallbacks.get() > fallbacks);

        // A value mismatch is decided inside the transaction: `false`, every
        // word untouched, nothing published.  (An interrupt can abort a
        // transaction and send that one operation to the software path, so
        // "nothing" is "next to nothing" over many operations.)
        let ws = words(&[1, 2, 3]);
        let before = published();
        let ops = 200;
        for _ in 0..ops {
            let args = [
                KcasArg { addr: &ws[0], old: 1, new: 10 },
                KcasArg { addr: &ws[1], old: 2, new: 20 },
                KcasArg { addr: &ws[2], old: 99, new: 30 }, // wrong old
            ];
            assert!(!kcas(&args, &guard));
        }
        assert_eq!([1, 2, 3], [&ws[0], &ws[1], &ws[2]].map(CasWord::load_quiescent));
        let bumps = published() - before;
        assert!(bumps * 10 < ops, "{bumps} of {ops} mismatching operations published a descriptor");
    }

    #[test]
    fn concurrent_kcas_multi_counter() {
        // N shared counters; each thread repeatedly KCASes *all* of them from
        // their current values to current+1. The sum must equal threads *
        // iterations * n_counters and all counters must end equal.
        const N: usize = 4;
        const THREADS: usize = 4;
        const OPS: usize = 1500;
        let counters: Arc<Vec<CasWord>> = Arc::new((0..N).map(|_| CasWord::new(0)).collect());
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let counters = Arc::clone(&counters);
                std::thread::spawn(move || {
                    for _ in 0..OPS {
                        loop {
                            let guard = crossbeam_epoch::pin();
                            let olds: Vec<u64> =
                                counters.iter().map(|c| read(c, &guard)).collect();
                            let args: Vec<KcasArg> = counters
                                .iter()
                                .zip(&olds)
                                .map(|(c, &o)| KcasArg { addr: c, old: o, new: o + 1 })
                                .collect();
                            if kcas(&args, &guard) {
                                break;
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let guard = crossbeam_epoch::pin();
        let first = read(&counters[0], &guard);
        assert_eq!(first, (THREADS * OPS) as u64);
        for c in counters.iter() {
            assert_eq!(read(c, &guard), first);
        }
    }

    #[test]
    fn concurrent_kcas_transfer_preserves_sum() {
        // Bank-transfer style test: threads move amounts between random pairs
        // of accounts with 2-word KCAS; the total must be preserved.
        //
        // All three commit paths share the 8 words: odd threads are pinned to
        // the software path, even threads commit transactionally where the
        // CPU can (every thread is a software thread where it cannot), and
        // every fourth transfer of any thread goes through `execute_alloc`.
        const ACCOUNTS: usize = 8;
        const THREADS: usize = 4;
        const OPS: usize = 2000;
        let accounts: Arc<Vec<CasWord>> =
            Arc::new((0..ACCOUNTS).map(|_| CasWord::new(1000)).collect());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let accounts = Arc::clone(&accounts);
                std::thread::spawn(move || {
                    crate::software_path_only(t % 2 == 1);
                    let mut state = (t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
                    let mut next = || {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state
                    };
                    for op in 0..OPS {
                        let a = (next() % ACCOUNTS as u64) as usize;
                        let mut b = (next() % ACCOUNTS as u64) as usize;
                        if a == b {
                            b = (b + 1) % ACCOUNTS;
                        }
                        loop {
                            let guard = crossbeam_epoch::pin();
                            let va = read(&accounts[a], &guard);
                            let vb = read(&accounts[b], &guard);
                            if va == 0 {
                                break;
                            }
                            let args = [
                                KcasArg { addr: &accounts[a], old: va, new: va - 1 },
                                KcasArg { addr: &accounts[b], old: vb, new: vb + 1 },
                            ];
                            let done = if op % 4 == 3 {
                                execute_alloc(&args, &[], &guard)
                            } else {
                                kcas(&args, &guard)
                            };
                            if done {
                                break;
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let guard = crossbeam_epoch::pin();
        let total: u64 = accounts.iter().map(|a| read(a, &guard)).sum();
        assert_eq!(total, (ACCOUNTS as u64) * 1000);
    }
}
