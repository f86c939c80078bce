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
//! Every operation that reaches the protocol publishes through the calling
//! thread's reusable descriptor slot ([`crate::pool`]) — the Arbel-Raviv &
//! Brown reuse transformation the paper applies.  A slot grows to fit the
//! largest operation it has carried and keeps that room, so a warm thread
//! performs **zero heap allocations** whatever the operation's size.

use crate::sync::Ordering;

use crossbeam_epoch::Guard;

use crate::dcss::{dcss, help_dcss};
use crate::pool::{
    self, pack_seqstat, seqstat_seq, seqstat_status, KcasSlot, VisitCell, FAILED, KCAS_SLOTS,
    SUCCEEDED, UNDECIDED,
};
use crate::word::{
    decode, encode, is_dcss_desc, is_kcas_desc, is_value, pack_pooled, pooled_seq, pooled_slot,
    CasWord, TAG_KCAS,
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
/// shared word.
pub(crate) fn help_by_word(raw: u64, guard: &Guard) {
    debug_assert!(is_kcas_desc(raw));
    crate::metrics::help();
    // A `None` return means the slot was recycled: the operation `raw`
    // named is complete and uninstalled, so the caller's re-read will
    // observe a different value.
    let _ = help(KCAS_SLOTS.get(pooled_slot(raw)), pooled_seq(raw), raw, guard);
}

/// Help the operation published as `self_word` (= `(slot, seq)`).  Called by
/// the owner and by any helper that encounters the word.
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
fn help(slot: &'static KcasSlot, seq: u64, self_word: u64, guard: &Guard) -> Option<bool> {
    let undecided = pack_seqstat(seq, UNDECIDED);
    let (entries, path) = slot.fields(seq)?;
    if seqstat_status(slot.seqstat.load(Ordering::SeqCst)) == UNDECIDED {
        // Phase 1: "lock" every address for this operation.
        let mut new_status = SUCCEEDED;
        'entries: for e in entries {
            loop {
                let addr = e.addr.load(Ordering::Acquire) as *const CasWord;
                let old_raw = e.old.load(Ordering::Acquire);
                if !slot.holds(seq) {
                    return None;
                }
                // SAFETY: the seqno re-check above proves `addr`/`old_raw`
                // belong to this operation, and entry addresses point at
                // epoch-protected CasWords (crate-level contract).  The
                // control word is this slot's seqstat — static memory.
                let seen = unsafe {
                    dcss(&slot.seqstat as *const _, undecided, addr, old_raw, self_word, guard)
                };
                if is_kcas_desc(seen) {
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
        if new_status == SUCCEEDED && !validate(slot, seq, path, self_word)? {
            new_status = FAILED;
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
    for e in entries {
        let addr = e.addr.load(Ordering::Acquire) as *const CasWord;
        let final_raw = if success { &e.new } else { &e.old }.load(Ordering::Acquire);
        if !slot.holds(seq) {
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

/// Validate the visited path of operation `seq` (Algorithm 2).
///
/// Returns `Some(true)` only if every visited node still carries the version
/// observed by `visit`, is not marked, and is not "locked" by a *different*
/// operation; `Some(false)` on a validation failure; `None` if the slot was
/// recycled (the operation is already decided).
fn validate(slot: &KcasSlot, seq: u64, path: &[VisitCell], self_word: u64) -> Option<bool> {
    for v in path {
        let ver_addr = v.ver_addr.load(Ordering::Acquire) as *const CasWord;
        let seen_raw = v.seen.load(Ordering::Acquire);
        if !slot.holds(seq) {
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

/// Sort `entries` by address and drop duplicate addresses.  Sorting is
/// required for the lock-freedom argument of Appendix C; adding the same
/// address twice with conflicting values is undefined behaviour per §3.2
/// (asserted in debug builds, first entry wins in release builds).
fn sort_dedup(entries: &mut Vec<RawEntry>) {
    entries.sort_unstable_by_key(|e| e.addr as usize);
    entries.dedup_by(|later, first| {
        let same = later.addr == first.addr;
        debug_assert!(
            !same || (later.old == first.old && later.new == first.new),
            "the same address was added twice with conflicting values"
        );
        same
    });
}

/// The one body of [`execute`] and [`execute_raw`]: a transactional attempt,
/// then — no RTM, a descriptor in the way, a transaction that cannot commit
/// — the descriptor protocol through the calling thread's slot.
///
/// # Safety
/// Every `addr` in `entries` and every `ver_addr` in `path` must point to a
/// live [`CasWord`] for the duration of the call.
#[inline]
unsafe fn run<E, V>(entries: &[E], path: &[V], guard: &Guard) -> bool
where
    E: Copy + Into<RawEntry>,
    V: Copy + Into<RawVisit>,
{
    crate::metrics::metrics().ops.inc();
    // SAFETY: the addresses are live per the function contract.
    if let Some(decided) = unsafe { crate::htm::attempt(entries, path) } {
        return decided;
    }
    pool::with_kcas_slot(|idx, slot, sorted| {
        sorted.extend(entries.iter().map(|&e| e.into()));
        sort_dedup(sorted);
        // Invalidate, write, publish (pool module docs).
        let (seq, entry_cells, path_cells) = slot.recycle(sorted.len(), path.len());
        for (cell, e) in entry_cells.iter().zip(sorted.iter()) {
            cell.addr.store(e.addr as usize, Ordering::Release);
            cell.old.store(encode(e.old), Ordering::Release);
            cell.new.store(encode(e.new), Ordering::Release);
        }
        for (cell, &v) in path_cells.iter().zip(path) {
            let v: RawVisit = v.into();
            cell.ver_addr.store(v.ver_addr as usize, Ordering::Release);
            cell.seen.store(encode(v.seen), Ordering::Release);
        }
        help(slot, seq, pack_pooled(TAG_KCAS, idx, seq), guard)
            .expect("only the owning thread recycles a slot, and it is running this operation")
    })
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
/// commit — the operation is published through the calling thread's
/// reusable descriptor slot, which grows once to fit an operation larger
/// than any it has carried and performs **no heap allocation** after that.
///
/// The caller must hold `guard` for the whole duration of the enclosing data
/// structure operation (so that every address passed in refers to live
/// memory) — this is the same contract as the paper's C++ implementation,
/// where operations run under a DEBRA guard.
pub fn execute(entries: &[KcasArg<'_>], path: &[VisitArg<'_>], guard: &Guard) -> bool {
    // SAFETY: every address is a reference that outlives the call.
    unsafe { run(entries, path, guard) }
}

/// [`execute`] over pre-accumulated raw argument buffers — the zero-copy
/// entry point used by `pathcas`'s reusable per-thread builder.
///
/// # Safety
/// Every `addr` in `entries` and every `ver_addr` in `path` must point to a
/// live [`CasWord`] and remain valid for the duration of the call — i.e. the
/// words must be protected by the epoch `guard` the caller holds (or be
/// owned by the caller), exactly as if they had been passed by reference
/// through [`KcasArg`] / [`VisitArg`].
pub unsafe fn execute_raw(entries: &[RawEntry], path: &[RawVisit], guard: &Guard) -> bool {
    // SAFETY: forwarded contract.
    unsafe { run(entries, path, guard) }
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
/// Unlike the validation inside a published operation this never fails
/// spuriously: encountering a descriptor helps it and then compares the
/// resolved value.  It is the building block of validated read-only
/// operations (e.g. a `get` that misses), over a pre-accumulated raw buffer like
/// [`execute_raw`].
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
        assert_eq!(before.kcas_slot, after.kcas_slot);
        let bumps = after.kcas_seq - before.kcas_seq;
        assert_eq!(bumps, ops, "every KCAS publishes by recycling one pooled slot");
    }

    #[test]
    fn oversized_operations_execute_on_both_paths() {
        // More path entries than a fresh slot has room for: the software
        // path grows the slot (unless an earlier test on this thread already
        // did), the transactional path needs no descriptor at all.
        on_both_paths(|which| {
            let vers: Vec<CasWord> = (0..300).map(|_| CasWord::new(2)).collect();
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

    /// An undecided 1-word operation of another thread, stalled after phase
    /// 1: published through that thread's slot, its descriptor word sitting
    /// in the target.  The owning thread stays parked until this is dropped,
    /// so nobody adopts and recycles the slot under the test.
    #[cfg(all(target_arch = "x86_64", not(pathcas_loom)))]
    struct StalledKcas {
        slot: &'static KcasSlot,
        seq: u64,
        owner: Option<(std::sync::mpsc::Sender<()>, std::thread::JoinHandle<()>)>,
    }

    #[cfg(all(target_arch = "x86_64", not(pathcas_loom)))]
    impl StalledKcas {
        fn status(&self) -> u64 {
            assert!(self.slot.holds(self.seq));
            seqstat_status(self.slot.seqstat.load(Ordering::SeqCst))
        }
    }

    #[cfg(all(target_arch = "x86_64", not(pathcas_loom)))]
    impl Drop for StalledKcas {
        fn drop(&mut self) {
            let (release, owner) = self.owner.take().expect("dropped once");
            drop(release);
            owner.join().unwrap();
        }
    }

    /// Stall an operation `old -> new` of another thread on `w`, which must
    /// hold `old`.
    #[cfg(all(target_arch = "x86_64", not(pathcas_loom)))]
    fn stall_foreign_kcas(w: &CasWord, old: u64, new: u64) -> StalledKcas {
        assert_eq!(w.load_quiescent(), old);
        let addr = w as *const CasWord as usize;
        let (published, on_published) = std::sync::mpsc::channel();
        let (release, on_release) = std::sync::mpsc::channel::<()>();
        let owner = std::thread::spawn(move || {
            pool::with_kcas_slot(|idx, slot, _| {
                let (seq, entries, _) = slot.recycle(1, 0);
                entries[0].addr.store(addr, Ordering::Release);
                entries[0].old.store(encode(old), Ordering::Release);
                entries[0].new.store(encode(new), Ordering::Release);
                published.send((slot, seq, pack_pooled(TAG_KCAS, idx, seq))).unwrap();
            });
            let _ = on_release.recv();
        });
        let (slot, seq, self_word) = on_published.recv().unwrap();
        // Phase 1 by hand; the status stays UNDECIDED.
        w.0.store(self_word, Ordering::SeqCst);
        StalledKcas { slot, seq, owner: Some((release, owner)) }
    }

    /// The calling thread's KCAS slot seqno: one bump per operation that
    /// reached the software path.
    #[cfg(all(target_arch = "x86_64", not(pathcas_loom)))]
    fn published() -> u64 {
        crate::pool::local_pool_stats().kcas_seq
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
        // and the first attempt after them commits and reopens it — unless an
        // interrupt aborts that one transaction, which by design re-closes
        // the gate for another GATE_SKIP_OPS: allow a few such stretches.
        let mut reopened = bump(100) < 10;
        for _ in 0..4 {
            if reopened {
                break;
            }
            bump(GATE_SKIP_OPS);
            reopened = bump(100) < 10;
        }
        assert!(reopened, "the gate did not reopen");
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
        // Both commit paths share the 8 words: odd threads are pinned to the
        // software path, even threads commit transactionally where the CPU
        // can (every thread is a software thread where it cannot), and every
        // fourth transfer of any thread also validates a 300-node path of
        // private version words — more than a fresh slot has room for.
        const ACCOUNTS: usize = 8;
        const THREADS: usize = 4;
        const OPS: usize = 2000;
        //
        // A thread's path words live in the shared `Arc`, not in the thread:
        // a helper on another thread may still `validate` them after their
        // owner has finished and exited.  (In the trees, the version words
        // are in epoch-protected nodes, which is what keeps them alive.)
        let shared: Arc<(Vec<CasWord>, Vec<Vec<CasWord>>)> = Arc::new((
            (0..ACCOUNTS).map(|_| CasWord::new(1000)).collect(),
            (0..THREADS).map(|_| words(&[2; 300])).collect(),
        ));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    crate::software_path_only(t % 2 == 1);
                    let (accounts, versions) = (&shared.0, &shared.1[t]);
                    let long_path: Vec<VisitArg> =
                        versions.iter().map(|v| VisitArg { ver_addr: v, seen: 2 }).collect();
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
                            let path: &[VisitArg] = if op % 4 == 3 { &long_path } else { &[] };
                            if execute(&args, path, &guard) {
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
        let total: u64 = shared.0.iter().map(|a| read(a, &guard)).sum();
        assert_eq!(total, (ACCOUNTS as u64) * 1000);
    }
}
