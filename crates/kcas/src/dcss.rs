//! Double-compare single-swap (DCSS), the building block of the HFP KCAS
//! algorithm (Harris, Fraser and Pratt, DISC 2002).
//!
//! `DCSS(addr1, exp1, addr2, old2, new2)` atomically checks whether `*addr1
//! == exp1` and `*addr2 == old2`; if both hold it stores `new2` into `addr2`.
//! It returns the value it observed at `addr2`.  In KCAS, `addr1` is always
//! the descriptor's status word and `exp1` is the `(seqno, Undecided)`
//! packing, which prevents a slow helper from resurrecting a completed or
//! recycled KCAS (§3.1 of the paper, plus the seqno refinement of the
//! descriptor-reuse transformation — see [`crate::pool`]).
//!
//! The implementation is the standard lock-free one, with descriptor reuse:
//! the calling thread recycles its [`DcssSlot`](crate::pool) instead of
//! heap-allocating, publishes it by CAS-ing the slot's
//! `(slot, seqno)` word into `addr2`, and *completes* it by reading `addr1`
//! and either committing `new2` or rolling back to `old2`.  Any thread that
//! encounters an installed DCSS descriptor word helps complete it, after
//! validating the seqno.

use crate::sync::{AtomicU64, Ordering};

use crossbeam_epoch::Guard;

use crate::pool::{self, DcssSlot, DCSS_SLOTS};
use crate::word::{is_dcss_desc, pack_pooled, pooled_seq, pooled_slot, CasWord, MAX_SEQ, TAG_DCSS};

/// Commit or roll back an installed DCSS: write `new2` into `target` if the
/// control word still holds `exp1`, otherwise restore `old2`.  Idempotent;
/// any number of helpers may race on the final CAS, and every CAS carries
/// the seqno-bearing `desc_word`, so a stale helper's attempt (after the
/// descriptor was recycled) can never succeed.
///
/// # Safety
/// `addr1` must point at a live control word (a KCAS slot's `seqstat` —
/// static memory) and `target` at a live `CasWord`.  Callers obtain both
/// either from their own arguments (the installing thread) or from slot
/// fields validated against `desc_word`'s seqno after reading.
unsafe fn complete(addr1: *const AtomicU64, exp1: u64, target: *const CasWord, old2: u64, new2: u64, desc_word: u64) {
    // SAFETY: per the function contract.
    let control = unsafe { &*addr1 }.load(Ordering::SeqCst);
    let final_value = if control == exp1 { new2 } else { old2 };
    // SAFETY: per the function contract.
    let target = unsafe { &*target };
    let _ = target.cas_raw(desc_word, final_value);
}

/// Perform a DCSS. Returns the raw value observed at `addr2`:
/// the operation succeeded if and only if the returned value equals `old2`
/// *and* the control word held `exp1` at the linearization point (in the
/// latter case the caller — KCAS phase 1 — re-examines the descriptor status,
/// so it does not need to distinguish the two).
///
/// The returned raw value is never DCSS-tagged: conflicting DCSS operations
/// are helped to completion and the installation is retried.
///
/// The operation publishes no allocation: it recycles the calling thread's
/// [`DcssSlot`] following the seqno protocol of [`crate::pool`] —
/// bump the seqno (invalidating stalled helpers of the slot's previous
/// operation), write the five fields, then install the `(slot, seqno)` word.
///
/// # Safety
/// The caller must hold `guard` (pinned before any of the involved shared
/// words were read) for the duration of the call, and `addr1`/`addr2` must
/// point to live shared memory (epoch-protected, or static in the case of a
/// KCAS slot's `seqstat`).
pub(crate) unsafe fn dcss(
    addr1: *const AtomicU64,
    exp1: u64,
    addr2: *const CasWord,
    old2: u64,
    new2: u64,
    guard: &Guard,
) -> u64 {
    pool::with_dcss_slot(|idx, slot| {
        let seq = slot.seq.load(Ordering::SeqCst) + 1;
        debug_assert!(seq <= MAX_SEQ, "DCSS slot seqno overflow");
        // Invalidate stalled helpers of this slot's previous operation
        // *before* overwriting its fields (pool module docs, step 1).
        slot.seq.store(seq, Ordering::Release);
        slot.addr1.store(addr1 as usize, Ordering::Release);
        slot.exp1.store(exp1, Ordering::Release);
        slot.addr2.store(addr2 as usize, Ordering::Release);
        slot.old2.store(old2, Ordering::Release);
        slot.new2.store(new2, Ordering::Release);
        let desc_word = pack_pooled(TAG_DCSS, idx, seq);
        // SAFETY: `addr2` is live per the function contract.
        let target = unsafe { &*addr2 };
        loop {
            match target.cas_raw(old2, desc_word) {
                Ok(_) => {
                    // Installed: complete it ourselves (helpers may race).
                    // SAFETY: `addr1`/`addr2` are live per the contract.
                    unsafe { complete(addr1, exp1, addr2, old2, new2, desc_word) };
                    break old2;
                }
                Err(seen) if is_dcss_desc(seen) => {
                    // Another DCSS is in flight on this word: help it, retry.
                    help_dcss(seen, guard);
                    continue;
                }
                Err(seen) => break seen,
            }
        }
        // No retirement: after `complete` the descriptor word is permanently
        // gone from `addr2` (it was installed at most once and the final CAS
        // removed it), so the slot can be recycled by the next operation.
    })
}

/// Help an in-flight DCSS whose `(slot, seqno)` descriptor word was observed
/// in a shared word.  Safe to call from any thread holding an epoch guard
/// pinned before the word was loaded.
///
/// If the slot's seqno no longer matches the word, the operation is already
/// complete and its descriptor word removed from shared memory, so there is
/// nothing to do.
pub(crate) fn help_dcss(raw: u64, _guard: &Guard) {
    debug_assert!(is_dcss_desc(raw));
    let seq = pooled_seq(raw);
    let slot: &'static DcssSlot = DCSS_SLOTS.get(pooled_slot(raw));
    if slot.seq.load(Ordering::SeqCst) != seq {
        return;
    }
    let addr1 = slot.addr1.load(Ordering::Acquire) as *const AtomicU64;
    let exp1 = slot.exp1.load(Ordering::Acquire);
    let addr2 = slot.addr2.load(Ordering::Acquire) as *const CasWord;
    let old2 = slot.old2.load(Ordering::Acquire);
    let new2 = slot.new2.load(Ordering::Acquire);
    if slot.seq.load(Ordering::SeqCst) != seq {
        // The slot was recycled while we read its fields; the mix we hold
        // may be torn, so it must not be acted upon.  The operation `raw`
        // referred to is complete.
        return;
    }
    // SAFETY: the seqno was re-validated after the field reads, so the five
    // values form the consistent field set of the operation `raw` was
    // published for.  `addr1` is a KCAS slot's seqstat (static); `addr2` is
    // an epoch-protected CasWord.
    unsafe { complete(addr1, exp1, addr2, old2, new2, raw) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::encode;
    use crate::sync::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn dcss_succeeds_when_control_matches() {
        let control = AtomicU64::new(7);
        let target = CasWord::new(10);
        let guard = crossbeam_epoch::pin();
        // SAFETY: both words are stack-locals that outlive the pinned call.
        let seen = unsafe { dcss(&control, 7, &target, encode(10), encode(20), &guard) };
        assert_eq!(seen, encode(10));
        assert_eq!(target.load_quiescent(), 20);
    }

    #[test]
    fn dcss_rolls_back_when_control_differs() {
        let control = AtomicU64::new(8);
        let target = CasWord::new(10);
        let guard = crossbeam_epoch::pin();
        // SAFETY: both words are stack-locals that outlive the pinned call.
        let seen = unsafe { dcss(&control, 7, &target, encode(10), encode(20), &guard) };
        // Installation succeeded (target held old2) but the control word did
        // not match, so the value is rolled back.
        assert_eq!(seen, encode(10));
        assert_eq!(target.load_quiescent(), 10);
    }

    #[test]
    fn dcss_fails_when_target_differs() {
        let control = AtomicU64::new(7);
        let target = CasWord::new(11);
        let guard = crossbeam_epoch::pin();
        // SAFETY: both words are stack-locals that outlive the pinned call.
        let seen = unsafe { dcss(&control, 7, &target, encode(10), encode(20), &guard) };
        assert_eq!(seen, encode(11));
        assert_eq!(target.load_quiescent(), 11);
    }

    #[test]
    fn dcss_reuses_slots_without_allocating_descriptors() {
        let control = AtomicU64::new(1);
        let target = CasWord::new(0);
        let before = crate::pool::local_pool_stats();
        let ops = 100u64;
        for i in 0..ops {
            let guard = crossbeam_epoch::pin();
            // SAFETY: both words are stack-locals that outlive the call.
            let seen = unsafe { dcss(&control, 1, &target, encode(i), encode(i + 1), &guard) };
            assert_eq!(seen, encode(i));
        }
        let after = crate::pool::local_pool_stats();
        assert_eq!(before.dcss_slot, after.dcss_slot, "no new slots appear");
        let bumps = after.dcss_seq - before.dcss_seq;
        assert_eq!(bumps, ops, "every DCSS recycles a pooled slot exactly once");
    }

    #[test]
    fn dcss_concurrent_counter() {
        // Many threads DCSS-increment a counter guarded by an always-matching
        // control word; every increment must be applied exactly once.
        let control = Arc::new(AtomicU64::new(1));
        let target = Arc::new(CasWord::new(0));
        let threads = 4;
        let per_thread = 2000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let control = Arc::clone(&control);
                let target = Arc::clone(&target);
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        loop {
                            let guard = crossbeam_epoch::pin();
                            let cur = crate::read(&target, &guard);
                            // SAFETY: both words live in Arcs held by every
                            // participating thread for the whole test.
                            let seen = unsafe {
                                dcss(&*control as *const _, 1, &*target as *const _, encode(cur), encode(cur + 1), &guard)
                            };
                            if seen == encode(cur) {
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
        assert_eq!(target.load_quiescent(), threads * per_thread);
    }
}
