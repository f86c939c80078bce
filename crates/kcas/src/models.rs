//! Bounded model checking of the DCSS core (ISSUE 9 / DESIGN.md §12).
//!
//! Compiled only under `--cfg pathcas_loom`, where [`crate::sync`] resolves
//! the crate's atomics to `loom-shim`'s mocks, so the models below drive the
//! *production* [`crate::dcss`] / [`crate::dcss::help_dcss`] code through
//! every thread interleaving and weak-memory read choice within the
//! checker's bounds.
//!
//! Two kinds of test live here:
//!
//! * **Models** (`loom_shim::model`) assert the real code's invariants hold
//!   in every explored execution: DCSS increments are applied exactly once
//!   even when threads help each other, and a stale helper holding a
//!   recycled slot's old descriptor word can never corrupt anything.
//! * **Mutation witnesses** (`loom_shim::model_fails`) run deliberately
//!   weakened *miniatures* of the protocol — the final CAS replaced by a
//!   blind store, the seqno re-validation removed — and assert the checker
//!   finds a counterexample. They prove the models are non-vacuous: the
//!   checker demonstrably distinguishes the shipped protocol from its
//!   one-line corruptions.
//!
//! Run with: `RUSTFLAGS='--cfg pathcas_loom' cargo test -p kcas --release`.

use std::sync::Arc;

use crate::dcss::{dcss, help_dcss};
use crate::sync::{AtomicU64, Ordering};
use crate::word::{encode, is_dcss_desc, CasWord};

/// Control-word value used by every model; the control word never changes,
/// so DCSS success is equivalent to the returned raw equalling `old2`.
const CONTROL: u64 = 1;

/// One DCSS-based increment of `target`, retrying on interference — the
/// same read/retry shape as `dcss_concurrent_counter` in `dcss.rs`, shrunk
/// to model scale.
fn dcss_increment(control: &AtomicU64, target: &CasWord) {
    loop {
        let guard = crossbeam_epoch::pin();
        let cur = crate::read(target, &guard);
        // SAFETY: `control` and `target` are live for the whole model
        // execution (both sides of the join keep their `Arc` alive), and
        // `guard` was pinned before either was read.
        let seen = unsafe {
            dcss(
                control as *const AtomicU64,
                CONTROL,
                target as *const CasWord,
                encode(cur),
                encode(cur + 1),
                &guard,
            )
        };
        if seen == encode(cur) {
            break;
        }
    }
}

/// Model (a), DCSS help-completion: two threads each apply one DCSS
/// increment to the same word. Whenever one thread's install CAS meets the
/// other's in-flight descriptor it must help it to completion and retry;
/// in every interleaving both increments land exactly once.
#[test]
fn dcss_help_completion() {
    loom_shim::model(|| {
        let control = Arc::new(AtomicU64::new(CONTROL));
        let target = Arc::new(CasWord::new(0));
        let (c2, t2) = (Arc::clone(&control), Arc::clone(&target));
        let other = loom_shim::thread::spawn(move || dcss_increment(&c2, &t2));
        dcss_increment(&control, &target);
        other.join();
        assert_eq!(target.load_quiescent(), 2);
    });
}

/// Model (b), descriptor-slot reuse: the main thread runs three sequential
/// DCSS operations, recycling its one slot each time, while a helper
/// captures one raw load of the target and — if it caught an
/// installed descriptor word — calls the production [`help_dcss`] on it at
/// an arbitrary later point. The seqno validate / read / re-validate
/// protocol must make the stale help either complete the right operation or
/// do nothing: the final value is exactly 3 and the word is value-tagged.
#[test]
fn dcss_stale_helper_is_harmless() {
    loom_shim::model(|| {
        let control = Arc::new(AtomicU64::new(CONTROL));
        let target = Arc::new(CasWord::new(0));
        let t2 = Arc::clone(&target);
        let helper = loom_shim::thread::spawn(move || {
            let guard = crossbeam_epoch::pin();
            let raw = t2.load_raw(Ordering::SeqCst);
            if is_dcss_desc(raw) {
                help_dcss(raw, &guard);
            }
        });
        for i in 0..3 {
            let guard = crossbeam_epoch::pin();
            // SAFETY: as in `dcss_increment` — both words outlive the
            // execution and the guard is pinned before the call.
            let seen = unsafe {
                dcss(
                    &*control as *const AtomicU64,
                    CONTROL,
                    &*target as *const CasWord,
                    encode(i),
                    encode(i + 1),
                    &guard,
                )
            };
            // No other thread installs, so our install CAS always finds the
            // plain value (a helper may complete our op for us, though).
            assert_eq!(seen, encode(i));
        }
        helper.join();
        assert_eq!(target.load_quiescent(), 3);
    });
}

// ---------------------------------------------------------------------------
// Mutation witnesses: weakened protocol miniatures the checker must fail.
// ---------------------------------------------------------------------------

/// Miniature tagged words for the witnesses: values are `v << 2`, descriptor
/// words are `(seq << 2) | 0b10` — the same disjoint-tag trick as
/// [`crate::word`], small enough to hand-roll.
fn val(v: u64) -> u64 {
    v << 2
}
fn desc(seq: u64) -> u64 {
    (seq << 2) | 0b10
}
fn is_desc(raw: u64) -> bool {
    raw & 0b11 == 0b10
}

/// The shipped `complete`: resolve the final value from the control word,
/// then CAS *the descriptor word* to it, so a stale helper (its descriptor
/// long since removed from `target`) can never clobber later operations.
fn mini_complete_cas(target: &AtomicU64, control: &AtomicU64, exp: u64, old: u64, new: u64, d: u64) {
    let c = control.load(Ordering::SeqCst);
    let f = if c == exp { new } else { old };
    let _ = target.compare_exchange(d, f, Ordering::SeqCst, Ordering::SeqCst);
}

/// Mutation: complete with a *blind store* of the final value. The helper's
/// store no longer carries proof that its operation is still the one
/// installed, so a stale helper can resurrect an already-superseded value.
fn mini_complete_blind(target: &AtomicU64, control: &AtomicU64, exp: u64, old: u64, new: u64, _d: u64) {
    let c = control.load(Ordering::SeqCst);
    let f = if c == exp { new } else { old };
    target.store(f, Ordering::SeqCst);
}

/// Two sequential mini-DCSS ops (1→2 then 2→3) with a helper that may
/// complete op 1 concurrently, parameterised over the completion routine.
fn mini_dcss_run(complete: fn(&AtomicU64, &AtomicU64, u64, u64, u64, u64)) {
    let control = Arc::new(AtomicU64::new(CONTROL));
    let target = Arc::new(AtomicU64::new(val(1)));
    let (c2, t2) = (Arc::clone(&control), Arc::clone(&target));
    let helper = loom_shim::thread::spawn(move || {
        let raw = t2.load(Ordering::SeqCst);
        if is_desc(raw) && raw == desc(1) {
            complete(&t2, &c2, CONTROL, val(1), val(2), desc(1));
        }
    });
    target
        .compare_exchange(val(1), desc(1), Ordering::SeqCst, Ordering::SeqCst)
        .expect("op 1 installs over the initial value");
    complete(&target, &control, CONTROL, val(1), val(2), desc(1));
    target
        .compare_exchange(val(2), desc(2), Ordering::SeqCst, Ordering::SeqCst)
        .expect("op 2 installs over op 1's committed value");
    complete(&target, &control, CONTROL, val(2), val(3), desc(2));
    helper.join();
    assert_eq!(
        target.load(Ordering::SeqCst),
        val(3),
        "a stale helper clobbered a later operation's committed value"
    );
}

/// The CAS-based completion survives every interleaving of the stale helper.
#[test]
fn dcss_complete_cas_passes() {
    loom_shim::model(|| mini_dcss_run(mini_complete_cas));
}

/// Witness for model (a): with the blind-store completion the checker finds
/// the interleaving where the helper, paused since op 1, overwrites op 2's
/// committed value — exactly the corruption the descriptor-word CAS in
/// [`crate::dcss`] (`complete`) exists to prevent.
#[test]
fn dcss_blind_complete_witness() {
    assert!(
        loom_shim::model_fails(|| mini_dcss_run(mini_complete_blind)),
        "checker failed to refute the blind-store completion"
    );
}

/// A miniature pooled slot: seqno plus an (old, new) field pair kept
/// correlated (`new == old + 1`) so a torn read is directly observable.
struct MiniSlot {
    seq: AtomicU64,
    old: AtomicU64,
    new: AtomicU64,
}

/// Owner-side recycle protocol from [`crate::pool`]: bump the seqno first
/// (invalidating stalled helpers), then overwrite the fields, then publish
/// the `(seq)` descriptor word.
fn mini_publish(slot: &MiniSlot, published: &AtomicU64, k: u64) {
    slot.seq.store(k, Ordering::Release);
    slot.old.store(k * 10, Ordering::Release);
    slot.new.store(k * 10 + 1, Ordering::Release);
    published.store(desc(k), Ordering::SeqCst);
}

/// Helper-side read of the slot's field set, parameterised over whether the
/// seqno is re-validated after the field reads (the shipped protocol) or
/// not (the mutation). Returns the field pair the helper would act on.
fn mini_help(slot: &MiniSlot, published: &AtomicU64, revalidate: bool) {
    let raw = published.load(Ordering::SeqCst);
    if raw == 0 || !is_desc(raw) {
        return;
    }
    let k = raw >> 2;
    if slot.seq.load(Ordering::SeqCst) != k {
        return; // already recycled before we started
    }
    let o = slot.old.load(Ordering::Acquire);
    let n = slot.new.load(Ordering::Acquire);
    if revalidate && slot.seq.load(Ordering::SeqCst) != k {
        return; // recycled under us: the pair we hold may be torn
    }
    assert_eq!(
        n,
        o + 1,
        "helper acted on a torn field set (old={o}, new={n})"
    );
}

/// Two publish/retire cycles recycling one slot, racing one helper.
fn mini_reuse_run(revalidate: bool) {
    let slot = Arc::new(MiniSlot {
        seq: AtomicU64::new(0),
        old: AtomicU64::new(0),
        new: AtomicU64::new(1),
    });
    let published = Arc::new(AtomicU64::new(0));
    let (s2, p2) = (Arc::clone(&slot), Arc::clone(&published));
    let helper = loom_shim::thread::spawn(move || mini_help(&s2, &p2, revalidate));
    for k in 1..=2 {
        mini_publish(&slot, &published, k);
        let _ = published.compare_exchange(desc(k), 0, Ordering::SeqCst, Ordering::SeqCst);
    }
    helper.join();
}

/// Model (b) companion: with the re-validation the helper never observes a
/// torn (old, new) pair, in any interleaving of the recycle.
#[test]
fn dcss_slot_reuse_revalidation_passes() {
    loom_shim::model(|| mini_reuse_run(true));
}

/// Witness for model (b): remove the re-validation and the checker finds
/// the schedule where the helper reads op 1's `old` and op 2's `new` — the
/// torn mix the seqno re-check in [`help_dcss`] exists to discard.
#[test]
fn dcss_slot_reuse_no_revalidation_witness() {
    assert!(
        loom_shim::model_fails(|| mini_reuse_run(false)),
        "checker failed to refute the unvalidated helper read"
    );
}
