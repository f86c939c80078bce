//! The transactional fast path (`pathcas+`): commit a whole KCAS / PathCAS
//! operation in one Intel RTM hardware transaction, before anything is
//! published.
//!
//! Inside the transaction the operation does exactly what Algorithm 1
//! decides: every visited version word must still hold the value-tagged
//! version it was visited with (and be unmarked), every entry's word must
//! hold its value-tagged `old`; then every `new` is stored and the
//! transaction commits.  There are three ways an attempt ends without
//! committing:
//!
//! * **value mismatch** — a word holds a *value* other than the expected
//!   one: an explicit abort ([`ABORT_MISMATCH`]) and the operation returns
//!   `false`.  That is a genuine failure (the word really held that value
//!   at an instant of the call), so `vexec_strong`'s P1 is preserved;
//! * **descriptor seen** — a word holds a descriptor of some software-path
//!   operation: an explicit abort ([`ABORT_DESCRIPTOR`]) and the operation
//!   takes the software path, which helps;
//! * **hardware abort** (conflict, capacity, interrupt, fault): retried up
//!   to [`MAX_ATTEMPTS`] times while the CPU sets the retry bit, then the
//!   software path.
//!
//! A transaction never stores a descriptor word and never overwrites one
//! (it stores only after *every* word was seen value-tagged), and the
//! hardware aborts it if any word it read or wrote is touched before the
//! commit.  To every software-path participant — DCSS installs, `help`, path
//! validation, `read` — a committed transaction is therefore
//! indistinguishable from a KCAS that installed, decided and uninstalled in
//! one instant; DESIGN.md §3 "Transactional fast path" has the full
//! argument.
//!
//! This module only exists for `cfg(all(target_arch = "x86_64",
//! not(pathcas_loom)))`; elsewhere `lib.rs` substitutes a stub whose
//! [`attempt`] is `None`.  The loom models check the descriptor protocol,
//! which a hardware transaction is not part of (and the mock scheduler
//! cannot interleave inside one).

use std::arch::asm;
use std::cell::Cell;

use crate::engine::{RawEntry, RawVisit};
use crate::sync::registration::AtomicU8;
use crate::sync::Ordering;
use crate::word::{encode, is_value};

/// Hardware attempts per operation before taking the software path.
const MAX_ATTEMPTS: u32 = 3;
/// Consecutive operations that fell back before the gate closes.
pub(crate) const STREAK_LIMIT: u32 = 4;
/// Operations the closed gate sends straight to the software path.
pub(crate) const GATE_SKIP_OPS: u32 = 256;

/// `xbegin` leaves `eax` untouched when the transaction starts.
const STARTED: u32 = u32::MAX;
/// Abort status bit 0: the abort came from `xabort`; its code is in bits 31..24.
const STATUS_EXPLICIT: u32 = 1 << 0;
/// Abort status bit 1: the transaction may succeed on a retry.
const STATUS_RETRY: u32 = 1 << 1;

/// `xabort` code: a word held a value other than the expected one.
const ABORT_MISMATCH: u8 = 1;
/// `xabort` code: a word held a descriptor.
const ABORT_DESCRIPTOR: u8 = 2;

const UNPROBED: u8 = 0;
const ABSENT: u8 = 1;
const PRESENT: u8 = 2;

/// The cached answer of `is_x86_feature_detected!("rtm")`.
static RTM: AtomicU8 = AtomicU8::new(UNPROBED);

/// Whether this CPU enumerates RTM.  One byte load once probed — the whole
/// cost of this module on a machine without it.
#[inline]
pub(crate) fn available() -> bool {
    // ORDERING: Relaxed — an idempotent cached CPUID answer; racing probes
    // store the same byte and nothing else is published through it.
    match RTM.load(Ordering::Relaxed) {
        PRESENT => true,
        ABSENT => false,
        _ => probe(),
    }
}

#[cold]
fn probe() -> bool {
    let present = std::arch::is_x86_feature_detected!("rtm");
    // ORDERING: Relaxed — see `available`.
    RTM.store(if present { PRESENT } else { ABSENT }, Ordering::Relaxed);
    present
}

/// Per-thread state of the fast path.
struct Gate {
    /// Consecutive operations of this thread that fell back.
    streak: Cell<u32>,
    /// Operations still to be sent straight to the software path.
    skip: Cell<u32>,
    /// Test support: the thread never attempts a transaction.
    software_only: Cell<bool>,
}

thread_local! {
    static GATE: Gate = const {
        Gate { streak: Cell::new(0), skip: Cell::new(0), software_only: Cell::new(false) }
    };
}

/// Pin (or unpin) the calling thread to the software path.
pub(crate) fn software_path_only(pinned: bool) {
    GATE.with(|gate| gate.software_only.set(pinned));
}

/// Start a transaction.  Returns [`STARTED`] on the transactional path and
/// the abort status when the transaction later aborts: control then resumes
/// *here* a second time, with every register and every transactional store
/// (the stack included) rolled back, so the compiler sees one ordinary
/// return with a different value.
///
/// # Safety
/// The CPU must enumerate RTM ([`available`]).
#[inline(always)]
unsafe fn begin() -> u32 {
    let mut status = STARTED;
    // SAFETY: RTM is present per the function contract.  `xbegin` reads and
    // writes no memory of its own; the block is deliberately not `nomem`, so
    // no memory access is moved across it by the compiler.
    unsafe { asm!("xbegin 2f", "2:", inout("eax") status, options(nostack)) };
    status
}

/// Commit the running transaction.
///
/// # Safety
/// Must be executed inside a transaction started by [`begin`].
#[inline(always)]
unsafe fn end() {
    // SAFETY: inside a transaction per the function contract (outside one
    // `xend` faults).  Not `nomem`: a compiler barrier, as in `begin`.
    unsafe { asm!("xend", options(nostack)) };
}

/// Abort the running transaction with `CODE`; control resumes in [`begin`].
///
/// # Safety
/// The CPU must enumerate RTM.  Outside a transaction `xabort` is a no-op.
#[inline(always)]
unsafe fn abort<const CODE: u8>() {
    // SAFETY: RTM is present per the function contract.
    unsafe { asm!("xabort {code}", code = const CODE, options(nostack)) };
}

/// Abort because `raw` is not the expected word, with the code that says
/// whether it is a value or a descriptor.
///
/// # Safety
/// As [`abort`].
#[inline(always)]
unsafe fn reject(raw: u64) {
    // SAFETY: forwarded contract.
    unsafe {
        if is_value(raw) {
            abort::<ABORT_MISMATCH>()
        } else {
            abort::<ABORT_DESCRIPTOR>()
        }
    }
}

/// One operation's hardware attempts: `Some(result)` if the operation was
/// decided in hardware, `None` if it has to take the software path.
///
/// # Safety
/// RTM must be [`available`] and every address in `entries` / `path` must
/// point at a live [`crate::CasWord`] for the duration of the call.
#[inline]
unsafe fn transact<E, V>(entries: &[E], path: &[V]) -> Option<bool>
where
    E: Copy + Into<RawEntry>,
    V: Copy + Into<RawVisit>,
{
    for _ in 0..MAX_ATTEMPTS {
        // SAFETY: RTM is available per the function contract.
        let status = unsafe { begin() };
        if status == STARTED {
            // ORDERING: Relaxed — every load and store between `begin` and
            // `end` is part of one hardware transaction: all of them take
            // effect at the commit, which is a single fully fenced event
            // (it orders like a LOCK-prefixed instruction), or none does.
            // The asm blocks on both sides are compiler barriers.
            for v in path {
                let v: RawVisit = (*v).into();
                // SAFETY: live word per the function contract.
                // ORDERING: Relaxed — transactional load, see above.
                let raw = unsafe { &*v.ver_addr }.load_raw(Ordering::Relaxed);
                if raw != encode(v.seen) || v.seen & 1 == 1 {
                    // SAFETY: RTM is available; we are inside a transaction.
                    unsafe { reject(raw) };
                }
            }
            // Every check comes before the first store, so an entry listed
            // twice (the software path deduplicates those) passes twice.
            for e in entries {
                let e: RawEntry = (*e).into();
                // SAFETY: live word per the function contract.
                // ORDERING: Relaxed — transactional load, see above.
                let raw = unsafe { &*e.addr }.load_raw(Ordering::Relaxed);
                if raw != encode(e.old) {
                    // SAFETY: RTM is available; we are inside a transaction.
                    unsafe { reject(raw) };
                }
            }
            for e in entries {
                let e: RawEntry = (*e).into();
                // SAFETY: live word per the function contract.
                // ORDERING: Relaxed — transactional store, see above.
                unsafe { &*e.addr }.0.store(encode(e.new), Ordering::Relaxed);
            }
            // SAFETY: the transaction started above is still running (an
            // abort would have resumed in `begin`).
            unsafe { end() };
            return Some(true);
        }
        if status & STATUS_EXPLICIT != 0 {
            return match (status >> 24) as u8 {
                ABORT_MISMATCH => Some(false),
                _ => None,
            };
        }
        if status & STATUS_RETRY == 0 {
            break;
        }
    }
    None
}

/// Try to decide the operation transactionally: `Some(result)` if it was,
/// `None` if the caller must run the software path (no RTM, the thread is
/// pinned or gated, a descriptor was met, or the hardware kept aborting).
///
/// The gate keeps a machine whose RTM enumerates but cannot commit (or a
/// thread whose operations never fit a transaction) at software-path speed:
/// after [`STREAK_LIMIT`] consecutive fall-backs the next [`GATE_SKIP_OPS`]
/// operations skip the attempt, and a single further fall-back re-closes it.
///
/// # Safety
/// Every address in `entries` / `path` must point at a live
/// [`crate::CasWord`] for the duration of the call.
#[inline]
pub(crate) unsafe fn attempt<E, V>(entries: &[E], path: &[V]) -> Option<bool>
where
    E: Copy + Into<RawEntry>,
    V: Copy + Into<RawVisit>,
{
    if !available() {
        return None;
    }
    GATE.with(|gate| {
        if gate.software_only.get() {
            return None;
        }
        let skip = gate.skip.get();
        let decided = if skip > 0 {
            gate.skip.set(skip - 1);
            None
        } else {
            // SAFETY: RTM is available; addresses per the function contract.
            let decided = unsafe { transact(entries, path) };
            if decided.is_some() {
                gate.streak.set(0);
            } else if gate.streak.get() + 1 < STREAK_LIMIT {
                gate.streak.set(gate.streak.get() + 1);
            } else {
                gate.skip.set(GATE_SKIP_OPS);
            }
            decided
        };
        if decided.is_none() {
            crate::metrics::metrics().htm_fallbacks.inc();
        }
        decided
    })
}
