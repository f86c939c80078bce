//! # kcas — lock-free DCSS and multi-word CAS (KCAS)
//!
//! This crate is the synchronization substrate of the PathCAS reproduction.
//! It provides:
//!
//! * [`CasWord`] — a tagged 64-bit shared word (the paper's `casword<T>`),
//! * [`read`] — the paper's `KCASRead`: read a word, helping any in-flight
//!   multi-word operation it encounters,
//! * [`kcas`] / [`execute`] — the Harris–Fraser–Pratt multi-word CAS,
//!   optionally extended with a visited-node *path* that is validated before
//!   the operation is decided (the two "red lines" of Algorithm 1),
//! * [`execute_raw`] — [`execute`] over pre-accumulated raw argument buffers
//!   (used by `pathcas`'s reusable per-thread builder so the hot path copies
//!   nothing),
//! * [`validate_path_raw`] — non-publishing validation used by read-only
//!   operations.
//!
//! ## Transactional fast path (`pathcas+`)
//!
//! Where the CPU enumerates Intel RTM, [`execute`] and [`execute_raw`] first
//! try to check and write every word inside one hardware transaction
//! (the private `htm` module) and publish a descriptor only when that
//! cannot commit.  Nothing selects it: the platform decides, and the
//! descriptor protocol below is the only path on every other CPU, under the
//! loom models, and whenever a transaction meets a descriptor or keeps
//! aborting.  See DESIGN.md §3 "Transactional fast path".
//!
//! ## Descriptor reuse (zero allocation on the hot path)
//!
//! Following the paper, this crate applies the Arbel-Raviv & Brown
//! descriptor-reuse transformation (DISC '17): every thread owns one KCAS
//! and one DCSS descriptor slot (the private `pool` module) that it recycles
//! across operations.  Published descriptor words encode `(slot index,
//! sequence number)` instead of a pointer, and helpers validate the seqno
//! before and after every field read, so a recycled descriptor is detected
//! instead of mis-helped.  A slot's field storage grows to fit the largest
//! operation published through it and is never freed, so a warm thread's
//! KCAS performs **zero heap allocations** whatever its size — the property
//! the crate's `zero_alloc` integration test asserts.  See DESIGN.md §3 for
//! the full protocol and its invariants.
//!
//! ## Memory reclamation contract
//!
//! Descriptor slots live forever (allocated once per thread lifetime,
//! recycled via seqnos, adopted by later threads on thread exit), so they
//! need no reclamation.  Data-structure code built on this crate must hold
//! an epoch [`Guard`](crossbeam_epoch::Guard) across each entire operation —
//! the addresses inside a published operation must stay dereferenceable for
//! every potential helper, exactly the discipline the paper uses with DEBRA
//! guards (§4.3).

#![warn(missing_docs)]

mod dcss;
mod engine;
#[cfg(all(target_arch = "x86_64", not(pathcas_loom)))]
mod htm;
/// The `false` stub of `htm.rs`: no RTM on this target (or under the model
/// checker), so every operation takes the software path.
#[cfg(not(all(target_arch = "x86_64", not(pathcas_loom))))]
mod htm {
    pub(crate) fn available() -> bool {
        false
    }

    pub(crate) fn software_path_only(_pinned: bool) {}

    /// # Safety
    /// None here; `unsafe` only to match the signature of `htm.rs`.
    #[inline]
    pub(crate) unsafe fn attempt<E, V>(_entries: &[E], _path: &[V]) -> Option<bool> {
        None
    }
}
pub mod metrics;
#[cfg(all(test, pathcas_loom))]
mod models;
mod pool;
mod word;

pub use engine::{
    execute, execute_raw, kcas, read, validate_path_raw, KcasArg, RawEntry, RawVisit, VisitArg,
};
pub use pool::{local_pool_stats, PoolStats};
pub use word::{CasWord, MAX_VALUE};

/// Test support: whether [`execute`] / [`execute_raw`] have a transactional
/// fast path on this machine (the CPU enumerates RTM).  Tests of that path
/// print a skip note and pass when this is `false`.
#[doc(hidden)]
pub fn htm_available() -> bool {
    htm::available()
}

/// Test support: pin (`true`) or unpin the **calling thread** to the
/// software (descriptor) path, so its side effects — slot seqno bumps,
/// helping, slot growth — stay testable on machines where nearly every
/// operation commits in hardware.  Affects no other thread; a no-op where
/// there is no fast path.
#[doc(hidden)]
pub fn software_path_only(pinned: bool) {
    htm::software_path_only(pinned);
}

#[cfg(test)]
mod tests {
    use std::any::TypeId;

    /// The model-checking switch switches: `loom_shim::facade` is std's
    /// atomics in a normal build and the checker's mocks under
    /// `--cfg pathcas_loom`.  A facade stuck on std would leave the
    /// production-code models passing vacuously.
    #[test]
    fn the_facade_is_std_in_a_normal_build_and_the_mocks_under_the_model_checker() {
        #[cfg(not(pathcas_loom))]
        type Expected = std::sync::atomic::AtomicU64;
        #[cfg(pathcas_loom)]
        type Expected = loom_shim::sync::atomic::AtomicU64;
        assert_eq!(TypeId::of::<loom_shim::facade::AtomicU64>(), TypeId::of::<Expected>());
    }
}
