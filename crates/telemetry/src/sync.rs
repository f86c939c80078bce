//! Atomics facade: the one place this crate touches an atomics
//! implementation.
//!
//! Normal builds re-export `std::sync::atomic`. Under `--cfg pathcas_loom`
//! (see README "Verification") the same names resolve to `loom-shim`'s mock
//! atomics, so the model checker explores the *production* counter and
//! seqlock-ring code — never a hand-copied model.
//!
//! [`registration`] stays on real std atomics in both configurations: the
//! stripe-id dispenser is once-per-thread bookkeeping and the counting
//! allocator's tallies run under every allocation, neither is part of any
//! checked protocol, and both must stay invisible to the model scheduler.

#[cfg(not(pathcas_loom))]
pub(crate) use std::sync::atomic::{fence, AtomicU64, Ordering};

#[cfg(pathcas_loom)]
pub(crate) use loom_shim::sync::atomic::{fence, AtomicU64, Ordering};

/// Deliberately non-facaded atomics for stripe registration and the
/// counting allocator (module docs).
pub(crate) mod registration {
    pub(crate) use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
}
