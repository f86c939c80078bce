//! Atomics facade: the one place this crate touches an atomics
//! implementation.
//!
//! Normal builds re-export `std::sync::atomic`. Under `--cfg pathcas_loom`
//! (see README "Verification") the same names resolve to `loom-shim`'s mock
//! atomics, so the model checker explores the *production* protocol code in
//! `dcss.rs` / `engine.rs` / `pool.rs` — never a hand-copied model.
//!
//! The [`registration`] submodule stays on real std atomics in *both*
//! configurations: it backs the slot tables and free lists, machinery that
//! runs once per thread lifetime, is not part of the checked protocols, and
//! must stay invisible to the model scheduler (a mock operation inside that
//! path would both blow up the schedule space and deadlock the cooperative
//! scheduler if it ever ran under a lock).  The cached RTM-detection byte of
//! `htm.rs` lives there too: that module is compiled out under the model
//! checker altogether.

#[cfg(not(pathcas_loom))]
pub(crate) use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

#[cfg(pathcas_loom)]
pub(crate) use loom_shim::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// Deliberately non-facaded atomics for slot registration (see module docs).
pub(crate) mod registration {
    #[cfg(all(target_arch = "x86_64", not(pathcas_loom)))]
    pub(crate) use std::sync::atomic::AtomicU8;
    pub(crate) use std::sync::atomic::{AtomicPtr, AtomicUsize};
}
