//! Atomics facade: the one place this crate touches an atomics
//! implementation.
//!
//! Normal builds re-export `std::sync::atomic`. Under `--cfg pathcas_loom`
//! (see README "Verification") the same names resolve to `loom-shim`'s mock
//! atomics, so that a model could drive the production follower/replica-set
//! code (the `applied` seqno publication and the round-robin read fan-out)
//! directly.  No such model exists: the crate has no model suite, and the
//! loom build runs only the `kcas` and `telemetry` models, so this facade is
//! compiled under the mock atomics but never checked by them.

#[cfg(not(pathcas_loom))]
pub(crate) use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

#[cfg(pathcas_loom)]
pub(crate) use loom_shim::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
