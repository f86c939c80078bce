//! # pathcas — the PathCAS primitive
//!
//! PathCAS (Brown, Sigouin & Alistarh, PPoPP 2022) is a middle ground between
//! multi-word CAS (KCAS) and transactional memory: an operation accumulates
//!
//! * a set of **added** addresses to be changed atomically from old to new
//!   values (exactly like KCAS), and
//! * a set of **visited** nodes whose version numbers are validated — i.e.
//!   checked not to have changed and not to have been marked — at the moment
//!   the operation is decided.
//!
//! Compared to TM, PathCAS gives up opacity and unbounded read-sets and in
//! exchange avoids per-word locks, dynamic read-set structures and
//! per-access function-call overhead (§3.8 of the paper).
//!
//! ## Using the primitive
//!
//! ```
//! use kcas::CasWord;
//! use pathcas::OpBuilder;
//!
//! // A "node" with a version word and a data word.
//! let ver = CasWord::new(0);
//! let data = CasWord::new(10);
//!
//! let mut builder = OpBuilder::new();
//! let guard = crossbeam_epoch::pin();
//! let mut op = builder.start(&guard);
//! let v = op.visit(&ver);            // read + record the version
//! let d = op.read(&data);            // helping read
//! op.add(&data, d, d + 1);           // change data from 10 to 11 ...
//! op.add(&ver, v, v + 2);            // ... and bump the version
//! assert!(op.vexec());               // atomically, if nothing changed
//! assert_eq!(kcas::read(&data, &guard), 11);
//! ```
//!
//! Every operation must run under a [`crossbeam_epoch`] guard pinned before
//! the first shared read and held until the operation finishes — the same
//! discipline the paper's C++ implementation imposes with DEBRA guards.

#![warn(missing_docs)]

mod op;

pub use kcas::{read, CasWord};
pub use op::{OpBuilder, PathCasOp};

/// Bound on the number of visited nodes (the paper's bounded read-set, §1
/// footnote 1).  Exceeding it panics, mirroring the assertion in the
/// authors' implementation.  The bound is generous so that even
/// degenerate unbalanced-tree shapes (e.g. fully sorted insertion) stay below
/// it; balanced structures use a few dozen entries at most.
pub const DEFAULT_MAX_PATH: usize = 1 << 20;

/// Bound on the number of added addresses.  The largest operation in
/// the paper (an AVL double rotation, Algorithm 9) adds fewer than 20.
pub const DEFAULT_MAX_ENTRIES: usize = 64;

/// Default number of optimistic `vexec` retries before
/// [`PathCasOp::vexec_strong`] falls back to the lock-free slow path (§3.5).
pub const DEFAULT_STRONG_RETRIES: usize = 3;
