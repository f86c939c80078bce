//! # replica — checkpoints, change stream, and read-only followers
//!
//! Replication built directly on the workspace's validated-scan primitive:
//! because every structure answers `scan` with an atomic snapshot (and a
//! sharded map's merged scan is exact when no writer runs), a
//! **checkpoint** is nothing more than the map's chunked scan taken at a
//! known sequence number, and a **follower** is a fresh structure that loads
//! a checkpoint and replays the sequence-numbered **change stream** from that
//! point on.  Three pieces:
//!
//! * [`ReplicatedMap`] — wraps any [`mapapi::ConcurrentMap`] (plain or
//!   sharded, through the trait alone), serializes mutations per key through
//!   a small stripe-lock table, and appends every *committed* mutation to a
//!   [`ChangeLog`] while the stripe is still held — so for any single key the
//!   log order **is** the application order.  Reads and scans bypass the
//!   stripes entirely and stay as concurrent as the inner structure allows.
//! * [`Checkpoint`] — an exact cut: all stripes locked, the log's sequence
//!   number recorded, then the map's validated chunked scan as one sorted
//!   run.  Encodes to a length-prefixed binary file format (magic `PCKP`
//!   version 2, a pair count, trailing FNV-1a checksum) that
//!   [`Checkpoint::decode`] rejects with an error — never a panic — on any
//!   corruption.
//! * [`Follower`] — bootstraps a fresh structure from a checkpoint and
//!   applies stream events strictly in sequence, so its state after event
//!   `s` is *exactly* the primary's per-key history up to `s`; any atomic
//!   scan of a follower therefore observes a consistent prefix of the
//!   primary's history.  [`ReplicaSet`] fans reads out across followers
//!   round-robin while routing writes to the primary — the `read-replica`
//!   workload scenario drives exactly that split.
//!
//! The wire half (a `SUBSCRIBE` verb streaming [`Event`] frames, and a
//! read-only server mode for followers) lives in the `server` crate;
//! DESIGN.md §9 has the format tables and the ordering argument.

#![warn(missing_docs)]

mod checkpoint;
mod event;
mod follower;
mod log;
mod map;
pub mod metrics;
pub(crate) mod sync;

pub use checkpoint::{Checkpoint, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
pub use event::{Event, EVENT_WIRE_BYTES};
pub use follower::{tail_log, Follower, ReplicaSet};
pub use log::ChangeLog;
pub use map::ReplicatedMap;
