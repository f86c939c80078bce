//! # server — the pipelined KV service front-end
//!
//! Serves any [`mapapi::ConcurrentMap`] — in practice a registry structure
//! or a `shard::ShardedMap` composition — over TCP with a small
//! length-prefixed binary protocol (GET/PUT/DEL/RMW/SCAN/STATS/METRICS),
//! using nothing beyond `std::net`.  Four pieces:
//!
//! * [`proto`] — frame layout, opcodes, and the encode/decode pairs (the
//!   tables live in the module docs);
//! * [`session`] — the sans-I/O connection core: bytes in → staged bytes
//!   out, owning the whole wire lifecycle (decode, gates, execute, encode,
//!   error-then-close, streaming) with no socket in sight;
//! * [`Server`] — two thin I/O drivers around that core, a blocking
//!   thread per connection or an epoll reactor, both with
//!   **per-connection request pipelining and batched responses**: a burst
//!   of N requests is answered with one batched write, so syscalls are
//!   paid per burst;
//! * [`Connection`] / [`ServiceMap`] — the loopback client side: a single
//!   pipelined connection, and a connection *pool* implementing
//!   [`mapapi::ConcurrentMap`], so every existing suite and scenario (YCSB
//!   A–F, `txn-transfer`, `scan-heavy`, `contended-hot-set`) runs over the
//!   socket path unchanged, one request per operation.
//!
//! `tests/loopback.rs` runs scenarios through the pool and pipelined
//! bursts through a [`Connection`] on both backends; the repo benchmark
//! (`benchmark/`) is what measures the served path.  See DESIGN.md §8 for
//! the framing and batching rationale.
//!
//! **Replication** (PR 6): a server started with [`ServerOpts`] can publish
//! a [`replica::ChangeLog`] to `SUBSCRIBE`rs and/or run read-only as a
//! follower front-end; [`WireTail`] is the client half that keeps a
//! [`replica::Follower`] applying the stream.  DESIGN.md §9 has the model.

#![warn(missing_docs)]

pub mod client;
mod metrics;
pub mod proto;
mod reactor;
pub mod session;
mod srv;

pub use client::{Connection, ServiceMap, WireTail};
pub use proto::{
    FrameDecoder, Request, Response, MAX_EVENTS_PER_FRAME, MAX_FRAME, MAX_SCAN_LEN,
    METRICS_VERSION, TRACE_VERSION,
};
pub use srv::{Backend, Server, ServerOpts};
