//! # workload — YCSB-style scenario engine
//!
//! A traffic generator: where the `fig*` harness binaries sweep uniformly
//! random single-key mixes (the paper's §5 methodology), this crate runs
//! **declarative scenarios** — the YCSB core workloads A–F (Cooper et al.,
//! SoCC '10) plus the PathCAS- and service-specific ones — against any
//! [`mapapi::ConcurrentMap`], recording per-op latency histograms along the
//! way.  The test batteries and `examples/kv_store.rs` drive structures,
//! the sharded composition, the wire service and the replica topology with
//! it; it commits no numbers (those come from `benchmark/`).  See
//! DESIGN.md §6 for the math and the design rationale.
//!
//! The pieces, each in its own module:
//!
//! * [`dist`] — deterministic key-distribution samplers: uniform, Zipfian
//!   (precomputed-zeta, rejection-free O(1) sampling, FNV rank scrambling),
//!   hotspot, and `latest`;
//! * [`spec`] — the scenario table ([`all_scenarios`]): YCSB A–F (E runs
//!   genuine validated range scans through
//!   [`mapapi::ConcurrentMap::scan`]), `txn-transfer` (atomic 2-key
//!   read-modify-write: `mapapi::get` + two-word [`kcas::execute`],
//!   conserved-sum checked), `contended-hot-set` (99% of ops on 64 keys),
//!   and `scan-heavy` (80% scans of [`ScanLen`]-distributed lengths);
//! * [`exec`] — the phased executor (**load → warmup → timed run**) with
//!   per-thread op generation, latency recording (scans also into their own
//!   histogram), and quiescent stats collected only after every worker has
//!   joined; [`run_scenario_batched`] is the **service mode** variant that
//!   hands whole op batches to a [`BatchApply`] backend (the KV service's
//!   pipelined client pool, or the in-process [`LoopBatch`] reference) and
//!   charges every op its batch's round-trip;
//! * [`hist`] — log-bucketed (HDR-style) latency histograms with ≤3.1%
//!   relative quantization error, O(1) recording, and saturation counting
//!   above [`TRACKABLE_MAX`].
//!
//! Everything is reproducible from [`RunParams::seed`].

#![warn(missing_docs)]

pub mod dist;
pub mod exec;
pub mod hist;
pub mod spec;

pub use dist::{DistKind, Sampler, SharedState, Zipfian, ZIPFIAN_THETA};
pub use exec::{
    apply, run_ops, run_scenario, run_scenario_batched, BankCheck, BatchApply, LoopBatch, Op,
    OpGen, Outcome, RunParams,
};
pub use hist::{fmt_ns, LatencyHistogram, Percentiles, TRACKABLE_MAX};
pub use spec::{all_scenarios, scenario, InsertKind, Mix, ScanLen, Scenario, INITIAL_BALANCE};
