//! # workload — the traffic engine
//!
//! One phased executor runs **declarative scenarios** against any
//! [`mapapi::ConcurrentMap`]: the paper's §5 uniform mix ([`paper_mix`],
//! what the `fig*` harness binaries sweep), the YCSB core workloads A–F
//! (Cooper et al., SoCC '10) and the PathCAS- and replication-specific ones.
//! The figure drivers, the test batteries and `examples/kv_store.rs` drive
//! structures, the sharded composition, the wire service and the replica
//! topology with it; it counts operations and commits no numbers (those
//! come from `benchmark/`).  See DESIGN.md §6 for the math and the design
//! rationale.
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
//! * [`exec`] — the executor (**load → warmup → timed run**) with per-thread
//!   op generation and quiescent stats collected only after every worker
//!   has joined.  [`run_scenario`]'s workers apply one op at a time with
//!   [`apply`]; a wire service is driven the same way, through its client
//!   pool's `ConcurrentMap` impl.
//!
//! Everything is reproducible from [`RunParams::seed`].

#![warn(missing_docs)]

pub mod dist;
pub mod exec;
pub mod spec;

pub use dist::{DistKind, Sampler, SharedState, Zipfian, ZIPFIAN_THETA};
pub use exec::{apply, run_ops, run_scenario, BankCheck, Op, OpGen, Outcome, RunParams};
pub use spec::{
    all_scenarios, paper_mix, scenario, InsertKind, Mix, ScanLen, Scenario, INITIAL_BALANCE,
};
