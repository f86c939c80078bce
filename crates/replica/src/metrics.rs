//! Replication telemetry: the change-log seqno gauge, registered with the
//! global `telemetry` registry.
//!
//! The gauge is process-global and last-writer-wins: with one live
//! replicated topology (how the server deploys replication) it reads as
//! *the* log's seqno.  A follower's staleness is
//! `log.seqno() − follower.applied_seqno()`, which needs both handles.

use std::sync::Once;

use telemetry::{Gauge, Handle};

/// Replication-layer instruments (see module docs for gauge semantics).
pub struct ReplicaMetrics {
    /// Seqno of the most recent change-log append. Seqnos are dense from 1,
    /// so this is also the change-log's length.
    pub log_seqno: Gauge,
}

static METRICS: ReplicaMetrics = ReplicaMetrics { log_seqno: Gauge::new() };

static REGISTER: Once = Once::new();

/// The global replication instruments, registering them on first call.
#[inline]
pub fn metrics() -> &'static ReplicaMetrics {
    REGISTER.call_once(|| {
        telemetry::register("replica_log_seqno", Handle::Gauge(&METRICS.log_seqno));
    });
    &METRICS
}
