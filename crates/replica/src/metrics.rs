//! Replication telemetry: change-log and follower-progress gauges plus the
//! derived lag metric, registered with the global `telemetry` registry.
//!
//! The gauges are process-global and last-writer-wins: with one live
//! replicated topology (how the server deploys replication) they read as
//! *the* log's seqno and *the* most recent follower apply; with several
//! followers the applied gauge tracks whichever applied last, so the
//! derived `replica_follower_lag` is a lower bound on the laggiest
//! follower's staleness. Exact per-follower staleness is
//! `log.seqno() − follower.applied_seqno()`, which needs both handles — the
//! gauge is the cheap live signal.

use std::sync::Once;

use telemetry::{Counter, Gauge, Handle};

/// Replication-layer instruments (see module docs for gauge semantics).
pub struct ReplicaMetrics {
    /// Seqno of the most recent change-log append. Seqnos are dense from 1,
    /// so this is also the change-log's length.
    pub log_seqno: Gauge,
    /// Seqno of the most recent follower apply (any follower).
    pub follower_applied_seqno: Gauge,
    /// Total change-stream events applied by followers.
    pub events_applied: Counter,
}

static METRICS: ReplicaMetrics = ReplicaMetrics {
    log_seqno: Gauge::new(),
    follower_applied_seqno: Gauge::new(),
    events_applied: Counter::new(),
};

fn lag() -> u64 {
    METRICS.log_seqno.get().saturating_sub(METRICS.follower_applied_seqno.get())
}

static REGISTER: Once = Once::new();

/// The global replication instruments, registering them on first call.
#[inline]
pub fn metrics() -> &'static ReplicaMetrics {
    REGISTER.call_once(|| {
        telemetry::register("replica_log_seqno", Handle::Gauge(&METRICS.log_seqno));
        telemetry::register(
            "replica_follower_applied_seqno",
            Handle::Gauge(&METRICS.follower_applied_seqno),
        );
        telemetry::register("replica_follower_lag", Handle::Func(lag));
        telemetry::register(
            "replica_events_applied_total",
            Handle::Counter(&METRICS.events_applied),
        );
    });
    &METRICS
}
