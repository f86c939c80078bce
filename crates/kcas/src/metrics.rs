//! KCAS telemetry: striped wait-free counters for the contention events the
//! substrate's performance story turns on — helping, phase-1 retries and
//! fall-backs from the transactional fast path (plus a `kcas_htm_available`
//! 0/1 level saying whether there is one) —
//! exposed through the global `telemetry` registry (and from there over the
//! server's `METRICS` verb).
//!
//! Everything here is allocation-free on the increment path: the counters
//! are `static`s and [`metrics`]'s `Once` fast path is a single atomic load,
//! so instrumented KCAS operations keep the zero-heap-allocation success
//! path the descriptor-reuse transformation bought
//! (`crates/kcas/tests/zero_alloc.rs` asserts this *with* the counters
//! firing).

#[cfg(not(pathcas_loom))]
use std::sync::Once;

#[cfg(not(pathcas_loom))]
use telemetry::{Counter, Handle};

/// Inert drop-in for [`telemetry::Counter`] under `cfg(pathcas_loom)`:
/// model checking explores the DCSS/KCAS protocol itself, and counter
/// increments riding along would multiply the schedule space (every
/// increment is a visible operation to the checker) without being part of
/// the protocol under test. The telemetry counters have their own model
/// suite in `crates/telemetry`.
#[cfg(pathcas_loom)]
pub struct Counter;

#[cfg(pathcas_loom)]
impl Counter {
    /// No-op under the model checker.
    #[inline]
    pub fn inc(&self) {}

    /// No-op under the model checker.
    #[inline]
    pub fn add(&self, _n: u64) {}
}

/// The substrate-level event counters (see module docs).
pub struct KcasMetrics {
    /// KCAS/PathCAS operations started ([`crate::execute`],
    /// [`crate::execute_raw`] — and therefore [`crate::kcas`], which goes
    /// through `execute`).
    pub ops: Counter,
    /// Phase-1 lock-acquisition retries: an address was found "locked" by a
    /// *different* operation's descriptor, which was helped before the
    /// acquisition was retried. The direct contention signal.
    pub retries: Counter,
    /// Helping events: every time any thread helped an operation it did not
    /// own because it encountered that operation's descriptor in a word
    /// (from `read` or from a phase-1 conflict).
    pub help_events: Counter,
    /// Operations that ended on the software path although the CPU has RTM
    /// (a descriptor was met, the hardware kept aborting, or the thread's
    /// streak gate was closed) — the rare event, so the hardware share of
    /// `ops` is `1 − htm_fallbacks / ops`.  Deliberately no per-commit
    /// counter: a `lock xadd` is a quarter of a committed operation.  Never
    /// moves without RTM or on a thread pinned by
    /// [`crate::software_path_only`].
    pub htm_fallbacks: Counter,
}

#[cfg(not(pathcas_loom))]
static METRICS: KcasMetrics = KcasMetrics {
    ops: Counter::new(),
    retries: Counter::new(),
    help_events: Counter::new(),
    htm_fallbacks: Counter::new(),
};

#[cfg(pathcas_loom)]
static METRICS: KcasMetrics = KcasMetrics {
    ops: Counter,
    retries: Counter,
    help_events: Counter,
    htm_fallbacks: Counter,
};

#[cfg(not(pathcas_loom))]
static REGISTER: Once = Once::new();

/// The global KCAS counters, registering them with the `telemetry` registry
/// on first call. The fast path after registration is one atomic load.
#[cfg(not(pathcas_loom))]
#[inline]
pub fn metrics() -> &'static KcasMetrics {
    REGISTER.call_once(|| {
        telemetry::register("kcas_ops_total", Handle::Counter(&METRICS.ops));
        telemetry::register("kcas_retries_total", Handle::Counter(&METRICS.retries));
        telemetry::register("kcas_help_events_total", Handle::Counter(&METRICS.help_events));
        telemetry::register("kcas_htm_fallbacks_total", Handle::Counter(&METRICS.htm_fallbacks));
        telemetry::register("kcas_htm_available", Handle::Func(|| u64::from(crate::htm_available())));
    });
    &METRICS
}

/// Inert variant of [`metrics`] for model-checking builds (see [`Counter`]).
#[cfg(pathcas_loom)]
#[inline]
pub fn metrics() -> &'static KcasMetrics {
    &METRICS
}

/// Record one phase-1 lock-acquisition retry: bumps the global counter
/// *and* the calling thread's retry tally, which a sampled op's `kcas` span
/// reads on both sides, so span expositions attribute contention to the op
/// that paid for it.
#[cfg(not(pathcas_loom))]
#[inline]
pub fn retry() {
    metrics().retries.inc();
    telemetry::trace::note_retry();
}

/// Record one helping event; trace-noted like [`retry`].
#[cfg(not(pathcas_loom))]
#[inline]
pub fn help() {
    metrics().help_events.inc();
    telemetry::trace::note_help();
}

/// No-op under the model checker (see [`Counter`]): trace notes are
/// thread-local bookkeeping, irrelevant to the protocol under test.
#[cfg(pathcas_loom)]
#[inline]
pub fn retry() {}

/// No-op under the model checker (see [`Counter`]).
#[cfg(pathcas_loom)]
#[inline]
pub fn help() {}
