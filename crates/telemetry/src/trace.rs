//! Sampled, zero-allocation per-operation span tracing (DESIGN.md §13).
//!
//! The server's wire path is decomposed into a fixed **phase taxonomy**
//! ([`PHASE_READY`] … [`PHASE_DELIVER`]); a deterministic 1-in-N sampler
//! ([`should_sample`], keyed off a global op counter, never a clock) elects
//! ops for tracing, and every phase of a sampled op is recorded as one
//! compact [`SpanRecord`] — phase id, start/duration nanoseconds, and the
//! KCAS retry/help events that occurred inside the phase.
//!
//! Publication uses the crate's Boehm fence-based seqlock ring,
//! [`SeqRing`]: spans land in striped fixed-size [`SpanRing`]s whose
//! atomics route through the crate's `sync` facade, so under
//! `--cfg pathcas_loom` the model checker explores the *production* ring
//! code (`src/models.rs` has the ring models and their mutation
//! witness).
//!
//! Overhead discipline (the zero-alloc suites assert this end to end):
//!
//! - an **unsampled** op pays one relaxed load + one relaxed `fetch_add`
//!   in the sampler — no heap, no locks, no fences;
//! - a **sampled** op additionally pays, per phase, one seqlock publication
//!   into its thread's stripe ring and one relaxed `fetch_add` on its
//!   stripe of the phase's duration sum — still allocation-free and
//!   wait-free.  Its caller reads [`now_ns`] at each span's two ends and
//!   hands the stamps to [`record_span`]: there is no other way to record
//!   a span;
//! - snapshots, rendering, and [`clear`] are dump-time only and allocate.

use std::cell::Cell;
use std::sync::{Once, OnceLock};
use std::time::Instant;

use crate::sync::{AtomicU64, Ordering};
use crate::{Counter, Handle, SeqRing, STRIPES};

/// Phase: time blocked waiting for request bytes (the reactor's
/// `epoll_wait`, the threaded backend's blocking frame read).
pub const PHASE_READY: u64 = 0;
/// Phase: decoding one complete frame into a request.
pub const PHASE_DECODE: u64 = 1;
/// Phase: executing the operation against the structure — routing to the
/// owning shard included (the KCAS/map work; retry/help events land in this
/// span's event counts).
pub const PHASE_KCAS: u64 = 2;
/// Phase: appending the committed mutation to the replication change log.
pub const PHASE_COMMIT: u64 = 3;
/// Phase: encoding/staging the response bytes.
pub const PHASE_RESP: u64 = 4;
/// Phase: flushing staged response bytes to the socket.
pub const PHASE_FLUSH: u64 = 5;
/// Phase: encoding + flushing one `EVENTS` batch to a `SUBSCRIBE`r.
pub const PHASE_DELIVER: u64 = 6;
/// Number of phases in the taxonomy. Phase ids are also the *pipeline
/// order*, which is what [`snapshot`] sorts by — so an exposition's line
/// order never depends on raw timestamps.
pub const PHASE_COUNT: usize = 7;

const PHASE_NAMES: [&str; PHASE_COUNT] =
    ["ready", "decode", "kcas", "commit", "resp", "flush", "deliver"];

/// The phase's lowercase wire name (`"?"` for an out-of-range id).
pub fn phase_name(phase: u64) -> &'static str {
    PHASE_NAMES.get(phase as usize).copied().unwrap_or("?")
}

/// Default sampling period: 1 op in 64 is traced.
pub const DEFAULT_SAMPLE_EVERY: u64 = 64;

/// Slots per stripe ring. With [`STRIPES`] rings this bounds the retained
/// spans; a single-threaded script of up to ~12 sampled ops (5 phases each)
/// fits entirely in one stripe's ring, which the TRACE differential test
/// relies on.
pub const SPAN_RING_CAPACITY: usize = 64;

/// Pack per-span event counts: retries in the low 32 bits, helps in the
/// high 32 (each saturating).
pub fn pack_events(retries: u64, helps: u64) -> u64 {
    retries.min(u32::MAX as u64) | (helps.min(u32::MAX as u64) << 32)
}

/// The retry count packed in `events` (see [`pack_events`]).
pub fn retries_of(events: u64) -> u64 {
    events & u32::MAX as u64
}

/// The help-event count packed in `events` (see [`pack_events`]).
pub fn helps_of(events: u64) -> u64 {
    events >> 32
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the process's trace epoch (the first call).
/// Allocation-free after the first call: one atomic load plus a monotonic
/// clock read.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(DEFAULT_SAMPLE_EVERY);
static OP_SEQ: AtomicU64 = AtomicU64::new(0);
static SAMPLED_OPS: AtomicU64 = AtomicU64::new(0);

/// Admit one op to the sampler: returns `Some(trace_id)` for every
/// `sample_every()`-th op (deterministic — the decision is a pure function
/// of the global op counter, so two backends running the same script
/// sample the same ops with the same ids), `None` otherwise or when
/// sampling is disabled.
#[inline]
pub fn should_sample() -> Option<u64> {
    // ORDERING: Relaxed — a tuning knob; a racing set_sample_every may
    // misclassify a few in-flight ops, never corrupt anything.
    let every = SAMPLE_EVERY.load(Ordering::Relaxed);
    if every == 0 {
        return None;
    }
    // ORDERING: Relaxed — the op counter only needs the RMW's atomicity
    // for unique, dense tickets; nothing is published through it.
    let n = OP_SEQ.fetch_add(1, Ordering::Relaxed);
    if n.is_multiple_of(every) {
        // ORDERING: Relaxed — diagnostic tally.
        SAMPLED_OPS.fetch_add(1, Ordering::Relaxed);
        Some(n)
    } else {
        None
    }
}

/// Current sampling period (0 = disabled).
pub fn sample_every() -> u64 {
    // ORDERING: Relaxed — standalone tuning knob.
    SAMPLE_EVERY.load(Ordering::Relaxed)
}

/// Set the sampling period: every `n`-th op is traced; `0` disables
/// sampling entirely (the sampler then costs one relaxed load per op).
pub fn set_sample_every(n: u64) {
    // ORDERING: Relaxed — standalone tuning knob.
    SAMPLE_EVERY.store(n, Ordering::Relaxed);
}

/// Ops elected by the sampler since start (or the last [`clear`]).
pub fn sampled_total() -> u64 {
    // ORDERING: Relaxed — monotone diagnostic read.
    SAMPLED_OPS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Thread-local trace context
// ---------------------------------------------------------------------------

thread_local! {
    /// The sampled trace id the current op runs under, if any.
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
    /// Monotone per-thread KCAS retry tally (spans take deltas).
    static RETRIES: Cell<u64> = const { Cell::new(0) };
    /// Monotone per-thread KCAS help tally (spans take deltas).
    static HELPS: Cell<u64> = const { Cell::new(0) };
}

/// Install (or clear, with `None`) the calling thread's current trace id —
/// how a layer below the caller (the replica's change-log append) finds the
/// sampled op it runs under.
#[inline]
pub fn set_current(trace: Option<u64>) {
    CURRENT.with(|c| c.set(trace));
}

/// The calling thread's current trace id, if an op is being traced.
#[inline]
pub fn current() -> Option<u64> {
    CURRENT.with(|c| c.get())
}

/// Note one KCAS phase-1 retry on the calling thread (hooked from
/// `kcas::metrics`); a span that reads [`tallies`] at both ends counts it.
#[inline]
pub fn note_retry() {
    RETRIES.with(|c| c.set(c.get().wrapping_add(1)));
}

/// Note one KCAS helping event on the calling thread (see [`note_retry`]).
#[inline]
pub fn note_help() {
    HELPS.with(|c| c.set(c.get().wrapping_add(1)));
}

/// The calling thread's monotone `(retries, helps)` KCAS tallies.  A span's
/// event counts are the wrapping difference of two reads, one at each end,
/// packed with [`pack_events`].
#[inline]
pub fn tallies() -> (u64, u64) {
    (RETRIES.with(|c| c.get()), HELPS.with(|c| c.get()))
}

// ---------------------------------------------------------------------------
// Span records and the seqlock ring
// ---------------------------------------------------------------------------

/// One decoded span: a phase of one sampled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Monotone admission ticket within the stripe ring that held it.
    pub ticket: u64,
    /// The sampled op's trace id (the sampler's op-counter value).
    pub trace_id: u64,
    /// Phase id ([`PHASE_READY`] … [`PHASE_DELIVER`]).
    pub phase: u64,
    /// Phase start, nanoseconds since the trace epoch ([`now_ns`]).
    pub start_ns: u64,
    /// Phase duration in nanoseconds.
    pub dur_ns: u64,
    /// Packed KCAS retry/help counts (see [`pack_events`]).
    pub events: u64,
}

/// A bounded ring of the last `N` spans: the shared [`SeqRing`] (see its
/// docs for the claim-CAS + Boehm-fence protocol and `src/models.rs` for
/// the models) behind a typed [`SpanRecord`] view.
pub type SpanRing<const N: usize> = SeqRing<5, N>;

impl<const N: usize> SeqRing<5, N> {
    /// Record one span (see [`SeqRing::push`] for the ticket/drop contract).
    #[inline]
    pub fn record(
        &self,
        trace_id: u64,
        phase: u64,
        start_ns: u64,
        dur_ns: u64,
        events: u64,
    ) -> Option<u64> {
        self.push([trace_id, phase, start_ns, dur_ns, events])
    }

    /// The consistent spans currently in the ring, oldest first
    /// (allocates — dump-time only).
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.entries()
            .into_iter()
            .map(|(ticket, [trace_id, phase, start_ns, dur_ns, events])| SpanRecord {
                ticket,
                trace_id,
                phase,
                start_ns,
                dur_ns,
                events,
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The global tracer: striped rings + per-phase duration sums
// ---------------------------------------------------------------------------

static RINGS: [SpanRing<SPAN_RING_CAPACITY>; STRIPES] = [const { SpanRing::new() }; STRIPES];

/// Per-phase running sums of span durations: with `trace_sampled_total`
/// the delta primitive behind per-phase attribution (mean per sampled op =
/// Δsum / Δsampled).
static PHASE_SUM: [Counter; PHASE_COUNT] = [const { Counter::new() }; PHASE_COUNT];

/// Record one span of a sampled op into the calling thread's stripe ring
/// and the phase's duration sum. Wait-free and allocation-free; safe on the
/// asserted zero-alloc warm paths.
pub fn record_span(trace_id: u64, phase: u64, start_ns: u64, dur_ns: u64, events: u64) {
    let idx = phase as usize;
    if idx >= PHASE_COUNT {
        return;
    }
    PHASE_SUM[idx].add(dur_ns);
    RINGS[crate::stripe_id()].record(trace_id, phase, start_ns, dur_ns, events);
}

/// Every consistent span currently retained, merged across all stripe
/// rings and sorted by `(trace_id, phase, start_ns, ticket)` — phase ids
/// are pipeline-ordered, so the order (and hence a rendered exposition's
/// line layout) is independent of raw timestamps. Allocates — dump-time
/// only.
pub fn snapshot() -> Vec<SpanRecord> {
    let mut out = Vec::new();
    for ring in RINGS.iter() {
        out.extend(ring.snapshot());
    }
    out.sort_unstable_by_key(|s| (s.trace_id, s.phase, s.start_ns, s.ticket));
    out
}

/// Total spans admitted across all stripe rings since start (or [`clear`]).
pub fn recorded_total() -> u64 {
    RINGS.iter().map(SpanRing::recorded).sum()
}

/// Total spans dropped to ring lapping since start (or [`clear`]).
pub fn dropped_total() -> u64 {
    RINGS.iter().map(SpanRing::dropped).sum()
}

/// Reset every stripe ring, the op counter, and the sampled-op tally.
/// **Quiescent-only**: callers (the TRACE differential battery, tests)
/// must ensure no op is in flight. Phase sums are *not* reset — they are
/// registry metrics, and registry readers work in deltas.
pub fn clear() {
    for ring in RINGS.iter() {
        ring.clear();
    }
    // ORDERING: Relaxed — quiescent maintenance.
    OP_SEQ.store(0, Ordering::Relaxed);
    SAMPLED_OPS.store(0, Ordering::Relaxed);
}

static REGISTER: Once = Once::new();

/// Registry name of each phase's duration sum.
const PHASE_SUM_NAMES: [&str; PHASE_COUNT] = [
    "trace_ready_ns_sum",
    "trace_decode_ns_sum",
    "trace_kcas_ns_sum",
    "trace_commit_ns_sum",
    "trace_resp_ns_sum",
    "trace_flush_ns_sum",
    "trace_deliver_ns_sum",
];

/// Register the tracer's instruments with the global registry (idempotent):
/// the per-phase duration sums `trace_<phase>_ns_sum` and the sampler/ring
/// tallies. Called by the server's metric registration so both backends
/// expose the identical name set.
pub fn register_metrics() {
    REGISTER.call_once(|| {
        crate::register("trace_sampled_total", Handle::Func(sampled_total));
        crate::register("trace_spans_recorded_total", Handle::Func(recorded_total));
        for (sum, name) in PHASE_SUM.iter().zip(PHASE_SUM_NAMES) {
            crate::register(name, Handle::Counter(sum));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests that touch the process-global sampler/ring state.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn sampler_is_deterministic_and_resettable() {
        let _g = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        clear();
        set_sample_every(4);
        let picks: Vec<Option<u64>> = (0..8).map(|_| should_sample()).collect();
        assert_eq!(picks[0], Some(0));
        assert_eq!(picks[4], Some(4));
        assert!(picks[1..4].iter().all(Option::is_none));
        assert_eq!(sampled_total(), 2);
        clear();
        set_sample_every(1);
        assert_eq!(should_sample(), Some(0));
        assert_eq!(should_sample(), Some(1));
        set_sample_every(0);
        assert_eq!(should_sample(), None);
        clear();
        set_sample_every(DEFAULT_SAMPLE_EVERY);
    }

    #[test]
    fn span_ring_keeps_last_n_in_order() {
        let ring: SpanRing<8> = SpanRing::new();
        for i in 0..20u64 {
            assert_eq!(ring.record(i, i % 8, i * 100, i * 10, i), Some(i));
        }
        assert_eq!(ring.recorded(), 20);
        assert_eq!(ring.dropped(), 0);
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 8);
        let tickets: Vec<u64> = snap.iter().map(|s| s.ticket).collect();
        assert_eq!(tickets, (12..20).collect::<Vec<_>>());
        for s in &snap {
            assert_eq!(s.trace_id, s.ticket);
            assert_eq!(s.dur_ns, s.ticket * 10);
            assert_eq!(s.start_ns, s.ticket * 100);
        }
        ring.clear();
        assert_eq!(ring.recorded(), 0);
        assert!(ring.snapshot().is_empty());
    }

    #[test]
    fn tallies_count_this_threads_kcas_events() {
        let before = tallies();
        note_retry();
        note_retry();
        note_help();
        let after = tallies();
        let events = pack_events(after.0.wrapping_sub(before.0), after.1.wrapping_sub(before.1));
        assert_eq!((retries_of(events), helps_of(events)), (2, 1));
        let other = std::thread::spawn(tallies).join().unwrap();
        assert_eq!(other, (0, 0), "another thread's tallies are its own");
    }

    #[test]
    fn events_pack_and_unpack() {
        let e = pack_events(3, 5);
        assert_eq!(retries_of(e), 3);
        assert_eq!(helps_of(e), 5);
        let sat = pack_events(u64::MAX, u64::MAX);
        assert_eq!(retries_of(sat), u32::MAX as u64);
        assert_eq!(helps_of(sat), u32::MAX as u64);
    }

    #[test]
    fn phase_names_are_stable() {
        assert_eq!(phase_name(PHASE_READY), "ready");
        assert_eq!(phase_name(PHASE_KCAS), "kcas");
        assert_eq!(phase_name(PHASE_DELIVER), "deliver");
        assert_eq!(phase_name(99), "?");
    }
}
