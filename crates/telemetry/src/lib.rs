//! Zero-overhead telemetry: striped counters, gauges, log-bucketed atomic
//! histograms, a global text-exposition registry, and the seqlock ring
//! behind the span tracer.
//!
//! Design constraints (DESIGN.md §11):
//!
//! - **Wait-free, zero-allocation increments.** [`Counter::inc`],
//!   [`Gauge::set`], [`Histogram::record`] and [`SeqRing::push`]
//!   perform a bounded number of `Relaxed` atomic operations and never touch
//!   the heap, so they are safe to call from the server's asserted
//!   zero-allocation warm paths (the counting-allocator tests in
//!   `crates/server/tests/zero_alloc_wire.rs` and
//!   `crates/kcas/tests/zero_alloc.rs` prove this end to end).
//! - **Contention-free under fan-in.** A [`Counter`] is striped across
//!   [`STRIPES`] cache-line-padded cells; each thread hashes to a fixed
//!   stripe on first use, so concurrent increments from different threads
//!   land on different cache lines instead of bouncing one hot line.
//! - **Relaxed ordering everywhere.** Metrics observe the system, they do
//!   not synchronize it: a read is a *sum of monotone per-stripe values*,
//!   each exact at some recent moment. Totals are therefore exact once the
//!   writers quiesce (what every reconciliation test relies on) and at worst
//!   momentarily stale mid-flight — never torn, never locked.
//! - **Statics only.** Every instrument is `const`-constructible so
//!   subsystems declare `static` instruments and register them once; the
//!   registry [`Mutex`] is touched only at registration and render time,
//!   never on an increment.

#![warn(missing_docs)]
// Denied, not forbidden: [`alloc`]'s global allocator is the one `unsafe`
// item and opts back in.
#![deny(unsafe_code)]

use std::cell::Cell;
// The stripe-id dispenser is once-per-thread bookkeeping, not part of any
// checked protocol: std in every build, invisible to the model scheduler.
use std::sync::atomic::AtomicUsize; // xtask: allow(facade)
use std::sync::Mutex;

use loom_shim::facade::{fence, AtomicU64, Ordering};

#[allow(unsafe_code)]
pub mod alloc;
pub mod buckets;
#[cfg(all(test, pathcas_loom))]
mod models;
pub mod trace;

use buckets::{bucket_index, bucket_upper, NBUCKETS, TRACKABLE_MAX};

/// Number of stripes per [`Counter`] (power of two). 32 padded cells cover
/// more worker threads than the benches drive while keeping a counter at
/// 4 KiB; threads beyond 32 share stripes round-robin, which costs a little
/// contention but never correctness.
pub const STRIPES: usize = 32;

/// One counter stripe, padded to 128 bytes so neighbouring stripes never
/// share a cache line (two lines on common x86 prefetch pairings).
#[repr(align(128))]
struct Stripe(AtomicU64);

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's stripe index, assigned round-robin on first use.
    /// `const`-initialized: the TLS access compiles to a plain register-
    /// relative load with no lazy-init allocation.
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's stripe index in `[0, STRIPES)`.
#[inline]
fn stripe_id() -> usize {
    // Under the model checker, stripe assignment must be a pure function of
    // the model-thread index: the round-robin dispenser below hands out a
    // different stripe to the fresh OS thread each execution spawns, which
    // changes which atomic locations the model touches between executions
    // and breaks deterministic DFS replay.
    if let Some(tid) = loom_shim::facade::model_thread_id() {
        return tid & (STRIPES - 1);
    }
    STRIPE.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            v
        } else {
            // ORDERING: Relaxed — a once-per-thread id dispense; uniqueness
            // comes from the RMW itself, no other memory is published.
            let v = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) & (STRIPES - 1);
            s.set(v);
            v
        }
    })
}

/// A monotone event counter, striped per thread.
///
/// `inc`/`add` are wait-free (one `Relaxed` `fetch_add` on the calling
/// thread's own stripe) and allocation-free. [`Counter::get`] sums the
/// stripes; it is exact whenever the writers are quiescent.
pub struct Counter {
    stripes: [Stripe; STRIPES],
}

impl Counter {
    /// A zeroed counter. `const` so instruments can live in statics.
    pub const fn new() -> Counter {
        Counter { stripes: [const { Stripe(AtomicU64::new(0)) }; STRIPES] }
    }

    /// Count one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Count `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        // ORDERING: Relaxed — the stripe is a pure event tally; nothing is
        // published through it, and `get` only promises quiescent exactness.
        self.stripes[stripe_id()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sum of all stripes (wrapping on overflow, like the stripes).
    pub fn get(&self) -> u64 {
        // ORDERING: Relaxed — per-stripe coherence makes the sum monotone
        // and never an over-count; exactness is only claimed at quiescence
        // (the `striped_counter_sum` model in src/models.rs checks this).
        self.stripes.iter().fold(0u64, |acc, s| acc.wrapping_add(s.0.load(Ordering::Relaxed)))
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// A last-writer-wins level (e.g. a seqno). Unstriped: gauges
/// record *state*, not events, so the last store is the value.
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Set the level.
    #[inline]
    pub fn set(&self, v: u64) {
        // ORDERING: Relaxed — last-writer-wins level; readers want *a*
        // recent value, and no other memory is published through it.
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        // ORDERING: Relaxed — diagnostic read of a last-writer-wins level.
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

/// A fixed-size atomic histogram over the HDR-style log-bucket layout in
/// [`buckets`].
///
/// `record` is wait-free: three `Relaxed` RMWs (bucket, count, max), no
/// allocation, no locks. Reads are sums over the buckets — exact once
/// writers quiesce.
pub struct Histogram {
    counts: [AtomicU64; NBUCKETS],
    count: AtomicU64,
    max: AtomicU64,
    saturated: AtomicU64,
}

impl Histogram {
    /// An empty histogram (~9.5 KiB of zeroed buckets). `const` for statics.
    pub const fn new() -> Histogram {
        Histogram {
            counts: [const { AtomicU64::new(0) }; NBUCKETS],
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
            saturated: AtomicU64::new(0),
        }
    }

    /// Record one value. Values above [`TRACKABLE_MAX`] are clamped into the
    /// top bucket and counted in [`Histogram::saturated_count`], so one
    /// absurd sample cannot drag the tail percentiles to the ceiling.
    #[inline]
    pub fn record(&self, v: u64) {
        let v = if v > TRACKABLE_MAX {
            // ORDERING: Relaxed — independent tally, atomicity only.
            self.saturated.fetch_add(1, Ordering::Relaxed);
            TRACKABLE_MAX
        } else {
            v
        };
        // ORDERING: Relaxed on all three RMWs — each cell is an independent
        // tally whose exactness comes from RMW atomicity; readers tolerate
        // mid-record skew (count/bucket may momentarily disagree) and only
        // rely on quiescent totals.
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        // ORDERING: Relaxed — monotone diagnostic read.
        self.count.load(Ordering::Relaxed)
    }

    /// Largest recorded (clamped) value.
    pub fn max(&self) -> u64 {
        // ORDERING: Relaxed — monotone diagnostic read.
        self.max.load(Ordering::Relaxed)
    }

    /// Number of values that exceeded [`TRACKABLE_MAX`] and were clamped.
    pub fn saturated_count(&self) -> u64 {
        // ORDERING: Relaxed — monotone diagnostic read.
        self.saturated.load(Ordering::Relaxed)
    }

    /// The value at quantile `q` in `[0, 1]`: the smallest bucket upper
    /// bound covering at least `ceil(q * count)` samples. 0 when empty.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            // ORDERING: Relaxed — bucket tallies only; quantiles are
            // approximate under concurrent writers by design.
            seen += c.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("max", &self.max())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A registered instrument: how the registry reads and renders it.
#[derive(Clone, Copy)]
pub enum Handle {
    /// A striped event counter.
    Counter(&'static Counter),
    /// A last-writer-wins level.
    Gauge(&'static Gauge),
    /// An atomic log-bucketed histogram.
    Histogram(&'static Histogram),
    /// A derived value computed at read time (e.g. whether the CPU offers
    /// hardware transactions, or a sum over the tracer's rings).
    Func(fn() -> u64),
}

static REGISTRY: Mutex<Vec<(&'static str, Handle)>> = Mutex::new(Vec::new());

/// Register an instrument under a globally unique name. Call once per
/// instrument (subsystems guard their registration with `std::sync::Once`);
/// registering a duplicate name panics, because exposition names are the
/// schema downstream deltas key on.
pub fn register(name: &'static str, handle: Handle) {
    let mut reg = REGISTRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    assert!(reg.iter().all(|(n, _)| *n != name), "duplicate metric name registered: {name}");
    reg.push((name, handle));
}

fn scalar_of(handle: &Handle) -> u64 {
    match handle {
        Handle::Counter(c) => c.get(),
        Handle::Gauge(g) => g.get(),
        Handle::Histogram(h) => h.count(),
        Handle::Func(f) => f(),
    }
}

/// The scalar value of a registered instrument (a histogram reads as its
/// sample count), or `None` if no such name was registered.
pub fn value(name: &str) -> Option<u64> {
    let reg = REGISTRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    reg.iter().find(|(n, _)| *n == name).map(|(_, h)| scalar_of(h))
}

/// Render every registered instrument as deterministic text exposition:
/// one `name value` line per scalar, and for histograms the fixed sub-line
/// set `_count`, `_p50`, `_p99`, `_p999`, `_max`, `_saturated`. Lines are
/// sorted by name, so the *byte layout* of the exposition is a pure function
/// of the registered name set and the values — identical across serving
/// backends by construction.
pub fn render() -> String {
    let entries: Vec<(&'static str, Handle)> = {
        let reg = REGISTRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        reg.clone()
    };
    let mut lines: Vec<String> = Vec::with_capacity(entries.len());
    for (name, handle) in &entries {
        match handle {
            Handle::Counter(_) | Handle::Gauge(_) | Handle::Func(_) => {
                lines.push(format!("{name} {}\n", scalar_of(handle)));
            }
            Handle::Histogram(h) => {
                lines.push(format!("{name}_count {}\n", h.count()));
                lines.push(format!("{name}_p50 {}\n", h.value_at_quantile(0.50)));
                lines.push(format!("{name}_p99 {}\n", h.value_at_quantile(0.99)));
                lines.push(format!("{name}_p999 {}\n", h.value_at_quantile(0.999)));
                lines.push(format!("{name}_max {}\n", h.max()));
                lines.push(format!("{name}_saturated {}\n", h.saturated_count()));
            }
        }
    }
    lines.sort_unstable();
    lines.concat()
}

// ---------------------------------------------------------------------------
// Seqlock ring
// ---------------------------------------------------------------------------

/// One slot of a [`SeqRing`]: the seqlock word plus `W` payload words.
struct SeqSlot<const W: usize> {
    /// Seqlock word: `2*ticket + 1` while a writer owns the slot,
    /// `2*ticket + 2` once the record is complete. 0 = never written.
    seq: AtomicU64,
    words: [AtomicU64; W],
}

/// A bounded ring of the last `N` records of `W` words each, lock- and
/// allocation-free to write — the seqlock ring behind the tracer's
/// [`trace::SpanRing`] (`W = 5`), which adds only its typed
/// `record`/`snapshot` view.
///
/// Writers claim a ticket with one `fetch_add`, then claim `slot[ticket % N]`
/// by CAS-ing its seqlock word from the previous generation's even value to
/// `2*ticket + 1` (odd = in progress). Readers ([`Self::entries`]) skip
/// slots whose seqlock is odd or changed mid-read, so a snapshot only ever
/// contains fully written records. Two writers meet at the same slot only
/// when one laps the other by a full ring (`N` tickets) mid-write; the claim
/// CAS makes exactly one of them proceed and the other drop its record
/// (counted in [`Self::dropped`]) — this is a best-effort diagnostic ring,
/// not a loss-free log. (An earlier revision let both writers store
/// unconditionally; the slower writer's *even* seqlock value could then cap
/// a mix of both writers' fields, a tear the reader cannot detect. The
/// `seq_ring_lap` model in `src/models.rs` proves the claim CAS closes
/// this.)
///
/// The seqlock itself is the C11 fence-based protocol (Boehm, "Can seqlocks
/// get along with programming language memory models?", MSPC '12): the
/// writer publishes fields between a release *fence* after the odd store and
/// a release store of the even value; the reader re-reads the seqlock word
/// after an acquire fence. The `seq_ring_seqlock` model checks the protocol
/// and its mutation witness shows the previous revision (release odd store,
/// no fences, acquire re-read) admits a torn snapshot.
pub struct SeqRing<const W: usize, const N: usize> {
    next: AtomicU64,
    dropped: AtomicU64,
    slots: [SeqSlot<W>; N],
}

impl<const W: usize, const N: usize> SeqRing<W, N> {
    /// An empty ring. `N` must be a power of two (compile-time checked).
    pub const fn new() -> SeqRing<W, N> {
        assert!(N.is_power_of_two(), "SeqRing capacity must be a power of two");
        SeqRing {
            next: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slots: [const {
                SeqSlot { seq: AtomicU64::new(0), words: [const { AtomicU64::new(0) }; W] }
            }; N],
        }
    }

    /// Publish one record (wait-free, allocation-free). Returns the ticket
    /// it was admitted under, or `None` if the slot had to be dropped
    /// because a writer lapped us mid-write (see the struct docs; counted in
    /// [`Self::dropped`]).
    #[inline]
    pub fn push(&self, words: [u64; W]) -> Option<u64> {
        // ORDERING: Relaxed — the ticket dispenser only needs the RMW's
        // atomicity for uniqueness; the slot's seqlock carries all
        // publication ordering.
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket as usize) & (N - 1)];
        let odd = ticket.wrapping_mul(2).wrapping_add(1);
        // ORDERING: Relaxed — pre-claim peek; the CAS below revalidates it.
        let cur = slot.seq.load(Ordering::Relaxed);
        // ORDERING: Relaxed claim CAS — it needs only the RMW's atomicity to
        // elect a unique slot owner. Field publication is ordered by the
        // release fence below, and the stale-field hazard on the *reader*
        // side is covered by its fence (any reader that observes one of our
        // field stores is forced, through the fence pair, to also observe a
        // seqlock value >= `odd` on its re-read, so it discards the slot).
        if cur >= odd
            || cur & 1 == 1
            || slot
                .seq
                .compare_exchange(cur, odd, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            // Another writer owns the slot (it lapped us, or we lapped it).
            // ORDERING: Relaxed — diagnostic counter.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        // The release fence orders the claim and every field store below
        // before the closing even store *and* before any field store's
        // visibility to a fenced reader — the writer half of the Boehm
        // seqlock protocol. A release ordering on the odd store alone (the
        // previous revision) orders nothing that comes after it.
        fence(Ordering::Release);
        for (cell, word) in slot.words.iter().zip(words) {
            // ORDERING: Relaxed field stores — ordered by the fence above
            // and the release even-store below.
            cell.store(word, Ordering::Relaxed);
        }
        slot.seq.store(ticket.wrapping_mul(2).wrapping_add(2), Ordering::Release);
        Some(ticket)
    }

    /// Total records ever admitted (may exceed `N`; the ring keeps the last
    /// `N`, and up to [`Self::dropped`] of them were abandoned mid-lap).
    pub fn recorded(&self) -> u64 {
        // ORDERING: Relaxed — monotone diagnostic read.
        self.next.load(Ordering::Relaxed)
    }

    /// Records dropped because a writer found its slot owned by another
    /// in-flight writer (ring lapped mid-write).
    pub fn dropped(&self) -> u64 {
        // ORDERING: Relaxed — monotone diagnostic read.
        self.dropped.load(Ordering::Relaxed)
    }

    /// The consistent `(ticket, words)` records currently in the ring,
    /// oldest first. Allocates (it returns a `Vec`) — dump-time only, never
    /// on a hot path.
    pub fn entries(&self) -> Vec<(u64, [u64; W])> {
        let mut out = Vec::with_capacity(N);
        for slot in &self.slots {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 & 1 == 1 {
                continue; // never written, or a writer is mid-flight
            }
            // ORDERING: Relaxed field loads — the reader half of the Boehm
            // seqlock protocol: `s1`'s acquire load orders them after the
            // writer's closing release store, and the acquire fence below
            // orders them before the re-read of the seqlock word.
            let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            // If any field load above observed a later writer's store, this
            // fence (pairing with that writer's release fence) forces the
            // re-read below to observe its odd claim — so the slot is
            // discarded. An acquire *load* here (the previous revision)
            // orders nothing before itself and admits the tear.
            fence(Ordering::Acquire);
            // ORDERING: Relaxed — ordered by the fence above.
            let s2 = slot.seq.load(Ordering::Relaxed);
            if s1 == s2 {
                out.push(((s1 - 2) / 2, words));
            }
        }
        out.sort_unstable_by_key(|&(ticket, _)| ticket);
        out
    }

    /// Reset the ring to empty. **Quiescent-only** (no concurrent writers):
    /// a maintenance operation for tests and the TRACE differential
    /// battery, not part of the checked protocol.
    pub fn clear(&self) {
        for slot in &self.slots {
            // ORDERING: Relaxed — quiescent maintenance; no publication.
            slot.seq.store(0, Ordering::Relaxed);
            for cell in &slot.words {
                // ORDERING: Relaxed — quiescent maintenance.
                cell.store(0, Ordering::Relaxed);
            }
        }
        // ORDERING: Relaxed — quiescent maintenance.
        self.next.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }
}

impl<const W: usize, const N: usize> Default for SeqRing<W, N> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        static C: Counter = Counter::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..10_000 {
                        C.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(C.get(), 80_000);
        C.add(5);
        assert_eq!(C.get(), 80_005);
    }

    #[test]
    fn histogram_matches_workload_quantization() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.max(), 10_000);
        let p50 = h.value_at_quantile(0.50);
        assert!((5_000..=5_200).contains(&p50), "p50 {p50}");
        // Clamping above TRACKABLE_MAX.
        h.record(u64::MAX);
        assert_eq!(h.saturated_count(), 1);
        assert_eq!(h.max(), TRACKABLE_MAX);
    }

    #[test]
    fn histogram_concurrent_records_all_land() {
        static H: Histogram = Histogram::new();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        H.record(t * 5_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(H.count(), 20_000);
        assert_eq!(H.max(), 19_999);
    }

    #[test]
    fn registry_render_and_value() {
        static C: Counter = Counter::new();
        static G: Gauge = Gauge::new();
        static H: Histogram = Histogram::new();
        fn answer() -> u64 {
            42
        }
        register("test_alpha_total", Handle::Counter(&C));
        register("test_beta_level", Handle::Gauge(&G));
        register("test_gamma_ns", Handle::Histogram(&H));
        register("test_delta_derived", Handle::Func(answer));
        C.add(7);
        G.set(3);
        H.record(100);

        assert_eq!(value("test_alpha_total"), Some(7));
        assert_eq!(value("test_beta_level"), Some(3));
        assert_eq!(value("test_gamma_ns"), Some(1)); // histogram scalar = count
        assert_eq!(value("test_delta_derived"), Some(42));
        assert_eq!(value("no_such_metric"), None);

        let text = render();
        assert!(text.contains("test_alpha_total 7\n"), "{text}");
        assert!(text.contains("test_beta_level 3\n"), "{text}");
        assert!(text.contains("test_gamma_ns_count 1\n"), "{text}");
        assert!(text.contains("test_delta_derived 42\n"), "{text}");
        // Sorted: deterministic byte layout.
        let lines: Vec<&str> = text.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }

    #[test]
    #[should_panic(expected = "duplicate metric name")]
    fn registry_rejects_duplicate_names() {
        static C: Counter = Counter::new();
        register("test_duplicate_name", Handle::Counter(&C));
        register("test_duplicate_name", Handle::Counter(&C));
    }
}
