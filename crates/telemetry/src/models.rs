//! Bounded model checking of the telemetry hot paths (ISSUE 9 /
//! DESIGN.md §12).
//!
//! Compiled only under `--cfg pathcas_loom`, where [`crate::sync`] resolves
//! the crate's atomics to `loom-shim`'s mocks, so these models drive the
//! *production* [`SeqRing`] (the seqlock ring behind the tracer's span
//! rings) and [`Counter`] code through every interleaving and weak-memory
//! read choice within the checker's bounds.
//!
//! Models assert the shipped code's invariants (no torn ring snapshot,
//! exactly one lap winner, striped sums monotone and exact at quiescence);
//! mutation witnesses run weakened miniatures — the pre-revision seqlock
//! without the Boehm fences and claim CAS, a load-then-store counter
//! increment — and assert the checker refutes them.
//!
//! Run with: `RUSTFLAGS='--cfg pathcas_loom' cargo test -p telemetry --release`.

use std::sync::Arc;

use crate::{Counter, SeqRing};

/// The ring every model drives: one slot, so every second write laps, and
/// three payload words — enough that a cross-record mix has somewhere to
/// show. [`crate::trace::SpanRing`] is this same code at width 5.
type Ring = SeqRing<3, 1>;

/// The two records every ring model writes. Words are correlated
/// (`words[1] == 10 * words[0]`, `words[2] == 100 * words[0]`) so any
/// cross-record mix in a snapshot is directly observable.
const REC_A: [u64; 3] = [7, 70, 700];
const REC_B: [u64; 3] = [9, 90, 900];

/// Model (c), seqlock ring: one writer overwrites the single ring slot
/// twice while the main thread snapshots concurrently. In every
/// interleaving a snapshot contains only fully written records under the
/// ticket they were written with — never a mix of the two writes, never a
/// stale seqlock word capping newer fields — and quiescent state is exactly
/// the last record.
#[test]
fn seq_ring_seqlock() {
    loom_shim::model(|| {
        let ring = Arc::new(Ring::new());
        let ring2 = Arc::clone(&ring);
        let writer = loom_shim::thread::spawn(move || {
            assert_eq!(ring2.push(REC_A), Some(0));
            assert_eq!(ring2.push(REC_B), Some(1));
        });
        for rec in ring.entries() {
            assert!(rec == (0, REC_A) || rec == (1, REC_B), "torn snapshot: {rec:?}");
        }
        writer.join();
        assert_eq!(ring.recorded(), 2);
        assert_eq!(ring.dropped(), 0, "a single writer never laps itself");
        assert_eq!(ring.entries(), vec![(1, REC_B)]);
    });
}

/// Model (c'), writer lap: two writers race for the single ring slot, so
/// one laps the other by a full ring mid-write. The claim CAS must elect
/// exactly one owner per generation; the loser drops its record (counted)
/// rather than capping a mixed field set with its own stale even seqlock
/// value — the tear the pre-claim-CAS revision admitted.
#[test]
fn seq_ring_lap() {
    loom_shim::model(|| {
        let ring = Arc::new(Ring::new());
        let ring2 = Arc::clone(&ring);
        let writer = loom_shim::thread::spawn(move || ring2.push(REC_B));
        let mine = ring.push(REC_A);
        let theirs = writer.join();
        assert_eq!(ring.recorded(), 2);
        let succeeded = mine.iter().len() as u64 + theirs.iter().len() as u64;
        assert_eq!(succeeded + ring.dropped(), 2, "every admission succeeds or is counted dropped");
        assert!(succeeded >= 1, "the claim CAS always elects at least one owner");
        let last = ring.entries();
        assert_eq!(last.len(), 1, "the winning record is snapshot-visible");
        // Lap order decides which payload got which ticket, so compare
        // payloads only: whatever survived must be one writer's record in
        // full, never a mix.
        assert!(
            last[0].1 == REC_A || last[0].1 == REC_B,
            "lapped slot holds a mixed record: {:?}",
            last[0]
        );
    });
}

/// Model (d), striped counter sum-on-read: two threads each add two events
/// on their own stripes while the main thread sums concurrently. Sums are
/// monotone (each stripe is coherent and only grows), never exceed the
/// true total, include the reader's own events, and are exact at
/// quiescence.
#[test]
fn striped_counter_sum() {
    loom_shim::model(|| {
        let c = Arc::new(Counter::new());
        let c2 = Arc::clone(&c);
        let t = loom_shim::thread::spawn(move || {
            c2.inc();
            c2.inc();
        });
        c.inc();
        c.inc();
        let g1 = c.get();
        let g2 = c.get();
        assert!(g1 >= 2, "a reader always sees its own stripe's events (got {g1})");
        assert!(g1 <= g2, "concurrent sums are monotone ({g1} then {g2})");
        assert!(g2 <= 4, "a sum never exceeds the true total (got {g2})");
        t.join();
        assert_eq!(c.get(), 4, "quiescent sums are exact");
    });
}

// ---------------------------------------------------------------------------
// Mutation witnesses: weakened miniatures the checker must refute.
// ---------------------------------------------------------------------------

mod weak {
    //! The ring's seqlock as it was *before* the fence revision: the
    //! writer opens with a release store of the odd value (no claim CAS, no
    //! release fence) and the reader re-reads with an acquire load (no
    //! acquire fence). Kept as a mutation witness: `loom_shim::model_fails`
    //! proves the checker finds the torn snapshot this admits, i.e. the
    //! fences and claim CAS in [`crate::SeqRing`] are load-bearing.

    use loom_shim::sync::atomic::{AtomicU64, Ordering};

    pub struct WeakRecorder {
        seq: AtomicU64,
        key: AtomicU64,
        latency_ns: AtomicU64,
    }

    impl WeakRecorder {
        pub fn new() -> WeakRecorder {
            WeakRecorder {
                seq: AtomicU64::new(0),
                key: AtomicU64::new(0),
                latency_ns: AtomicU64::new(0),
            }
        }

        pub fn record(&self, ticket: u64, key: u64, latency_ns: u64) {
            self.seq.store(2 * ticket + 1, Ordering::Release); // no claim CAS, no fence
            self.key.store(key, Ordering::Relaxed);
            self.latency_ns.store(latency_ns, Ordering::Relaxed);
            self.seq.store(2 * ticket + 2, Ordering::Release);
        }

        pub fn snapshot(&self) -> Option<(u64, u64)> {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 & 1 == 1 {
                return None;
            }
            let key = self.key.load(Ordering::Relaxed);
            let latency_ns = self.latency_ns.load(Ordering::Relaxed);
            let s2 = self.seq.load(Ordering::Acquire); // no acquire fence
            (s1 == s2).then_some((key, latency_ns))
        }
    }
}

/// Witness for model (c): the pre-revision seqlock admits a snapshot that
/// pairs one record's key with the other's latency under an unchanged
/// seqlock word — the checker must find it.
#[test]
fn seq_ring_seqlock_witness() {
    assert!(
        loom_shim::model_fails(|| {
            let r = Arc::new(weak::WeakRecorder::new());
            let r2 = Arc::clone(&r);
            let writer = loom_shim::thread::spawn(move || {
                r2.record(0, 1, 10);
                r2.record(1, 2, 20);
            });
            if let Some((key, latency_ns)) = r.snapshot() {
                assert_eq!(latency_ns, 10 * key, "torn snapshot: key={key} ns={latency_ns}");
            }
            writer.join();
        }),
        "checker failed to refute the fence-free seqlock"
    );
}

/// Witness for model (d): if [`Counter::add`] were a load-then-store
/// instead of a `fetch_add`, two concurrent increments could lose one —
/// the checker must find the lost update.
#[test]
fn striped_counter_witness() {
    use loom_shim::sync::atomic::{AtomicU64, Ordering};
    assert!(
        loom_shim::model_fails(|| {
            let c = Arc::new(AtomicU64::new(0));
            let c2 = Arc::clone(&c);
            let t = loom_shim::thread::spawn(move || {
                let v = c2.load(Ordering::Relaxed);
                c2.store(v + 1, Ordering::Relaxed);
            });
            let v = c.load(Ordering::Relaxed);
            c.store(v + 1, Ordering::Relaxed);
            t.join();
            assert_eq!(c.load(Ordering::Relaxed), 2, "lost update");
        }),
        "checker failed to refute the non-atomic increment"
    );
}
