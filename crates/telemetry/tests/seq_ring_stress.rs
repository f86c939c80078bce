//! Non-loom regression hammer for `SeqRing`'s Boehm seqlock, driven through
//! the tracer's `SpanRing` view.
//!
//! The bounded model in `src/models.rs` proves the protocol on a 1–2 slot
//! ring with 2–3 threads; this test shakes the same code at real scale — a
//! small ring lapped thousands of times by many writers while a reader
//! snapshots continuously. Every field of every span is derived from the
//! span's trace id, so any torn slot (a mix of two writers' fields) is
//! caught by pure payload arithmetic, with no dependence on timing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use telemetry::trace::{SpanRecord, SpanRing};

/// Every payload field is derived from the trace id so tearing is
/// detectable: phase = id + 1, start = 10 * id, duration = id ^ MASK,
/// events = id rotated left 7.
const DUR_MASK: u64 = 0xA5A5_A5A5;

fn record<const N: usize>(ring: &SpanRing<N>, id: u64) -> Option<u64> {
    ring.record(id, id + 1, 10 * id, id ^ DUR_MASK, id.rotate_left(7))
}

fn check_intact(s: &SpanRecord) {
    assert_eq!(s.phase, s.trace_id + 1, "torn span (phase): {s:?}");
    assert_eq!(s.start_ns, 10 * s.trace_id, "torn span (start): {s:?}");
    assert_eq!(s.dur_ns, s.trace_id ^ DUR_MASK, "torn span (duration): {s:?}");
    assert_eq!(s.events, s.trace_id.rotate_left(7), "torn span (events): {s:?}");
}

#[test]
fn concurrent_writers_never_tear_snapshots() {
    // A tiny ring maximizes lap pressure: 4 writers × a 8-slot ring means
    // slots are reclaimed every 8 tickets, constantly racing the reader.
    let ring: Arc<SpanRing<8>> = Arc::new(SpanRing::new());
    let stop = Arc::new(AtomicBool::new(false));
    let writers = 4u64;
    let per = 50_000u64;

    std::thread::scope(|s| {
        for w in 0..writers {
            let ring = Arc::clone(&ring);
            s.spawn(move || {
                let mut accepted = 0u64;
                for i in 0..per {
                    if let Some(ticket) = record(&ring, w * per + i) {
                        // Tickets are unique and the slot index is derived
                        // from them, so an accepted span was fully written.
                        assert!(ticket < writers * per);
                        accepted += 1;
                    }
                }
                assert!(accepted > 0, "writer {w} had every span dropped");
            });
        }
        {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut snapshots = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for span in ring.snapshot() {
                        check_intact(&span);
                    }
                    snapshots += 1;
                }
                assert!(snapshots > 0);
            });
        }
        // Release the reader once every writer's last span is admitted.
        let ring2 = Arc::clone(&ring);
        let stop2 = Arc::clone(&stop);
        s.spawn(move || {
            while ring2.recorded() < writers * per {
                std::hint::spin_loop();
            }
            stop2.store(true, Ordering::Relaxed);
        });
    });

    // Accounting: every admitted ticket was either fully recorded or counted
    // as dropped; admission is exactly the number of record() calls.
    assert_eq!(ring.recorded(), writers * per);
    assert!(ring.dropped() < ring.recorded(), "every span was dropped");

    // The quiescent ring holds only intact spans, all from the last lap.
    let finals = ring.snapshot();
    assert!(!finals.is_empty());
    for span in &finals {
        check_intact(span);
        assert!(span.ticket < writers * per);
    }
    // Tickets in a quiescent snapshot are unique (one per live slot).
    let mut tickets: Vec<u64> = finals.iter().map(|s| s.ticket).collect();
    tickets.sort_unstable();
    tickets.dedup();
    assert_eq!(tickets.len(), finals.len(), "duplicate tickets in snapshot");
}

#[test]
fn single_writer_snapshot_is_exact() {
    // With one writer and no contention, nothing is ever dropped and the
    // ring holds exactly the last N spans in ticket order.
    let ring: SpanRing<4> = SpanRing::new();
    for id in 0..10u64 {
        assert_eq!(record(&ring, id), Some(id));
    }
    assert_eq!(ring.recorded(), 10);
    assert_eq!(ring.dropped(), 0);
    let snap = ring.snapshot();
    let tickets: Vec<u64> = snap.iter().map(|s| s.ticket).collect();
    assert_eq!(tickets, vec![6, 7, 8, 9], "the last N, oldest first");
    for span in &snap {
        check_intact(span);
        assert_eq!(span.trace_id, span.ticket, "single writer: ticket == trace id by construction");
    }
}
