//! Asserts the headline property of the descriptor-reuse transformation
//! (DESIGN.md §3): after a thread's first operation, a KCAS / PathCAS
//! publish performs **zero** heap allocations — an ordinary operation never
//! grows the thread's descriptor slot, and an operation that does (a
//! 1 000-node validated path) grows it once and for all.
//!
//! Every case but that last one runs twice: pinned to the descriptor path,
//! and — where the CPU has RTM — on the transactional fast path in front of
//! it.
//!
//! Since PR 8 the success window also proves the telemetry layer rides
//! along for free: the striped `kcas_ops_total` counter (always on) must
//! advance by exactly the measured op count while the allocation delta
//! stays zero — DESIGN.md §11's zero-overhead claim, enforced.
//!
//! Skipped under `--cfg pathcas_loom`: this is a performance contract of
//! the real build, and the model-checking cfg deliberately makes the kcas
//! metrics inert (see `kcas::metrics`), so the counter assertions below
//! cannot hold there.
#![cfg(not(pathcas_loom))]

use kcas::{CasWord, KcasArg, VisitArg};
use telemetry::alloc::{allocations, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The phases run inside ONE #[test] so no sibling test (or libtest's
/// own result printing for one) can allocate concurrently with a measured
/// window — the counter is process-global.
#[test]
fn descriptor_reuse_allocation_contract() {
    // Let libtest's main thread finish parking in its result-channel
    // `recv`: that first blocking receive lazily allocates the thread's
    // park context (observed as a sporadic 2-allocation blip), and the
    // measured windows below must only ever see *this* thread's work.
    std::thread::sleep(std::time::Duration::from_millis(100));
    // The descriptor path first (pinned, so that it is what runs where the
    // CPU has RTM), then the transactional path, which publishes nothing and
    // must allocate nothing either.
    for software in [true, false] {
        if !software && !kcas::htm_available() {
            eprintln!("note: no RTM on this CPU — transactional half skipped");
            break;
        }
        kcas::software_path_only(software);
        success_path_kcas_performs_zero_heap_allocations();
        traced_success_path_is_also_allocation_free();
        failure_path_is_also_allocation_free();
        if software {
            // Last: everything above ran on a slot that had never grown.
            long_path_grows_the_slot_once();
        }
    }
    counting_allocator_counts();
}

/// The span tracer wrapped around KCAS — sample, stamp the clock on both
/// sides of the operation, record a `kcas` span — adds **zero** allocations
/// to the success path, while the sampler counter and span rings
/// demonstrably advance.  This is the server's per-op hot path in miniature
/// (`Session::process` stamps and records exactly so).
fn traced_success_path_is_also_allocation_free() {
    telemetry::trace::register_metrics();
    let words: Vec<CasWord> = (0..4).map(|_| CasWord::new(0)).collect();
    let traced_kcas = |args: &[KcasArg], guard: &crossbeam_epoch::Guard| {
        let trace = telemetry::trace::should_sample();
        let start = telemetry::trace::now_ns();
        assert!(kcas::kcas(args, guard));
        if let Some(t) = trace {
            let dur = telemetry::trace::now_ns() - start;
            telemetry::trace::record_span(t, telemetry::trace::PHASE_KCAS, start, dur, 0);
        }
    };

    // Warm up: thread pools, epoch record, the tracer's epoch clock and
    // this thread's span ring stripe.
    for i in 0..16u64 {
        let guard = crossbeam_epoch::pin();
        let args: Vec<KcasArg> =
            words.iter().map(|w| KcasArg { addr: w, old: i, new: i + 1 }).collect();
        traced_kcas(&args, &guard);
    }

    telemetry::trace::set_sample_every(1);
    let base = words[0].load_quiescent();
    let sampled_before = telemetry::value("trace_sampled_total").expect("tracer registered");
    let spans_before = telemetry::value("trace_spans_recorded_total").unwrap();
    let before = allocations();
    for i in 0..1_000u64 {
        let guard = crossbeam_epoch::pin();
        let args = [
            KcasArg { addr: &words[0], old: base + i, new: base + i + 1 },
            KcasArg { addr: &words[1], old: base + i, new: base + i + 1 },
            KcasArg { addr: &words[2], old: base + i, new: base + i + 1 },
            KcasArg { addr: &words[3], old: base + i, new: base + i + 1 },
        ];
        traced_kcas(&args, &guard);
    }
    let after = allocations();
    telemetry::trace::set_sample_every(telemetry::trace::DEFAULT_SAMPLE_EVERY);
    assert_eq!(
        after - before,
        0,
        "the traced KCAS success path must not allocate (got {} allocations over 1000 ops)",
        after - before
    );
    assert_eq!(
        telemetry::value("trace_sampled_total").unwrap() - sampled_before,
        1_000,
        "every op was 1-in-1 sampled"
    );
    assert_eq!(
        telemetry::value("trace_spans_recorded_total").unwrap() - spans_before,
        1_000,
        "every sampled op recorded its kcas span"
    );
}

fn success_path_kcas_performs_zero_heap_allocations() {
    let words: Vec<CasWord> = (0..8).map(|_| CasWord::new(0)).collect();
    let versions: Vec<CasWord> = (0..4).map(|_| CasWord::new(2)).collect();

    // One operation registers this thread's descriptor pool and the epoch
    // collector's participant record; from the second on nothing allocates.
    {
        let guard = crossbeam_epoch::pin();
        let args: Vec<KcasArg> = words.iter().map(|w| KcasArg { addr: w, old: 0, new: 1 }).collect();
        assert!(kcas::kcas(&args, &guard));
    }

    let base = words[0].load_quiescent();
    // Read the registry outside the measured window (rendering/lookup may
    // allocate); the in-window increments must not.
    let ops_before = telemetry::value("kcas_ops_total").expect("kcas metrics registered");
    let before = allocations();
    for i in 0..1_000u64 {
        let guard = crossbeam_epoch::pin();
        // A 4-word KCAS with a 4-node validated path, entirely on the stack.
        let args = [
            KcasArg { addr: &words[0], old: base + i, new: base + i + 1 },
            KcasArg { addr: &words[1], old: base + i, new: base + i + 1 },
            KcasArg { addr: &words[2], old: base + i, new: base + i + 1 },
            KcasArg { addr: &words[3], old: base + i, new: base + i + 1 },
        ];
        let path = [
            VisitArg { ver_addr: &versions[0], seen: 2 },
            VisitArg { ver_addr: &versions[1], seen: 2 },
            VisitArg { ver_addr: &versions[2], seen: 2 },
            VisitArg { ver_addr: &versions[3], seen: 2 },
        ];
        assert!(kcas::execute(&args, &path, &guard));
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "the KCAS success path must not allocate (got {} allocations over 1000 ops)",
        after - before
    );
    // The zero-alloc window was fully counted: telemetry is on, not off.
    assert_eq!(
        telemetry::value("kcas_ops_total").unwrap() - ops_before,
        1_000,
        "kcas_ops_total missed ops inside the zero-alloc window"
    );
}

fn failure_path_is_also_allocation_free() {
    let w = CasWord::new(7);
    let before = allocations();
    for _ in 0..500 {
        let guard = crossbeam_epoch::pin();
        // Wrong old value: fails in phase 1 and rolls back.
        assert!(!kcas::kcas(&[KcasArg { addr: &w, old: 0, new: 1 }], &guard));
    }
    assert_eq!(allocations() - before, 0, "failed operations must not allocate either");
}

/// An operation too large for a fresh slot — one word, a 1 000-node
/// validated path — grows the slot when it is first published and never
/// again: the storage is kept, not returned.
fn long_path_grows_the_slot_once() {
    let w = CasWord::new(0);
    let versions: Vec<CasWord> = (0..1_000).map(|_| CasWord::new(2)).collect();
    let path: Vec<VisitArg> = versions.iter().map(|v| VisitArg { ver_addr: v, seen: 2 }).collect();
    let guard = crossbeam_epoch::pin();
    let before = allocations();
    assert!(kcas::execute(&[KcasArg { addr: &w, old: 0, new: 1 }], &path, &guard));
    assert!(allocations() > before, "a 1000-node path fitted a slot that had never grown");
    let before = allocations();
    for i in 1..=100u64 {
        assert!(kcas::execute(&[KcasArg { addr: &w, old: i, new: i + 1 }], &path, &guard));
    }
    assert_eq!(allocations() - before, 0, "a grown slot allocated again for the same operation");
}

/// Keeps the zeros above honest: the counter does see an allocation.
fn counting_allocator_counts() {
    let before = allocations();
    drop(std::hint::black_box(Box::new(0u64)));
    assert!(allocations() > before, "the counting allocator missed a Box::new");
}
