//! Stress tests for descriptor recycling under contention (DESIGN.md §3).
//!
//! Each thread owns a single KCAS descriptor slot, so under a contended
//! workload every slot is recycled thousands of times per second while other
//! threads are actively helping operations published through it — exactly
//! the scenario the seqno validation protocol must survive, and, when an
//! operation outgrows the slot, the scenario its grow-only storage must
//! survive too.  The assertions are effect-based: no KCAS effect may be lost
//! (a success whose writes vanished) or duplicated (a helper re-applying a
//! completed operation after its descriptor was recycled).
//!
//! Every worker pins itself to the software path
//! (`kcas::software_path_only`): where the CPU has RTM nearly every KCAS
//! would otherwise commit in one hardware transaction and recycle nothing.
//! The mixed case — transactional and descriptor operations on the same
//! words — is `engine::tests::concurrent_kcas_transfer_preserves_sum`.

use std::sync::Arc;

use kcas::{CasWord, KcasArg, VisitArg};
use proptest::prelude::*;

/// Every success increments all `k` words of a single shared group, so the
/// final value of every word must equal the global success count exactly:
/// a lost update leaves it short, a resurrected descriptor overshoots it.
fn hammer_shared_group(threads: usize, ops_per_thread: usize, k: usize) {
    let words: Arc<Vec<CasWord>> = Arc::new((0..k).map(|_| CasWord::new(0)).collect());
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let words = Arc::clone(&words);
            std::thread::spawn(move || {
                kcas::software_path_only(true);
                let mut successes = 0u64;
                for _ in 0..ops_per_thread {
                    let guard = crossbeam_epoch::pin();
                    let olds: Vec<u64> = words.iter().map(|w| kcas::read(w, &guard)).collect();
                    let args: Vec<KcasArg> = words
                        .iter()
                        .zip(&olds)
                        .map(|(w, &o)| KcasArg { addr: w, old: o, new: o + 1 })
                        .collect();
                    if kcas::kcas(&args, &guard) {
                        successes += 1;
                    }
                }
                successes
            })
        })
        .collect();
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let guard = crossbeam_epoch::pin();
    for w in words.iter() {
        assert_eq!(
            kcas::read(w, &guard),
            total,
            "every word must reflect exactly the {total} successful operations"
        );
    }
}

#[test]
fn rapid_recycling_loses_and_duplicates_nothing() {
    // A single 2-word group shared by all threads maximizes both helping
    // (every conflict installs/helps descriptors) and recycling (every
    // attempt, failed or not, bumps a slot seqno).
    hammer_shared_group(8, 4000, 2);
}

#[test]
fn wide_operations_recycle_correctly() {
    hammer_shared_group(4, 1500, 8);
}

#[test]
fn recycling_advances_seqnos_not_slots() {
    // Direct evidence of reuse: a burst of operations advances the calling
    // thread's KCAS slot seqno by exactly the operation count, and registers
    // no new slots.  A k-word commit performs k - 1 DCSSes: the owner locks
    // its first entry with a plain CAS (no helper can know the descriptor
    // before that), every later entry with a DCSS.
    kcas::software_path_only(true);
    let ws = [CasWord::new(0), CasWord::new(0)];
    let guard = crossbeam_epoch::pin();
    let _ = kcas::kcas(&[KcasArg { addr: &ws[0], old: 0, new: 1 }], &guard); // warm up
    let ops = 500u64;
    for (k, dcss_per_op) in [(1, 0), (2, 1)] {
        let before = kcas::local_pool_stats();
        for _ in 0..ops {
            let args: Vec<KcasArg> = ws[..k]
                .iter()
                .map(|w| {
                    let old = kcas::read(w, &guard);
                    KcasArg { addr: w, old, new: old + 1 }
                })
                .collect();
            assert!(kcas::kcas(&args, &guard));
        }
        let after = kcas::local_pool_stats();
        assert_eq!(before.kcas_slot, after.kcas_slot);
        assert_eq!(after.dcss_slot, before.dcss_slot);
        assert_eq!(after.kcas_seq - before.kcas_seq, ops, "{k}-word burst");
        assert_eq!(after.dcss_seq - before.dcss_seq, ops * dcss_per_op, "{k}-word burst");
    }
}

/// `threads` workers each move `ops` units between random pairs of
/// `accounts_n` accounts with a 2-word KCAS that also validates a path of
/// private, never-changing version words — `path_cycle[i % len]` of them on
/// a worker's `i`-th transfer.  The total must be conserved.
fn transfer_with_paths(threads: usize, accounts_n: usize, ops: usize, seed: u64, path_cycle: &[usize]) {
    let accounts: Vec<CasWord> = (0..accounts_n).map(|_| CasWord::new(1000)).collect();
    let longest = path_cycle.iter().copied().max().unwrap_or(0);
    // Each worker's path words are made here, outside the scope, not in the
    // worker: a helper on another thread may still `validate` them after
    // their owner has finished and exited.  (In the trees, the version words
    // are in epoch-protected nodes, which is what keeps them alive.)
    let versions: Vec<Vec<CasWord>> =
        (0..threads).map(|_| (0..longest).map(|_| CasWord::new(2)).collect()).collect();
    std::thread::scope(|scope| {
        for (t, versions) in versions.iter().enumerate() {
            let accounts = &accounts;
            scope.spawn(move || {
                kcas::software_path_only(true);
                let path: Vec<VisitArg> =
                    versions.iter().map(|v| VisitArg { ver_addr: v, seen: 2 }).collect();
                let mut state = seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut next = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                for op in 0..ops {
                    let a = (next() % accounts_n as u64) as usize;
                    let mut b = (next() % accounts_n as u64) as usize;
                    if a == b {
                        b = (b + 1) % accounts_n;
                    }
                    let path = &path[..path_cycle[op % path_cycle.len()]];
                    loop {
                        let guard = crossbeam_epoch::pin();
                        let va = kcas::read(&accounts[a], &guard);
                        let vb = kcas::read(&accounts[b], &guard);
                        if va == 0 {
                            break;
                        }
                        let args = [
                            KcasArg { addr: &accounts[a], old: va, new: va - 1 },
                            KcasArg { addr: &accounts[b], old: vb, new: vb + 1 },
                        ];
                        if kcas::execute(&args, path, &guard) {
                            break;
                        }
                    }
                }
            });
        }
    });
    let guard = crossbeam_epoch::pin();
    let total: u64 = accounts.iter().map(|w| kcas::read(w, &guard)).sum();
    assert_eq!(total, accounts_n as u64 * 1000, "transfers must conserve the total");
}

#[test]
fn slots_grow_and_are_reused_under_contention() {
    // Eight threads on the same two accounts, each cycling its validated
    // path through 0 -> 300 -> 1200 nodes: a thread's slot outgrows its
    // buffers twice while other threads are mid-help on the operation it
    // published just before, and its short operations recycle the grown
    // slot while helpers of the long ones are still reading it.
    transfer_with_paths(8, 2, 2400, 1, &[0, 300, 1200]);
}

#[test]
fn slots_survive_thread_turnover() {
    // Threads come and go; their slots return to the free list and are
    // adopted (seqnos intact) by successors.  Effects must still be exact.
    let words: Arc<Vec<CasWord>> = Arc::new((0..2).map(|_| CasWord::new(0)).collect());
    let mut total = 0u64;
    for _generation in 0..6 {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let words = Arc::clone(&words);
                std::thread::spawn(move || {
                    kcas::software_path_only(true);
                    let mut successes = 0u64;
                    for _ in 0..300 {
                        let guard = crossbeam_epoch::pin();
                        let olds: Vec<u64> =
                            words.iter().map(|w| kcas::read(w, &guard)).collect();
                        let args: Vec<KcasArg> = words
                            .iter()
                            .zip(&olds)
                            .map(|(w, &o)| KcasArg { addr: w, old: o, new: o + 1 })
                            .collect();
                        if kcas::kcas(&args, &guard) {
                            successes += 1;
                        }
                    }
                    successes
                })
            })
            .collect();
        total += handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>();
    }
    let guard = crossbeam_epoch::pin();
    for w in words.iter() {
        assert_eq!(kcas::read(w, &guard), total);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized recycling stress: arbitrary thread counts, group widths
    /// and op counts must never lose or duplicate a KCAS effect.
    #[test]
    fn prop_recycling_preserves_exact_effects(
        (threads, k, ops) in (2usize..5, 2usize..5, 200usize..800)
    ) {
        hammer_shared_group(threads, ops, k);
    }

    /// Randomized transfers between a small account set, every other one
    /// validating a path of random length, conserve the total.
    #[test]
    fn prop_transfers_conserve_total(
        (threads, accounts_n, ops, (path_len, seed)) in
            (2usize..5, 2usize..6, 100usize..600, (0usize..400, any::<u64>()))
    ) {
        transfer_with_paths(threads, accounts_n, ops, seed, &[0, path_len]);
    }
}
