//! The node slab's footprint is bounded by the peak number of live nodes plus
//! per-thread slack, whichever threads allocate, free, retire and exit.
//!
//! The tests read the process-wide count of bytes the slab has reserved, so
//! they take turns.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crossbeam_epoch::slab;
use mapapi::ConcurrentMap;
use pathcas_ds::{PathCasAvl, PathCasList};

static TURN: Mutex<()> = Mutex::new(());

fn reserved() -> usize {
    slab::stats().reserved_bytes
}

/// A tree built here and dropped on a thread that then exits — the shape of
/// a served map whose last `Arc` a connection thread holds.  Without the
/// hand-off at thread exit every cycle strands the tree's 640 KB with the
/// dead thread and this thread opens fresh chunks for the next one.
#[test]
fn trees_dropped_on_short_lived_threads_do_not_grow_the_slab() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let mut after_cycle = Vec::new();
    for _cycle in 0..50 {
        let tree = PathCasAvl::new();
        for key in 1..=10_000u64 {
            assert!(tree.insert(key, key));
        }
        std::thread::spawn(move || drop(tree)).join().expect("the dropping thread panicked");
        after_cycle.push(reserved());
    }
    assert!(
        after_cycle[2..].iter().all(|&bytes| bytes == after_cycle[1]),
        "bytes reserved after each cycle: {after_cycle:?}"
    );
    let free_slots = slab::stats().free_slots;
    assert!(free_slots >= 10_002, "the last tree's slots are not free: {free_slots}");
}

/// One thread only inserts and another only removes what the first inserted,
/// never more than `WINDOW` keys behind: at most `WINDOW` nodes are live, yet
/// 100 000 nodes (6.4 MB) pass from the inserter's slab to the remover's free
/// list.  Without batch donation they stay there and the inserter opens a
/// chunk for every 4 096 inserts — 25 chunks.
#[test]
fn an_inserting_and_a_removing_thread_recycle_through_the_orphan_pool() {
    const KEYS: u64 = 100_000;
    const WINDOW: u64 = 4_096;
    /// Live nodes, both threads' two batches and a chunk's run each, the
    /// remover's uncollected garbage — and as much again for the moments at
    /// which the inserter runs dry just before a batch arrives.
    const BOUND: usize = 2 << 20;

    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let tree = PathCasAvl::new();
    let (inserted, removed) = (AtomicU64::new(0), AtomicU64::new(0));
    let before = reserved();
    std::thread::scope(|s| {
        s.spawn(|| {
            for key in 1..=KEYS {
                while key - removed.load(Ordering::Acquire) > WINDOW {
                    std::thread::yield_now();
                }
                assert!(tree.insert(key, key));
                inserted.store(key, Ordering::Release);
            }
        });
        s.spawn(|| {
            for key in 1..=KEYS {
                while inserted.load(Ordering::Acquire) < key {
                    std::thread::yield_now();
                }
                assert!(tree.remove(key));
                removed.store(key, Ordering::Release);
            }
        });
    });
    let grown = reserved() - before;
    assert!(grown <= BOUND, "200 000 ops on at most {WINDOW} live keys reserved {grown} more bytes");
    assert_eq!(tree.stats().key_count, 0);
    tree.check_invariants();
}

/// Threads that remove nodes and exit before the epoch lets their garbage be
/// freed — one thread per connection does exactly that.  Without the exit
/// hand-off every thread strands the 100 slots it retired (6.4 KB), and
/// 10 000 threads reserve 64 MB more; with it the next collector frees them.
#[test]
fn garbage_of_exited_threads_is_recycled() {
    const THREADS: usize = 10_000;
    const WARM_UP: usize = 1_000;
    const KEYS: u64 = 100;

    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let list = PathCasList::new();
    let mut warm = 0;
    for thread in 0..THREADS {
        if thread == WARM_UP {
            warm = reserved();
        }
        // An explicit join waits for the thread's exit, its thread-local
        // destructors (the hand-off) included; the end of a scope does not.
        std::thread::scope(|s| {
            s.spawn(|| {
                for key in 1..=KEYS {
                    assert!(list.insert(key, key));
                    assert!(list.remove(key));
                }
            })
            .join()
            .unwrap();
        });
    }
    let grown = reserved() - warm;
    assert_eq!(grown, 0, "{} short-lived threads reserved {grown} more bytes", THREADS - WARM_UP);
    assert_eq!(list.stats().key_count, 0);
    list.check_invariants();
}
