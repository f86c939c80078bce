//! Litmus for `get` racing a two-child `remove`: that removal rewrites the
//! doomed node's key *and* value to its successor's in one KCAS, so a `get`
//! that reads the key, then the value, with the commit in between would
//! return the successor's value under the removed key.
//!
//! Every value is a fixed function of its key, writers churn removals and
//! re-inserts over a dense band (so nearly every removed node has two
//! children), and readers assert `get(k) ∈ {None, Some(f(k))}`.

use std::sync::atomic::{AtomicBool, Ordering};

use mapapi::ConcurrentMap;
use pathcas_ds::{PathCasAvl, PathCasBst};

/// Keys `1..=BAND`, all present at the start.
const BAND: u64 = 48;
/// Remove + re-insert sweeps over the band, per writer.
const SWEEPS: u64 = 4_000;

fn f(key: u64) -> u64 {
    key * 1_000_003 + 17
}

fn churn_two_child_removals_under_readers(map: &dyn ConcurrentMap) {
    // Insert in an order that leaves even a non-rebalancing BST bushy
    // (midpoints first), so interior nodes have two children.
    let mut order = Vec::new();
    let mut spans = vec![(1, BAND)];
    while let Some((lo, hi)) = spans.pop() {
        if lo > hi {
            continue;
        }
        let mid = lo + (hi - lo) / 2;
        order.push(mid);
        spans.push((lo, mid.wrapping_sub(1)));
        spans.push((mid + 1, hi));
    }
    for &k in &order {
        assert!(map.insert(k, f(k)));
    }

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let order = &order;
                s.spawn(move || {
                    for sweep in 0..SWEEPS {
                        // The two writers walk the band out of phase so each
                        // key's neighbours keep coming and going too.
                        for &k in order.iter().skip(((sweep + w * 7) % BAND) as usize).step_by(3) {
                            if map.remove(k) {
                                map.insert(k, f(k));
                            }
                        }
                    }
                })
            })
            .collect();
        for _ in 0..2 {
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    for k in 1..=BAND {
                        if let Some(v) = map.get(k) {
                            assert_eq!(v, f(k), "get({k}) returned another key's value");
                        }
                    }
                }
            });
        }
        for w in writers {
            w.join().expect("writer panicked");
        }
        done.store(true, Ordering::Release);
    });

    // Quiescent: every key is back with its own value.
    for k in 1..=BAND {
        assert_eq!(map.get(k), Some(f(k)));
    }
}

#[test]
fn avl_get_never_returns_the_successors_value() {
    churn_two_child_removals_under_readers(&PathCasAvl::new());
}

#[test]
fn bst_get_never_returns_the_successors_value() {
    churn_two_child_removals_under_readers(&PathCasBst::new());
}
