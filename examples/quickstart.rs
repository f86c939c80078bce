//! Quickstart: the PathCAS primitive and the PathCAS binary search tree.
//!
//! Run with `cargo run --release --example quickstart`.

use kcas::CasWord;
use mapapi::ConcurrentMap;
use pathcas::OpBuilder;
use pathcas_ds::PathCasBst;

fn main() {
    // --- 1. The primitive itself -----------------------------------------
    // Two "nodes", each with a version word and a data word.
    let ver_a = CasWord::new(0);
    let ver_b = CasWord::new(0);
    let data_b = CasWord::new(200);

    let mut builder = OpBuilder::new();
    let guard = crossbeam_epoch::pin();
    let mut op = builder.start(&guard);
    // Visit node A (it is only read), modify node B.
    let va = op.visit(&ver_a);
    let db = op.read(&data_b);
    op.add(&data_b, db, db + 5);
    op.add(&ver_b, 0, 2); // bump B's version because we modify it
    assert_eq!(va, 0);
    assert!(op.vexec(), "nothing changed concurrently, so vexec succeeds");
    println!("PathCAS primitive: data_b = {}", kcas::read(&data_b, &guard));
    drop(guard);

    // --- 2. The internal BST built on it ----------------------------------
    let tree = PathCasBst::new();
    for key in [50u64, 20, 70, 10, 30, 60, 80] {
        tree.insert(key, key * 10);
    }
    assert_eq!(tree.get(30), Some(300));
    assert!(tree.remove(50)); // two-child deletion, done atomically by vexec
    assert_eq!(tree.get(50), None);
    let stats = tree.stats();
    println!(
        "int-bst-pathcas: {} keys, key sum {}, average depth {:.2}",
        stats.key_count,
        stats.key_sum,
        stats.avg_key_depth()
    );

    // --- 3. It is a concurrent structure ----------------------------------
    let tree = std::sync::Arc::new(PathCasBst::new());
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let tree = std::sync::Arc::clone(&tree);
            s.spawn(move || {
                for i in 0..10_000u64 {
                    let key = 1 + (i * 4 + t);
                    tree.insert(key, key);
                    if i % 3 == 0 {
                        tree.remove(key);
                    }
                }
            });
        }
    });
    println!("after 4-thread churn: {} keys", tree.stats().key_count);
    tree.check_invariants();
    println!("invariants hold — done");
}
