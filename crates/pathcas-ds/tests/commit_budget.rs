//! Exact commit counts of the AVL tree's updates, read as deltas of the KCAS
//! engine's operation counter: one per `execute`, on either commit path, and
//! exact at quiescence.  The counter is process-wide, so this binary holds a
//! single test, which runs on a single thread.

use mapapi::ConcurrentMap;
use pathcas_ds::PathCasAvl;

fn commits() -> u64 {
    kcas::metrics::metrics().ops.get()
}

/// The commits `update` issues.
fn commits_of(update: impl FnOnce()) -> u64 {
    let before = commits();
    update();
    commits() - before
}

#[test]
fn an_avl_update_settles_its_parents_height_in_its_own_commit() {
    let t = PathCasAvl::new();
    assert!(t.insert(2, 2));
    // 2 is a leaf: hanging 1 under it raises its height to 2 in the link's
    // own commit, and the walk would start at a sentinel.
    assert_eq!(commits_of(|| assert!(t.insert(1, 1))), 1, "insert under a lone leaf");
    // 2 already has a child: hanging 3 beside it leaves its height at 2.
    assert_eq!(commits_of(|| assert!(t.insert(3, 3))), 1, "insert beside a sibling");
    t.check_invariants();

    // A seeded 50/50 churn over a half-full key range: a fixHeight commit
    // after most updates would read about 2.5 commits per successful one.
    const KEYS: u64 = 4_096;
    let t = PathCasAvl::new();
    let mut x = 7u64;
    let mut next = || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        x >> 33
    };
    let mut present = 0;
    while present < KEYS / 2 {
        present += u64::from(t.insert(1 + next() % KEYS, 0));
    }
    let (before, mut updates) = (commits(), 0u64);
    for _ in 0..40_000 {
        let key = 1 + next() % KEYS;
        let done = if next() % 2 == 0 { t.insert(key, key) } else { t.remove(key) };
        updates += u64::from(done);
    }
    let per_update = (commits() - before) as f64 / updates as f64;
    assert!(per_update <= 2.1, "{per_update:.3} commits per successful update ({updates} updates)");
    t.check_invariants();
}
