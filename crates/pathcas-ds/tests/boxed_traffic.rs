//! Which structures actually take the boxed-descriptor overflow path.
//!
//! A pooled KCAS slot holds `kcas::pool::SLOT_PATH_CAP` visited nodes; an
//! operation that validates a longer path falls back to a heap-allocated
//! descriptor and bumps `kcas_boxed_fallbacks_total`.  The benchmark's five
//! workloads all run the AVL tree and report 0 fallbacks, which reads as
//! "dead code" — this test pins down that the path is dead only for
//! *balanced* shapes: the ordered-pattern suite's 200 ascending keys give
//! the unbalanced tree a 201-node search path.
//!
//! The test pins itself to the software path: where the CPU has RTM a
//! 201-node path commits in one hardware transaction, publishes no
//! descriptor and never reaches `boxed_fallbacks`.
//!
//! The counter is process-global, so this file holds one `#[test]` and runs
//! its two halves back to back.

use kcas::metrics::metrics;
use mapapi::suites::check_ordered_patterns;
use pathcas_ds::{PathCasAvl, PathCasBst};

#[test]
fn only_the_unbalanced_tree_overflows_a_pooled_slot() {
    const { assert!(200 > kcas::pool::SLOT_PATH_CAP) };
    kcas::software_path_only(true);

    let before = metrics().boxed_fallbacks.get();
    check_ordered_patterns(&PathCasAvl::new());
    let after_avl = metrics().boxed_fallbacks.get();
    assert_eq!(after_avl - before, 0, "a balanced path outgrew a pooled descriptor slot");

    check_ordered_patterns(&PathCasBst::new());
    let after_bst = metrics().boxed_fallbacks.get();
    assert!(after_bst > after_avl, "a 201-node validated path fitted a pooled descriptor slot");
}
