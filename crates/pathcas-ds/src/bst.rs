//! The lock-free *internal* unbalanced binary search tree of §4 of the paper
//! (`int-bst-pathcas`), Algorithms 3–6.
//!
//! Every operation performs a plain sequential-looking search in which each
//! traversed node is `visit`ed; updates then `add` the child pointer / key /
//! value words they modify together with a version bump of every modified
//! node (marking removed nodes), and commit with a single `vexec`.  A
//! successful `vexec` implies no visited node changed since it was visited,
//! which makes the whole read-phase + write-phase atomic and the correctness
//! argument short (Appendix E).

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_epoch::Guard;
use kcas::CasWord;
use mapapi::{ConcurrentMap, Key, MapStats, Value};
use pathcas::PathCasOp;

use crate::node::{ptr_to_word, retire, with_builder, word_to_ref, NIL};

/// Sentinel key of `minRoot` (conceptually -infinity).
const KEY_MIN_SENTINEL: u64 = 0;
/// Sentinel key of `maxRoot` (conceptually +infinity).
const KEY_MAX_SENTINEL: u64 = kcas::MAX_VALUE;

/// A tree node. All fields that PathCAS may modify are `CasWord`s; `key` and
/// `val` are mutable because a two-child deletion promotes the successor's
/// key/value into the deleted node (Algorithm 6).
pub(crate) struct Node {
    pub(crate) key: CasWord,
    pub(crate) val: CasWord,
    pub(crate) left: CasWord,
    pub(crate) right: CasWord,
    pub(crate) ver: CasWord,
}

impl Node {
    pub(crate) fn new(key: u64, val: u64) -> *mut Node {
        Box::into_raw(Box::new(Node {
            key: CasWord::new(key),
            val: CasWord::new(val),
            left: CasWord::new(NIL),
            right: CasWord::new(NIL),
            ver: CasWord::new(0),
        }))
    }
}

/// Result of the shared search routine (Algorithm 3).
struct SearchResult<'g> {
    found: bool,
    curr: Option<&'g Node>,
    curr_ver: u64,
    parent: &'g Node,
    parent_ver: u64,
}

/// The PathCAS internal binary search tree (`int-bst-pathcas`).
pub struct PathCasBst {
    max_root: *mut Node,
    min_root: *mut Node,
    retries: AtomicU64,
}

// SAFETY: all shared mutation goes through PathCAS; raw pointers are only
// dereferenced under epoch guards.
unsafe impl Send for PathCasBst {}
// SAFETY: see `Send` above.
unsafe impl Sync for PathCasBst {}

impl Default for PathCasBst {
    fn default() -> Self {
        Self::new()
    }
}

impl PathCasBst {
    /// Create an empty tree containing only the two sentinel nodes.
    pub fn new() -> Self {
        let min_root = Node::new(KEY_MIN_SENTINEL, 0);
        let max_root = Node::new(KEY_MAX_SENTINEL, 0);
        // maxRoot.left = minRoot; all real keys live under minRoot.right.
        // SAFETY: `max_root` is a freshly boxed node not yet shared with any
        // other thread, so the raw store cannot race.
        unsafe { (*max_root).left.store(ptr_to_word(min_root)) };
        PathCasBst { max_root, min_root, retries: AtomicU64::new(0) }
    }

    /// Number of times operations had to restart from scratch (a software
    /// proxy for the contention/abort columns of the paper's Figure 5).
    pub fn retry_count(&self) -> u64 {
        // ORDERING: Relaxed — diagnostic counter; no synchronization implied.
        self.retries.load(Ordering::Relaxed)
    }

    #[inline]
    fn note_retry(&self) {
        // ORDERING: Relaxed — diagnostic counter only; tree correctness is
        // carried by the validated KCAS operations, not by this statistic.
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn max_root<'g>(&self, _guard: &'g Guard) -> &'g Node {
        // SAFETY: the sentinel roots are allocated in `new` and freed only in
        // Drop, so they outlive every guard borrowed from `&self`.
        unsafe { &*self.max_root }
    }

    #[inline]
    fn min_root<'g>(&self, _guard: &'g Guard) -> &'g Node {
        // SAFETY: see `max_root` — sentinels live until Drop.
        unsafe { &*self.min_root }
    }

    /// Algorithm 3: traverse from the sentinels towards `key`, visiting every
    /// node on the path.
    fn search<'g>(&self, op: &mut PathCasOp<'g>, guard: &'g Guard, key: u64) -> SearchResult<'g> {
        let mut parent = self.max_root(guard);
        let mut parent_ver = op.visit(&parent.ver);
        let mut curr = self.min_root(guard);
        let mut curr_ver = op.visit(&curr.ver);
        loop {
            let curr_key = op.read(&curr.key);
            if key == curr_key {
                return SearchResult { found: true, curr: Some(curr), curr_ver, parent, parent_ver };
            }
            let next = if key > curr_key { op.read(&curr.right) } else { op.read(&curr.left) };
            if next == NIL {
                return SearchResult { found: false, curr: None, curr_ver, parent: curr, parent_ver: curr_ver };
            }
            parent = curr;
            parent_ver = curr_ver;
            // SAFETY: `next` was read via KCAS under `guard`; epoch pinning
            // keeps the pointed-to node alive until the guard drops.
            curr = unsafe { word_to_ref(next, guard) };
            curr_ver = op.visit(&curr.ver);
        }
    }

    /// Successor search used by two-child deletion (Algorithm 5): walk one
    /// step right, then left as far as possible, visiting every node.
    fn get_successor<'g>(
        &self,
        op: &mut PathCasOp<'g>,
        guard: &'g Guard,
        start: &'g Node,
        start_ver: u64,
    ) -> Option<(&'g Node, u64, &'g Node, u64)> {
        let mut succ_p = start;
        let mut succ_p_ver = start_ver;
        let right = op.read(&start.right);
        if right == NIL {
            return None;
        }
        // SAFETY: `right` is a non-NIL word read via KCAS under `guard`.
        let mut succ: &Node = unsafe { word_to_ref(right, guard) };
        let mut succ_ver = op.visit(&succ.ver);
        loop {
            let next = op.read(&succ.left);
            if next == NIL {
                return Some((succ, succ_ver, succ_p, succ_p_ver));
            }
            succ_p = succ;
            succ_p_ver = succ_ver;
            // SAFETY: as above — KCAS read under the same epoch pin.
            succ = unsafe { word_to_ref(next, guard) };
            succ_ver = op.visit(&succ.ver);
        }
    }

    fn insert_impl(&self, key: u64, val: u64) -> bool {
        debug_assert!(key > KEY_MIN_SENTINEL && key < KEY_MAX_SENTINEL);
        loop {
            let done = with_builder(|builder| {
                let guard = crossbeam_epoch::pin();
                let mut op = builder.start(&guard);
                let res = self.search(&mut op, &guard, key);
                if res.found {
                    // Algorithm 4 line 4: the key is present; validation
                    // establishes a time during the operation at which the
                    // whole (unchanged) search path — and hence the key —
                    // was in the tree.
                    if op.validate() {
                        return Some(false);
                    }
                    return None;
                }
                let parent = res.parent;
                let parent_ver = res.parent_ver;
                if parent_ver & 1 == 1 {
                    return None; // parent already marked; retry
                }
                let new_node = Node::new(key, val);
                let parent_key = op.read(&parent.key);
                let ptr_to_change = if key < parent_key { &parent.left } else { &parent.right };
                op.add(ptr_to_change, NIL, ptr_to_word(new_node));
                op.add(&parent.ver, parent_ver, parent_ver + 2);
                if op.vexec() {
                    Some(true)
                } else {
                    // The new node was never published; reclaim it directly.
                    // SAFETY: the vexec failed, so no other thread ever saw
                    // `new_node`; this thread still solely owns the fresh Box.
                    unsafe { drop(Box::from_raw(new_node)) };
                    None
                }
            });
            match done {
                Some(r) => return r,
                None => self.note_retry(),
            }
        }
    }

    fn remove_impl(&self, key: u64) -> bool {
        debug_assert!(key > KEY_MIN_SENTINEL && key < KEY_MAX_SENTINEL);
        loop {
            let done = with_builder(|builder| {
                let guard = crossbeam_epoch::pin();
                let mut op = builder.start(&guard);
                let res = self.search(&mut op, &guard, key);
                if !res.found {
                    if op.validate() {
                        return Some(false);
                    }
                    return None;
                }
                let curr = res.curr.expect("found implies a node");
                let curr_ver = res.curr_ver;
                let parent = res.parent;
                let parent_ver = res.parent_ver;
                // Algorithm 6 line 7: if either node is marked, retry.
                if curr_ver & 1 == 1 || parent_ver & 1 == 1 {
                    return None;
                }
                let curr_left = op.read(&curr.left);
                let curr_right = op.read(&curr.right);
                let curr_word = ptr_to_word(curr as *const Node);

                if curr_left == NIL || curr_right == NIL {
                    // Leaf deletion or one-child deletion: replace the parent's
                    // child pointer with the (possibly NIL) remaining child.
                    let child_to_keep = if curr_left == NIL { curr_right } else { curr_left };
                    let parent_left = op.read(&parent.left);
                    let ptr_to_change =
                        if parent_left == curr_word { &parent.left } else { &parent.right };
                    op.add(ptr_to_change, curr_word, child_to_keep);
                    op.add(&parent.ver, parent_ver, parent_ver + 2);
                    op.add(&curr.ver, curr_ver, curr_ver + 1); // mark curr
                    if op.vexec() {
                        // SAFETY: the successful vexec unlinked and marked
                        // `curr`, so this thread alone retires it; pinned
                        // readers keep it alive until their epochs expire.
                        unsafe { retire(curr as *const Node, &guard) };
                        return Some(true);
                    }
                    return None;
                }

                // Two-child deletion: promote the successor's key/value into
                // curr, then unlink the successor node.
                let (succ, succ_ver, succ_p, succ_p_ver) =
                    match self.get_successor(&mut op, &guard, curr, curr_ver) {
                        Some(t) => t,
                        None => return None,
                    };
                if succ_ver & 1 == 1 || succ_p_ver & 1 == 1 {
                    return None;
                }
                let succ_word = ptr_to_word(succ as *const Node);
                let succ_r = op.read(&succ.right); // succ has no left child
                if succ_r != NIL {
                    // SAFETY: `succ_r` is a non-NIL word read via KCAS under
                    // the same epoch pin, so the node cannot be reclaimed.
                    let succ_r_node: &Node = unsafe { word_to_ref(succ_r, &guard) };
                    let succ_r_ver = op.visit(&succ_r_node.ver);
                    if succ_r_ver & 1 == 1 {
                        return None;
                    }
                }
                let succ_p_right = op.read(&succ_p.right);
                let ptr_to_change =
                    if succ_p_right == succ_word { &succ_p.right } else { &succ_p.left };
                op.add(ptr_to_change, succ_word, succ_r);
                let curr_val = op.read(&curr.val);
                let succ_val = op.read(&succ.val);
                let succ_key = op.read(&succ.key);
                op.add(&curr.val, curr_val, succ_val);
                op.add(&curr.key, key, succ_key);
                op.add(&succ.ver, succ_ver, succ_ver + 1); // mark succ
                op.add(&succ_p.ver, succ_p_ver, succ_p_ver + 2);
                if !std::ptr::eq(succ_p, curr) {
                    op.add(&curr.ver, curr_ver, curr_ver + 2);
                }
                if op.vexec() {
                    // SAFETY: the vexec unlinked and marked `succ`; only this
                    // thread retires it, and pinned readers stay protected.
                    unsafe { retire(succ as *const Node, &guard) };
                    return Some(true);
                }
                None
            });
            match done {
                Some(r) => return r,
                None => self.note_retry(),
            }
        }
    }

    fn get_impl(&self, key: u64) -> Option<u64> {
        debug_assert!(key > KEY_MIN_SENTINEL && key < KEY_MAX_SENTINEL);
        loop {
            let done = with_builder(|builder| {
                let guard = crossbeam_epoch::pin();
                let mut op = builder.start(&guard);
                let res = self.search(&mut op, &guard, key);
                if res.found {
                    // §4.1: no validation required when the key is found —
                    // reachability implies the node is unmarked, hence the key
                    // was in the tree at some point during this operation.
                    let curr = res.curr.expect("found implies a node");
                    // A two-child `remove(key)` rewrites this node's key and
                    // value (to its successor's) in one KCAS, so a value
                    // read after the key may belong to the successor.  A
                    // node's key only ever grows (successors are larger), so
                    // seeing `key` again after the value read proves the
                    // value was read while the node still held `key`.
                    let val = op.read(&curr.val);
                    return (op.read(&curr.key) == key).then_some(Some(val));
                }
                if op.validate() {
                    return Some(None);
                }
                None
            });
            match done {
                Some(r) => return r,
                None => self.note_retry(),
            }
        }
    }

    /// Atomic single-key read-modify-write: search, compute the new value
    /// from the observed one, and commit value + version bump with a single
    /// `vexec` whose validation covers the whole search path.  Unlike the
    /// composed `get`+`remove`+`insert` default, the key is never observably
    /// absent mid-RMW and no racing update is clobbered (a conflicting
    /// commit fails the `vexec` and the operation retries, re-running
    /// `update` on the fresh value — so `update` must be pure).
    fn rmw_impl(&self, key: u64, update: &mut dyn FnMut(Option<u64>) -> u64) -> bool {
        debug_assert!(key > KEY_MIN_SENTINEL && key < KEY_MAX_SENTINEL);
        loop {
            let done = with_builder(|builder| {
                let guard = crossbeam_epoch::pin();
                let mut op = builder.start(&guard);
                let res = self.search(&mut op, &guard, key);
                if res.found {
                    let curr = res.curr.expect("found implies a node");
                    let curr_ver = res.curr_ver;
                    if curr_ver & 1 == 1 {
                        return None;
                    }
                    let old_val = op.read(&curr.val);
                    let new_val = update(Some(old_val));
                    op.add(&curr.val, old_val, new_val);
                    // The version bump publishes the value change to
                    // validated readers (scans re-validate this node).
                    op.add(&curr.ver, curr_ver, curr_ver + 2);
                    if op.vexec() {
                        return Some(true);
                    }
                    return None;
                }
                // Absent: atomically insert `update(None)` at the reached
                // leaf position, exactly like `insert`.
                let parent = res.parent;
                let parent_ver = res.parent_ver;
                if parent_ver & 1 == 1 {
                    return None;
                }
                let new_node = Node::new(key, update(None));
                let parent_key = op.read(&parent.key);
                let ptr_to_change = if key < parent_key { &parent.left } else { &parent.right };
                op.add(ptr_to_change, NIL, ptr_to_word(new_node));
                op.add(&parent.ver, parent_ver, parent_ver + 2);
                if op.vexec() {
                    Some(false)
                } else {
                    // SAFETY: failed vexec — `new_node` was never published,
                    // so the fresh Box is still exclusively owned here.
                    unsafe { drop(Box::from_raw(new_node)) };
                    None
                }
            });
            match done {
                Some(r) => return r,
                None => self.note_retry(),
            }
        }
    }

    /// Validated in-order range scan: collect the first `len` pairs with key
    /// ≥ `start`, visiting every traversed node, then `validate` the whole
    /// visited path.  A successful validation proves no visited node changed
    /// or was marked between its visit and the validation point, so every
    /// collected pair was simultaneously present — the scan is an atomic
    /// snapshot (the paper's composite read built from path validation).
    /// On validation failure the scan restarts from scratch.
    fn scan_impl(&self, start: u64, len: usize) -> Vec<(u64, u64)> {
        if len == 0 {
            return Vec::new();
        }
        let start = start.max(KEY_MIN_SENTINEL + 1);
        loop {
            let done = with_builder(|builder| {
                let guard = crossbeam_epoch::pin();
                let mut op = builder.start(&guard);
                let min_root = self.min_root(&guard);
                let min_ver = op.visit(&min_root.ver);
                if min_ver & 1 == 1 {
                    return None;
                }
                let mut out: Vec<(u64, u64)> = Vec::with_capacity(len.min(1024));
                // Explicit in-order stack with subtree pruning: a node whose
                // key is below `start` has no relevant left subtree.
                let mut stack: Vec<(&Node, u64)> = Vec::new();
                let mut curr = op.read(&min_root.right);
                'walk: loop {
                    while curr != NIL {
                        // SAFETY: `curr` was read via KCAS under `guard`, so
                        // the node is protected from reclamation.
                        let node: &Node = unsafe { word_to_ref(curr, &guard) };
                        let ver = op.visit(&node.ver);
                        if ver & 1 == 1 {
                            // Reached an already-marked node: the path we
                            // followed is stale; restart.
                            return None;
                        }
                        let key = op.read(&node.key);
                        if key >= start {
                            stack.push((node, key));
                            curr = op.read(&node.left);
                        } else {
                            curr = op.read(&node.right);
                        }
                    }
                    match stack.pop() {
                        None => break 'walk,
                        Some((node, key)) => {
                            out.push((key, op.read(&node.val)));
                            if out.len() == len {
                                break 'walk;
                            }
                            curr = op.read(&node.right);
                        }
                    }
                }
                if op.validate() {
                    Some(out)
                } else {
                    None
                }
            });
            match done {
                Some(r) => return r,
                None => self.note_retry(),
            }
        }
    }

    fn stats_impl(&self) -> MapStats {
        // Quiescent traversal; no concurrent updates may be running.
        let mut stats = MapStats { node_count: 2, approx_bytes: 2 * std::mem::size_of::<Node>() as u64, ..Default::default() };
        // SAFETY: stats run quiescently (per the `load_quiescent` contract);
        // the sentinel is live and no writer can race this read.
        let root = unsafe { (*self.min_root).right.load_quiescent() };
        let mut stack: Vec<(u64, u64)> = Vec::new();
        if root != NIL {
            stack.push((root, 0));
        }
        while let Some((word, depth)) = stack.pop() {
            // SAFETY: quiescent traversal — every reachable word is a valid
            // node pointer owned by the tree.
            let node = unsafe { &*(word as usize as *const Node) };
            stats.node_count += 1;
            stats.approx_bytes += std::mem::size_of::<Node>() as u64;
            let key = node.key.load_quiescent();
            stats.key_count += 1;
            stats.key_sum += key as u128;
            stats.key_depth_sum += depth;
            let l = node.left.load_quiescent();
            let r = node.right.load_quiescent();
            if l != NIL {
                stack.push((l, depth + 1));
            }
            if r != NIL {
                stack.push((r, depth + 1));
            }
        }
        stats
    }

    /// Check the binary-search-tree order invariant (quiescent). Panics on
    /// violation; used by tests after stress runs.
    pub fn check_invariants(&self) {
        fn walk(word: u64, low: u64, high: u64) {
            if word == NIL {
                return;
            }
            // SAFETY: invariant checks run quiescently; each reachable word
            // is a valid node pointer owned by the tree.
            let node = unsafe { &*(word as usize as *const Node) };
            let key = node.key.load_quiescent();
            assert!(key > low && key < high, "BST order violated: {key} not in ({low},{high})");
            assert_eq!(node.ver.load_quiescent() & 1, 0, "reachable node is marked");
            walk(node.left.load_quiescent(), low, key);
            walk(node.right.load_quiescent(), key, high);
        }
        // SAFETY: quiescent read of the live sentinel (see `stats_impl`).
        let root = unsafe { (*self.min_root).right.load_quiescent() };
        walk(root, KEY_MIN_SENTINEL, KEY_MAX_SENTINEL);
    }
}

impl ConcurrentMap for PathCasBst {
    fn name(&self) -> &'static str {
        "int-bst-pathcas"
    }
    fn insert(&self, key: Key, value: Value) -> bool {
        self.insert_impl(key, value)
    }
    fn remove(&self, key: Key) -> bool {
        self.remove_impl(key)
    }
    fn contains(&self, key: Key) -> bool {
        self.get_impl(key).is_some()
    }
    fn get(&self, key: Key) -> Option<Value> {
        self.get_impl(key)
    }
    fn rmw(&self, key: Key, update: &mut dyn FnMut(Option<Value>) -> Value) -> bool {
        self.rmw_impl(key, update)
    }
    fn scan(&self, start: Key, len: usize) -> Vec<(Key, Value)> {
        self.scan_impl(start, len)
    }
    fn stats(&self) -> MapStats {
        self.stats_impl()
    }
}

impl Drop for PathCasBst {
    fn drop(&mut self) {
        // Exclusive access: free every node with a manual stack (avoids
        // recursion depth issues on degenerate trees).
        let mut to_free: Vec<*mut Node> = Vec::new();
        let mut work = vec![ptr_to_word(self.max_root)];
        while let Some(word) = work.pop() {
            if word == NIL {
                continue;
            }
            let ptr = word as usize as *mut Node;
            // SAFETY: `&mut self` proves exclusive access; every word in the
            // tree is a live `Box::into_raw` pointer owned by it.
            let node = unsafe { &*ptr };
            work.push(node.left.load_quiescent());
            work.push(node.right.load_quiescent());
            to_free.push(ptr);
        }
        for ptr in to_free {
            // SAFETY: see above — each node collected once, freed once.
            unsafe { drop(Box::from_raw(ptr)) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapapi::stress::{prefill, stress_disjoint_stripes, stress_keysum};
    use mapapi::suites::*;
    use std::time::Duration;

    #[test]
    fn basic_semantics() {
        check_basic_semantics(&PathCasBst::new());
    }

    #[test]
    fn ordered_patterns() {
        check_ordered_patterns(&PathCasBst::new());
    }

    #[test]
    fn random_vs_oracle() {
        let t = PathCasBst::new();
        check_random_against_oracle(&t, 6000, 128, 0xBEEF);
        check_stats_consistency(&t, 128);
        t.check_invariants();
    }

    #[test]
    fn random_vs_oracle_dense_keyspace() {
        let t = PathCasBst::new();
        check_random_against_oracle(&t, 4000, 16, 7);
        t.check_invariants();
    }

    #[test]
    fn two_child_deletions() {
        let t = PathCasBst::new();
        // Build a tree where the root has two children, then delete interior
        // nodes to exercise successor promotion.
        for k in [50u64, 25, 75, 12, 37, 62, 87, 6, 18, 31, 43] {
            assert!(t.insert(k, k));
        }
        assert!(t.remove(50)); // two children, successor is 62
        assert!(!t.contains(50));
        assert!(t.contains(62));
        assert!(t.remove(25)); // two children, successor is 31
        assert!(!t.contains(25));
        t.check_invariants();
        let s = t.stats();
        assert_eq!(s.key_count, 9);
    }

    #[test]
    fn stripes_stress() {
        let t = PathCasBst::new();
        stress_disjoint_stripes(&t, 4, 300);
        t.check_invariants();
    }

    #[test]
    fn keysum_stress_mixed() {
        let t = PathCasBst::new();
        prefill(&t, 512, 256, 99);
        stress_keysum(&t, 4, 512, 40, Duration::from_millis(300), 3);
        t.check_invariants();
    }

    #[test]
    fn keysum_stress_update_heavy() {
        let t = PathCasBst::new();
        prefill(&t, 64, 32, 5);
        stress_keysum(&t, 4, 64, 100, Duration::from_millis(300), 11);
        t.check_invariants();
    }

    #[test]
    fn retries_counter_is_observable() {
        let t = PathCasBst::new();
        t.insert(1, 1);
        // Single-threaded operations should essentially never retry.
        assert_eq!(t.retry_count(), 0);
    }

    #[test]
    fn scan_semantics() {
        check_scan_semantics(&PathCasBst::new());
    }

    #[test]
    fn scan_vs_oracle() {
        let t = PathCasBst::new();
        check_scan_against_oracle(&t, 256, 0x5CA9);
        t.check_invariants();
    }

    #[test]
    fn rmw_is_present_throughout_and_accumulates() {
        let t = PathCasBst::new();
        // Absent key: created with update(None).
        assert!(!t.rmw(7, &mut |v| v.unwrap_or(100) + 1));
        assert_eq!(t.get(7), Some(101));
        // Present key: updated in place.
        assert!(t.rmw(7, &mut |v| v.unwrap() + 1));
        assert_eq!(t.get(7), Some(102));
        t.check_invariants();
    }

    #[test]
    fn concurrent_rmw_increments_are_not_lost() {
        // The lost-update litmus: N threads each add 1 to the same key M
        // times through rmw; the final value must be exactly N*M.  The
        // composed remove+insert default loses increments under this race.
        let t = std::sync::Arc::new(PathCasBst::new());
        t.insert(42, 0);
        let threads = 4u64;
        let per = 2_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    for _ in 0..per {
                        t.rmw(42, &mut |v| v.unwrap() + 1);
                    }
                });
            }
        });
        assert_eq!(t.get(42), Some(threads * per));
        t.check_invariants();
    }

    #[test]
    fn concurrent_scans_see_consistent_snapshots() {
        // Writers churn keys outside a fixed region; scans over the region
        // must always return exactly the region.
        let t = std::sync::Arc::new(PathCasBst::new());
        let region: Vec<u64> = (1000..1064).collect();
        for &k in &region {
            t.insert(k, k);
        }
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for w in 0..2u64 {
                let t = std::sync::Arc::clone(&t);
                let stop = &stop;
                s.spawn(move || {
                    let mut x = 12345u64.wrapping_add(w);
                    while !stop.load(Ordering::Relaxed) {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let k = 1 + x % 999; // churn strictly below the region
                        if x & 1 == 0 {
                            t.insert(k, k);
                        } else {
                            t.remove(k);
                        }
                    }
                });
            }
            let t2 = std::sync::Arc::clone(&t);
            for _ in 0..300 {
                let got = t2.scan(1000, 64);
                assert_eq!(got.len(), 64, "scan dropped region keys");
                for (i, &(k, v)) in got.iter().enumerate() {
                    assert_eq!(k, 1000 + i as u64);
                    assert_eq!(v, k);
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
        t.check_invariants();
    }
}
