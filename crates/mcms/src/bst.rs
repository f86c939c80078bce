//! An internal BST built with MCMS, used as the comparison point of the
//! paper's Figure 6.
//!
//! Unlike the PathCAS tree, this tree has no version numbers: every update
//! (and every validated negative search) passes its **entire search path** —
//! the key and the followed child pointer of every traversed node — to MCMS
//! as compare-only entries.  On the software path each of those entries gets
//! descriptor-locked, which is precisely the behaviour the paper identifies
//! as the reason MCMS trees collapse under concurrency.

use std::ptr::NonNull;

use crossbeam_epoch::{slab, Guard};
use kcas::CasWord;
use mapapi::{ConcurrentMap, Key, MapStats, Value};

use crate::{mcms, mcms_read, McmsArg};

const NIL: u64 = 0;
const KEY_MIN_SENTINEL: u64 = 0;
const KEY_MAX_SENTINEL: u64 = kcas::MAX_VALUE;

struct Node {
    key: CasWord,
    val: CasWord,
    left: CasWord,
    right: CasWord,
}

impl Node {
    fn new(key: u64, val: u64) -> NonNull<Node> {
        slab::alloc(Node {
            key: CasWord::new(key),
            val: CasWord::new(val),
            left: CasWord::new(NIL),
            right: CasWord::new(NIL),
        })
    }
}

#[inline]
fn ptr_to_word(ptr: *const Node) -> u64 {
    ptr as usize as u64
}

/// # Safety
/// `word` must be a live `Node` pointer read from the tree while `_guard`
/// pins the current epoch (so the node cannot be reclaimed).
#[inline]
unsafe fn word_to_ref(word: u64, _guard: &Guard) -> &Node {
    // SAFETY: the caller guarantees `word` is a live node pointer observed
    // under the pinned epoch represented by `_guard`.
    unsafe { &*(word as usize as *const Node) }
}

/// One step of a recorded search path: the traversed node, the key observed
/// in it, and the child pointer followed out of it (with the value seen).
struct PathStep<'g> {
    node: &'g Node,
    key_seen: u64,
    child_is_right: bool,
    child_seen: u64,
}

struct SearchResult<'g> {
    found: bool,
    curr: Option<&'g Node>,
    parent: &'g Node,
    path: Vec<PathStep<'g>>,
}

/// The MCMS-based internal BST (`int-bst-mcms`).
pub struct McmsBst {
    max_root: *mut Node,
    min_root: *mut Node,
}

// SAFETY: nodes are slab slots only reachable via CasWords; all
// shared access goes through MCMS reads/ops under an epoch guard, so the
// tree may move between and be shared across threads.
unsafe impl Send for McmsBst {}
// SAFETY: see `Send` above — mutation is mediated by MCMS, reclamation by
// epoch-based deferral.
unsafe impl Sync for McmsBst {}

impl Default for McmsBst {
    fn default() -> Self {
        Self::new()
    }
}

impl McmsBst {
    /// Create an empty tree.
    pub fn new() -> Self {
        let min_root = Node::new(KEY_MIN_SENTINEL, 0).as_ptr();
        let max_root = Node::new(KEY_MAX_SENTINEL, 0).as_ptr();
        // SAFETY: `max_root` is a fresh node not yet shared with any other
        // thread, so the raw store cannot race.
        unsafe { (*max_root).left.store(ptr_to_word(min_root)) };
        McmsBst { max_root, min_root }
    }

    /// Plain traversal that records, for every traversed node, its key and
    /// the child pointer followed.
    fn search<'g>(&self, guard: &'g Guard, key: u64) -> SearchResult<'g> {
        let mut path = Vec::new();
        // SAFETY: the sentinel roots are allocated in `new` and freed only
        // in Drop, so they outlive every guard borrowed from `&self`.
        let max_root: &Node = unsafe { &*self.max_root };
        let mut parent = max_root;
        path.push(PathStep {
            node: max_root,
            key_seen: KEY_MAX_SENTINEL,
            child_is_right: false,
            child_seen: mcms_read(&max_root.left, guard),
        });
        // SAFETY: as above — the min sentinel lives until Drop.
        let mut curr: &Node = unsafe { &*self.min_root };
        loop {
            let curr_key = mcms_read(&curr.key, guard);
            if curr_key == key {
                return SearchResult { found: true, curr: Some(curr), parent, path };
            }
            let go_right = key > curr_key;
            let child = if go_right {
                mcms_read(&curr.right, guard)
            } else {
                mcms_read(&curr.left, guard)
            };
            path.push(PathStep { node: curr, key_seen: curr_key, child_is_right: go_right, child_seen: child });
            if child == NIL {
                return SearchResult { found: false, curr: None, parent: curr, path };
            }
            parent = curr;
            // SAFETY: `child` is a non-NIL word read via `mcms_read` under
            // `guard`; epoch pinning keeps the node alive.
            curr = unsafe { word_to_ref(child, guard) };
        }
    }

    /// Compare-only entries covering the entire recorded search path.
    fn path_compares<'g>(path: &'g [PathStep<'g>]) -> Vec<McmsArg<'g>> {
        let mut args = Vec::with_capacity(path.len() * 2);
        for step in path {
            args.push(McmsArg::Compare { addr: &step.node.key, expected: step.key_seen });
            let child_word = if step.child_is_right { &step.node.right } else { &step.node.left };
            args.push(McmsArg::Compare { addr: child_word, expected: step.child_seen });
        }
        args
    }

    fn insert_impl(&self, key: u64, val: u64) -> bool {
        loop {
            let guard = crossbeam_epoch::pin();
            let res = self.search(&guard, key);
            if res.found {
                // As in the paper's optimized MCMS tree, inserts that return
                // false avoid the MCMS entirely.
                return false;
            }
            let parent = res.parent;
            let parent_key = mcms_read(&parent.key, &guard);
            let new_node = Node::new(key, val);
            let ptr_to_change = if key < parent_key { &parent.left } else { &parent.right };
            let mut args = Self::path_compares(&res.path);
            // Drop the compare entry for the word we are about to swap (the
            // last followed child pointer) — the swap already checks it.
            args.retain(|a| match a {
                McmsArg::Compare { addr, .. } => !std::ptr::eq(*addr, ptr_to_change as *const CasWord),
                _ => true,
            });
            args.push(McmsArg::Swap { addr: ptr_to_change, old: NIL, new: ptr_to_word(new_node.as_ptr()) });
            if mcms(&args, &guard) {
                return true;
            }
            // SAFETY: the MCMS failed, so `new_node` was never published;
            // this thread still solely owns its slot.
            unsafe { slab::free(new_node) };
        }
    }

    fn remove_impl(&self, key: u64) -> bool {
        loop {
            let guard = crossbeam_epoch::pin();
            let res = self.search(&guard, key);
            if !res.found {
                // Negative result: validate the whole path with a compare-only
                // MCMS (this is the expensive validated search of Figure 6).
                let args = Self::path_compares(&res.path);
                if mcms(&args, &guard) {
                    return false;
                }
                continue;
            }
            let curr = res.curr.expect("found implies node");
            let curr_word = ptr_to_word(curr as *const Node);
            let parent = res.parent;
            let curr_left = mcms_read(&curr.left, &guard);
            let curr_right = mcms_read(&curr.right, &guard);
            let mut args = Self::path_compares(&res.path);

            if curr_left == NIL || curr_right == NIL {
                let child_to_keep = if curr_left == NIL { curr_right } else { curr_left };
                let parent_left = mcms_read(&parent.left, &guard);
                let ptr_to_change = if parent_left == curr_word { &parent.left } else { &parent.right };
                args.retain(|a| match a {
                    McmsArg::Compare { addr, .. } => !std::ptr::eq(*addr, ptr_to_change as *const CasWord),
                    _ => true,
                });
                // Pin curr's children so no concurrent insert slips below it,
                // and its key: `search` returns on the match without a step
                // for `curr`, and a two-child removal of `key` may have
                // promoted its successor into `curr` since.  Unlinking `curr`
                // then would remove the successor's key as well.
                args.push(McmsArg::Compare { addr: &curr.key, expected: key });
                args.push(McmsArg::Compare { addr: &curr.left, expected: curr_left });
                args.push(McmsArg::Compare { addr: &curr.right, expected: curr_right });
                args.push(McmsArg::Swap { addr: ptr_to_change, old: curr_word, new: child_to_keep });
                if mcms(&args, &guard) {
                    // SAFETY: the successful MCMS unlinked `curr`, so only
                    // this thread retires it; the slot is freed after every
                    // pinned reader's epoch has expired.
                    unsafe { slab::retire(NonNull::from(curr), &guard) };
                    return true;
                }
                continue;
            }

            // Two children: find the successor (recording its path), promote
            // its key/value into curr and splice it out.
            let mut succ_path: Vec<PathStep> = Vec::new();
            let mut succ_p: &Node = curr;
            // SAFETY: `curr_right` is non-NIL and was read via `mcms_read`
            // under the pin, so the successor subtree stays live.
            let mut succ: &Node = unsafe { word_to_ref(curr_right, &guard) };
            succ_path.push(PathStep {
                node: curr,
                key_seen: key,
                child_is_right: true,
                child_seen: curr_right,
            });
            loop {
                let l = mcms_read(&succ.left, &guard);
                if l == NIL {
                    break;
                }
                succ_path.push(PathStep {
                    node: succ,
                    key_seen: mcms_read(&succ.key, &guard),
                    child_is_right: false,
                    child_seen: l,
                });
                succ_p = succ;
                // SAFETY: as above — non-NIL word read under the same pin.
                succ = unsafe { word_to_ref(l, &guard) };
            }
            let succ_word = ptr_to_word(succ as *const Node);
            let succ_key = mcms_read(&succ.key, &guard);
            let succ_val = mcms_read(&succ.val, &guard);
            let succ_r = mcms_read(&succ.right, &guard);
            let curr_val = mcms_read(&curr.val, &guard);
            let succ_p_right = mcms_read(&succ_p.right, &guard);
            let splice_ptr = if succ_p_right == succ_word { &succ_p.right } else { &succ_p.left };

            args.extend(Self::path_compares(&succ_path));
            // Remove compare entries that conflict with swapped addresses.
            args.retain(|a| match a {
                McmsArg::Compare { addr, .. } => {
                    !std::ptr::eq(*addr, splice_ptr as *const CasWord)
                        && !std::ptr::eq(*addr, &curr.key as *const CasWord)
                        && !std::ptr::eq(*addr, &curr.val as *const CasWord)
                }
                _ => true,
            });
            args.push(McmsArg::Swap { addr: splice_ptr, old: succ_word, new: succ_r });
            args.push(McmsArg::Swap { addr: &curr.key, old: key, new: succ_key });
            args.push(McmsArg::Swap { addr: &curr.val, old: curr_val, new: succ_val });
            args.push(McmsArg::Compare { addr: &succ.key, expected: succ_key });
            args.push(McmsArg::Compare { addr: &succ.right, expected: succ_r });
            args.push(McmsArg::Compare { addr: &succ.left, expected: NIL });
            if mcms(&args, &guard) {
                // SAFETY: the MCMS spliced `succ` out of the tree; only this
                // thread retires it, and the slot is freed after all pinned
                // epochs have expired.
                unsafe { slab::retire(NonNull::from(succ), &guard) };
                return true;
            }
        }
    }

    fn get_impl(&self, key: u64) -> Option<u64> {
        loop {
            let guard = crossbeam_epoch::pin();
            let res = self.search(&guard, key);
            if let Some(curr) = res.curr {
                // Positive searches avoid MCMS (the paper's optimization).  A
                // two-child removal writes its successor's key and value into
                // the removed node, so a value read after such a commit
                // belongs to another key.  A node's key only grows, so the
                // same key read after the value means no promotion landed in
                // between, and the value is `key`'s.
                let val = mcms_read(&curr.val, &guard);
                if mcms_read(&curr.key, &guard) == key {
                    return Some(val);
                }
                continue;
            }
            // Negative searches validate the path with a compare-only MCMS —
            // this is what makes MCMS searches write to the whole path.
            let args = Self::path_compares(&res.path);
            if mcms(&args, &guard) {
                return None;
            }
        }
    }

    /// Validated in-order range scan, the MCMS way: the traversal records a
    /// compare-only entry for **every key, value and child pointer it
    /// reads**, then executes one large compare-only MCMS.  Success means
    /// nothing in the visited subrange changed, so the result is an atomic
    /// snapshot — but on the software path every one of those entries gets
    /// descriptor-locked, which is exactly the whole-path write traffic the
    /// paper's Figure 6 identifies as the MCMS bottleneck (a scan makes it
    /// proportional to the *range*, not just the path).
    fn scan_impl(&self, start: u64, len: usize, out: &mut Vec<(u64, u64)>) {
        if len == 0 {
            return;
        }
        let start = start.max(KEY_MIN_SENTINEL + 1);
        let base = out.len();
        loop {
            let guard = crossbeam_epoch::pin();
            out.truncate(base);
            let mut args: Vec<McmsArg<'_>> = Vec::new();
            // SAFETY: the min sentinel lives until Drop (see `search`).
            let min_root: &Node = unsafe { &*self.min_root };
            let root_word = mcms_read(&min_root.right, &guard);
            args.push(McmsArg::Compare { addr: &min_root.right, expected: root_word });
            let mut stack: Vec<(&Node, u64)> = Vec::new();
            let mut curr = root_word;
            'walk: loop {
                while curr != NIL {
                    // SAFETY: `curr` was read via `mcms_read` under `guard`,
                    // so the node is protected from reclamation.
                    let node: &Node = unsafe { word_to_ref(curr, &guard) };
                    let key = mcms_read(&node.key, &guard);
                    args.push(McmsArg::Compare { addr: &node.key, expected: key });
                    let next = if key >= start {
                        stack.push((node, key));
                        mcms_read(&node.left, &guard)
                    } else {
                        mcms_read(&node.right, &guard)
                    };
                    let followed = if key >= start { &node.left } else { &node.right };
                    args.push(McmsArg::Compare { addr: followed, expected: next });
                    curr = next;
                }
                match stack.pop() {
                    None => break 'walk,
                    Some((node, key)) => {
                        let val = mcms_read(&node.val, &guard);
                        args.push(McmsArg::Compare { addr: &node.val, expected: val });
                        out.push((key, val));
                        if out.len() - base == len {
                            break 'walk;
                        }
                        curr = mcms_read(&node.right, &guard);
                        args.push(McmsArg::Compare { addr: &node.right, expected: curr });
                    }
                }
            }
            if mcms(&args, &guard) {
                return;
            }
        }
    }

    /// Quiescent pre-order walk over every non-sentinel node, with its word
    /// and its depth below the root (no concurrent updates may be running).
    /// The work list is explicit: keys inserted in order make the tree a
    /// spine as deep as it is large, which must not be walked on the call
    /// stack.
    fn for_each_node(&self, mut f: impl FnMut(u64, &Node, u64)) {
        // SAFETY: the sentinel is live until Drop, and by the quiescence
        // contract no writer can race this read.
        let root = unsafe { (*self.min_root).right.load_quiescent() };
        let mut work = vec![(root, 0)];
        while let Some((word, depth)) = work.pop() {
            if word == NIL {
                continue;
            }
            // SAFETY: quiescent traversal — every reachable word is a valid
            // node pointer owned by the tree.
            let node = unsafe { &*(word as usize as *const Node) };
            f(word, node, depth);
            work.push((node.left.load_quiescent(), depth + 1));
            work.push((node.right.load_quiescent(), depth + 1));
        }
    }

    fn stats_impl(&self) -> MapStats {
        let node_bytes = slab::SLOT_BYTES as u64;
        let mut stats =
            MapStats { node_count: 2, approx_bytes: 2 * node_bytes, ..Default::default() };
        self.for_each_node(|_, node, depth| {
            stats.node_count += 1;
            stats.approx_bytes += node_bytes;
            stats.key_count += 1;
            stats.key_sum += node.key.load_quiescent() as u128;
            stats.key_depth_sum += depth;
        });
        stats
    }
}

impl ConcurrentMap for McmsBst {
    fn name(&self) -> &'static str {
        "int-bst-mcms"
    }
    fn insert(&self, key: Key, value: Value) -> bool {
        self.insert_impl(key, value)
    }
    fn remove(&self, key: Key) -> bool {
        self.remove_impl(key)
    }
    fn get(&self, key: Key) -> Option<Value> {
        self.get_impl(key)
    }
    fn scan_into(&self, start: Key, len: usize, out: &mut Vec<(Key, Value)>) {
        self.scan_impl(start, len, out)
    }
    fn stats(&self) -> MapStats {
        self.stats_impl()
    }
}

impl Drop for McmsBst {
    fn drop(&mut self) {
        let mut words = vec![ptr_to_word(self.max_root), ptr_to_word(self.min_root)];
        self.for_each_node(|word, _, _| words.push(word));
        // SAFETY: `&mut self` proves exclusive access; every word collected
        // is a live node the tree allocated from the slab, collected once
        // and freed once.
        unsafe { slab::free_all(&mut words) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiescent_walks_survive_degenerate_shapes_on_a_small_stack() {
        // Ascending keys make the tree a right spine, descending keys a left
        // spine, each as deep as it is large.  Every insert passes its whole
        // path to MCMS, so a spine of n keys costs n²/2 entries to build:
        // this one is a quarter of the other trees' spines, on a quarter of
        // their stack.
        fn check(keys: impl Iterator<Item = u64>) {
            let t = McmsBst::new();
            let mut n = 0;
            for k in keys {
                assert!(t.insert(k, k));
                n += 1;
            }
            assert_eq!(t.stats().key_count, n);
            drop(t);
        }
        std::thread::Builder::new()
            .stack_size(32 * 1024)
            .spawn(|| {
                check(1..=1000u64);
                check((1..=1000u64).rev());
            })
            .expect("spawn the small-stack thread")
            .join()
            .expect("small-stack thread panicked");
    }
}
