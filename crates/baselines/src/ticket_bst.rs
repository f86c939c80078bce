//! `ext-bst-locks`: an external (leaf-oriented) binary search tree with
//! per-node locks and optimistic lock-free searches, following the
//! asynchronized-concurrency recipe of David, Guerraoui & Trigonakis
//! (ASPLOS 2015).
//!
//! * Keys live only in leaves; internal nodes carry routing keys and are
//!   immutable except for their child pointers.
//! * Searches never take locks and never retry.
//! * An insert locks the parent of the reached leaf, validates that nothing
//!   changed, and replaces the leaf with a small subtree of three nodes.
//! * A delete locks the grandparent and parent, validates, splices the
//!   parent out (replacing it with the leaf's sibling) and marks the removed
//!   nodes.  Locks are always taken ancestor-first, so there is no deadlock.
//!
//! Removed nodes are retired through epoch-based reclamation, since searches
//! may still be traversing them.

use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crossbeam_epoch::{slab, Guard};
use mapapi::{ConcurrentMap, Key, MapStats, Value};
use parking_lot::Mutex;

const NIL: u64 = 0;
/// Sentinel key larger than any user key.
const KEY_INF1: u64 = u64::MAX - 1;
/// Sentinel key larger than [`KEY_INF1`].
const KEY_INF2: u64 = u64::MAX;

struct Node {
    key: u64,
    val: u64,
    /// Child pointers (NIL for leaves).
    left: AtomicU64,
    right: AtomicU64,
    lock: Mutex<()>,
    marked: AtomicBool,
}

impl Node {
    /// A fresh node, as a word: a leaf when both children are [`NIL`].
    fn alloc(key: u64, val: u64, left: u64, right: u64) -> u64 {
        let node = slab::alloc(Node {
            key,
            val,
            left: AtomicU64::new(left),
            right: AtomicU64::new(right),
            lock: Mutex::new(()),
            marked: AtomicBool::new(false),
        });
        ptr_to_word(node.as_ptr())
    }

    #[inline]
    fn is_leaf(&self) -> bool {
        self.left.load(Ordering::Acquire) == NIL && self.right.load(Ordering::Acquire) == NIL
    }
}

#[inline]
fn ptr_to_word(ptr: *const Node) -> u64 {
    ptr as usize as u64
}

/// # Safety
/// `word` must be a live `Node` pointer observed while `_guard` pins the
/// current epoch (so the node cannot be reclaimed).
#[inline]
unsafe fn word_to_ref(word: u64, _guard: &Guard) -> &Node {
    // SAFETY: the caller guarantees `word` is a live node pointer observed
    // under the pinned epoch represented by `_guard`.
    unsafe { &*(word as usize as *const Node) }
}

/// The external BST with per-node locks (`ext-bst-locks`).
pub struct TicketBst {
    root: *mut Node,
}

// SAFETY: nodes are slab slots; shared mutation happens only under
// per-node locks (updates) or through atomic child pointers (searches), and
// reclamation is epoch-deferred, so the tree may move between threads.
unsafe impl Send for TicketBst {}
// SAFETY: see `Send` above — `&TicketBst` is safe to share across threads.
unsafe impl Sync for TicketBst {}

impl Default for TicketBst {
    fn default() -> Self {
        Self::new()
    }
}

struct SearchResult<'g> {
    gparent: &'g Node,
    parent: &'g Node,
    leaf: &'g Node,
}

impl TicketBst {
    /// Create an empty tree (three sentinel nodes).
    pub fn new() -> Self {
        let leaf_inf1 = Node::alloc(KEY_INF1, 0, NIL, NIL);
        let leaf_inf2 = Node::alloc(KEY_INF2, 0, NIL, NIL);
        let root = Node::alloc(KEY_INF2, 0, leaf_inf1, leaf_inf2) as usize as *mut Node;
        TicketBst { root }
    }

    /// Lock-free traversal to the leaf responsible for `key`.
    fn search<'g>(&self, key: u64, guard: &'g Guard) -> SearchResult<'g> {
        // SAFETY: the root sentinel is allocated in `new` and freed only in
        // Drop, so it outlives every guard borrowed from `&self`.
        let root: &Node = unsafe { &*self.root };
        let mut gparent = root;
        let mut parent = root;
        // SAFETY: child words are live node pointers (published with Release
        // stores) observed under the epoch pin, so the node cannot be freed.
        let mut curr: &Node =
            unsafe { word_to_ref(root.left.load(Ordering::Acquire), guard) };
        loop {
            let left = curr.left.load(Ordering::Acquire);
            let right = curr.right.load(Ordering::Acquire);
            if left == NIL && right == NIL {
                break;
            }
            // An internal node has two children: ask for both lines, so that
            // whichever one the key compare picks is already on its way.
            slab::prefetch(left as usize as *const Node);
            slab::prefetch(right as usize as *const Node);
            gparent = parent;
            parent = curr;
            let next = if key < curr.key { left } else { right };
            // SAFETY: as above — a published child pointer read under the pin.
            curr = unsafe { word_to_ref(next, guard) };
        }
        SearchResult { gparent, parent, leaf: curr }
    }

    /// Which child word of `parent` currently points at `child_word`?
    /// Returns `None` if neither does (validation failure).
    fn child_slot(parent: &Node, child_word: u64) -> Option<&AtomicU64> {
        if parent.left.load(Ordering::Acquire) == child_word {
            Some(&parent.left)
        } else if parent.right.load(Ordering::Acquire) == child_word {
            Some(&parent.right)
        } else {
            None
        }
    }

    fn insert_impl(&self, key: u64, val: u64) -> bool {
        debug_assert!(key < KEY_INF1);
        loop {
            let guard = crossbeam_epoch::pin();
            let res = self.search(key, &guard);
            if res.leaf.key == key {
                return false;
            }
            let parent = res.parent;
            let leaf_word = ptr_to_word(res.leaf as *const Node);
            let _plock = parent.lock.lock();
            if parent.marked.load(Ordering::Acquire) {
                continue;
            }
            let slot = match Self::child_slot(parent, leaf_word) {
                Some(s) => s,
                None => continue,
            };
            // Replace the leaf with an internal routing node whose children
            // are the old leaf and the new leaf, ordered by key.
            let new_leaf = Node::alloc(key, val, NIL, NIL);
            let (router_key, left, right) = if key < res.leaf.key {
                (res.leaf.key, new_leaf, leaf_word)
            } else {
                (key, leaf_word, new_leaf)
            };
            slot.store(Node::alloc(router_key, 0, left, right), Ordering::Release);
            return true;
        }
    }

    fn remove_impl(&self, key: u64) -> bool {
        debug_assert!(key < KEY_INF1);
        loop {
            let guard = crossbeam_epoch::pin();
            let res = self.search(key, &guard);
            if res.leaf.key != key {
                return false;
            }
            let gparent = res.gparent;
            let parent = res.parent;
            let leaf_word = ptr_to_word(res.leaf);
            let parent_word = ptr_to_word(parent);
            // Ancestor-first locking: grandparent, then parent.
            let _glock = gparent.lock.lock();
            let _plock = parent.lock.lock();
            if gparent.marked.load(Ordering::Acquire) || parent.marked.load(Ordering::Acquire) {
                continue;
            }
            let gslot = match Self::child_slot(gparent, parent_word) {
                Some(s) => s,
                None => continue,
            };
            let sibling = if parent.left.load(Ordering::Acquire) == leaf_word {
                parent.right.load(Ordering::Acquire)
            } else if parent.right.load(Ordering::Acquire) == leaf_word {
                parent.left.load(Ordering::Acquire)
            } else {
                continue;
            };
            parent.marked.store(true, Ordering::Release);
            res.leaf.marked.store(true, Ordering::Release);
            gslot.store(sibling, Ordering::Release);
            // SAFETY: both nodes were just marked and unlinked under the
            // ancestor locks, so this thread alone retires each exactly once.
            unsafe {
                slab::retire(NonNull::from(parent), &guard);
                slab::retire(NonNull::from(res.leaf), &guard);
            }
            return true;
        }
    }

    fn get_impl(&self, key: u64) -> Option<u64> {
        let guard = crossbeam_epoch::pin();
        let res = self.search(key, &guard);
        if res.leaf.key == key {
            Some(res.leaf.val)
        } else {
            None
        }
    }

    /// Optimistic in-order leaf scan: traverse lock-free (like the searches,
    /// which never validate), pruning subtrees entirely below `start`, and
    /// collect unmarked leaves in key order.  Matching this structure's
    /// asynchronized-concurrency design, the scan is **best-effort**, not an
    /// atomic snapshot: leaves in different subtrees may be observed at
    /// different times.  Concurrent single-key updates are still observed
    /// entirely or not at all (insert publishes one child pointer; delete
    /// marks before unlinking, and marked leaves are skipped).
    fn scan_impl(&self, start: u64, len: usize, out: &mut Vec<(u64, u64)>) {
        if len == 0 {
            return;
        }
        let guard = crossbeam_epoch::pin();
        let base = out.len();
        // Push right before left so leaves pop in ascending key order.
        // SAFETY: the root sentinel lives until Drop (see `search`).
        let root: &Node = unsafe { &*self.root };
        let mut stack: Vec<&Node> = vec![root];
        while let Some(n) = stack.pop() {
            if n.is_leaf() {
                if n.key >= start && n.key < KEY_INF1 && !n.marked.load(Ordering::Acquire) {
                    out.push((n.key, n.val));
                    if out.len() - base == len {
                        break;
                    }
                }
                continue;
            }
            let left = n.left.load(Ordering::Acquire);
            let right = n.right.load(Ordering::Acquire);
            // SAFETY: internal nodes always have two live children; both
            // words were read under the epoch pin.
            stack.push(unsafe { word_to_ref(right, &guard) });
            // Left subtree keys are < the routing key: irrelevant when the
            // routing key is ≤ start.
            if n.key > start {
                // SAFETY: as above.
                stack.push(unsafe { word_to_ref(left, &guard) });
            }
        }
    }

    /// Quiescent pre-order walk over every node, sentinels included (no
    /// concurrent updates may be running).  The work list is explicit: keys
    /// inserted in order make the tree a spine as deep as it is large, which
    /// must not be walked on the call stack.
    fn for_each_node(&self, mut f: impl FnMut(&Node, &Place)) {
        let root = ptr_to_word(self.root);
        let mut work = vec![Place { word: root, depth: 0, low: 0, high: u64::MAX as u128 + 1 }];
        while let Some(at) = work.pop() {
            // SAFETY: quiescent traversal — every reachable word is a valid
            // node pointer owned by the tree (the root sentinel lives until
            // Drop, and an internal node's two children are never NIL).
            let node = unsafe { &*(at.word as usize as *const Node) };
            f(node, &at);
            if !node.is_leaf() {
                let (depth, key) = (at.depth + 1, node.key as u128);
                let left = node.left.load(Ordering::Acquire);
                let right = node.right.load(Ordering::Acquire);
                work.push(Place { word: left, depth, low: at.low, high: key });
                work.push(Place { word: right, depth, low: key, high: at.high });
            }
        }
    }

    fn stats_impl(&self) -> MapStats {
        let mut stats = MapStats::default();
        self.for_each_node(|node, at| {
            stats.node_count += 1;
            stats.approx_bytes += slab::SLOT_BYTES as u64;
            if node.is_leaf() && node.key < KEY_INF1 {
                stats.key_count += 1;
                stats.key_sum += node.key as u128;
                stats.key_depth_sum += at.depth;
            }
        });
        stats
    }

    /// Quiescent invariant check: external-BST routing property (left subtree
    /// keys < routing key ≤ right subtree keys) and no reachable marked node.
    pub fn check_invariants(&self) {
        self.for_each_node(|node, at| {
            assert!(!node.marked.load(Ordering::Acquire), "reachable node is marked");
            let (key, low, high) = (node.key as u128, at.low, at.high);
            if node.is_leaf() {
                assert!(key >= low && key < high, "leaf {key} outside [{low},{high})");
            }
        });
    }
}

/// Where a quiescent walk found a node: its word, its depth below the root,
/// and the key range `[low, high)` of the subtree it roots (`u128`, so the
/// +inf sentinel leaf has a representable upper bound).
struct Place {
    word: u64,
    depth: u64,
    low: u128,
    high: u128,
}

impl ConcurrentMap for TicketBst {
    fn name(&self) -> &'static str {
        "ext-bst-locks"
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

impl Drop for TicketBst {
    fn drop(&mut self) {
        let mut words = Vec::new();
        self.for_each_node(|_, at| words.push(at.word));
        // SAFETY: `&mut self` proves exclusive access; every word collected
        // is a live node the tree allocated from the slab, reached once and
        // freed once.
        unsafe { slab::free_all(&mut words) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiescent_walks_survive_degenerate_shapes_on_a_small_stack() {
        // Ascending keys make the tree a right spine, descending keys a left
        // spine (a recursive walk's left call is never a tail call), each
        // as deep as it is large.
        fn check(keys: impl Iterator<Item = u64>) {
            let t = TicketBst::new();
            let mut n = 0;
            for k in keys {
                assert!(t.insert(k, k));
                n += 1;
            }
            t.check_invariants();
            assert_eq!(t.stats().key_count, n);
            drop(t);
        }
        std::thread::Builder::new()
            .stack_size(128 * 1024)
            .spawn(|| {
                check(1..=4000u64);
                check((1..=4000u64).rev());
            })
            .expect("spawn the small-stack thread")
            .join()
            .expect("small-stack thread panicked");
    }
}
