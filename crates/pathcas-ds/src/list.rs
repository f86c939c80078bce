//! A sorted linked-list set/map built with PathCAS — one of the "many data
//! structures wherein an operation consists of a read phase followed by a
//! write phase" that the paper's conclusion (§6) describes: visit each node
//! traversed, then `add` and `vexec` the modifications.

use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_epoch::{slab, Guard};
use kcas::CasWord;
use mapapi::{ConcurrentMap, Key, MapStats, Value};
use pathcas::{OpBuilder, PathCasOp};

use crate::node::{ptr_to_word, with_builder, word_to_ref, NIL};

const KEY_HEAD: u64 = 0;
const KEY_TAIL: u64 = kcas::MAX_VALUE;

struct Node {
    key: CasWord,
    val: CasWord,
    next: CasWord,
    ver: CasWord,
}

impl Node {
    fn new(key: u64, val: u64, next: u64) -> NonNull<Node> {
        slab::alloc(Node {
            key: CasWord::new(key),
            val: CasWord::new(val),
            next: CasWord::new(next),
            ver: CasWord::new(0),
        })
    }
}

/// A concurrent sorted linked list (`list-pathcas`).
pub struct PathCasList {
    head: *mut Node,
    retries: AtomicU64,
}

// SAFETY: nodes are slab slots reachable only via CasWords; all
// shared access is mediated by PathCAS reads/validated execs under an epoch
// guard, so moving the list between threads is sound.
unsafe impl Send for PathCasList {}
// SAFETY: see `Send` above — mutation goes through KCAS and reclamation
// through epoch retirement, so `&PathCasList` may be shared freely.
unsafe impl Sync for PathCasList {}

impl Default for PathCasList {
    fn default() -> Self {
        Self::new()
    }
}

/// Result of a list traversal: the first node with `key >= target` and its
/// predecessor, with the versions observed when they were visited.
struct Window<'g> {
    pred: &'g Node,
    pred_ver: u64,
    curr: &'g Node,
    curr_ver: u64,
}

impl PathCasList {
    /// Create an empty list (two sentinel nodes).
    pub fn new() -> Self {
        let tail = Node::new(KEY_TAIL, 0, NIL);
        let head = Node::new(KEY_HEAD, 0, ptr_to_word(tail.as_ptr())).as_ptr();
        PathCasList { head, retries: AtomicU64::new(0) }
    }

    /// Number of operation restarts.
    pub fn retry_count(&self) -> u64 {
        // ORDERING: Relaxed — diagnostic counter; no synchronization implied.
        self.retries.load(Ordering::Relaxed)
    }

    /// Run one operation: pin once, then repeat `attempt` (each attempt
    /// starts a fresh op on the thread's builder) until it yields a result,
    /// counting every restart.
    #[inline]
    fn run<R>(&self, mut attempt: impl FnMut(&mut OpBuilder, &Guard) -> Option<R>) -> R {
        with_builder(|builder| {
            let guard = crossbeam_epoch::pin();
            loop {
                if let Some(result) = attempt(builder, &guard) {
                    return result;
                }
                // ORDERING: Relaxed — diagnostic counter only; list
                // correctness is carried by the validated KCAS operations,
                // not by this statistic.
                self.retries.fetch_add(1, Ordering::Relaxed);
            }
        })
    }

    /// Traverse to the predecessor/current window around `key`, visiting
    /// *every* node on the way, like the tree search of Algorithm 3.  A lazy
    /// list would validate the window only; validating the whole prefix is
    /// what lets an absent-key answer and a scan rest on one `validate`.  The
    /// price is a visited path as long as the prefix, which every update
    /// then publishes and validates; a thread's descriptor slot grows, once,
    /// to hold the longest it has committed (`tests/long_paths.rs`).
    fn window<'g>(&self, op: &mut PathCasOp<'g>, guard: &'g Guard, key: u64) -> Window<'g> {
        // SAFETY: `head` is a sentinel allocated in `new` and never freed
        // before Drop, so it is valid for the whole lifetime of `&self`.
        let mut pred: &Node = unsafe { &*self.head };
        let mut pred_ver = op.visit(&pred.ver);
        // SAFETY: the word came from a KCAS read under `guard`; epoch pinning
        // keeps the pointed-to node alive until the guard drops.
        let mut curr: &Node = unsafe { word_to_ref(op.read(&pred.next), guard) };
        let mut curr_ver = op.visit(&curr.ver);
        loop {
            let curr_key = op.read(&curr.key);
            if curr_key >= key {
                return Window { pred, pred_ver, curr, curr_ver };
            }
            pred = curr;
            pred_ver = curr_ver;
            // SAFETY: as above — KCAS read under the same pin protects the node.
            curr = unsafe { word_to_ref(op.read(&curr.next), guard) };
            curr_ver = op.visit(&curr.ver);
        }
    }

    /// Link a fresh node for the absent `key` between `w.pred` and `w.curr`.
    /// `false` means one of the two is marked or the `vexec` failed, and the
    /// operation restarts.
    fn link<'g>(op: &mut PathCasOp<'g>, w: &Window<'g>, key: u64, val: u64) -> bool {
        if w.pred_ver & 1 == 1 || w.curr_ver & 1 == 1 {
            return false;
        }
        let curr_word = ptr_to_word(w.curr as *const Node);
        let new_node = Node::new(key, val, curr_word);
        op.add(&w.pred.next, curr_word, ptr_to_word(new_node.as_ptr()));
        op.add(&w.pred.ver, w.pred_ver, w.pred_ver + 2);
        let committed = op.vexec();
        if !committed {
            // SAFETY: the vexec failed, so `new_node` was never published;
            // this thread still solely owns its slot.
            unsafe { slab::free(new_node) };
        }
        committed
    }

    fn insert_impl(&self, key: u64, val: u64) -> bool {
        debug_assert!(key > KEY_HEAD && key < KEY_TAIL);
        self.run(|builder, guard| {
            let mut op = builder.start(guard);
            let w = self.window(&mut op, guard, key);
            if op.read(&w.curr.key) == key {
                return op.validate().then_some(false);
            }
            Self::link(&mut op, &w, key, val).then_some(true)
        })
    }

    fn remove_impl(&self, key: u64) -> bool {
        debug_assert!(key > KEY_HEAD && key < KEY_TAIL);
        self.run(|builder, guard| {
            let mut op = builder.start(guard);
            let w = self.window(&mut op, guard, key);
            if op.read(&w.curr.key) != key {
                return op.validate().then_some(false);
            }
            if w.pred_ver & 1 == 1 || w.curr_ver & 1 == 1 {
                return None;
            }
            let curr_word = ptr_to_word(w.curr as *const Node);
            let next = op.read(&w.curr.next);
            op.add(&w.pred.next, curr_word, next);
            op.add(&w.pred.ver, w.pred_ver, w.pred_ver + 2);
            op.add(&w.curr.ver, w.curr_ver, w.curr_ver + 1); // mark
            if !op.vexec() {
                return None;
            }
            // SAFETY: the successful vexec unlinked and marked `curr`, so
            // this thread alone retires it; pinned readers keep the memory
            // alive until their epochs expire.
            unsafe { slab::retire(NonNull::from(w.curr), guard) };
            Some(true)
        })
    }

    fn get_impl(&self, key: u64) -> Option<u64> {
        debug_assert!(key > KEY_HEAD && key < KEY_TAIL);
        self.run(|builder, guard| {
            let mut op = builder.start(guard);
            let w = self.window(&mut op, guard, key);
            if op.read(&w.curr.key) == key {
                return Some(Some(op.read(&w.curr.val)));
            }
            op.validate().then_some(None)
        })
    }

    /// Atomic single-key read-modify-write over the window (see
    /// [`crate::tree`] for the semantics): value + version bump commit in one
    /// `vexec`, or the missing node is inserted with `update(None)`.
    fn rmw_impl(&self, key: u64, update: &mut dyn FnMut(Option<u64>) -> u64) -> bool {
        debug_assert!(key > KEY_HEAD && key < KEY_TAIL);
        self.run(|builder, guard| {
            let mut op = builder.start(guard);
            let w = self.window(&mut op, guard, key);
            if op.read(&w.curr.key) != key {
                return Self::link(&mut op, &w, key, update(None)).then_some(false);
            }
            if w.curr_ver & 1 == 1 {
                return None;
            }
            let old_val = op.read(&w.curr.val);
            let new_val = update(Some(old_val));
            op.add(&w.curr.val, old_val, new_val);
            op.add(&w.curr.ver, w.curr_ver, w.curr_ver + 2);
            op.vexec().then_some(true)
        })
    }

    /// Validated linear range scan: walk the list visiting every traversed
    /// node, retrying immediately on any marked (mid-removal) node, append
    /// to `out` up to `len` pairs with key ≥ `start`, and `validate` the
    /// whole visited path at the end — success means every collected pair
    /// was simultaneously present (an atomic snapshot).  A retry cuts `out`
    /// back to the length it came in with.
    fn scan_impl(&self, start: u64, len: usize, out: &mut Vec<(u64, u64)>) {
        if len == 0 {
            return;
        }
        let base = out.len();
        self.run(|builder, guard| {
            let mut op = builder.start(guard);
            out.truncate(base);
            // SAFETY: the head sentinel lives until Drop (see `window`).
            let head: &Node = unsafe { &*self.head };
            let head_ver = op.visit(&head.ver);
            if head_ver & 1 == 1 {
                return None;
            }
            // SAFETY: word read via KCAS under `guard`; the node cannot be
            // reclaimed while this pin is held.
            let mut curr: &Node = unsafe { word_to_ref(op.read(&head.next), guard) };
            loop {
                let curr_ver = op.visit(&curr.ver);
                if curr_ver & 1 == 1 {
                    return None; // mark-check: node is being removed
                }
                let key = op.read(&curr.key);
                if key == KEY_TAIL {
                    break;
                }
                if key >= start {
                    out.push((key, op.read(&curr.val)));
                    if out.len() - base == len {
                        break;
                    }
                }
                // SAFETY: as above — KCAS read under the same pin.
                curr = unsafe { word_to_ref(op.read(&curr.next), guard) };
            }
            op.validate().then_some(())
        })
    }

    /// Quiescent walk over every node after the head sentinel, the tail
    /// sentinel included (no concurrent updates may be running).
    fn for_each_node(&self, mut f: impl FnMut(&Node, u64)) {
        // SAFETY: by the quiescence contract no writer races these reads;
        // head is live until Drop and every reachable word is a valid node
        // pointer owned by the list.
        let mut curr = unsafe { (*self.head).next.load_quiescent() };
        while curr != NIL {
            // SAFETY: see above — quiescent traversal of live owned nodes.
            let node = unsafe { &*(curr as usize as *const Node) };
            f(node, node.key.load_quiescent());
            curr = node.next.load_quiescent();
        }
    }

    fn stats_impl(&self) -> MapStats {
        let node_bytes = slab::SLOT_BYTES as u64;
        let mut stats =
            MapStats { node_count: 2, approx_bytes: 2 * node_bytes, ..Default::default() };
        self.for_each_node(|_, key| {
            if key != KEY_TAIL {
                // A key's depth is the number of keys before it.
                stats.key_depth_sum += stats.key_count;
                stats.node_count += 1;
                stats.approx_bytes += node_bytes;
                stats.key_count += 1;
                stats.key_sum += key as u128;
            }
        });
        stats
    }

    /// Quiescent invariant check: strictly increasing keys, no reachable
    /// marked node.
    pub fn check_invariants(&self) {
        let mut prev_key = KEY_HEAD;
        self.for_each_node(|node, key| {
            assert!(key > prev_key, "list order violated: {key} after {prev_key}");
            assert_eq!(node.ver.load_quiescent() & 1, 0, "reachable list node is marked");
            prev_key = key;
        });
        assert_eq!(prev_key, KEY_TAIL, "list does not end at the tail sentinel");
    }
}

impl ConcurrentMap for PathCasList {
    fn name(&self) -> &'static str {
        "list-pathcas"
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
    fn rmw(&self, key: Key, update: &mut dyn FnMut(Option<Value>) -> Value) -> bool {
        self.rmw_impl(key, update)
    }
    fn scan_into(&self, start: Key, len: usize, out: &mut Vec<(Key, Value)>) {
        self.scan_impl(start, len, out)
    }
    fn stats(&self) -> MapStats {
        self.stats_impl()
    }
}

impl Drop for PathCasList {
    fn drop(&mut self) {
        let mut words = vec![ptr_to_word(self.head)];
        self.for_each_node(|node, _| words.push(ptr_to_word(node)));
        // SAFETY: `&mut self` proves exclusive access; every word collected
        // is a live node the list allocated from the slab, collected once
        // and freed once.
        unsafe { slab::free_all(&mut words) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmw_updates_in_place() {
        let l = PathCasList::new();
        assert!(!l.rmw(3, &mut |v| v.unwrap_or(7)));
        assert_eq!(l.get(3), Some(7));
        assert!(l.rmw(3, &mut |v| v.unwrap() * 2));
        assert_eq!(l.get(3), Some(14));
        l.check_invariants();
    }
}
