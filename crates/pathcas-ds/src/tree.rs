//! The lock-free *internal* binary search tree of §4 of the paper
//! (Algorithms 3–6), generic over a [`Balance`] policy.
//!
//! Every operation performs a plain sequential-looking search in which each
//! traversed node is `visit`ed; updates then `add` the child pointer / key /
//! value words they modify together with a version bump of every modified
//! node (marking removed nodes), and commit with a single `vexec`.  A
//! successful `vexec` implies no visited node changed since it was visited,
//! which makes the whole read-phase + write-phase atomic and the correctness
//! argument short (Appendix E).
//!
//! The paper obtains its AVL tree (§4.2 / Appendix D) by *extending* this
//! tree, and so does the code: [`Unbalanced`] (`int-bst-pathcas`) and
//! [`crate::avl::Avl`] (`int-avl-pathcas`) are two policies over the one
//! implementation below.  A policy supplies the extra per-node words and the
//! places Algorithms 8–11 differ from 3–6, all resolved at compile time:
//! initialising a new node's balance words and version, repointing the
//! `parent` of the child a removal splices upwards, settling the version of
//! the node whose child an update rewires, and the rebalancing walk after a
//! committed update.

// `drop(op)` below releases the op's borrow of the shared builder so the
// policy's rebalancing walk can start a new op; the drop is about lifetimes,
// which is exactly what this lint flags as suspicious.
#![allow(clippy::drop_non_drop)]

use std::cell::RefCell;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_epoch::{slab, Guard};
use kcas::CasWord;
use mapapi::{ConcurrentMap, Key, MapStats, Value};
use pathcas::{OpBuilder, PathCasOp};

use crate::node::{ptr_to_word, with_builder, word_to_ref, NIL};

/// Sentinel key of `minRoot` (conceptually -infinity).
const KEY_MIN_SENTINEL: u64 = 0;
/// Sentinel key of `maxRoot` (conceptually +infinity).
const KEY_MAX_SENTINEL: u64 = kcas::MAX_VALUE;

pub(crate) mod sealed {
    use super::{CasWord, Guard, Node, OpBuilder, PathCasOp, PathCasTree};

    /// The hooks behind [`super::Balance`]; private so that the two policies
    /// in this crate are the only ones.
    pub trait Policy: Default + Send + Sync + Sized + 'static {
        /// Extra per-node words, placed between the child pointers and the
        /// version word.
        type Words: Send + Sync;

        /// Registry name of the tree under this policy.
        const NAME: &'static str;

        /// Whether [`Self::Words`] holds a parent pointer, so that the
        /// one-child removal must visit the child it splices upwards.
        const PARENT_POINTERS: bool;

        /// The balance words of a new node hanging under `parent`.
        fn words(parent: u64) -> Self::Words;

        /// The first version of a new node of logical `height`: 1 for a
        /// fresh leaf, 0 for the sentinels.
        fn first_ver(height: u64) -> u64;

        /// A removal committing in `op` makes the (visited, unmarked)
        /// `child` a child of `to` instead of `from`.
        fn repoint_parent<'g>(
            op: &mut PathCasOp<'g>,
            child: &'g Node<Self>,
            child_ver: u64,
            from: u64,
            to: u64,
        );

        /// An update committing in `op` makes the subtree whose root it saw
        /// at version `child_ver` (0 for an empty one) a child of the
        /// visited, unmarked `node`, whose other child word is `other`.
        /// Returns the version `node` commits with (at least `node_ver + 2`)
        /// and where the rebalancing walk starts once the update has
        /// committed (`NIL`: nowhere).
        fn settle<'g>(
            tree: &PathCasTree<Self>,
            op: &mut PathCasOp<'g>,
            node: &'g Node<Self>,
            node_ver: u64,
            child_ver: u64,
            other: &'g CasWord,
        ) -> (u64, u64);

        /// A committed update may have unbalanced the tree at node `start`
        /// (`NIL`: nowhere).
        fn rebalance(tree: &PathCasTree<Self>, start: u64, builder: &mut OpBuilder, guard: &Guard);

        /// Quiescent check of the balance words of the node holding `key`.
        fn check_words(node: &Node<Self>, key: u64, parent: u64);
    }
}

/// A balance policy of [`PathCasTree`]: [`Unbalanced`] or [`crate::avl::Avl`].
pub trait Balance: sealed::Policy {}

impl<P: sealed::Policy> Balance for P {}

/// A tree node. All fields that PathCAS may modify are `CasWord`s; `key` and
/// `val` are mutable because a two-child deletion promotes the successor's
/// key/value into the deleted node (Algorithm 6).  Opaque outside the crate;
/// `pub` only because the sealed policy hooks name it.
///
/// `repr(C)` keeps the words in declaration order — key, value, children,
/// the policy's words, version: left to itself the compiler moves a
/// two-word `bal` to the front.  `align(64)` makes a node exactly one slab
/// slot under either policy: the words a descent reads share one cache line.
#[repr(C, align(64))]
pub struct Node<B: Balance> {
    pub(crate) key: CasWord,
    pub(crate) val: CasWord,
    pub(crate) left: CasWord,
    pub(crate) right: CasWord,
    pub(crate) bal: B::Words,
    pub(crate) ver: CasWord,
}

impl<B: Balance> Node<B> {
    fn alloc(key: u64, val: u64, bal: B::Words, ver: u64) -> NonNull<Self> {
        slab::alloc(Node {
            key: CasWord::new(key),
            val: CasWord::new(val),
            left: CasWord::new(NIL),
            right: CasWord::new(NIL),
            bal,
            ver: CasWord::new(ver),
        })
    }

    /// Ask for the lines of both children, so that whichever one the key
    /// compare picks is already on its way.  A hint only: the words are
    /// peeked, not read, and the walk reads the chosen one again through
    /// the op.
    #[inline]
    fn prefetch_children(&self) {
        for child in [&self.left, &self.right] {
            if let Some(word) = child.peek().filter(|&w| w != NIL) {
                slab::prefetch(word as usize as *const Self);
            }
        }
    }
}

/// The policy of the unbalanced tree of §4: no extra words, no rebalancing.
#[derive(Default)]
pub struct Unbalanced;

impl sealed::Policy for Unbalanced {
    type Words = ();
    const NAME: &'static str = "int-bst-pathcas";
    const PARENT_POINTERS: bool = false;
    fn words(_parent: u64) {}
    fn first_ver(_height: u64) -> u64 {
        0
    }
    fn repoint_parent<'g>(_: &mut PathCasOp<'g>, _: &'g Node<Self>, _: u64, _: u64, _: u64) {}
    #[inline]
    fn settle<'g>(
        _: &PathCasTree<Self>,
        _: &mut PathCasOp<'g>,
        _: &'g Node<Self>,
        node_ver: u64,
        _: u64,
        _: &'g CasWord,
    ) -> (u64, u64) {
        (node_ver + 2, NIL)
    }
    fn rebalance(_: &PathCasTree<Self>, _: u64, _: &mut OpBuilder, _: &Guard) {}
    fn check_words(_: &Node<Self>, _key: u64, _parent: u64) {}
}

/// The PathCAS internal binary search tree (`int-bst-pathcas`).
pub type PathCasBst = PathCasTree<Unbalanced>;

// `pathcas-ds.bytes_per_key` is a benchmark metric: the layout must not move
// silently.
const _: () = assert!(std::mem::size_of::<Node<Unbalanced>>() == 64);

thread_local! {
    /// The in-order stack of [`PathCasTree::scan_impl`], kept per thread like
    /// the `OpBuilder` so that a scan allocates nothing of its own.  Entries are
    /// `(node word, key)`: raw words, because the stack outlives every guard
    /// (and is shared by both balance policies); an attempt only ever turns
    /// back into references the words it pushed itself.
    static SCAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };

    /// The work list of the AVL policy's rebalancing walk (node words still
    /// to re-examine), per thread for the same reason: it runs after every
    /// update whose own commit could not settle the balance.
    pub(crate) static REBALANCE_WORK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Result of the shared search routine (Algorithm 3): the node holding the
/// key if there is one, else the node the key would hang under.
struct SearchResult<'g, B: Balance> {
    curr: Option<&'g Node<B>>,
    curr_ver: u64,
    parent: &'g Node<B>,
    parent_ver: u64,
}

/// Where a quiescent walk stands: the node's word, its depth below
/// `minRoot.right`, the open key interval its position allows and the word
/// of the node it hangs under.
pub(crate) struct Place {
    pub(crate) word: u64,
    pub(crate) depth: u64,
    low: u64,
    high: u64,
    parent: u64,
}

/// The PathCAS internal search tree under balance policy `B`; see
/// [`PathCasBst`] and [`crate::PathCasAvl`].
pub struct PathCasTree<B: Balance> {
    max_root: *mut Node<B>,
    min_root: *mut Node<B>,
    pub(crate) counters: Counters<B>,
}

/// The tree's written-to statistics: the restart count and the policy value
/// (the AVL's rotation count).  Every operation and every rebalancing step
/// reads the two roots, restarts and rotations write these; the 128-byte
/// alignment (two lines on common x86 prefetch pairings, like telemetry's
/// counter stripes) keeps those writes off the roots' line.
#[repr(align(128))]
#[derive(Default)]
pub(crate) struct Counters<B> {
    retries: AtomicU64,
    pub(crate) balance: B,
}

// SAFETY: all shared mutation goes through PathCAS; raw pointers are only
// dereferenced under epoch guards. The policy value and the nodes' balance
// words are `Send + Sync` by the `Policy` bounds.
unsafe impl<B: Balance> Send for PathCasTree<B> {}
// SAFETY: see `Send` above.
unsafe impl<B: Balance> Sync for PathCasTree<B> {}

impl<B: Balance> Default for PathCasTree<B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<B: Balance> PathCasTree<B> {
    /// Create an empty tree containing only the two sentinel nodes.
    pub fn new() -> Self {
        let ver = B::first_ver(0);
        let max_root = Node::alloc(KEY_MAX_SENTINEL, 0, B::words(NIL), ver).as_ptr();
        let min_root = Node::alloc(KEY_MIN_SENTINEL, 0, B::words(ptr_to_word(max_root)), ver).as_ptr();
        // maxRoot.left = minRoot; all real keys live under minRoot.right.
        // SAFETY: `max_root` is a fresh node not yet shared with any other
        // thread, so the raw store cannot race.
        unsafe { (*max_root).left.store(ptr_to_word(min_root)) };
        PathCasTree { max_root, min_root, counters: Counters::default() }
    }

    /// Number of times operations had to restart from scratch (a software
    /// proxy for the contention/abort columns of the paper's Figure 5).
    pub fn retry_count(&self) -> u64 {
        // ORDERING: Relaxed — diagnostic counter; no synchronization implied.
        self.counters.retries.load(Ordering::Relaxed)
    }

    /// Whether `word` is one of the two sentinel nodes.
    #[inline]
    pub(crate) fn is_sentinel(&self, word: u64) -> bool {
        word == ptr_to_word(self.min_root) || word == ptr_to_word(self.max_root)
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
                // ORDERING: Relaxed — diagnostic counter only; tree
                // correctness is carried by the validated KCAS operations,
                // not by this statistic.
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
            }
        })
    }

    /// Algorithm 3: traverse from the sentinels towards `key`, visiting every
    /// node on the path.
    fn search<'g>(&self, op: &mut PathCasOp<'g>, guard: &'g Guard, key: u64) -> SearchResult<'g, B> {
        // SAFETY: the sentinel roots are allocated in `new` and freed only in
        // Drop, so they outlive every guard borrowed from `&self`.
        let mut parent: &Node<B> = unsafe { &*self.max_root };
        let mut parent_ver = op.visit(&parent.ver);
        // SAFETY: as above — the min sentinel lives until Drop.
        let mut curr: &Node<B> = unsafe { &*self.min_root };
        let mut curr_ver = op.visit(&curr.ver);
        loop {
            curr.prefetch_children();
            let curr_key = op.read(&curr.key);
            if key == curr_key {
                return SearchResult { curr: Some(curr), curr_ver, parent, parent_ver };
            }
            let next = if key > curr_key { op.read(&curr.right) } else { op.read(&curr.left) };
            if next == NIL {
                return SearchResult { curr: None, curr_ver, parent: curr, parent_ver: curr_ver };
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
        start: &'g Node<B>,
        start_ver: u64,
    ) -> Option<(&'g Node<B>, u64, &'g Node<B>, u64)> {
        let mut succ_p = start;
        let mut succ_p_ver = start_ver;
        let right = op.read(&start.right);
        if right == NIL {
            return None;
        }
        // SAFETY: `right` is a non-NIL word read via KCAS under `guard`.
        let mut succ: &Node<B> = unsafe { word_to_ref(right, guard) };
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

    /// Algorithm 4 lines 6–12: hang a fresh leaf under the unmarked `parent`
    /// the search for the absent `key` ended at.  Returns where the
    /// rebalancing walk starts; `None` means the `vexec` failed and the
    /// operation restarts.
    fn link_leaf<'g>(
        &self,
        op: &mut PathCasOp<'g>,
        parent: &'g Node<B>,
        parent_ver: u64,
        key: u64,
        val: u64,
    ) -> Option<u64> {
        let leaf_ver = B::first_ver(1);
        let new_node =
            Node::<B>::alloc(key, val, B::words(ptr_to_word(parent as *const Node<B>)), leaf_ver);
        let parent_key = op.read(&parent.key);
        let (ptr_to_change, other) =
            if key < parent_key { (&parent.left, &parent.right) } else { (&parent.right, &parent.left) };
        let (new_parent_ver, rebalance_from) = B::settle(self, op, parent, parent_ver, leaf_ver, other);
        op.add(ptr_to_change, NIL, ptr_to_word(new_node.as_ptr()));
        op.add(&parent.ver, parent_ver, new_parent_ver);
        if !op.vexec() {
            // SAFETY: the vexec failed, so no other thread ever saw
            // `new_node`; this thread still solely owns its slot.
            unsafe { slab::free(new_node) };
            return None;
        }
        Some(rebalance_from)
    }

    /// Visit the child (if any) that a removal makes a child of `to` instead
    /// of `from`, and let the policy repoint it.  Returns the version the
    /// child was visited at (0 for none); `None` means the child is already
    /// marked and the operation restarts.
    fn adopt<'g>(op: &mut PathCasOp<'g>, guard: &'g Guard, child: u64, from: u64, to: u64) -> Option<u64> {
        if child == NIL {
            return Some(0);
        }
        // SAFETY: non-NIL word read via KCAS under the pin behind `guard`.
        let child: &Node<B> = unsafe { word_to_ref(child, guard) };
        let child_ver = op.visit(&child.ver);
        if child_ver & 1 == 1 {
            return None;
        }
        B::repoint_parent(op, child, child_ver, from, to);
        Some(child_ver)
    }

    fn insert_impl(&self, key: u64, val: u64) -> bool {
        debug_assert!(key > KEY_MIN_SENTINEL && key < KEY_MAX_SENTINEL);
        self.run(|builder, guard| {
            let mut op = builder.start(guard);
            let res = self.search(&mut op, guard, key);
            if res.curr.is_some() {
                // Algorithm 4 line 4: the key is present; validation
                // establishes a time during the operation at which the whole
                // (unchanged) search path — and hence the key — was in the
                // tree.
                return op.validate().then_some(false);
            }
            if res.parent_ver & 1 == 1 {
                return None; // parent already marked
            }
            let rebalance_from = self.link_leaf(&mut op, res.parent, res.parent_ver, key, val)?;
            drop(op);
            B::rebalance(self, rebalance_from, builder, guard);
            Some(true)
        })
    }

    fn remove_impl(&self, key: u64) -> bool {
        debug_assert!(key > KEY_MIN_SENTINEL && key < KEY_MAX_SENTINEL);
        self.run(|builder, guard| {
            let mut op = builder.start(guard);
            let res = self.search(&mut op, guard, key);
            let Some(curr) = res.curr else {
                return op.validate().then_some(false);
            };
            let (curr_ver, parent, parent_ver) = (res.curr_ver, res.parent, res.parent_ver);
            // Algorithm 6 line 7: if either node is marked, retry.
            if curr_ver & 1 == 1 || parent_ver & 1 == 1 {
                return None;
            }
            let curr_word = ptr_to_word(curr as *const Node<B>);
            let parent_word = ptr_to_word(parent as *const Node<B>);
            let curr_left = op.read(&curr.left);
            let curr_right = op.read(&curr.right);

            // The node this removal unlinks, and where the rebalancing walk
            // starts.
            let (unlinked, rebalance_from) = if curr_left == NIL || curr_right == NIL {
                // Leaf / one-child deletion: splice the remaining child (or
                // NIL) into the parent.
                let child_to_keep = if curr_left == NIL { curr_right } else { curr_left };
                let kept_ver = if B::PARENT_POINTERS {
                    Self::adopt(&mut op, guard, child_to_keep, curr_word, parent_word)?
                } else {
                    0
                };
                let parent_left = op.read(&parent.left);
                let (ptr_to_change, other) = if parent_left == curr_word {
                    (&parent.left, &parent.right)
                } else {
                    (&parent.right, &parent.left)
                };
                let (new_parent_ver, from) = B::settle(self, &mut op, parent, parent_ver, kept_ver, other);
                op.add(ptr_to_change, curr_word, child_to_keep);
                op.add(&parent.ver, parent_ver, new_parent_ver);
                op.add(&curr.ver, curr_ver, curr_ver + 1); // mark curr
                (curr, from)
            } else {
                // Two-child deletion: promote the successor's key/value into
                // `curr`, then unlink the successor node.
                let (succ, succ_ver, succ_p, succ_p_ver) =
                    self.get_successor(&mut op, guard, curr, curr_ver)?;
                if succ_ver & 1 == 1 || succ_p_ver & 1 == 1 {
                    return None;
                }
                let succ_word = ptr_to_word(succ as *const Node<B>);
                let succ_p_word = ptr_to_word(succ_p as *const Node<B>);
                let succ_r = op.read(&succ.right); // succ has no left child
                let succ_r_ver = Self::adopt(&mut op, guard, succ_r, succ_word, succ_p_word)?;
                let succ_p_right = op.read(&succ_p.right);
                let (ptr_to_change, other) = if succ_p_right == succ_word {
                    (&succ_p.right, &succ_p.left)
                } else {
                    (&succ_p.left, &succ_p.right)
                };
                let (new_succ_p_ver, from) =
                    B::settle(self, &mut op, succ_p, succ_p_ver, succ_r_ver, other);
                op.add(ptr_to_change, succ_word, succ_r);
                let curr_val = op.read(&curr.val);
                let succ_val = op.read(&succ.val);
                let succ_key = op.read(&succ.key);
                op.add(&curr.val, curr_val, succ_val);
                op.add(&curr.key, key, succ_key);
                op.add(&succ.ver, succ_ver, succ_ver + 1); // mark succ
                op.add(&succ_p.ver, succ_p_ver, new_succ_p_ver);
                if !std::ptr::eq(succ_p, curr) {
                    op.add(&curr.ver, curr_ver, curr_ver + 2);
                }
                (succ, from)
            };
            if !op.vexec() {
                return None;
            }
            drop(op);
            // SAFETY: the successful vexec unlinked and marked `unlinked`, so
            // this thread alone retires it; pinned readers keep it alive
            // until their epochs expire.
            unsafe { slab::retire(NonNull::from(unlinked), guard) };
            B::rebalance(self, rebalance_from, builder, guard);
            Some(true)
        })
    }

    fn get_impl(&self, key: u64) -> Option<u64> {
        debug_assert!(key > KEY_MIN_SENTINEL && key < KEY_MAX_SENTINEL);
        self.run(|builder, guard| {
            let mut op = builder.start(guard);
            match self.search(&mut op, guard, key).curr {
                Some(curr) => {
                    // §4.1: found keys need no validation of the path — but
                    // a two-child `remove(key)` rewrites this node's key and
                    // value (to its successor's) in one KCAS, so a value
                    // read after the key may belong to the successor.  A
                    // node's key only ever grows (successors are larger), so
                    // seeing `key` again after the value read proves the
                    // value was read while the node still held `key`.
                    let val = op.read(&curr.val);
                    (op.read(&curr.key) == key).then_some(Some(val))
                }
                None => op.validate().then_some(None),
            }
        })
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
        self.run(|builder, guard| {
            let mut op = builder.start(guard);
            let res = self.search(&mut op, guard, key);
            if let Some(curr) = res.curr {
                let curr_ver = res.curr_ver;
                if curr_ver & 1 == 1 {
                    return None;
                }
                let old_val = op.read(&curr.val);
                let new_val = update(Some(old_val));
                op.add(&curr.val, old_val, new_val);
                // The version bump publishes the value change to validated
                // readers (scans re-validate this node).
                op.add(&curr.ver, curr_ver, curr_ver + 2);
                return op.vexec().then_some(true);
            }
            // Absent: atomically insert `update(None)` at the reached leaf
            // position, exactly like `insert`.
            if res.parent_ver & 1 == 1 {
                return None;
            }
            let rebalance_from = self.link_leaf(&mut op, res.parent, res.parent_ver, key, update(None))?;
            drop(op);
            B::rebalance(self, rebalance_from, builder, guard);
            Some(false)
        })
    }

    /// Validated in-order range scan: append to `out` the first `len` pairs
    /// with key ≥ `start`, visiting every traversed node, then `validate` the
    /// whole visited path.  A successful validation proves no visited node
    /// changed or was marked between its visit and the validation point, so
    /// every collected pair was simultaneously present — the scan is an
    /// atomic snapshot (the paper's composite read built from path
    /// validation).  On validation failure the scan restarts from scratch —
    /// `out` is cut back to the length it came in with, never reallocated;
    /// rotations bump every version they touch, so a scan overlapping a
    /// rebalance restarts too.
    fn scan_impl(&self, start: u64, len: usize, out: &mut Vec<(u64, u64)>) {
        if len == 0 {
            return;
        }
        let start = start.max(KEY_MIN_SENTINEL + 1);
        let base = out.len();
        SCAN_STACK.with_borrow_mut(|stack| {
            self.run(|builder, guard| {
                let mut op = builder.start(guard);
                // SAFETY: the min sentinel lives until Drop (see `search`).
                let min_root: &Node<B> = unsafe { &*self.min_root };
                // Whatever a failed attempt appended goes; the caller's
                // prefix stays.
                out.truncate(base);
                if op.visit(&min_root.ver) & 1 == 1 {
                    return None;
                }
                // Explicit in-order stack with subtree pruning: a node whose
                // key is below `start` has no relevant left subtree.
                stack.clear();
                let mut curr = op.read(&min_root.right);
                'walk: loop {
                    while curr != NIL {
                        // SAFETY: `curr` was read via KCAS under `guard`, so
                        // the node is protected from reclamation.
                        let node: &Node<B> = unsafe { word_to_ref(curr, guard) };
                        if op.visit(&node.ver) & 1 == 1 {
                            // Reached an already-marked node: the path we
                            // followed is stale; restart.
                            return None;
                        }
                        // The walk goes left or right by the compare below,
                        // and comes back for a pushed node's right subtree
                        // once it is done with the left one.
                        node.prefetch_children();
                        let key = op.read(&node.key);
                        if key >= start {
                            stack.push((curr, key));
                            curr = op.read(&node.left);
                        } else {
                            curr = op.read(&node.right);
                        }
                    }
                    match stack.pop() {
                        None => break 'walk,
                        Some((word, key)) => {
                            // SAFETY: `word` was pushed above in this attempt
                            // (the stack is cleared at its start), so it was
                            // read via KCAS under `guard`.
                            let node: &Node<B> = unsafe { word_to_ref(word, guard) };
                            out.push((key, op.read(&node.val)));
                            if out.len() - base == len {
                                break 'walk;
                            }
                            curr = op.read(&node.right);
                        }
                    }
                }
                op.validate().then_some(())
            })
        })
    }

    /// Quiescent pre-order walk over every non-sentinel node (no concurrent
    /// updates may be running).  The work list is explicit: the degenerate
    /// shapes the unbalanced policy exists to produce are as deep as they are
    /// large and must not be walked on the call stack.
    pub(crate) fn for_each_node(&self, mut f: impl FnMut(&Node<B>, u64, &Place)) {
        // SAFETY: the sentinel is live until Drop, and by the quiescence
        // contract no writer can race this read.
        let root = unsafe { (*self.min_root).right.load_quiescent() };
        let mut work = vec![Place {
            word: root,
            depth: 0,
            low: KEY_MIN_SENTINEL,
            high: KEY_MAX_SENTINEL,
            parent: ptr_to_word(self.min_root),
        }];
        while let Some(at) = work.pop() {
            if at.word == NIL {
                continue;
            }
            // SAFETY: quiescent traversal — every reachable word is a valid
            // node pointer owned by the tree.
            let node = unsafe { &*(at.word as usize as *const Node<B>) };
            let key = node.key.load_quiescent();
            f(node, key, &at);
            let (left, right) = (node.left.load_quiescent(), node.right.load_quiescent());
            let depth = at.depth + 1;
            work.push(Place { word: left, depth, low: at.low, high: key, parent: at.word });
            work.push(Place { word: right, depth, low: key, high: at.high, parent: at.word });
        }
    }

    fn stats_impl(&self) -> MapStats {
        let node_bytes = slab::SLOT_BYTES as u64;
        let mut stats =
            MapStats { node_count: 2, approx_bytes: 2 * node_bytes, ..Default::default() };
        self.for_each_node(|_, key, at| {
            stats.node_count += 1;
            stats.approx_bytes += node_bytes;
            stats.key_count += 1;
            stats.key_sum += key as u128;
            stats.key_depth_sum += at.depth;
        });
        stats
    }

    /// Quiescent structural invariants: search-tree order, no reachable
    /// marked node, and whatever the policy's balance words promise (the AVL
    /// tree's parent pointers).  Panics on violation; used by tests after
    /// stress runs.
    pub fn check_invariants(&self) {
        self.for_each_node(|node, key, at| {
            let (low, high) = (at.low, at.high);
            assert!(key > low && key < high, "{}: order violated: {key} not in ({low},{high})", B::NAME);
            assert_eq!(node.ver.load_quiescent() & 1, 0, "{}: reachable node {key} is marked", B::NAME);
            B::check_words(node, key, at.parent);
        });
    }
}

impl<B: Balance> ConcurrentMap for PathCasTree<B> {
    fn name(&self) -> &'static str {
        B::NAME
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

impl<B: Balance> Drop for PathCasTree<B> {
    fn drop(&mut self) {
        let mut words = vec![ptr_to_word(self.max_root), ptr_to_word(self.min_root)];
        self.for_each_node(|_, _, at| words.push(at.word));
        // SAFETY: `&mut self` proves exclusive access; every word collected
        // is a live node the tree allocated from the slab, collected once
        // and freed once.
        unsafe { slab::free_all(&mut words) };
    }
}

/// The tree's own tests, for both policies: `battery!(module, TreeType)`
/// instantiates every test below for that tree.  Checks that only hold for a
/// balanced tree live in `crate::avl`; the generic map cases run on both
/// trees in the workspace's `tests/cross_structure.rs`.
#[cfg(test)]
mod tests {
    macro_rules! battery {
        ($policy:ident, $Tree:ty) => {
            mod $policy {
                use crate::*;
                use mapapi::ConcurrentMap;
                use std::sync::atomic::{AtomicBool, Ordering};

                type Tree = $Tree;

                #[test]
                fn two_child_deletions() {
                    let t = Tree::new();
                    // Build a tree where the root has two children, then
                    // delete interior nodes to exercise successor promotion.
                    for k in [50u64, 25, 75, 12, 37, 62, 87, 6, 18, 31, 43] {
                        assert!(t.insert(k, k));
                    }
                    assert!(t.remove(50)); // two children, successor is 62
                    assert_eq!(t.get(50), None);
                    assert_eq!(t.get(62), Some(62));
                    assert!(t.remove(25)); // two children, successor is 31
                    assert_eq!(t.get(25), None);
                    t.check_invariants();
                    assert_eq!(t.stats().key_count, 9);
                }

                #[test]
                fn repeated_interior_deletions() {
                    let t = Tree::new();
                    for k in [50u64, 25, 75, 12, 37, 62, 87, 31, 43] {
                        t.insert(k, k);
                    }
                    assert!(t.remove(50));
                    assert!(t.remove(25));
                    assert!(t.remove(75));
                    t.check_invariants();
                    assert_eq!(t.stats().key_count, 6);
                }

                #[test]
                fn deletions_keep_tree_consistent() {
                    let t = Tree::new();
                    let n: u64 = 512;
                    for k in 1..=n {
                        t.insert(k, k);
                    }
                    for k in (1..=n).step_by(3) {
                        assert!(t.remove(k));
                    }
                    t.check_invariants();
                    for k in 1..=n {
                        assert_eq!(t.get(k), Some(k).filter(|k| (k - 1) % 3 != 0));
                    }
                }

                #[test]
                fn quiescent_walks_survive_degenerate_shapes_on_a_small_stack() {
                    // Ascending keys make the unbalanced tree a right spine,
                    // descending keys a left spine (a recursive walk's left
                    // call is never a tail call), each as deep as it is large.
                    fn check(keys: impl Iterator<Item = u64>) {
                        let t = Tree::new();
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

                #[test]
                fn retries_counter_is_observable() {
                    let t = Tree::new();
                    t.insert(1, 1);
                    // Single-threaded operations should essentially never retry.
                    assert_eq!(t.retry_count(), 0);
                }

                #[test]
                fn rmw_is_present_throughout_and_accumulates() {
                    let t = Tree::new();
                    // Absent key: created with update(None).
                    assert!(!t.rmw(7, &mut |v| v.unwrap_or(100) + 1));
                    assert_eq!(t.get(7), Some(101));
                    // Present key: updated in place.
                    assert!(t.rmw(7, &mut |v| v.unwrap() + 1));
                    assert_eq!(t.get(7), Some(102));
                    t.check_invariants();
                }

                #[test]
                fn concurrent_scans_see_consistent_snapshots() {
                    // Writers churn keys outside a fixed region; scans over
                    // the region must always return exactly the region.
                    let t = Tree::new();
                    for k in 1000..1064u64 {
                        t.insert(k, k);
                    }
                    let stop = AtomicBool::new(false);
                    std::thread::scope(|s| {
                        for w in 0..2u64 {
                            let (t, stop) = (&t, &stop);
                            s.spawn(move || {
                                let mut x = 12345u64.wrapping_add(w);
                                while !stop.load(Ordering::Relaxed) {
                                    x = x
                                        .wrapping_mul(6364136223846793005)
                                        .wrapping_add(1442695040888963407);
                                    let k = 1 + x % 999; // churn strictly below the region
                                    if x & 1 == 0 {
                                        t.insert(k, k);
                                    } else {
                                        t.remove(k);
                                    }
                                }
                            });
                        }
                        for _ in 0..300 {
                            let got = t.scan(1000, 64);
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
        };
    }

    battery!(unbalanced, PathCasBst);
    battery!(avl, PathCasAvl);
}

/// What the tree asks of its record manager: `Drop` returns slots in address
/// order, and `remove` retires, not frees.
#[cfg(test)]
mod slab_tests {
    use super::*;
    use crate::avl::Avl;
    use crate::PathCasAvl;

    /// Address of the node holding `key` (quiescent).
    fn word_of(tree: &PathCasAvl, key: u64) -> u64 {
        let mut word = None;
        tree.for_each_node(|_, k, at| {
            if k == key {
                word = Some(at.word);
            }
        });
        word.expect("the key is present")
    }

    #[test]
    fn a_rebuilt_tree_gets_ascending_addresses() {
        // The thread is new and keeps everything the dropped tree returns:
        // it held less than a batch (1 024 slots) when the tree was dropped,
        // and two batches fit before anything goes to the pool other tests
        // share.
        const KEYS: u64 = 1_000;
        std::thread::spawn(|| {
            let build = || {
                let tree = PathCasAvl::new();
                for key in 1..=KEYS {
                    assert!(tree.insert(key, key));
                }
                tree
            };
            // Pinned throughout, the thread never collects, so no slot that a
            // sibling test's exited thread retired lands on its free list
            // between the drop and the rebuild.
            let pinned = crossbeam_epoch::pin();
            drop(build());
            let tree = build();
            drop(pinned);
            let words: Vec<u64> = (1..=KEYS).map(|key| word_of(&tree, key)).collect();
            assert!(words.windows(2).all(|w| w[0] < w[1]), "insertion order is not address order");
        })
        .join()
        .expect("the rebuilding thread panicked");
    }

    #[test]
    fn a_retired_slot_is_not_handed_out_while_a_guard_from_before_is_pinned() {
        let tree = PathCasAvl::new();
        for key in 1..=64u64 {
            assert!(tree.insert(key, key));
        }
        // A leaf: removing it unlinks and retires its own node.
        let (mut leaf_key, mut leaf_word) = (0, 0);
        tree.for_each_node(|node, key, at| {
            if node.left.load_quiescent() == NIL && node.right.load_quiescent() == NIL {
                (leaf_key, leaf_word) = (key, at.word);
            }
        });
        let guard = crossbeam_epoch::pin();
        assert!(tree.remove(leaf_key));
        // Churn that would reuse the slot at once if it were already free.
        for key in 1_000..1_500u64 {
            assert!(tree.insert(key, key));
            assert_ne!(word_of(&tree, key), leaf_word, "a retired slot was reused under a guard");
            if key % 2 == 0 {
                assert!(tree.remove(key));
            }
            guard.flush();
        }
        // SAFETY: `guard` was pinned before the node was retired, which is
        // what keeps the slot a node.
        let node = unsafe { &*(leaf_word as usize as *const Node<Avl>) };
        assert_eq!(node.ver.load_quiescent() & 1, 1, "the removed node is not marked");
        assert_eq!(node.key.load_quiescent(), leaf_key);
        drop(guard);

        // Unpinned, the epoch moves on and the slot comes back.  By the
        // clock: sibling tests' threads get descheduled while pinned.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        // The inserts stay, so that the free list drains down to the slot
        // (it was collected first and lies deepest).
        let mut key = 2_000u64;
        loop {
            crossbeam_epoch::pin().flush();
            assert!(tree.insert(key, key));
            if word_of(&tree, key) == leaf_word {
                break;
            }
            key += 1;
            assert!(std::time::Instant::now() < deadline, "the retired slot never came back");
        }
        tree.check_invariants();
    }
}
