//! What §4.2 / Appendix D add to the internal tree of [`crate::tree`] to
//! make it the relaxed AVL tree (`int-avl-pathcas`): the [`Avl`] balance
//! policy.
//!
//! Nodes gain a `parent` pointer and a *logical* `height` (Figure 8).  The
//! height rides in the top bits of the node's version word (`HEIGHT_SHIFT`):
//! every write of it bumps the version anyway, so a separate word would only
//! widen every commit that touches it.  An insert or delete settles the
//! height of the node whose child it rewires inside its own commit (the
//! policy's `settle`); where that node's height changed or it is out of
//! balance, the thread walks towards the root along parent pointers,
//! applying Bougé-style local rebalancing steps — `fixHeight`, a single
//! rotation and a double rotation — each of which is a single `vexec` that
//! visits every node it reads, adds every field it changes, and bumps the
//! version of every node it modifies (Algorithms 8–11).
//!
//! The paper spells each rotation out twice (`rotateRight` / `rotateLeft`,
//! `rotateLeftRight` / `rotateRightLeft`); here each is written once, for
//! "the heavy side" and "the other side" (`Side`), and compiled for both.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_epoch::Guard;
use kcas::CasWord;
use pathcas::{OpBuilder, PathCasOp};

use crate::node::{ptr_to_word, word_to_ref, NIL};
use crate::tree::{sealed::Policy, PathCasTree, REBALANCE_WORK};

/// The balance policy of the relaxed AVL tree; the value itself is the
/// tree's rotation counter.
#[derive(Default)]
pub struct Avl {
    rotations: AtomicU64,
}

/// The word an AVL node carries on top of the search-tree fields (opaque;
/// `pub` only because the sealed policy names it); its logical height lives
/// in its version word.
#[repr(C)]
pub struct AvlWords {
    parent: CasWord,
}

/// Where the logical height starts in a decoded version: bits 55..=61 hold
/// it, bits 1..=54 the modification counter, bit 0 the mark.  `+ 2` and
/// `+ 1` leave the height alone; a height write is a version change.
const HEIGHT_SHIFT: u32 = 55;

/// The largest height the version word holds (a tree of height 128 would
/// hold more than 2⁸⁰ keys).
const MAX_HEIGHT: u64 = kcas::MAX_VALUE >> HEIGHT_SHIFT;

/// The logical height in version `ver`.
#[inline]
fn height(ver: u64) -> u64 {
    ver >> HEIGHT_SHIFT
}

/// Version `ver` with its logical height replaced by `height`.
#[inline]
fn with_height(ver: u64, height: u64) -> u64 {
    debug_assert!(height <= MAX_HEIGHT, "logical height {height} does not fit the version word");
    ver & ((1 << HEIGHT_SHIFT) - 1) | height << HEIGHT_SHIFT
}

type Node = crate::tree::Node<Avl>;

/// The PathCAS relaxed AVL tree (`int-avl-pathcas`).
pub type PathCasAvl = PathCasTree<Avl>;

// `pathcas-ds.bytes_per_key` is a benchmark metric and the word order decides
// which fields share a cache line: neither may move silently.
const _: () = {
    assert!(std::mem::size_of::<Node>() == 64);
    assert!(std::mem::offset_of!(Node, bal) == 4 * 8 && std::mem::offset_of!(Node, ver) == 5 * 8);
};

impl Policy for Avl {
    type Words = AvlWords;
    const NAME: &'static str = "int-avl-pathcas";
    const PARENT_POINTERS: bool = true;

    fn words(parent: u64) -> AvlWords {
        AvlWords { parent: CasWord::new(parent) }
    }

    fn first_ver(height: u64) -> u64 {
        with_height(0, height)
    }

    #[inline]
    fn repoint_parent<'g>(op: &mut PathCasOp<'g>, child: &'g Node, child_ver: u64, from: u64, to: u64) {
        op.add(&child.bal.parent, from, to);
        op.add(&child.ver, child_ver, child_ver + 2);
    }

    /// The first step of the rebalancing walk, run inside the update's own
    /// commit: with the node's new children in balance, their heights are
    /// visited here and the node's height goes into the version entry the
    /// update adds anyway.
    #[inline]
    fn settle<'g>(
        tree: &PathCasAvl,
        op: &mut PathCasOp<'g>,
        node: &'g Node,
        node_ver: u64,
        child_ver: u64,
        other: &'g CasWord,
    ) -> (u64, u64) {
        let node_word = ptr_to_word(node as *const Node);
        if tree.is_sentinel(node_word) {
            return (node_ver + 2, NIL);
        }
        let guard = op.guard();
        let other_word = op.read(other);
        // A marked child still in `node` means `node` changed since its
        // visit: the commit fails, and the walk is never started.
        let Some(other) = PathCasAvl::read_child(op, guard, other_word) else {
            return (node_ver + 2, node_word);
        };
        let child_h = height(child_ver);
        if child_h.abs_diff(other.height) > 1 {
            return (node_ver + 2, node_word);
        }
        let new_height = 1 + child_h.max(other.height);
        if new_height == height(node_ver) {
            (node_ver + 2, NIL)
        } else {
            (with_height(node_ver, new_height) + 2, op.read(&node.bal.parent))
        }
    }

    #[inline]
    fn rebalance(tree: &PathCasAvl, start: u64, builder: &mut OpBuilder, guard: &Guard) {
        if start != NIL {
            tree.rebalance(start, builder, guard);
        }
    }

    fn check_words(node: &Node, key: u64, parent: u64) {
        assert_eq!(node.bal.parent.load_quiescent(), parent, "parent pointer of {key} is stale");
    }
}

/// A side of a node, as a type: a rotation with heavy side `H` names the
/// child words it touches `H::child` and `H::Other::child` and is compiled
/// once per side.  A run-time side read 0.9 % lower on the update-heavy
/// benchmark row in six of six pairs (DESIGN.md §1), and every committed
/// update pays for it.
trait Side {
    /// The opposite side.
    type Other: Side<Other = Self>;

    /// `node`'s child word on this side.
    fn child(node: &Node) -> &CasWord;
}

struct Left;
struct Right;

impl Side for Left {
    type Other = Right;
    #[inline(always)]
    fn child(node: &Node) -> &CasWord {
        &node.left
    }
}

impl Side for Right {
    type Other = Left;
    #[inline(always)]
    fn child(node: &Node) -> &CasWord {
        &node.right
    }
}

/// Outcome of one rebalancing attempt at a node.
enum Step {
    /// Transient conflict; retry at the same node.
    Retry,
    /// Nothing to do here or the node is gone; stop this walk.
    Done,
    /// Height fixed (or already correct); move to the parent.
    MoveUp(u64),
    /// A rotation succeeded; re-examine these nodes (`NIL`-padded), then
    /// continue at the parent.
    Rotated { next: u64, recheck: [u64; 3] },
}

/// A child slot as one rebalancing step saw it: the unmarked node in it (if
/// any), the version it was visited at and its logical height (an empty
/// slot counts as height 0).
struct Child<'g> {
    node: Option<&'g Node>,
    ver: u64,
    height: u64,
}

/// What every rotation at `n` involves: `n`, its parent `p` and the child
/// `c` on its heavy side, each unmarked at the version it was visited at.
struct Spine<'g> {
    p: &'g Node,
    p_ver: u64,
    n: &'g Node,
    n_ver: u64,
    c: &'g Node,
    c_ver: u64,
}

impl PathCasAvl {
    /// Number of successful rotations performed (single + double).
    pub fn rotation_count(&self) -> u64 {
        // ORDERING: Relaxed — diagnostic counter; no synchronization implied.
        self.counters.balance.rotations.load(Ordering::Relaxed)
    }

    /// Actual (not logical) height of the tree rooted under `minRoot.right`
    /// (quiescent).
    pub fn actual_height(&self) -> u64 {
        let mut height = 0;
        self.for_each_node(|_, _, at| height = height.max(at.depth + 1));
        height
    }

    // ------------------------------------------------------------------
    // Rebalancing (Algorithm 10 and the rotations of Algorithms 8, 9, 11)
    // ------------------------------------------------------------------

    /// Walk towards the root from `start`, repairing violations this thread
    /// may have created.  Uses an explicit work list instead of recursion so
    /// that degenerate shapes cannot overflow the stack; the list is the
    /// thread's [`REBALANCE_WORK`], so a walk allocates nothing.
    fn rebalance(&self, start: u64, builder: &mut OpBuilder, guard: &Guard) {
        REBALANCE_WORK.with_borrow_mut(|work| {
            work.clear();
            work.push(start);
            // Defensive bound: Bougé's rebalancing terminates, but a bound
            // keeps a bug from turning into an unbounded loop.  Running out is
            // such a bug (a step that can never commit, like a rotation naming
            // a wrong word), so debug builds fail at once.
            let mut budget: u64 = 1_000_000;
            while let Some(mut n_word) = work.pop() {
                loop {
                    debug_assert!(budget > 0, "rebalancing walk ran out of steps at node word {n_word:#x}");
                    if budget == 0 {
                        return;
                    }
                    budget -= 1;
                    if n_word == NIL || self.is_sentinel(n_word) {
                        break;
                    }
                    match Self::rebalance_step(n_word, builder, guard) {
                        Step::Retry => continue,
                        Step::Done => break,
                        Step::MoveUp(next) => {
                            n_word = next;
                        }
                        Step::Rotated { next, recheck } => {
                            // ORDERING: Relaxed — diagnostic counter only.
                            self.counters.balance.rotations.fetch_add(1, Ordering::Relaxed);
                            work.extend(recheck);
                            n_word = next;
                        }
                    }
                }
            }
        })
    }

    /// One attempt to repair the balance at `n_word` (one iteration of the
    /// loop in Algorithm 10).
    fn rebalance_step<'g>(n_word: u64, builder: &'g mut OpBuilder, guard: &'g Guard) -> Step {
        // SAFETY: `n_word` was obtained from a KCAS read (or a just-executed
        // op) under a guard the caller still holds, so the node is protected.
        let n: &Node = unsafe { word_to_ref(n_word, guard) };
        let mut op = builder.start(guard);
        let n_ver = op.visit(&n.ver);
        if n_ver & 1 == 1 {
            // The node was deleted; whoever deleted it owns further violations.
            return Step::Done;
        }
        let p_word = op.read(&n.bal.parent);
        if p_word == NIL {
            return Step::Done;
        }
        // SAFETY: non-NIL parent word read via KCAS under the same guard.
        let p: &Node = unsafe { word_to_ref(p_word, guard) };
        let p_ver = op.visit(&p.ver);
        if p_ver & 1 == 1 {
            return Step::Retry;
        }
        let l_word = op.read(&n.left);
        let r_word = op.read(&n.right);
        let Some(l) = Self::read_child(&mut op, guard, l_word) else { return Step::Retry };
        let Some(r) = Self::read_child(&mut op, guard, r_word) else { return Step::Retry };
        let spine = |heavy: Child<'g>| Spine {
            p,
            p_ver,
            n,
            n_ver,
            c: heavy.node.expect("a subtree two levels taller than its sibling is not empty"),
            c_ver: heavy.ver,
        };

        if l.height >= r.height + 2 {
            Self::repair_heavy::<Left>(&mut op, guard, &spine(l), r.height)
        } else if r.height >= l.height + 2 {
            Self::repair_heavy::<Right>(&mut op, guard, &spine(r), l.height)
        } else {
            // Balanced: make sure the logical height is accurate (Algorithm 8).
            let new_height = 1 + l.height.max(r.height);
            if height(n_ver) == new_height {
                if op.validate() {
                    return Step::Done;
                }
                return Step::Retry;
            }
            op.add(&n.ver, n_ver, with_height(n_ver, new_height) + 2);
            if op.vexec() {
                Step::MoveUp(p_word)
            } else {
                Step::Retry
            }
        }
    }

    /// The violation at `s.n` is on side `H`: its child `s.c` there is two
    /// or more levels taller than the subtree of height `light_h` on the
    /// other side.  Look at `s.c`'s children — the *outer* one on side `H`,
    /// the *inner* one facing `s.n`'s light side — and rotate: twice if the
    /// inner one is the taller, else once.
    fn repair_heavy<'g, H: Side>(
        op: &mut PathCasOp<'g>,
        guard: &'g Guard,
        s: &Spine<'g>,
        light_h: u64,
    ) -> Step {
        let outer_word = op.read(H::child(s.c));
        let inner_word = op.read(H::Other::child(s.c));
        let Some(outer) = Self::read_child(op, guard, outer_word) else { return Step::Retry };
        let Some(inner) = Self::read_child(op, guard, inner_word) else { return Step::Retry };
        let (rotated, third) = if outer.height < inner.height {
            let g = inner.node.expect("the taller subtree is not empty");
            (Self::rotate_double::<H>(op, guard, s, g, inner.ver, light_h, outer.height), inner_word)
        } else {
            (Self::rotate::<H>(op, guard, s, light_h, outer.height), NIL)
        };
        if rotated {
            let recheck = [ptr_to_word(s.n as *const Node), ptr_to_word(s.c as *const Node), third];
            Step::Rotated { next: ptr_to_word(s.p as *const Node), recheck }
        } else {
            Step::Retry
        }
    }

    /// Visit the node in a child slot (if any) and take its logical height
    /// from the version visited; `None` if that node is marked.
    fn read_child<'g>(op: &mut PathCasOp<'g>, guard: &'g Guard, word: u64) -> Option<Child<'g>> {
        if word == NIL {
            return Some(Child { node: None, ver: 0, height: 0 });
        }
        // SAFETY: non-NIL child word read via KCAS under the guard the
        // caller holds, so the node cannot be reclaimed.
        let node: &Node = unsafe { word_to_ref(word, guard) };
        let ver = op.visit(&node.ver);
        if ver & 1 == 1 {
            return None;
        }
        Some(Child { node: Some(node), ver, height: height(ver) })
    }

    /// A rotation moves the subtree at `word` (possibly empty) from under
    /// `from` to under `to`: visit its root, repoint that node's parent and
    /// bump its version.  Returns the subtree's logical height, or `None` if
    /// its root is marked (the rotation must be retried).
    fn move_subtree<'g>(
        op: &mut PathCasOp<'g>,
        guard: &'g Guard,
        word: u64,
        from: u64,
        to: u64,
    ) -> Option<u64> {
        let root = Self::read_child(op, guard, word)?;
        if let Some(node) = root.node {
            Avl::repoint_parent(op, node, root.ver, from, to);
        }
        Some(root.height)
    }

    /// Replace `p`'s child pointer `from` with `to`; returns `None` if `from`
    /// is not currently a child of `p` (the rotation must be retried).
    fn add_child_swap<'g>(op: &mut PathCasOp<'g>, p: &'g Node, from: u64, to: u64) -> Option<()> {
        let p_left = op.read(&p.left);
        let p_right = op.read(&p.right);
        if p_right == from {
            op.add(&p.right, from, to);
            Some(())
        } else if p_left == from {
            op.add(&p.left, from, to);
            Some(())
        } else {
            None
        }
    }

    /// Algorithm 11 (`H` = left: `rotateRight`) and its mirror: single
    /// rotation at `s.n`, whose `H`-side child `s.c` moves up and hands its
    /// inner subtree to `s.n`.  `false` means retry.
    fn rotate<'g, H: Side>(
        op: &mut PathCasOp<'g>,
        guard: &'g Guard,
        s: &Spine<'g>,
        light_h: u64,
        outer_h: u64,
    ) -> bool {
        let &Spine { p, p_ver, n, n_ver, c, c_ver } = s;
        let n_word = ptr_to_word(n as *const Node);
        let p_word = ptr_to_word(p as *const Node);
        let c_word = ptr_to_word(c as *const Node);
        if Self::add_child_swap(op, p, n_word, c_word).is_none() {
            return false;
        }
        let inner_word = op.read(H::Other::child(c));
        let Some(inner_h) = Self::move_subtree(op, guard, inner_word, c_word, n_word) else {
            return false;
        };
        let new_nh = 1 + inner_h.max(light_h);
        let new_ch = 1 + outer_h.max(new_nh);
        op.add(&c.bal.parent, n_word, p_word);
        op.add(H::child(n), c_word, inner_word);
        op.add(H::Other::child(c), inner_word, n_word);
        op.add(&n.bal.parent, p_word, c_word);
        op.add(&p.ver, p_ver, p_ver + 2);
        op.add(&n.ver, n_ver, with_height(n_ver, new_nh) + 2);
        op.add(&c.ver, c_ver, with_height(c_ver, new_ch) + 2);
        op.vexec()
    }

    /// Algorithm 9 (`H` = left: `rotateLeftRight`) and its mirror: double
    /// rotation — `s.c` leans towards `s.n`'s light side, so its inner child
    /// `g` becomes the root of the subtree, handing its `H`-side subtree to
    /// `s.c` and its other one to `s.n`.  `false` means retry.
    fn rotate_double<'g, H: Side>(
        op: &mut PathCasOp<'g>,
        guard: &'g Guard,
        s: &Spine<'g>,
        g: &'g Node,
        g_ver: u64,
        light_h: u64,
        outer_h: u64,
    ) -> bool {
        let &Spine { p, p_ver, n, n_ver, c, c_ver } = s;
        let n_word = ptr_to_word(n as *const Node);
        let p_word = ptr_to_word(p as *const Node);
        let c_word = ptr_to_word(c as *const Node);
        let g_word = ptr_to_word(g as *const Node);
        if Self::add_child_swap(op, p, n_word, g_word).is_none() {
            return false;
        }
        let to_c_word = op.read(H::child(g));
        let Some(to_c_h) = Self::move_subtree(op, guard, to_c_word, g_word, c_word) else {
            return false;
        };
        let to_n_word = op.read(H::Other::child(g));
        let Some(to_n_h) = Self::move_subtree(op, guard, to_n_word, g_word, n_word) else {
            return false;
        };
        let new_nh = 1 + to_n_h.max(light_h);
        let new_ch = 1 + outer_h.max(to_c_h);
        let new_gh = 1 + new_nh.max(new_ch);
        op.add(&g.bal.parent, c_word, p_word);
        op.add(H::child(g), to_c_word, c_word);
        op.add(&c.bal.parent, n_word, g_word);
        op.add(H::Other::child(g), to_n_word, n_word);
        op.add(&n.bal.parent, p_word, g_word);
        op.add(H::Other::child(c), g_word, to_c_word);
        op.add(H::child(n), c_word, to_n_word);
        op.add(&g.ver, g_ver, with_height(g_ver, new_gh) + 2);
        op.add(&p.ver, p_ver, p_ver + 2);
        op.add(&n.ver, n_ver, with_height(n_ver, new_nh) + 2);
        op.add(&c.ver, c_ver, with_height(c_ver, new_ch) + 2);
        op.vexec()
    }
}

/// The assertions that only hold for a balanced tree; everything the two
/// policies share is checked on both by the battery in `crate::tree`.
#[cfg(test)]
mod tests {
    use super::*;
    use mapapi::ConcurrentMap;
    use std::collections::{BTreeMap, HashMap, VecDeque};

    #[test]
    fn sequential_inserts_are_rebalanced() {
        // Ascending insertion into an unbalanced internal BST produces a path
        // of length n; the relaxed AVL tree must keep the actual height
        // logarithmic (with slack for relaxation).
        let t = PathCasAvl::new();
        let n: u64 = 1024;
        for k in 1..=n {
            assert!(t.insert(k, k));
        }
        t.check_invariants();
        let h = t.actual_height();
        assert!(h <= 30, "AVL height {h} too large for {n} sequential keys");
        assert!(t.rotation_count() > 0, "no rotations were performed");
        let s = t.stats();
        assert_eq!(s.key_count, n);
        assert!(s.avg_key_depth() <= 20.0, "avg depth {} too large", s.avg_key_depth());
    }

    #[test]
    fn descending_inserts_are_rebalanced() {
        let t = PathCasAvl::new();
        let n: u64 = 1024;
        for k in (1..=n).rev() {
            assert!(t.insert(k, k));
        }
        t.check_invariants();
        assert!(t.actual_height() <= 30);
    }

    #[test]
    fn scan_survives_concurrent_rebalancing() {
        // Ascending inserts trigger constant rotations through the scanned
        // range; every scan must still be a consistent prefix of the keys
        // inserted so far (values equal keys, strictly ascending).
        let t = PathCasAvl::new();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut k = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    t.insert(k, k);
                    k += 1;
                }
            });
            for _ in 0..200 {
                let got = t.scan(1, 32);
                for (i, &(k, v)) in got.iter().enumerate() {
                    assert_eq!(k, 1 + i as u64, "scan not a dense ascending prefix: {got:?}");
                    assert_eq!(v, k);
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
        t.check_invariants();
    }

    #[test]
    fn rmw_updates_in_place_and_rebalances_on_insert() {
        let t = PathCasAvl::new();
        // Build entirely through rmw: the absent branch must rebalance.
        for k in 1..=256u64 {
            assert!(!t.rmw(k, &mut |v| v.unwrap_or(k * 2)));
        }
        assert!(t.actual_height() <= 20, "rmw inserts not rebalanced: {}", t.actual_height());
        assert!(t.rmw(17, &mut |v| v.unwrap() + 1));
        assert_eq!(t.get(17), Some(35));
        t.check_invariants();
    }

    #[test]
    fn concurrent_ascending_inserts_stay_balanced() {
        let t = PathCasAvl::new();
        let threads = 4u64;
        let per = 500u64;
        std::thread::scope(|s| {
            for id in 0..threads {
                let t = &t;
                s.spawn(move || {
                    for i in 0..per {
                        t.insert(1 + i * threads + id, i);
                    }
                });
            }
        });
        t.check_invariants();
        assert_eq!(t.stats().key_count, per * threads);
        assert!(t.actual_height() <= 60, "height {} after concurrent inserts", t.actual_height());
    }

    /// Quiescent shape of a tree: key → (logical height, left child's key,
    /// right child's key), 0 standing for "no child" (0 is never a key).
    type Shape = BTreeMap<u64, (u64, u64, u64)>;

    fn shape(t: &PathCasAvl) -> Shape {
        let mut key_of = HashMap::from([(NIL, 0)]);
        t.for_each_node(|_, key, at| {
            key_of.insert(at.word, key);
        });
        let mut shape = BTreeMap::new();
        t.for_each_node(|node, key, _| {
            let height = height(node.ver.load_quiescent());
            let (left, right) = (node.left.load_quiescent(), node.right.load_quiescent());
            shape.insert(key, (height, key_of[&left], key_of[&right]));
        });
        shape
    }

    /// Every rebalancing walk runs to completion before its update returns,
    /// so at quiescence the relaxed tree is a strict AVL tree: every logical
    /// height is exact and every balance factor is in -1..=1.
    fn assert_strictly_balanced(t: &PathCasAvl) {
        t.check_invariants();
        let shape = shape(t);
        let height_of = |key: u64| if key == 0 { 0 } else { shape[&key].0 };
        for (&key, &(height, left, right)) in &shape {
            let (lh, rh) = (height_of(left), height_of(right));
            assert_eq!(height, 1 + lh.max(rh), "logical height of {key} over heights {lh} and {rh}");
            assert!(lh.abs_diff(rh) <= 1, "{key} is unbalanced: child heights {lh} and {rh}");
        }
    }

    /// `shape` seen in a mirror: key `k` becomes `n + 1 - k` and every
    /// node's children change sides.
    fn mirrored(shape: &Shape, n: u64) -> Shape {
        let flip = |key: u64| if key == 0 { 0 } else { n + 1 - key };
        shape.iter().map(|(&key, &(height, left, right))| (flip(key), (height, flip(right), flip(left)))).collect()
    }

    fn lcg(x: &mut u64) -> u64 {
        *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *x >> 33
    }

    /// When to check the whole tree: after each of the first operations,
    /// while it is small, then now and then.  (A rotation that names a wrong
    /// word can never commit; its walk runs out of steps, which fails at once
    /// in a debug build.)
    fn check_due(i: u64) -> bool {
        i <= 256 || i.is_multiple_of(256)
    }

    #[test]
    fn single_threaded_churn_keeps_every_height_exact_and_every_node_balanced() {
        let t = PathCasAvl::new();
        let mut x = 0x5EED;
        for i in 1..=20_000u64 {
            let key = 1 + lcg(&mut x) % 2_000;
            if lcg(&mut x).is_multiple_of(2) {
                t.insert(key, key);
            } else {
                t.remove(key);
            }
            if check_due(i) {
                assert_strictly_balanced(&t);
            }
        }
        assert_strictly_balanced(&t);
        assert!(t.rotation_count() > 1_000, "only {} rotations", t.rotation_count());
    }

    #[test]
    fn concurrent_churn_leaves_a_strict_avl_at_quiescence() {
        // Updates that settle a height in their own commit race each other
        // and the walks; whatever interleaving each round took, once its
        // threads have joined the tree must be exact again.
        const THREADS: u64 = 4;
        let t = PathCasAvl::new();
        for round in 0..8u64 {
            std::thread::scope(|s| {
                for id in 0..THREADS {
                    let t = &t;
                    s.spawn(move || {
                        let mut x = round * THREADS + id;
                        for _ in 0..10_000 {
                            let key = 1 + lcg(&mut x) % 256;
                            if lcg(&mut x).is_multiple_of(2) {
                                t.insert(key, key);
                            } else {
                                t.remove(key);
                            }
                        }
                    });
                }
            });
            assert_strictly_balanced(&t);
        }
    }

    #[test]
    fn the_height_rides_in_the_version_word_beside_the_counter_and_the_mark() {
        let below_height = (1 << HEIGHT_SHIFT) - 1;
        // Height 3, counter 1 234, unmarked.
        let ver = with_height(2 * 1_234, 3);
        for seen in [ver, ver + 1] {
            let rewritten = with_height(seen, 17);
            assert_eq!(height(rewritten), 17);
            assert_eq!(rewritten & below_height, seen & below_height, "a height write moved the counter or the mark");
        }
        assert_eq!(height(ver + 2), 3, "a version bump moved the height");
        assert_eq!((ver + 2) & below_height, 2 * 1_235);
        assert_eq!(height(ver + 1), 3, "marking moved the height");
        assert_eq!((ver + 1) & 1, 1);
        for h in [0, 1, 2, 40, MAX_HEIGHT] {
            assert_eq!(height(Avl::first_ver(h)), h);
        }
        assert_eq!(Avl::first_ver(0), 0, "a sentinel's version");
        assert_eq!(MAX_HEIGHT, 127);
        let top = with_height(below_height, MAX_HEIGHT);
        assert_eq!(height(top), MAX_HEIGHT);
        assert!(top <= kcas::MAX_VALUE, "the top height overflows the CasWord payload");
    }

    #[test]
    fn settling_starts_a_walk_only_where_a_height_changed_or_a_balance_broke() {
        let t = PathCasAvl::new();
        // 4 over 2 and 6; 2 over 1.
        for key in [4, 2, 6, 1] {
            assert!(t.insert(key, key));
        }
        let mut word_of = HashMap::new();
        t.for_each_node(|_, key, at| {
            word_of.insert(key, at.word);
        });
        // SAFETY: the tree is quiescent and every word is one of its nodes.
        let node = |key: u64| unsafe { &*(word_of[&key] as usize as *const Node) };
        let leaf = Avl::first_ver(1);
        let guard = crossbeam_epoch::pin();
        crate::node::with_builder(|b| {
            let mut op = b.start(&guard);
            let (two, six) = (node(2), node(6));
            let (two_ver, six_ver) = (op.visit(&two.ver), op.visit(&six.ver));
            // A leaf beside 1 under 2: 2 stays at height 2, no walk.
            assert_eq!(Avl::settle(&t, &mut op, two, two_ver, leaf, &two.left), (two_ver + 2, NIL));
            // A leaf under the leaf 6: 6 grows to height 2, the walk starts at 4.
            let grown = (with_height(six_ver, 2) + 2, word_of[&4]);
            assert_eq!(Avl::settle(&t, &mut op, six, six_ver, leaf, &six.left), grown);
            // A subtree of height 3 under 6 beside nothing breaks its
            // balance: the walk starts at 6 itself.
            let broken = (six_ver + 2, word_of[&6]);
            assert_eq!(Avl::settle(&t, &mut op, six, six_ver, Avl::first_ver(3), &six.left), broken);
        });
    }

    #[test]
    fn mirrored_insert_sequences_build_mirror_image_trees() {
        // Insert-only on purpose: a two-child removal promotes the successor,
        // never the predecessor, so removals are not symmetric.
        const N: u64 = 2_000;
        let (t, mirror) = (PathCasAvl::new(), PathCasAvl::new());
        let (mut x, mut present, mut i) = (0xA71, 0, 0);
        while present < N {
            let key = 1 + lcg(&mut x) % N;
            let fresh = t.insert(key, key);
            assert_eq!(mirror.insert(N + 1 - key, key), fresh);
            present += u64::from(fresh);
            i += 1;
            if check_due(i) || present == N {
                assert_strictly_balanced(&t);
                assert_strictly_balanced(&mirror);
            }
        }
        let mirror = shape(&mirror);
        for (key, node) in mirrored(&shape(&t), N) {
            assert_eq!(mirror[&key], node, "node {key} of the mirror against node {} of the tree", N + 1 - key);
        }
    }

    /// A tree holding the keys of `want`, rewired by hand into that shape
    /// with `root` on top; returns it and `root`'s word.  Logical heights are
    /// stored as given — a leaf may claim any height — which is how a single
    /// rebalancing step can be shown subtrees of every height without
    /// building them.
    fn hand_built(root: u64, want: &Shape) -> (PathCasAvl, u64) {
        let t = PathCasAvl::new();
        // Insert in level order of the balanced tree over these keys: no
        // prefix of it needs a rotation, so building runs none of the code
        // under test.
        let keys: Vec<u64> = want.keys().copied().collect();
        let mut ranges = VecDeque::from([(0, keys.len())]);
        while let Some((lo, hi)) = ranges.pop_front() {
            if lo < hi {
                let mid = (lo + hi) / 2;
                t.insert(keys[mid], keys[mid]);
                ranges.extend([(lo, mid), (mid + 1, hi)]);
            }
        }
        assert_eq!(t.rotation_count(), 0);
        let (mut word_of, mut sentinel) = (HashMap::from([(0, NIL)]), NIL);
        t.for_each_node(|node, key, at| {
            word_of.insert(key, at.word);
            if at.depth == 0 {
                sentinel = node.bal.parent.load_quiescent();
            }
        });
        // SAFETY: the tree is quiescent and every word is one of its nodes.
        let node = |word: u64| unsafe { &*(word as usize as *const Node) };
        for (&key, &(height, left, right)) in want {
            let n = node(word_of[&key]);
            n.left.store(word_of[&left]);
            n.right.store(word_of[&right]);
            n.ver.store(with_height(n.ver.load_quiescent(), height));
            for child in [left, right].into_iter().filter(|&child| child != 0) {
                node(word_of[&child]).bal.parent.store(word_of[&key]);
            }
        }
        node(word_of[&root]).bal.parent.store(sentinel);
        node(sentinel).right.store(word_of[&root]);
        (t, word_of[&root])
    }

    /// One step at the root `n` of the hand-built `before` must be a rotation
    /// that leaves exactly `after` — the heights it wrote included, before
    /// any re-examination could repair them — and likewise in the mirror.
    fn assert_one_step_rotates(n: u64, before: &Shape, after: &Shape) {
        const K: u64 = 7;
        for (n, before, after) in
            [(n, before.clone(), after.clone()), (K + 1 - n, mirrored(before, K), mirrored(after, K))]
        {
            let (t, n_word) = hand_built(n, &before);
            let guard = crossbeam_epoch::pin();
            let step = crate::node::with_builder(|b| PathCasAvl::rebalance_step(n_word, b, &guard));
            assert!(matches!(step, Step::Rotated { .. }), "no rotation at {n} in {before:?}");
            t.check_invariants();
            assert_eq!(shape(&t), after, "after one step at {n} in {before:?}");
        }
    }

    #[test]
    fn one_step_rotates_a_hand_built_violation_into_the_exact_shape_and_heights() {
        // A subtree that is a single node claiming `height`, or nothing.
        fn subtree(leaves: &mut Shape, key: u64, height: u64) -> u64 {
            if height == 0 {
                return 0;
            }
            leaves.insert(key, (height, 0, 0));
            key
        }
        let with = |leaves: &Shape, spine: &[(u64, (u64, u64, u64))]| -> Shape {
            leaves.iter().map(|(&key, &node)| (key, node)).chain(spine.iter().copied()).collect()
        };
        let (mut singles, mut doubles) = (0, 0);
        // Every combination of four subtree heights 0..=3 around the spine.
        for code in 0..256u64 {
            let [a, b, d, e] = [code & 3, code >> 2 & 3, code >> 4 & 3, code >> 6];

            // outer 1 (a) < c 2 < inner 3 (b) < n 4 < light 5 (e): `c` does
            // not lean inwards, so `n` rotates once and `c` comes up.
            let c_h = 1 + a.max(b);
            if a >= b && c_h >= e + 2 {
                let mut leaves = Shape::new();
                let outer = subtree(&mut leaves, 1, a);
                let inner = subtree(&mut leaves, 3, b);
                let light = subtree(&mut leaves, 5, e);
                let n_h = 1 + b.max(e);
                let before = with(&leaves, &[(2, (c_h, outer, inner)), (4, (1 + c_h, 2, light))]);
                let after = with(&leaves, &[(2, (1 + a.max(n_h), outer, 4)), (4, (n_h, inner, light))]);
                assert_one_step_rotates(4, &before, &after);
                singles += 1;
            }

            // outer 1 (a) < c 2 < to_c 3 (b) < g 4 < to_n 5 (d) < n 6 <
            // light 7 (e): `c` leans inwards, so `g` comes up between them.
            let g_h = 1 + b.max(d);
            if g_h > a && 1 + g_h >= e + 2 {
                let mut leaves = Shape::new();
                let outer = subtree(&mut leaves, 1, a);
                let to_c = subtree(&mut leaves, 3, b);
                let to_n = subtree(&mut leaves, 5, d);
                let light = subtree(&mut leaves, 7, e);
                let (c_h, n_h) = (1 + a.max(b), 1 + d.max(e));
                let before =
                    with(&leaves, &[(2, (1 + g_h, outer, 4)), (4, (g_h, to_c, to_n)), (6, (2 + g_h, 2, light))]);
                let after =
                    with(&leaves, &[(2, (c_h, outer, to_c)), (4, (1 + c_h.max(n_h), 2, 6)), (6, (n_h, to_n, light))]);
                assert_one_step_rotates(6, &before, &after);
                doubles += 1;
            }
        }
        assert!(singles >= 30 && doubles >= 100, "{singles} single and {doubles} double rotations tried");
    }
}
