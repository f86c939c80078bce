//! Transactional internal BST / AVL trees: *sequential* tree code in which
//! every shared field access goes through a TM runtime.  Instantiated with
//! [`crate::Norec`], [`crate::Tl2`] or [`crate::Tle`] these are the paper's
//! `int-bst-norec`, `int-avl-norec`, `int-avl-tl2` and `tle` baselines.

use std::ptr::NonNull;

use crossbeam_epoch::slab;
use mapapi::{ConcurrentMap, Key, MapStats, Value};

use crate::{Abort, Stm, Transaction, TxWord};

const NIL: u64 = 0;

struct Node {
    key: TxWord,
    val: TxWord,
    left: TxWord,
    right: TxWord,
    height: TxWord,
}

impl Node {
    fn alloc(key: u64, val: u64) -> NonNull<Node> {
        slab::alloc(Node {
            key: TxWord::new(key),
            val: TxWord::new(val),
            left: TxWord::new(NIL),
            right: TxWord::new(NIL),
            height: TxWord::new(1),
        })
    }
}

#[inline]
fn node(word: u64) -> &'static Node {
    debug_assert_ne!(word, NIL);
    // SAFETY: nodes are only freed through epoch reclamation after being
    // unlinked, and every operation holds an epoch guard; the 'static
    // lifetime is never allowed to escape an operation.
    unsafe { &*(word as usize as *const Node) }
}

/// A sequential internal search tree executed under a TM runtime.
pub struct TxTree<S: Stm> {
    stm: S,
    root: TxWord,
    balanced: bool,
}

// SAFETY: nodes are slab slots reachable only via TxWords; all
// shared access runs inside STM transactions under an epoch guard, so the
// tree may move between threads.
unsafe impl<S: Stm> Send for TxTree<S> {}
// SAFETY: see `Send` above — mutation is transactional and reclamation is
// epoch-deferred, so `&TxTree` is safe to share.
unsafe impl<S: Stm> Sync for TxTree<S> {}

/// An unbalanced transactional internal BST (e.g. `int-bst-norec`).
pub struct TxBst<S: Stm>(TxTree<S>);
/// A transactional internal AVL tree (e.g. `int-avl-norec`, `int-avl-tl2`).
pub struct TxAvl<S: Stm>(TxTree<S>);

impl<S: Stm> TxBst<S> {
    /// Create an empty unbalanced transactional BST over the given runtime.
    pub fn new(stm: S) -> Self {
        TxBst(TxTree { stm, root: TxWord::new(NIL), balanced: false })
    }
}

impl<S: Stm> TxAvl<S> {
    /// Create an empty transactional AVL tree over the given runtime.
    pub fn new(stm: S) -> Self {
        TxAvl(TxTree { stm, root: TxWord::new(NIL), balanced: true })
    }
    /// Actual height of the tree (quiescent).
    pub fn actual_height(&self) -> u64 {
        self.0.actual_height()
    }
}

impl<S: Stm> TxTree<S> {
    fn insert(&self, key: u64, val: u64) -> bool {
        let new_node = Node::alloc(key, val);
        let new_word = new_node.as_ptr() as usize as u64;
        let guard = crossbeam_epoch::pin();
        let inserted = self.stm.atomically(&mut |tx| {
            let mut path: Vec<u64> = Vec::new();
            let root = tx.read(&self.root)?;
            if root == NIL {
                tx.write(&self.root, new_word)?;
                return Ok(true);
            }
            let mut curr = root;
            loop {
                let n = node(curr);
                path.push(curr);
                let k = tx.read(&n.key)?;
                if k == key {
                    return Ok(false);
                }
                let child_word = if key < k { &n.left } else { &n.right };
                let child = tx.read(child_word)?;
                if child == NIL {
                    tx.write(child_word, new_word)?;
                    break;
                }
                curr = child;
            }
            if self.balanced {
                self.rebalance_path(tx, &path)?;
            }
            Ok(true)
        });
        if !inserted {
            // Never published by a committed transaction.
            // SAFETY: no transaction committed a pointer to `new_word`, so
            // this thread still solely owns its slot.
            unsafe { slab::free(new_node) };
        }
        drop(guard);
        inserted
    }

    fn remove(&self, key: u64) -> bool {
        let guard = crossbeam_epoch::pin();
        let removed: Option<u64> = self.stm.atomically(&mut |tx| {
            let mut path: Vec<u64> = Vec::new();
            let mut curr = tx.read(&self.root)?;
            // Locate the node containing `key`.
            while curr != NIL {
                let n = node(curr);
                let k = tx.read(&n.key)?;
                if k == key {
                    break;
                }
                path.push(curr);
                curr = if key < k { tx.read(&n.left)? } else { tx.read(&n.right)? };
            }
            if curr == NIL {
                return Ok(None);
            }
            let target = node(curr);
            let left = tx.read(&target.left)?;
            let right = tx.read(&target.right)?;
            let removed_word;
            if left != NIL && right != NIL {
                // Two children: copy the successor's key/value into `curr`,
                // then splice the successor out.
                path.push(curr);
                let mut succ_parent = curr;
                let mut succ = right;
                loop {
                    let s = node(succ);
                    let l = tx.read(&s.left)?;
                    if l == NIL {
                        break;
                    }
                    path.push(succ);
                    succ_parent = succ;
                    succ = l;
                }
                let s = node(succ);
                let s_key = tx.read(&s.key)?;
                let s_val = tx.read(&s.val)?;
                tx.write(&target.key, s_key)?;
                tx.write(&target.val, s_val)?;
                let s_right = tx.read(&s.right)?;
                let sp = node(succ_parent);
                if tx.read(&sp.left)? == succ {
                    tx.write(&sp.left, s_right)?;
                } else {
                    tx.write(&sp.right, s_right)?;
                }
                removed_word = succ;
            } else {
                // Leaf or one child: splice `curr` out of its parent (or the
                // root).
                let child = if left != NIL { left } else { right };
                match path.last() {
                    None => tx.write(&self.root, child)?,
                    Some(&p) => {
                        let pn = node(p);
                        if tx.read(&pn.left)? == curr {
                            tx.write(&pn.left, child)?;
                        } else {
                            tx.write(&pn.right, child)?;
                        }
                    }
                }
                removed_word = curr;
            }
            if self.balanced {
                self.rebalance_path(tx, &path)?;
            }
            Ok(Some(removed_word))
        });
        match removed {
            Some(word) => {
                // SAFETY: the committed transaction unlinked `word`, so only
                // this thread retires it; the slot is freed after every
                // pinned reader's epoch has expired.
                unsafe { slab::retire(NonNull::from(node(word)), &guard) };
                true
            }
            None => false,
        }
    }

    fn get(&self, key: u64) -> Option<u64> {
        let _guard = crossbeam_epoch::pin();
        self.stm.atomically(&mut |tx| {
            let mut curr = tx.read(&self.root)?;
            while curr != NIL {
                let n = node(curr);
                let k = tx.read(&n.key)?;
                if k == key {
                    return Ok(Some(tx.read(&n.val)?));
                }
                curr = if key < k { tx.read(&n.left)? } else { tx.read(&n.right)? };
            }
            Ok(None)
        })
    }

    /// Transactional in-order range scan: the traversal runs inside one
    /// transaction, so the committed result is a serializable snapshot —
    /// every returned pair was simultaneously present.  The read set grows
    /// with the traversed subrange, which is exactly the unbounded-read-set
    /// cost of TM that PathCAS's bounded path validation avoids (§3.8).
    fn scan_into(&self, start: u64, len: usize, out: &mut Vec<(u64, u64)>) {
        if len == 0 {
            return;
        }
        let _guard = crossbeam_epoch::pin();
        let base = out.len();
        self.stm.atomically(&mut |tx| {
            // An aborted attempt's pairs go; the caller's prefix stays.
            out.truncate(base);
            // In-order traversal with subtree pruning below `start`.
            let mut stack: Vec<(u64, u64)> = Vec::new(); // (node word, key)
            let mut curr = tx.read(&self.root)?;
            loop {
                while curr != NIL {
                    let n = node(curr);
                    let k = tx.read(&n.key)?;
                    if k >= start {
                        stack.push((curr, k));
                        curr = tx.read(&n.left)?;
                    } else {
                        curr = tx.read(&n.right)?;
                    }
                }
                match stack.pop() {
                    None => break,
                    Some((word, k)) => {
                        let n = node(word);
                        out.push((k, tx.read(&n.val)?));
                        if out.len() - base == len {
                            break;
                        }
                        curr = tx.read(&n.right)?;
                    }
                }
            }
            Ok(())
        })
    }

    // --- AVL rebalancing, executed inside the enclosing transaction -------

    fn height(&self, tx: &mut dyn Transaction, word: u64) -> Result<u64, Abort> {
        if word == NIL {
            Ok(0)
        } else {
            tx.read(&node(word).height)
        }
    }

    /// Fix the height / balance of a single node; returns the new root of the
    /// subtree (different from `word` if a rotation was performed).
    fn fix_node(&self, tx: &mut dyn Transaction, word: u64) -> Result<u64, Abort> {
        let n = node(word);
        let l = tx.read(&n.left)?;
        let r = tx.read(&n.right)?;
        let lh = self.height(tx, l)?;
        let rh = self.height(tx, r)?;
        let bf = lh as i64 - rh as i64;
        if bf > 1 {
            let ln = node(l);
            let ll = tx.read(&ln.left)?;
            let lr = tx.read(&ln.right)?;
            if self.height(tx, ll)? >= self.height(tx, lr)? {
                self.rotate_right(tx, word)
            } else {
                let new_l = self.rotate_left(tx, l)?;
                tx.write(&n.left, new_l)?;
                self.rotate_right(tx, word)
            }
        } else if bf < -1 {
            let rn = node(r);
            let rl = tx.read(&rn.left)?;
            let rr = tx.read(&rn.right)?;
            if self.height(tx, rr)? >= self.height(tx, rl)? {
                self.rotate_left(tx, word)
            } else {
                let new_r = self.rotate_right(tx, r)?;
                tx.write(&n.right, new_r)?;
                self.rotate_left(tx, word)
            }
        } else {
            tx.write(&n.height, 1 + lh.max(rh))?;
            Ok(word)
        }
    }

    fn rotate_right(&self, tx: &mut dyn Transaction, word: u64) -> Result<u64, Abort> {
        let n = node(word);
        let l = tx.read(&n.left)?;
        let ln = node(l);
        let lr = tx.read(&ln.right)?;
        tx.write(&n.left, lr)?;
        tx.write(&ln.right, word)?;
        let n_left = tx.read(&n.left)?;
        let n_right = tx.read(&n.right)?;
        let nh = 1 + self.height(tx, n_left)?.max(self.height(tx, n_right)?);
        tx.write(&n.height, nh)?;
        let l_left = tx.read(&ln.left)?;
        let lh = 1 + self.height(tx, l_left)?.max(nh);
        tx.write(&ln.height, lh)?;
        Ok(l)
    }

    fn rotate_left(&self, tx: &mut dyn Transaction, word: u64) -> Result<u64, Abort> {
        let n = node(word);
        let r = tx.read(&n.right)?;
        let rn = node(r);
        let rl = tx.read(&rn.left)?;
        tx.write(&n.right, rl)?;
        tx.write(&rn.left, word)?;
        let n_left = tx.read(&n.left)?;
        let n_right = tx.read(&n.right)?;
        let nh = 1 + self.height(tx, n_left)?.max(self.height(tx, n_right)?);
        tx.write(&n.height, nh)?;
        let r_right = tx.read(&rn.right)?;
        let rh = 1 + nh.max(self.height(tx, r_right)?);
        tx.write(&rn.height, rh)?;
        Ok(r)
    }

    /// Walk the recorded search path bottom-up, fixing heights and rotating
    /// where necessary (classic sequential AVL repair, inside the
    /// transaction).
    fn rebalance_path(&self, tx: &mut dyn Transaction, path: &[u64]) -> Result<(), Abort> {
        for i in (0..path.len()).rev() {
            let word = path[i];
            // Skip nodes that were spliced out of the tree by this very
            // transaction (possible for the last path entry of a delete).
            let reachable = if i == 0 {
                tx.read(&self.root)? == word
            } else {
                let p = node(path[i - 1]);
                tx.read(&p.left)? == word || tx.read(&p.right)? == word
            };
            if !reachable {
                continue;
            }
            let new_root = self.fix_node(tx, word)?;
            if new_root != word {
                if i == 0 {
                    tx.write(&self.root, new_root)?;
                } else {
                    let p = node(path[i - 1]);
                    if tx.read(&p.left)? == word {
                        tx.write(&p.left, new_root)?;
                    } else {
                        tx.write(&p.right, new_root)?;
                    }
                }
            }
        }
        Ok(())
    }

    // --- quiescent inspection ---------------------------------------------

    /// Quiescent pre-order walk over every node, with its word and its depth
    /// below the root (no transaction may be running).  The work list is
    /// explicit: the unbalanced tree's degenerate shapes are as deep as they
    /// are large and must not be walked on the call stack.
    fn for_each_node(&self, mut f: impl FnMut(u64, &Node, u64)) {
        let mut work = vec![(self.root.load_quiescent(), 0)];
        while let Some((word, depth)) = work.pop() {
            if word == NIL {
                continue;
            }
            let n = node(word);
            f(word, n, depth);
            work.push((n.left.load_quiescent(), depth + 1));
            work.push((n.right.load_quiescent(), depth + 1));
        }
    }

    fn stats(&self) -> MapStats {
        let mut stats = MapStats::default();
        self.for_each_node(|_, n, depth| {
            stats.node_count += 1;
            stats.key_count += 1;
            stats.key_sum += n.key.load_quiescent() as u128;
            stats.key_depth_sum += depth;
            stats.approx_bytes += slab::SLOT_BYTES as u64;
        });
        stats
    }

    fn actual_height(&self) -> u64 {
        let mut height = 0;
        self.for_each_node(|_, _, depth| height = height.max(depth + 1));
        height
    }
}

impl<S: Stm> Drop for TxTree<S> {
    fn drop(&mut self) {
        let mut words = Vec::new();
        self.for_each_node(|word, _, _| words.push(word));
        // SAFETY: `&mut self` (Drop) proves exclusive access; every word is
        // a live node the tree allocated from the slab, reached once.
        unsafe { slab::free_all(&mut words) };
    }
}

macro_rules! impl_map {
    ($ty:ident, $bst_prefix:expr) => {
        impl<S: Stm> ConcurrentMap for $ty<S> {
            fn name(&self) -> &'static str {
                match (self.0.balanced, self.0.stm.name()) {
                    (false, "norec") => "int-bst-norec",
                    (false, "tl2") => "int-bst-tl2",
                    (false, "tle") => "int-bst-tle",
                    (true, "norec") => "int-avl-norec",
                    (true, "tl2") => "int-avl-tl2",
                    (true, "tle") => "int-avl-tle",
                    (false, _) => "int-bst-stm",
                    (true, _) => "int-avl-stm",
                }
            }
            fn insert(&self, key: Key, value: Value) -> bool {
                self.0.insert(key, value)
            }
            fn remove(&self, key: Key) -> bool {
                self.0.remove(key)
            }
            fn get(&self, key: Key) -> Option<Value> {
                self.0.get(key)
            }
            fn scan_into(&self, start: Key, len: usize, out: &mut Vec<(Key, Value)>) {
                self.0.scan_into(start, len, out)
            }
            fn stats(&self) -> MapStats {
                self.0.stats()
            }
        }
    };
}

impl_map!(TxBst, "int-bst");
impl_map!(TxAvl, "int-avl");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Norec, Tl2, Tle};

    #[test]
    fn names_are_distinct() {
        assert_eq!(TxBst::new(Norec::new()).name(), "int-bst-norec");
        assert_eq!(TxAvl::new(Norec::new()).name(), "int-avl-norec");
        assert_eq!(TxAvl::new(Tl2::new()).name(), "int-avl-tl2");
        assert_eq!(TxAvl::new(Tle::new()).name(), "int-avl-tle");
    }

    /// `TxBst<Tle>` is no registry name, so the battery in
    /// `tests/cross_structure.rs` does not reach it; `int-avl-tle` carries the
    /// rest of the TLE runtime's cases.
    #[test]
    fn bst_tle_stripes() {
        let t = TxBst::new(Tle::new());
        mapapi::stress::stress_disjoint_stripes(&t, 4, 200);
    }

    #[test]
    fn ascending_inserts_keep_the_avl_balanced() {
        let t = TxAvl::new(Norec::new());
        for k in 1..=1024u64 {
            t.insert(k, k);
        }
        assert!(t.actual_height() <= 14, "height {}", t.actual_height());
    }

    #[test]
    fn quiescent_walks_survive_degenerate_shapes_on_a_small_stack() {
        // Ascending keys make the unbalanced tree a right spine, descending
        // keys a left spine, each as deep as it is large.
        fn check(keys: impl Iterator<Item = u64>) {
            let t = TxBst::new(Norec::new());
            let mut n = 0;
            for k in keys {
                assert!(t.insert(k, k));
                n += 1;
            }
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
