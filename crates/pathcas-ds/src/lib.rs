//! # pathcas-ds — data structures built on the PathCAS primitive
//!
//! This crate contains the data structures described in the paper:
//!
//! * [`PathCasTree`] — the lock-free *internal* binary search tree of §4,
//!   one implementation under two balance policies, as the paper builds its
//!   AVL tree by extending its BST:
//!   [`PathCasBst`] (`int-bst-pathcas`, policy [`tree::Unbalanced`]) is the
//!   unbalanced tree of Algorithms 3–6, and [`PathCasAvl`]
//!   (`int-avl-pathcas`, policy [`avl::Avl`]) the relaxed AVL tree of §4.2 /
//!   Appendix D, which adds parent pointers, logical heights and Bougé-style
//!   local rebalancing steps (Algorithms 8–11) — [`avl`] holds exactly that
//!   addition;
//! * a sorted [`list::PathCasList`], one of the additional structures the
//!   conclusion (§6) lists as straightforward applications of the same
//!   recipe.  The hash table §6 builds from such lists is not a type here:
//!   the harness registers it as `shard256(list-pathcas)`, a
//!   `shard::ShardedMap` over 256 lists.
//!
//! All of them follow the same construction: *visit* every node read during
//! the traversal, *add* the words to be modified (always including a version
//! bump of every modified node, with the mark bit set for removed nodes), and
//! commit with `vexec`.  Their nodes are slots of
//! [`crossbeam_epoch::slab`], allocated with `alloc` and retired through the
//! epoch collector they are read under.

#![warn(missing_docs)]

pub mod avl;
pub mod list;
pub mod node;
pub mod tree;

pub use avl::PathCasAvl;
pub use list::PathCasList;
pub use tree::{PathCasBst, PathCasTree};
