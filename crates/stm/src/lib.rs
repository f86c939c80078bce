//! # stm — transactional-memory baselines
//!
//! The PathCAS paper compares its trees against trees derived from sequential
//! code through transactional memory.  This crate provides the software TM
//! runtimes used in those comparisons and the transactional trees themselves:
//!
//! * [`norec::Norec`] — NOrec (Dalessandro et al., PPoPP 2010): a single
//!   global sequence lock with value-based validation of the read set,
//! * [`tl2::Tl2`] — a TL2-style STM (Dice, Shalev, Shavit, DISC 2006): a
//!   global version clock plus a striped table of versioned write locks,
//! * [`tle::Tle`] — transactional lock elision degraded to its fallback (a
//!   single global lock), because no HTM is available in this environment
//!   (see DESIGN.md §4),
//! * [`tree::TxBst`] / [`tree::TxAvl`] — a *sequential* internal BST / AVL
//!   tree whose every shared field access goes through the TM, generic over
//!   the runtime (`int-bst-norec`, `int-avl-norec`, `int-avl-tl2`, `tle`).

#![warn(missing_docs)]

pub mod norec;
pub mod tl2;
pub mod tle;
pub mod tree;

pub use norec::Norec;
pub use tl2::Tl2;
pub use tle::Tle;
pub use tree::{TxAvl, TxBst};

use std::sync::atomic::{AtomicU64, Ordering};

/// A shared 64-bit word managed by a TM runtime.  All fields of
/// transactional data structures are `TxWord`s.
#[repr(transparent)]
#[derive(Debug, Default)]
pub struct TxWord(AtomicU64);

impl TxWord {
    /// Create a word with an initial value (outside any transaction).
    pub fn new(v: u64) -> Self {
        TxWord(AtomicU64::new(v))
    }

    /// Non-transactional read, for quiescent inspection only.
    pub fn load_quiescent(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    #[inline]
    pub(crate) fn raw_load(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    #[inline]
    pub(crate) fn raw_store(&self, v: u64) {
        self.0.store(v, Ordering::SeqCst)
    }
}

/// Returned by transactional reads/writes when the transaction must abort and
/// be retried by the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abort;

/// The interface a running transaction exposes to the data structure code.
pub trait Transaction {
    /// Transactionally read a word.
    fn read(&mut self, word: &TxWord) -> Result<u64, Abort>;
    /// Transactionally write a word (buffered until commit for the STMs).
    fn write(&mut self, word: &TxWord, value: u64) -> Result<(), Abort>;
}

/// A transactional-memory runtime: repeatedly executes the closure until a
/// transaction commits, and returns its result.
pub trait Stm: Send + Sync + 'static {
    /// Human-readable runtime name used in benchmark output.
    fn name(&self) -> &'static str;

    /// Run `body` as an atomic transaction.  The closure may be executed
    /// multiple times; it must not have side effects other than through the
    /// transaction (the usual STM contract).
    fn atomically<R>(&self, body: &mut dyn FnMut(&mut dyn Transaction) -> Result<R, Abort>) -> R;
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use std::sync::Arc;

    /// Concurrent counter-increment torture test shared by all runtimes.
    pub(crate) fn counter_torture<S: Stm>(stm: Arc<S>, counters: usize, threads: usize, per: u64) {
        let words: Arc<Vec<TxWord>> = Arc::new((0..counters).map(|_| TxWord::new(0)).collect());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let stm = Arc::clone(&stm);
                let words = Arc::clone(&words);
                scope.spawn(move || {
                    for i in 0..per {
                        let idx = (i as usize) % words.len();
                        stm.atomically(&mut |tx| {
                            let v = tx.read(&words[idx])?;
                            tx.write(&words[idx], v + 1)?;
                            // Also touch a second word to create conflicts.
                            let j = (idx + 1) % words.len();
                            let w = tx.read(&words[j])?;
                            tx.write(&words[j], w)?;
                            Ok(())
                        });
                    }
                });
            }
        });
        let total: u64 = words.iter().map(|w| w.load_quiescent()).sum();
        assert_eq!(total, threads as u64 * per);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txword_basics() {
        let w = TxWord::new(9);
        assert_eq!(w.load_quiescent(), 9);
        w.raw_store(11);
        assert_eq!(w.raw_load(), 11);
    }
}
