//! `tle`: what is left of transactional lock elision when no elision is
//! attempted — a single global lock, every transaction run in place under
//! it.  On the paper's Intel machine TLE is an HTM fast path with this lock
//! as its fallback.  This machine has RTM too, and `kcas::htm` commits KCAS
//! operations in hardware transactions since PR 15, but `stm` does not use
//! it: `Tle` never calls `xbegin` (real elision is ROADMAP direction 2(b);
//! DESIGN.md §4).  What it measures is therefore exactly the coarse-grained
//! locking floor the paper's Figure 1 discussion refers to when it notes
//! that TLE's "global locking fallback code path degrades performance
//! dramatically in workloads with more updates".

use parking_lot::Mutex;

use crate::{Abort, Stm, Transaction, TxWord};

/// The TLE runtime: a global lock executing transactions directly in place.
#[derive(Default)]
pub struct Tle {
    lock: Mutex<()>,
}

impl Tle {
    /// Create a new runtime.
    pub fn new() -> Self {
        Self::default()
    }
}

struct TleTx;

impl Transaction for TleTx {
    fn read(&mut self, word: &TxWord) -> Result<u64, Abort> {
        Ok(word.raw_load())
    }
    fn write(&mut self, word: &TxWord, value: u64) -> Result<(), Abort> {
        word.raw_store(value);
        Ok(())
    }
}

impl Stm for Tle {
    fn name(&self) -> &'static str {
        "tle"
    }

    fn atomically<R>(&self, body: &mut dyn FnMut(&mut dyn Transaction) -> Result<R, Abort>) -> R {
        loop {
            let _g = self.lock.lock();
            // Under a global lock an explicit abort can only mean the data
            // structure asked for a retry (it never does today, but the
            // contract allows it).
            if let Ok(r) = body(&mut TleTx) {
                return r;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn writes_are_immediate() {
        let stm = Tle::new();
        let a = TxWord::new(3);
        let v = stm.atomically(&mut |tx| {
            let x = tx.read(&a)?;
            tx.write(&a, x * 2)?;
            tx.read(&a)
        });
        assert_eq!(v, 6);
    }

    #[test]
    fn counter_torture() {
        crate::testutil::counter_torture(Arc::new(Tle::new()), 4, 4, 3000);
    }
}
