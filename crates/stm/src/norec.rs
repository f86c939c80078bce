//! NOrec (Dalessandro, Spear & Scott, PPoPP 2010): a software TM with no
//! ownership records — a single global sequence lock serializes writers, and
//! readers validate their read set *by value* whenever the global clock
//! changes.  This is the `norec` baseline of the paper (and the STM half of
//! the hybrid NOrec variants, which require HTM and are therefore not
//! reproduced — see DESIGN.md §4).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{Abort, Stm, Transaction, TxWord};

/// The NOrec runtime.
#[derive(Debug, Default)]
pub struct Norec {
    /// Global sequence lock: odd while a writer is committing.
    clock: AtomicU64,
}

impl Norec {
    /// Create a new runtime.
    pub fn new() -> Self {
        Self::default()
    }
}

struct NorecTx<'a> {
    runtime: &'a Norec,
    snapshot: u64,
    read_set: Vec<(*const TxWord, u64)>,
    write_set: Vec<(*const TxWord, u64)>,
}

impl<'a> NorecTx<'a> {
    fn begin(runtime: &'a Norec) -> Self {
        let snapshot = loop {
            let c = runtime.clock.load(Ordering::SeqCst);
            if c & 1 == 0 {
                break c;
            }
            std::hint::spin_loop();
        };
        NorecTx { runtime, snapshot, read_set: Vec::new(), write_set: Vec::new() }
    }

    /// Value-based validation: re-read every word in the read set and compare
    /// with the recorded value; on success, move the snapshot forward.
    fn validate(&mut self) -> Result<(), Abort> {
        loop {
            let time = self.runtime.clock.load(Ordering::SeqCst);
            if time & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            for &(addr, val) in &self.read_set {
                // SAFETY: read-set addresses point into the `TVar` array the
                // transaction borrowed, which outlives the transaction.
                let current = unsafe { &*addr }.raw_load();
                if current != val {
                    return Err(Abort);
                }
            }
            if self.runtime.clock.load(Ordering::SeqCst) == time {
                self.snapshot = time;
                return Ok(());
            }
        }
    }

    fn commit(mut self) -> Result<(), Abort> {
        if self.write_set.is_empty() {
            return Ok(());
        }
        // Acquire the global sequence lock, re-validating whenever another
        // writer slipped in first.
        while self
            .runtime
            .clock
            .compare_exchange(self.snapshot, self.snapshot + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            self.validate()?;
        }
        for &(addr, val) in &self.write_set {
            // SAFETY: write-set addresses point into the live `TVar` array;
            // the held sequence lock excludes every other writer.
            unsafe { &*addr }.raw_store(val);
        }
        self.runtime.clock.store(self.snapshot + 2, Ordering::SeqCst);
        Ok(())
    }
}

impl Transaction for NorecTx<'_> {
    fn read(&mut self, word: &TxWord) -> Result<u64, Abort> {
        let addr = word as *const TxWord;
        if let Some(&(_, v)) = self.write_set.iter().rev().find(|(a, _)| *a == addr) {
            return Ok(v);
        }
        let mut value = word.raw_load();
        while self.runtime.clock.load(Ordering::SeqCst) != self.snapshot {
            self.validate()?;
            value = word.raw_load();
        }
        self.read_set.push((addr, value));
        Ok(value)
    }

    fn write(&mut self, word: &TxWord, value: u64) -> Result<(), Abort> {
        let addr = word as *const TxWord;
        if let Some(entry) = self.write_set.iter_mut().find(|(a, _)| *a == addr) {
            entry.1 = value;
        } else {
            self.write_set.push((addr, value));
        }
        Ok(())
    }
}

impl Stm for Norec {
    fn name(&self) -> &'static str {
        "norec"
    }

    fn atomically<R>(&self, body: &mut dyn FnMut(&mut dyn Transaction) -> Result<R, Abort>) -> R {
        let mut backoff = 0u32;
        loop {
            let mut tx = NorecTx::begin(self);
            if let Ok(result) = body(&mut tx) {
                if tx.commit().is_ok() {
                    return result;
                }
            }
            // Bounded exponential backoff to reduce livelock under contention.
            backoff = (backoff + 1).min(10);
            for _ in 0..(1u32 << backoff) {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_threaded_read_write() {
        let stm = Norec::new();
        let a = TxWord::new(1);
        let b = TxWord::new(2);
        let sum = stm.atomically(&mut |tx| {
            let x = tx.read(&a)?;
            let y = tx.read(&b)?;
            tx.write(&a, x + 10)?;
            Ok(x + y)
        });
        assert_eq!(sum, 3);
        assert_eq!(a.load_quiescent(), 11);
    }

    #[test]
    fn read_own_writes() {
        let stm = Norec::new();
        let a = TxWord::new(5);
        let v = stm.atomically(&mut |tx| {
            tx.write(&a, 42)?;
            tx.read(&a)
        });
        assert_eq!(v, 42);
    }

    #[test]
    fn counter_torture() {
        crate::testutil::counter_torture(Arc::new(Norec::new()), 4, 4, 3000);
    }
}
