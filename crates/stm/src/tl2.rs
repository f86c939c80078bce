//! A TL2-style STM (Dice, Shalev & Shavit, DISC 2006): a global version clock
//! and a striped table of versioned write-locks.  This is the `tl2` baseline
//! of the paper.  Unlike NOrec it validates read locations by version, so
//! read-set validation does not re-read values, but every shared word maps to
//! a lock stripe that writers must acquire at commit time.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{Abort, Stm, Transaction, TxWord};

/// Number of lock stripes (a power of two).
const STRIPES: usize = 1 << 16;

/// The TL2-style runtime.
pub struct Tl2 {
    clock: AtomicU64,
    /// Versioned write locks: even = version of the last commit touching the
    /// stripe, odd = locked.
    locks: Box<[AtomicU64]>,
}

impl Default for Tl2 {
    fn default() -> Self {
        Self::new()
    }
}

impl Tl2 {
    /// Create a new runtime.
    pub fn new() -> Self {
        Tl2 {
            clock: AtomicU64::new(0),
            locks: (0..STRIPES).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    #[inline]
    fn stripe(&self, addr: *const TxWord) -> &AtomicU64 {
        let h = (addr as usize).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
        &self.locks[h & (STRIPES - 1)]
    }
}

struct Tl2Tx<'a> {
    runtime: &'a Tl2,
    read_version: u64,
    read_set: Vec<*const TxWord>,
    write_set: Vec<(*const TxWord, u64)>,
}

impl<'a> Tl2Tx<'a> {
    fn begin(runtime: &'a Tl2) -> Self {
        Tl2Tx {
            runtime,
            read_version: runtime.clock.load(Ordering::SeqCst),
            read_set: Vec::new(),
            write_set: Vec::new(),
        }
    }

    fn commit(self) -> Result<(), Abort> {
        if self.write_set.is_empty() {
            return Ok(());
        }
        // Acquire the (deduplicated, ordered) stripe locks for the write set.
        let mut stripes: Vec<&AtomicU64> =
            self.write_set.iter().map(|&(addr, _)| self.runtime.stripe(addr)).collect();
        stripes.sort_by_key(|s| *s as *const AtomicU64 as usize);
        stripes.dedup_by_key(|s| *s as *const AtomicU64 as usize);
        let mut acquired: Vec<(&AtomicU64, u64)> = Vec::with_capacity(stripes.len());
        for stripe in &stripes {
            let mut ok = false;
            for _ in 0..64 {
                let v = stripe.load(Ordering::SeqCst);
                if v & 1 == 0
                    && v <= self.read_version
                    && stripe.compare_exchange(v, v | 1, Ordering::SeqCst, Ordering::SeqCst).is_ok()
                {
                    acquired.push((stripe, v));
                    ok = true;
                    break;
                }
                if v & 1 == 0 && v > self.read_version {
                    break;
                }
                std::hint::spin_loop();
            }
            if !ok {
                for (s, old) in acquired {
                    s.store(old, Ordering::SeqCst);
                }
                return Err(Abort);
            }
        }
        // Advance the global clock and pick the write version.
        let write_version = self.runtime.clock.fetch_add(2, Ordering::SeqCst) + 2;
        // Validate the read set: every read stripe must be unlocked (or owned
        // by us) and not newer than our read version.
        if write_version != self.read_version + 2 {
            for &addr in &self.read_set {
                let stripe = self.runtime.stripe(addr);
                let v = stripe.load(Ordering::SeqCst);
                let owned = acquired.iter().any(|(s, _)| std::ptr::eq(*s, stripe));
                if (v & 1 == 1 && !owned) || (v & !1) > self.read_version {
                    for (s, old) in acquired {
                        s.store(old, Ordering::SeqCst);
                    }
                    return Err(Abort);
                }
            }
        }
        // Write back and release the stripes at the new version.
        for &(addr, val) in &self.write_set {
            // SAFETY: write-set addresses point into the live `TVar` array;
            // the acquired stripe locks exclude every conflicting writer.
            unsafe { &*addr }.raw_store(val);
        }
        for (s, _) in acquired {
            s.store(write_version, Ordering::SeqCst);
        }
        Ok(())
    }
}

impl Transaction for Tl2Tx<'_> {
    fn read(&mut self, word: &TxWord) -> Result<u64, Abort> {
        let addr = word as *const TxWord;
        if let Some(&(_, v)) = self.write_set.iter().rev().find(|(a, _)| *a == addr) {
            return Ok(v);
        }
        let stripe = self.runtime.stripe(addr);
        let pre = stripe.load(Ordering::SeqCst);
        let value = word.raw_load();
        let post = stripe.load(Ordering::SeqCst);
        if pre != post || pre & 1 == 1 || pre > self.read_version {
            return Err(Abort);
        }
        self.read_set.push(addr);
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

impl Stm for Tl2 {
    fn name(&self) -> &'static str {
        "tl2"
    }

    fn atomically<R>(&self, body: &mut dyn FnMut(&mut dyn Transaction) -> Result<R, Abort>) -> R {
        let mut backoff = 0u32;
        loop {
            let mut tx = Tl2Tx::begin(self);
            if let Ok(result) = body(&mut tx) {
                if tx.commit().is_ok() {
                    return result;
                }
            }
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
        let stm = Tl2::new();
        let a = TxWord::new(1);
        let v = stm.atomically(&mut |tx| {
            let x = tx.read(&a)?;
            tx.write(&a, x + 1)?;
            tx.read(&a)
        });
        assert_eq!(v, 2);
        assert_eq!(a.load_quiescent(), 2);
    }

    #[test]
    fn counter_torture() {
        crate::testutil::counter_torture(Arc::new(Tl2::new()), 4, 4, 3000);
    }
}
