//! The primary-side wrapper: apply + log under a per-key stripe lock.

use std::sync::{Arc, Mutex};

use mapapi::{ConcurrentMap, Key, MapStats, Value};

use crate::checkpoint::Checkpoint;
use crate::event::Event;
use crate::log::ChangeLog;

/// log₂ of the stripe count: 64 stripes are enough to keep 8–16 writer
/// threads from colliding while a full-table lock (the checkpoint cut) stays
/// cheap.
const STRIPE_BITS: u32 = 6;
const STRIPES: usize = 1 << STRIPE_BITS;

/// Chunk size for checkpoint scans — matches the quiescent audit's chunking
/// so every chunk is far under the wire protocol's frame ceiling too.
const SNAPSHOT_CHUNK: usize = 4096;

/// A [`ConcurrentMap`] that logs every committed mutation to a
/// [`ChangeLog`], giving followers a replayable, sequence-numbered history.
///
/// Mutations serialize per key through a small hashed stripe table: the
/// stripe lock is held across *apply to the inner structure* **and** *append
/// to the log*, so for any single key the log order equals the application
/// order — the property follower replay depends on.  Mutations on different
/// keys proceed in parallel on different stripes, and since same-key
/// operations are totally ordered while different-key operations commute,
/// replaying the log in sequence reproduces exactly the primary's state.
/// Reads and scans take no locks at all and keep the inner structure's full
/// concurrency (scans stay validated snapshots).
///
/// RMW is logged as its committed **post-value** ([`Event::Set`]); see the
/// [`Event`] docs for why closures cannot be replayed.
pub struct ReplicatedMap {
    name: &'static str,
    inner: Box<dyn ConcurrentMap>,
    stripes: Vec<Mutex<()>>,
    log: Arc<ChangeLog>,
}

impl ReplicatedMap {
    /// Wrap `inner`, plain or sharded: everything goes through the trait.
    pub fn new(inner: Box<dyn ConcurrentMap>) -> ReplicatedMap {
        ReplicatedMap {
            name: mapapi::intern_name(format!("repl({})", inner.name())),
            inner,
            stripes: (0..STRIPES).map(|_| Mutex::new(())).collect(),
            log: Arc::new(ChangeLog::new()),
        }
    }

    /// The change stream fed by this map's mutations.
    pub fn log(&self) -> Arc<ChangeLog> {
        Arc::clone(&self.log)
    }

    /// The stripe of `key`: Fibonacci hashing, the product's top six bits.
    fn stripe(&self, key: Key) -> &Mutex<()> {
        &self.stripes[(key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - STRIPE_BITS)) as usize]
    }

    /// Append one committed mutation to the change log, recording the
    /// append as a `commit` span when the calling thread carries a sampled
    /// trace (the server sets one per sampled wire op).  Explicit
    /// timestamps, not a guard: the caller holds a stripe lock here, and
    /// span guards must never sit across lock-shaped calls.
    fn append_committed(&self, ev: Event) {
        match telemetry::trace::current() {
            None => {
                self.log.append(ev);
            }
            Some(t) => {
                let start = telemetry::trace::now_ns();
                self.log.append(ev);
                telemetry::trace::record_span(
                    t,
                    telemetry::trace::PHASE_COMMIT,
                    start,
                    telemetry::trace::now_ns().saturating_sub(start),
                    0,
                );
            }
        }
    }

    /// Take an exact checkpoint: every stripe locked (so no mutation is
    /// between apply and append), the log's seqno recorded, then the inner
    /// map's chunked validated scan as one sorted run.  With no writer
    /// running, that scan is exact — a sharded map's merge included — so the
    /// result contains precisely the effects of events `1..=seqno`, the
    /// invariant crash recovery and follower bootstrap rely on.
    ///
    /// Readers are unaffected (they never touch the stripes); writers stall
    /// for the duration of the scan.
    pub fn checkpoint(&self) -> Checkpoint {
        let _cut: Vec<_> = self.stripes.iter().map(|s| s.lock().unwrap()).collect();
        let seqno = self.log.seqno();
        Checkpoint { seqno, pairs: snapshot(&*self.inner) }
    }
}

/// Full sorted contents of a map via chunked validated scans.
fn snapshot(map: &dyn ConcurrentMap) -> Vec<(Key, Value)> {
    let mut out = Vec::new();
    let mut start = 0u64;
    loop {
        let chunk = map.scan(start, SNAPSHOT_CHUNK);
        let n = chunk.len();
        let last = chunk.last().map(|&(k, _)| k);
        out.extend(chunk);
        match last {
            Some(k) if n == SNAPSHOT_CHUNK && k < u64::MAX => start = k + 1,
            _ => return out,
        }
    }
}

impl ConcurrentMap for ReplicatedMap {
    fn name(&self) -> &'static str {
        self.name
    }

    fn insert(&self, key: Key, value: Value) -> bool {
        let _g = self.stripe(key).lock().unwrap();
        let inserted = self.inner.insert(key, value);
        if inserted {
            self.append_committed(Event::Put(key, value));
        }
        inserted
    }

    fn remove(&self, key: Key) -> bool {
        let _g = self.stripe(key).lock().unwrap();
        let removed = self.inner.remove(key);
        if removed {
            self.append_committed(Event::Del(key));
        }
        removed
    }

    fn get(&self, key: Key) -> Option<Value> {
        self.inner.get(key)
    }

    fn rmw(&self, key: Key, update: &mut dyn FnMut(Option<Value>) -> Value) -> bool {
        let _g = self.stripe(key).lock().unwrap();
        let was_present = self.inner.rmw(key, update);
        // The stripe lock makes this thread the only writer of `key`, so
        // the read-back is exactly the value the rmw committed.
        let committed = self.inner.get(key).expect("rmw must leave the key present");
        self.append_committed(Event::Set(key, committed));
        was_present
    }

    fn scan_into(&self, start: Key, len: usize, out: &mut Vec<(Key, Value)>) {
        self.inner.scan_into(start, len, out)
    }

    fn stats(&self) -> MapStats {
        self.inner.stats()
    }

    fn shard_of(&self, key: Key) -> usize {
        self.inner.shard_of(key)
    }

    fn shard_loads(&self) -> Vec<mapapi::ShardLoad> {
        self.inner.shard_loads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapapi::reference::LockedBTreeMap;

    fn plain() -> ReplicatedMap {
        ReplicatedMap::new(Box::new(LockedBTreeMap::new()))
    }

    #[test]
    fn only_committed_mutations_are_logged() {
        let m = plain();
        assert_eq!(m.name(), "repl(locked-btreemap)");
        assert!(m.insert(1, 10));
        assert!(!m.insert(1, 11), "duplicate insert must not log");
        assert!(!m.remove(2), "no-op remove must not log");
        assert!(m.remove(1));
        assert!(!m.rmw(3, &mut |v| v.unwrap_or(0) + 5));
        let log = m.log();
        assert_eq!(
            log.read_from(0, 100),
            vec![(1, Event::Put(1, 10)), (2, Event::Del(1)), (3, Event::Set(3, 5))]
        );
    }

    #[test]
    fn rmw_logs_the_committed_post_value() {
        let m = plain();
        m.insert(7, 7);
        assert!(m.rmw(7, &mut |v| v.unwrap() * 3));
        assert_eq!(m.log().read_from(1, 10), vec![(2, Event::Set(7, 21))]);
        assert_eq!(m.get(7), Some(21));
    }

    #[test]
    fn checkpoint_of_a_sharded_map_is_an_exact_sorted_cut() {
        let m = ReplicatedMap::new(Box::new(shard::ShardedMap::from_fn(4, |_| {
            Box::new(LockedBTreeMap::new()) as Box<dyn ConcurrentMap>
        })));
        // Spread over many blocks: the shards own keys by block, not by key.
        let keys = (1..=100u64).map(|k| k * 100);
        for k in keys.clone() {
            assert!(m.insert(k, k * 2));
        }
        let ckpt = m.checkpoint();
        assert_eq!(ckpt.seqno, 100);
        assert_eq!(ckpt.pairs, keys.map(|k| (k, k * 2)).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_per_key_log_order_matches_final_state() {
        // Hammer a small key set from several threads, then replay the log
        // into a fresh map: it must land on the primary's exact state.
        let m = std::sync::Arc::new(plain());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = m.clone();
                s.spawn(move || {
                    let mut x = 0x9E37 + t;
                    for _ in 0..2000 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let k = 1 + x % 16;
                        match x % 3 {
                            0 => drop(m.insert(k, x >> 8 & 0xFFFF)),
                            1 => drop(m.remove(k)),
                            _ => drop(m.rmw(k, &mut |v| v.unwrap_or(0).wrapping_add(1))),
                        }
                    }
                });
            }
        });
        let replayed = LockedBTreeMap::new();
        for (_, ev) in m.log().read_from(0, usize::MAX) {
            match ev {
                Event::Put(k, v) => assert!(replayed.insert(k, v)),
                Event::Del(k) => assert!(replayed.remove(k)),
                Event::Set(k, v) => drop(replayed.rmw(k, &mut |_| v)),
            }
        }
        assert_eq!(snapshot(&replayed), snapshot(&*m));
    }
}
