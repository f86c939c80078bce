//! Read-only replicas: bootstrap from a checkpoint, tail the stream.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use mapapi::{ConcurrentMap, Key, MapStats, Value};

use crate::checkpoint::Checkpoint;
use crate::event::Event;
use crate::log::ChangeLog;

/// A read-only replica of a [`crate::ReplicatedMap`].
///
/// A follower is a fresh structure loaded from a [`Checkpoint`] (exact at
/// the checkpoint's seqno) that then applies change-stream events **strictly
/// in sequence**.  Because application is sequential, the follower's state
/// after applying event `s` is exactly the primary's per-key history up to
/// `s` — so an atomic scan of the follower observes a consistent prefix of
/// the primary's history, just a (boundedly) stale one.  The staleness at
/// any instant is `primary.seqno() − follower.applied_seqno()`.
///
/// `apply` must be driven by **one** thread (the in-process [`tail_log`]
/// helper or the wire tail in the `server` crate); the dense-seqno assert
/// catches any misuse.  Reads may come from any number of threads
/// concurrently — the follower implements [`ConcurrentMap`] with its write
/// methods panicking, and the server's read-only mode rejects write verbs
/// before they could reach the map.
pub struct Follower {
    name: &'static str,
    inner: Box<dyn ConcurrentMap>,
    applied: AtomicU64,
}

impl Follower {
    /// Load `inner` (which must be empty) from a checkpoint.  Shard
    /// ownership is recomputed on insert, so the follower's structure —
    /// plain, or sharded with any shard count — is independent of the
    /// primary's.
    pub fn bootstrap(inner: Box<dyn ConcurrentMap>, ckpt: &Checkpoint) -> Follower {
        let name = mapapi::intern_name(format!("follower({})", inner.name()));
        for &(k, v) in &ckpt.pairs {
            assert!(inner.insert(k, v), "bootstrap target already held key {k}");
        }
        Follower { name, inner, applied: AtomicU64::new(ckpt.seqno) }
    }

    /// The sequence number of the last applied event.
    pub fn applied_seqno(&self) -> u64 {
        self.applied.load(Ordering::Acquire)
    }

    /// Apply one event; `seq` must be exactly `applied_seqno() + 1`.
    ///
    /// The asserts double as replay validation: a `Put` replayed onto a
    /// correct prefix must find its key absent and a `Del` must find it
    /// present, so any divergence (a gap, a reordering, a corrupted event)
    /// fails loudly instead of silently forking the replica.
    pub fn apply(&self, seq: u64, ev: Event) {
        let applied = self.applied.load(Ordering::Acquire);
        assert_eq!(seq, applied + 1, "{}: change stream gap", self.name);
        match ev {
            Event::Put(k, v) => {
                assert!(self.inner.insert(k, v), "{}: replayed Put({k}) found the key present", self.name);
            }
            Event::Del(k) => {
                assert!(self.inner.remove(k), "{}: replayed Del({k}) found the key absent", self.name);
            }
            Event::Set(k, v) => {
                self.inner.rmw(k, &mut |_| v);
            }
        }
        self.applied.store(seq, Ordering::Release);
    }

    /// Drain everything the log currently holds beyond `applied_seqno()`.
    /// Used by crash recovery (checkpoint + full replay) and by tests that
    /// need a follower caught up to a known point.
    pub fn catch_up(&self, log: &ChangeLog) {
        loop {
            let batch = log.read_from(self.applied_seqno(), 4096);
            if batch.is_empty() {
                return;
            }
            for (seq, ev) in batch {
                self.apply(seq, ev);
            }
        }
    }
}

impl ConcurrentMap for Follower {
    fn name(&self) -> &'static str {
        self.name
    }

    fn insert(&self, _key: Key, _value: Value) -> bool {
        panic!("{}: followers are read-only", self.name)
    }

    fn remove(&self, _key: Key) -> bool {
        panic!("{}: followers are read-only", self.name)
    }

    fn get(&self, key: Key) -> Option<Value> {
        self.inner.get(key)
    }

    fn rmw(&self, _key: Key, _update: &mut dyn FnMut(Option<Value>) -> Value) -> bool {
        panic!("{}: followers are read-only", self.name)
    }

    fn scan_into(&self, start: Key, len: usize, out: &mut Vec<(Key, Value)>) {
        self.inner.scan_into(start, len, out)
    }

    fn stats(&self) -> MapStats {
        self.inner.stats()
    }

    fn shard_loads(&self) -> Vec<mapapi::ShardLoad> {
        self.inner.shard_loads()
    }
}

/// Tail `log` into `follower` until `stop` is set **and** the log is
/// drained — the in-process subscriber loop (the wire version lives in the
/// `server` crate).  It catches up, then sleeps [`ChangeLog::POLL`]; `stop`
/// is read before the catch-up, so everything appended before `stop` was
/// set is applied before it returns.  Run it on a dedicated thread; it owns
/// the follower's apply stream.
pub fn tail_log(log: &ChangeLog, follower: &Follower, stop: &AtomicBool) {
    loop {
        let last = stop.load(Ordering::Acquire);
        follower.catch_up(log);
        if last {
            return;
        }
        std::thread::sleep(ChangeLog::POLL);
    }
}

/// Primary + followers behind one [`ConcurrentMap`]: writes (and `stats`)
/// go to the primary, reads and scans fan out round-robin across the
/// followers.  This is the topology the `read-replica` scenario drives
/// (over real sockets in `server/tests/replication_wire.rs`) — the read
/// side scales with follower count while the write side stays a single
/// primary.
pub struct ReplicaSet {
    name: &'static str,
    primary: Box<dyn ConcurrentMap>,
    followers: Vec<Box<dyn ConcurrentMap>>,
    next: AtomicUsize,
}

impl ReplicaSet {
    /// Route reads across `followers` (or to the primary when empty).
    pub fn new(primary: Box<dyn ConcurrentMap>, followers: Vec<Box<dyn ConcurrentMap>>) -> ReplicaSet {
        let name = mapapi::intern_name(format!("replset({}+{}f)", primary.name(), followers.len()));
        ReplicaSet { name, primary, followers, next: AtomicUsize::new(0) }
    }

    fn reader(&self) -> &dyn ConcurrentMap {
        if self.followers.is_empty() {
            return &*self.primary;
        }
        // ORDERING: Relaxed — round-robin fan-out only needs a unique tick;
        // follower freshness is carried by `applied`'s Release/Acquire pair.
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.followers.len();
        &*self.followers[i]
    }
}

impl ConcurrentMap for ReplicaSet {
    fn name(&self) -> &'static str {
        self.name
    }

    fn insert(&self, key: Key, value: Value) -> bool {
        self.primary.insert(key, value)
    }

    fn remove(&self, key: Key) -> bool {
        self.primary.remove(key)
    }

    fn get(&self, key: Key) -> Option<Value> {
        self.reader().get(key)
    }

    fn rmw(&self, key: Key, update: &mut dyn FnMut(Option<Value>) -> Value) -> bool {
        self.primary.rmw(key, update)
    }

    fn scan_into(&self, start: Key, len: usize, out: &mut Vec<(Key, Value)>) {
        self.reader().scan_into(start, len, out)
    }

    fn stats(&self) -> MapStats {
        self.primary.stats()
    }

    fn shard_loads(&self) -> Vec<mapapi::ShardLoad> {
        self.primary.shard_loads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReplicatedMap;
    use mapapi::reference::LockedBTreeMap;
    use std::sync::Arc;

    fn fresh() -> Box<dyn ConcurrentMap> {
        Box::new(LockedBTreeMap::new())
    }

    #[test]
    fn bootstrap_plus_replay_reaches_the_primary_state() {
        let primary = ReplicatedMap::new(fresh());
        for k in 1..=50u64 {
            primary.insert(k, k);
        }
        let ckpt = primary.checkpoint();
        // Mutate past the cut: the follower must replay these.
        primary.remove(10);
        primary.rmw(20, &mut |v| v.unwrap() + 100);
        primary.insert(51, 51);

        let f = Follower::bootstrap(fresh(), &ckpt);
        assert_eq!(f.applied_seqno(), 50);
        assert_eq!(f.get(10), Some(10), "pre-replay follower is exact at the cut");
        f.catch_up(&primary.log());
        assert_eq!(f.applied_seqno(), 53);
        assert_eq!(f.get(10), None);
        assert_eq!(f.get(20), Some(120));
        assert_eq!(f.get(51), Some(51));
        let (ps, fs) = (primary.stats(), f.stats());
        assert_eq!((ps.key_count, ps.key_sum), (fs.key_count, fs.key_sum));
    }

    #[test]
    #[should_panic(expected = "change stream gap")]
    fn out_of_order_apply_panics() {
        let f = Follower::bootstrap(fresh(), &Checkpoint { seqno: 0, pairs: vec![] });
        f.apply(2, Event::Put(1, 1));
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn follower_writes_panic() {
        let f = Follower::bootstrap(fresh(), &Checkpoint { seqno: 0, pairs: vec![] });
        f.insert(1, 1);
    }

    #[test]
    fn tail_log_tracks_a_live_primary() {
        let primary = Arc::new(ReplicatedMap::new(fresh()));
        let follower = Arc::new(Follower::bootstrap(fresh(), &primary.checkpoint()));
        let stop = Arc::new(AtomicBool::new(false));
        let tail = {
            let (log, f, stop) = (primary.log(), follower.clone(), stop.clone());
            std::thread::spawn(move || tail_log(&log, &f, &stop))
        };
        for k in 1..=2000u64 {
            primary.insert(k, k);
            if k % 3 == 0 {
                primary.rmw(k, &mut |v| v.unwrap() * 2);
            }
        }
        stop.store(true, Ordering::Release);
        tail.join().unwrap();
        // tail_log drains before exiting, so the follower is fully caught up.
        assert_eq!(follower.applied_seqno(), primary.log().seqno());
        let (ps, fs) = (primary.stats(), follower.stats());
        assert_eq!((ps.key_count, ps.key_sum), (fs.key_count, fs.key_sum));
    }

    #[test]
    fn replica_set_routes_reads_to_followers_and_writes_to_the_primary() {
        let primary = ReplicatedMap::new(fresh());
        primary.insert(1, 1);
        let ckpt = primary.checkpoint();
        let f1 = Follower::bootstrap(fresh(), &ckpt);
        let f2 = Follower::bootstrap(fresh(), &ckpt);
        let set = ReplicaSet::new(Box::new(primary), vec![Box::new(f1), Box::new(f2)]);
        assert_eq!(set.name(), "replset(repl(locked-btreemap)+2f)");
        // Reads hit followers (which only know the checkpoint).
        assert_eq!(set.get(1), Some(1));
        // Writes hit the primary; the stale followers don't see them, which
        // is exactly the staleness the model allows.
        assert!(set.insert(2, 2));
        assert_eq!(set.get(2), None);
        assert_eq!(set.stats().key_count, 2, "stats are the primary's");
        // An empty set degenerates to the primary.
        let lone = ReplicaSet::new(fresh(), vec![]);
        lone.insert(9, 9);
        assert_eq!(lone.get(9), Some(9));
    }
}
