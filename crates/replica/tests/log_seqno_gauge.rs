//! The `replica_log_seqno` gauge never goes backwards under concurrent
//! appenders, and at quiescence it reads the log's seqno.
//!
//! Its own binary: the gauge is process-global, so any other test in the
//! same process that appends to a log would write it too.

use std::sync::atomic::{AtomicBool, Ordering};

use mapapi::reference::LockedBTreeMap;
use mapapi::ConcurrentMap;
use replica::ReplicatedMap;

const WRITERS: u64 = 2;
const UPDATES_PER_WRITER: u64 = 200_000;

/// One thread's successive reads of the gauge, and every decrease seen.
#[derive(Default)]
struct Watch {
    last: u64,
    decreases: Vec<(u64, u64)>,
}

impl Watch {
    fn observe(&mut self) {
        let now = replica::metrics::metrics().log_seqno.get();
        if now < self.last {
            self.decreases.push((self.last, now));
        }
        self.last = now;
    }
}

#[test]
fn the_seqno_gauge_is_monotone_and_settles_on_the_log_seqno() {
    let map = ReplicatedMap::new(Box::new(LockedBTreeMap::new()));
    let done = AtomicBool::new(false);
    // Every thread watches: a writer reads the gauge before each append, so
    // an appender that stores a stale seqno late is seen by the other at
    // once; the reader polls without pause.
    let watches: Vec<Watch> = std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let map = &map;
                s.spawn(move || {
                    let mut watch = Watch::default();
                    // Disjoint keys on different stripes, alternating insert
                    // and remove: the writers never wait on each other, and
                    // every update succeeds, so every one appends an event.
                    let key = w + 1;
                    for i in 0..UPDATES_PER_WRITER {
                        watch.observe();
                        if i % 2 == 0 {
                            assert!(map.insert(key, i));
                        } else {
                            assert!(map.remove(key));
                        }
                    }
                    watch
                })
            })
            .collect();
        let reader = s.spawn(|| {
            let mut watch = Watch::default();
            // ORDERING: Relaxed — a stop flag; the join publishes the rest.
            while !done.load(Ordering::Relaxed) {
                watch.observe();
            }
            watch
        });
        let mut watches: Vec<Watch> = writers.into_iter().map(|w| w.join().unwrap()).collect();
        // ORDERING: Relaxed — see the reader's poll.
        done.store(true, Ordering::Relaxed);
        watches.push(reader.join().unwrap());
        watches
    });
    for (t, watch) in watches.iter().enumerate() {
        assert!(
            watch.decreases.is_empty(),
            "thread {t} saw the gauge go backwards {} times (from, to): {:?}",
            watch.decreases.len(),
            watch.decreases
        );
    }
    let seqno = map.log().seqno();
    assert_eq!(seqno, WRITERS * UPDATES_PER_WRITER);
    assert_eq!(
        telemetry::value("replica_log_seqno"),
        Some(seqno),
        "the registered gauge must settle on the log's seqno"
    );
}
