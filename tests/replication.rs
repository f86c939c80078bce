//! End-to-end replication tests (DESIGN.md §9): a follower tailing a
//! churning primary must only ever expose consistent prefixes of the
//! primary's history; a checkpoint plus change-stream replay must rebuild a
//! crashed server's state *exactly*; and checkpoints must restore onto any
//! structure shape, whatever the primary's shard count was.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mapapi::ConcurrentMap;
use replica::{Checkpoint, Follower};
use server::{Connection, Request, Server, ServerOpts};

const REGION_START: u64 = 1000;
const REGION_END: u64 = 1064; // exclusive
const REGION_LEN: usize = (REGION_END - REGION_START) as usize;

fn region_keysum() -> u128 {
    (REGION_START..REGION_END).map(|k| k as u128).sum()
}

/// The differential core: a sharded primary under mixed churn (inserts and
/// removes outside a conserved region, atomic RMW inside it) with a
/// plain-map follower tailing its change stream.  Every follower **full
/// scan** must be a consistent prefix of the primary's history — the region
/// exactly conserved with multiple-of-key values, every other key carrying
/// its insert value, the whole snapshot sorted and duplicate-free — at
/// whatever seqno the follower happens to have reached.  After the tail
/// drains, follower and primary must agree exactly.
#[test]
fn follower_full_scans_are_consistent_prefixes_under_churn() {
    let primary = Arc::new(harness::try_make_replicated("shard4(int-bst-pathcas)").unwrap());
    for k in REGION_START..REGION_END {
        assert!(primary.insert(k, k), "region prefill {k}");
    }
    // Checkpoint after the region exists, bootstrap onto a *different*
    // shape: replay is structure-independent.
    let follower = Follower::bootstrap(
        Box::new(mapapi::reference::LockedBTreeMap::new()),
        &primary.checkpoint(),
    );
    let log = primary.log();
    let (stop, stop_tail) = (AtomicBool::new(false), AtomicBool::new(false));
    std::thread::scope(|tail| {
        tail.spawn(|| replica::tail_log(&log, &follower, &stop_tail));
        // The writers get a scope of their own: the tail may be told to stop
        // only after they are joined.  Told together with them, it can find
        // the log drained and exit while a descheduled writer is still inside
        // its last operation.
        std::thread::scope(|s| {
            for seed in [0x1111u64, 0x2222, 0x3333] {
                let primary = &primary;
                let stop = &stop;
                s.spawn(move || {
                    let mut x = seed;
                    while !stop.load(Ordering::Relaxed) {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        match x % 4 {
                            // Region RMW: values stay positive multiples of the
                            // key.  The closure tolerates a speculative `None`
                            // invocation (PathCAS may call it on a stale
                            // not-found traversal it then fails to validate).
                            3 => {
                                let k = REGION_START + x % REGION_LEN as u64;
                                assert!(
                                    primary.rmw(k, &mut |v| v.map_or(0, |v| v + k)),
                                    "rmw found region key {k} absent"
                                );
                            }
                            // Insert/remove churn strictly outside the region.
                            _ => {
                                let k = 1 + x % 3000;
                                let k = if (REGION_START..REGION_END).contains(&k) { k + 2000 } else { k };
                                if x & 1 == 0 {
                                    let _ = primary.insert(k, k);
                                } else {
                                    let _ = primary.remove(k);
                                }
                            }
                        }
                    }
                });
            }

            for i in 0..300 {
                let snap = follower.scan(1, 100_000);
                let seq = follower.applied_seqno();
                let mut count = 0usize;
                let mut sum = 0u128;
                for &(k, v) in &snap {
                    if (REGION_START..REGION_END).contains(&k) {
                        count += 1;
                        sum += k as u128;
                        assert!(
                            v >= k && v % k == 0,
                            "scan #{i} @ seqno {seq}: torn region value {v} at {k}"
                        );
                    } else {
                        assert_eq!(v, k, "scan #{i} @ seqno {seq}: churn key {k} carries {v}");
                    }
                }
                assert_eq!(count, REGION_LEN, "scan #{i} @ seqno {seq}: region keys lost");
                assert_eq!(sum, region_keysum(), "scan #{i} @ seqno {seq}: region keysum drifted");
                assert!(
                    snap.windows(2).all(|w| w[0].0 < w[1].0),
                    "scan #{i} @ seqno {seq}: unsorted or duplicated keys"
                );
            }
            stop.store(true, Ordering::Release);
        });
        stop_tail.store(true, Ordering::Release);
    });
    // `tail_log` drains before exiting: equality must now be exact.
    assert_eq!(follower.applied_seqno(), primary.log().seqno());
    let (ps, fs) = (primary.stats(), follower.stats());
    assert_eq!((ps.key_count, ps.key_sum), (fs.key_count, fs.key_sum), "drained follower diverged");
    assert_eq!(follower.scan(1, 100_000), primary.scan(1, 100_000), "snapshots differ key-by-key");
}

/// Crash recovery: wire clients churn a served primary, a checkpoint is cut
/// (and written to disk) mid-churn, and the server is then shut down with
/// the clients still hammering it.  Restoring the checkpoint from disk and
/// replaying the change stream past the cut must rebuild the final state
/// **exactly** — same seqno, same stats, same key-by-key full scan as the
/// in-process map the server was serving when it died.
#[test]
fn crash_recovery_checkpoint_plus_replay_is_exact() {
    let rep = Arc::new(harness::try_make_replicated("int-avl-pathcas").unwrap());
    for k in 1..=500u64 {
        assert!(rep.insert(k, k), "prefill {k}");
    }
    let log = rep.log();
    let srv = Server::start_with(
        Arc::clone(&rep) as Arc<dyn ConcurrentMap>,
        ServerOpts { log: Some(rep.log()), ..ServerOpts::default() },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = srv.local_addr();
    let path = std::env::temp_dir().join(format!("pathcas-ckpt-{}.bin", std::process::id()));

    std::thread::scope(|s| {
        for t in 0..3u64 {
            s.spawn(move || {
                // Raw connections looping until the "crash": once the server
                // dies mid-churn, requests fail and the client gives up —
                // which is the point, not a test failure.
                let Ok(mut conn) = Connection::connect(addr) else { return };
                let mut x = 0x9E3779B97F4A7C15u64.wrapping_mul(t + 1);
                loop {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let k = 1 + x % 2000;
                    let req = match x % 3 {
                        0 => Request::Put(k, k),
                        1 => Request::Del(k),
                        _ => Request::Rmw(k, 1),
                    };
                    if conn.request(&req).is_err() {
                        return;
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(50));
        rep.checkpoint().write_to(&path).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        // The "crash": shutdown joins the handler threads, each finishing
        // (at most) the request it was executing — so afterwards the
        // in-process map is the ground truth recovery must reproduce.
        srv.shutdown();
    });

    let ckpt = Checkpoint::read_from(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(
        ckpt.seqno >= 500 && ckpt.seqno < log.seqno(),
        "checkpoint (seqno {}) was not cut mid-churn (log head {})",
        ckpt.seqno,
        log.seqno()
    );
    let restored = Follower::bootstrap(Box::new(pathcas_ds::PathCasAvl::new()), &ckpt);
    restored.catch_up(&log);
    assert_eq!(restored.applied_seqno(), log.seqno(), "replay stopped short of the log head");
    let (ps, fs) = (rep.stats(), restored.stats());
    assert_eq!((ps.key_count, ps.key_sum), (fs.key_count, fs.key_sum), "recovered stats differ");
    assert_eq!(restored.scan(1, 100_000), rep.scan(1, 100_000), "recovered state differs");
}

/// Checkpoint portability: a cut from an 8-shard primary (one section per
/// shard) restores byte-identically onto a plain tree and onto a 3-shard
/// composition of a different structure — shard ownership is recomputed on
/// insert, so the section layout carries no obligation.
#[test]
fn checkpoints_restore_across_shard_counts() {
    let rep = harness::try_make_replicated("shard8(int-avl-pathcas)").unwrap();
    for k in 1..=300u64 {
        assert!(rep.insert(k, k * 2), "prefill {k}");
    }
    assert!(rep.remove(7));
    assert!(rep.rmw(9, &mut |v| v.unwrap() + 1));
    let ckpt = rep.checkpoint();
    assert_eq!(ckpt.sections.len(), 8, "one checkpoint section per primary shard");
    assert_eq!(ckpt.key_count(), 299);
    // Round-trip through the serialized form before restoring.
    let ckpt = Checkpoint::decode(&ckpt.encode()).unwrap();
    for target in ["int-bst-pathcas", "shard3(locked-btreemap)"] {
        let f = Follower::bootstrap(harness::make(target), &ckpt);
        assert_eq!(f.applied_seqno(), ckpt.seqno, "{target}");
        let (ps, fs) = (rep.stats(), f.stats());
        assert_eq!((ps.key_count, ps.key_sum), (fs.key_count, fs.key_sum), "{target}");
        assert_eq!(f.get(7), None, "{target}: removed key resurfaced");
        assert_eq!(f.get(9), Some(9 * 2 + 1), "{target}: rmw result lost");
        assert_eq!(f.scan(1, 400), rep.scan(1, 400), "{target}: merged order differs");
    }
}
