//! The wire half of replication: SUBSCRIBE streaming, WireTail-driven
//! followers, and the read-only follower front-end — on both backends,
//! since the reactor ports streaming and read-only mode.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::for_each_backend;
use mapapi::ConcurrentMap;
use replica::{Checkpoint, Event, Follower, ReplicaSet, ReplicatedMap};
use server::{
    Backend, Connection, Request, Response, Server, ServerOpts, ServiceMap, WireTail,
};
use shard::ShardedMap;
use workload::{run_scenario, scenario, RunParams};

fn primary() -> Arc<ReplicatedMap> {
    Arc::new(ReplicatedMap::new(Box::new(pathcas_ds::PathCasAvl::new())))
}

fn start_primary(map: &Arc<ReplicatedMap>, backend: Backend) -> Server {
    let opts = ServerOpts { log: Some(map.log()), backend, ..ServerOpts::default() };
    Server::start_with(Arc::clone(map) as Arc<dyn ConcurrentMap>, opts, "127.0.0.1:0").unwrap()
}

fn start_read_only(f: &Arc<Follower>, backend: Backend) -> Server {
    let opts = ServerOpts { log: None, read_only: true, backend, ..ServerOpts::default() };
    Server::start_with(Arc::clone(f) as Arc<dyn ConcurrentMap>, opts, "127.0.0.1:0").unwrap()
}

fn await_seqno(f: &Follower, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while f.applied_seqno() < want {
        assert!(Instant::now() < deadline, "follower stuck at {} < {want}", f.applied_seqno());
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn subscribe_streams_committed_mutations_in_order() {
    for_each_backend(|backend| {
        let map = primary();
        let srv = start_primary(&map, backend);

        let mut sub = Connection::connect(srv.local_addr()).unwrap();
        sub.subscribe(0).unwrap();

        let mut writer = Connection::connect(srv.local_addr()).unwrap();
        assert_eq!(writer.request(&Request::Put(1, 10)).unwrap(), Response::Put(true));
        assert_eq!(writer.request(&Request::Put(1, 10)).unwrap(), Response::Put(false));
        assert_eq!(writer.request(&Request::Rmw(1, 5)).unwrap(), Response::Rmw(true));
        assert_eq!(writer.request(&Request::Del(1)).unwrap(), Response::Del(true));
        assert_eq!(writer.request(&Request::Del(1)).unwrap(), Response::Del(false));

        // Only the three *committed* mutations stream, densely numbered; the
        // failed duplicate PUT and no-op DEL never appear.
        let mut got = Vec::new();
        while got.len() < 3 {
            got.extend(sub.next_events().unwrap());
        }
        assert_eq!(
            got,
            vec![
                (1, Event::Put(1, 10)),
                // RMW streams as its committed post-value — the canonical
                // affine update (10 + 5) & MAX_KEY, whose even mask drops bit 0.
                (2, Event::Set(1, 14)),
                (3, Event::Del(1)),
            ]
        );
        srv.shutdown();
    });
}

#[test]
fn subscribe_resumes_after_a_given_seqno() {
    for_each_backend(|backend| {
        let map = primary();
        for k in 1..=20u64 {
            map.insert(k, k);
        }
        let srv = start_primary(&map, backend);
        let mut sub = Connection::connect(srv.local_addr()).unwrap();
        sub.subscribe(18).unwrap();
        let got = sub.next_events().unwrap();
        assert_eq!(got, vec![(19, Event::Put(19, 19)), (20, Event::Put(20, 20))]);
        srv.shutdown();
    });
}

#[test]
fn subscribing_to_a_logless_server_errors_but_does_not_kill_it() {
    for_each_backend(|backend| {
        let map: Arc<dyn ConcurrentMap> = Arc::new(pathcas_ds::PathCasAvl::new());
        let srv = common::start_on(map, backend);
        let mut conn = Connection::connect(srv.local_addr()).unwrap();
        conn.subscribe(0).unwrap();
        let err = conn.next_events().unwrap_err();
        assert!(err.to_string().contains("no change stream"), "got: {err}");
        // Semantic error: the same connection keeps serving point ops.
        assert_eq!(conn.request(&Request::Put(5, 5)).unwrap(), Response::Put(true));
        srv.shutdown();
    });
}

#[test]
fn wire_tail_follower_tracks_the_primary_and_serves_reads() {
    for_each_backend(|backend| {
        let map = primary();
        for k in 1..=100u64 {
            map.insert(k, k);
        }
        let ckpt = map.checkpoint();
        let srv = start_primary(&map, backend);

        // Bootstrap from the checkpoint, then tail over the wire from there.
        let follower =
            Arc::new(Follower::bootstrap(Box::new(pathcas_ds::PathCasBst::new()), &ckpt));
        let tail = WireTail::start(srv.local_addr(), Arc::clone(&follower)).unwrap();

        // Mutations after the cut arrive through the subscription.
        let mut writer = Connection::connect(srv.local_addr()).unwrap();
        for k in 101..=200u64 {
            assert_eq!(writer.request(&Request::Put(k, k)).unwrap(), Response::Put(true));
        }
        writer.request(&Request::Del(50)).unwrap();
        writer.request(&Request::Rmw(60, 7)).unwrap();

        await_seqno(&follower, map.log().seqno());
        assert_eq!(follower.get(50), None);
        assert_eq!(follower.get(60), Some((60 + 7) & mapapi::MAX_KEY));
        assert_eq!(follower.get(200), Some(200));
        let (ps, fs) = (map.stats(), follower.stats());
        assert_eq!((ps.key_count, ps.key_sum), (fs.key_count, fs.key_sum));

        // Serve the follower read-only over its own socket, on the same
        // backend under test.
        let fsrv = start_read_only(&follower, backend);
        let mut conn = Connection::connect(fsrv.local_addr()).unwrap();
        assert_eq!(conn.request(&Request::Get(200)).unwrap(), Response::Get(Some(200)));
        // Writes are rejected with a semantic error and the connection survives.
        for req in [Request::Put(9999, 1), Request::Del(200), Request::Rmw(200, 1)] {
            match conn.request(&req).unwrap() {
                Response::Err(msg) => assert!(msg.contains("read-only"), "got: {msg}"),
                other => panic!("read-only server answered {req:?} with {other:?}"),
            }
        }
        assert_eq!(conn.request(&Request::Get(200)).unwrap(), Response::Get(Some(200)));
        // The read-only rejection happened before the map: key 9999 absent.
        assert_eq!(conn.request(&Request::Get(9999)).unwrap(), Response::Get(None));

        // And the full ConcurrentMap surface works against it via ServiceMap.
        let svc = ServiceMap::connect(fsrv.local_addr(), 2, "follower").unwrap();
        let stats = svc.stats();
        mapapi::suites::check_scan_matches_stats(&svc, &stats);

        fsrv.shutdown();
        tail.stop();
        srv.shutdown();
    });
}

#[test]
fn wire_tail_survives_primary_shutdown() {
    for_each_backend(|backend| {
        let map = primary();
        let srv = start_primary(&map, backend);
        let follower = Arc::new(Follower::bootstrap(
            Box::new(pathcas_ds::PathCasAvl::new()),
            &Checkpoint { seqno: 0, sections: vec![] },
        ));
        let tail = WireTail::start(srv.local_addr(), Arc::clone(&follower)).unwrap();
        map.insert(1, 1);
        await_seqno(&follower, 1);
        // Primary goes away: the tail thread ends cleanly, the follower keeps
        // serving its (now frozen) state.
        srv.shutdown();
        tail.stop();
        assert_eq!(follower.get(1), Some(1));
    });
}

/// The whole read-replica topology under load: a sharded replicated primary
/// behind its own server, two checkpoint-bootstrapped followers tailing it
/// over the wire and served read-only, and the `read-replica` scenario
/// driven through a `ReplicaSet` of socket pools — reads fan out across the
/// follower sockets, writes go to the primary socket.
#[test]
fn read_replica_topology_serves_a_scenario_and_followers_converge() {
    fn avl4() -> ShardedMap {
        ShardedMap::from_fn(4, |_| Box::new(pathcas_ds::PathCasAvl::new()))
    }
    for_each_backend(|backend| {
        let params = RunParams::standard(2, 512, Duration::from_millis(60), 0x5E7);
        // Prefilled in-process so the checkpoint already carries the working
        // set (the scenario's own load phase then finds its target met).
        let rep = Arc::new(ReplicatedMap::from_sharded(avl4()));
        mapapi::stress::prefill(
            &*rep,
            params.key_range,
            params.prefill,
            mapapi::stress::prefill_seed(params.seed),
        );
        let ckpt = rep.checkpoint();
        let log = rep.log();
        let srv = start_primary(&rep, backend);
        let primary_svc = ServiceMap::connect(srv.local_addr(), params.threads, "primary").unwrap();

        let followers: Vec<Arc<Follower>> =
            (0..2).map(|_| Arc::new(Follower::bootstrap(Box::new(avl4()), &ckpt))).collect();
        let tails: Vec<WireTail> = followers
            .iter()
            .map(|f| WireTail::start(srv.local_addr(), Arc::clone(f)).unwrap())
            .collect();
        let fsrvs: Vec<Server> = followers.iter().map(|f| start_read_only(f, backend)).collect();
        let fsvcs = fsrvs
            .iter()
            .map(|fsrv| {
                let svc = ServiceMap::connect(fsrv.local_addr(), params.threads, "follower");
                Box::new(svc.unwrap()) as Box<dyn ConcurrentMap>
            })
            .collect();
        let set = ReplicaSet::new(Box::new(primary_svc), fsvcs);

        // Staleness sampler: a follower's staleness is `log head − applied`.
        // A follower can only apply what was logged, so with `applied` read
        // first the difference must never be negative.
        let stop = AtomicBool::new(false);
        let (out, samples) = std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                let mut samples = 0u64;
                while !stop.load(Ordering::Acquire) {
                    for f in &followers {
                        let applied = f.applied_seqno();
                        let head = log.seqno();
                        assert!(applied <= head, "follower applied {applied} > log head {head}");
                        samples += 1;
                    }
                    std::thread::sleep(Duration::from_micros(250));
                }
                samples
            });
            let out = run_scenario(&set, &scenario("read-replica"), &params);
            stop.store(true, Ordering::Release);
            (out, sampler.join().expect("staleness sampler panicked"))
        });
        assert!(out.total_ops > 0, "no ops through the replica set");
        assert!(samples > 0, "no staleness samples");

        // The workers are quiescent, so the log head is final: every
        // follower must drain to it and then agree with the primary exactly.
        let head = log.seqno();
        assert!(head > params.prefill, "the scenario committed no writes");
        let ps = rep.stats();
        for f in &followers {
            await_seqno(f, head);
            let fs = f.stats();
            assert_eq!(
                (ps.key_count, ps.key_sum),
                (fs.key_count, fs.key_sum),
                "drained follower diverged from the primary"
            );
            mapapi::suites::check_scan_matches_stats(&**f, &fs);
        }

        drop(set);
        for t in tails {
            t.stop();
        }
        for s in fsrvs {
            s.shutdown();
        }
        srv.shutdown();
    });
}
