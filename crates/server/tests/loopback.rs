//! End-to-end loopback tests: a real `Server` on an ephemeral port, real
//! sockets, and the `ServiceMap` pool driven by the same `mapapi` suites
//! and workload executor every in-process structure runs.
//!
//! Every test runs against **both** serving backends (threads and the
//! epoll reactor) via `for_each_backend` — the wire protocol is
//! byte-identical, so so must be every observable here.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{for_each_backend, start_on};
use mapapi::reference::LockedBTreeMap;
use mapapi::ConcurrentMap;
use server::{Backend, Connection, Request, Response, Server, ServiceMap};
use shard::ShardedMap;
use workload::{run_scenario, run_scenario_batched, scenario, RunParams};

fn start_oracle_server(backend: Backend) -> Server {
    start_on(Arc::new(LockedBTreeMap::new()), backend)
}

fn start_sharded_server(n: usize, backend: Backend) -> Server {
    let map = ShardedMap::from_fn(n, |_| Box::new(pathcas_ds::PathCasAvl::new()));
    start_on(Arc::new(map), backend)
}

#[test]
fn protocol_verbs_roundtrip_over_a_real_socket() {
    for_each_backend(|backend| {
        let server = start_oracle_server(backend);
        let mut conn = Connection::connect(server.local_addr()).unwrap();

        assert_eq!(conn.request(&Request::Get(1)).unwrap(), Response::Get(None));
        assert_eq!(conn.request(&Request::Put(1, 10)).unwrap(), Response::Put(true));
        assert_eq!(conn.request(&Request::Put(1, 11)).unwrap(), Response::Put(false));
        assert_eq!(conn.request(&Request::Get(1)).unwrap(), Response::Get(Some(10)));
        // Present key: (10 + 4) & MAX_KEY = 14 (the workspace's canonical
        // affine update, mask included — MAX_KEY's low bit is 0).
        assert_eq!(conn.request(&Request::Rmw(1, 4)).unwrap(), Response::Rmw(true));
        assert_eq!(conn.request(&Request::Get(1)).unwrap(), Response::Get(Some(14)));
        // Absent key: inserted with the delta itself, like the in-process rmw.
        assert_eq!(conn.request(&Request::Rmw(9, 7)).unwrap(), Response::Rmw(false));
        assert_eq!(conn.request(&Request::Get(9)).unwrap(), Response::Get(Some(7)));
        assert_eq!(conn.request(&Request::Del(9)).unwrap(), Response::Del(true));
        assert_eq!(conn.request(&Request::Del(9)).unwrap(), Response::Del(false));
        assert_eq!(
            conn.request(&Request::Scan(1, 10)).unwrap(),
            Response::Scan(vec![(1, 14)])
        );
        match conn.request(&Request::Stats).unwrap() {
            Response::Stats(s) => {
                assert_eq!(s.key_count, 1);
                assert_eq!(s.key_sum, 1);
            }
            other => panic!("unexpected STATS answer {other:?}"),
        }
        drop(conn);
        server.shutdown();
    });
}

#[test]
fn pipelined_bursts_come_back_in_order() {
    for_each_backend(|backend| {
        let server = start_oracle_server(backend);
        let mut conn = Connection::connect(server.local_addr()).unwrap();

        // One burst: 64 puts, then a burst mixing every verb.
        let puts: Vec<Request> = (1..=64u64).map(|k| Request::Put(k, k * 2)).collect();
        let resps = conn.pipeline(&puts).unwrap();
        assert_eq!(resps.len(), 64);
        assert!(resps.iter().all(|r| *r == Response::Put(true)));

        let burst = vec![
            Request::Get(7),
            Request::Del(8),
            Request::Scan(60, 10),
            Request::Rmw(7, 100),
            Request::Get(7),
            Request::Stats,
        ];
        let resps = conn.pipeline(&burst).unwrap();
        assert_eq!(resps[0], Response::Get(Some(14)));
        assert_eq!(resps[1], Response::Del(true));
        assert_eq!(
            resps[2],
            Response::Scan((60..=64u64).map(|k| (k, k * 2)).collect())
        );
        assert_eq!(resps[3], Response::Rmw(true));
        assert_eq!(resps[4], Response::Get(Some(114)));
        match &resps[5] {
            Response::Stats(s) => assert_eq!(s.key_count, 63),
            other => panic!("unexpected STATS answer {other:?}"),
        }
        drop(conn);
        server.shutdown();
    });
}

#[test]
fn oversized_scans_get_a_semantic_error_and_the_connection_survives() {
    for_each_backend(|backend| {
        let server = start_oracle_server(backend);
        let mut conn = Connection::connect(server.local_addr()).unwrap();
        conn.request(&Request::Put(1, 10)).unwrap();
        // One past the cap: a semantic Err response, not a torn connection.
        let too_long = (server::MAX_SCAN_LEN + 1) as u32;
        match conn.request(&Request::Scan(1, too_long)).unwrap() {
            Response::Err(msg) => {
                assert!(msg.contains("MAX_SCAN_LEN"), "unexpected error: {msg}")
            }
            other => panic!("expected Err response, got {other:?}"),
        }
        // Framing stayed intact: the next request works.
        assert_eq!(conn.request(&Request::Get(1)).unwrap(), Response::Get(Some(10)));
        assert_eq!(
            conn.request(&Request::Scan(1, server::MAX_SCAN_LEN as u32)).unwrap(),
            Response::Scan(vec![(1, 10)])
        );
        drop(conn);
        server.shutdown();
    });
}

#[test]
fn malformed_frames_get_an_error_then_a_close() {
    use std::io::{Read, Write};
    for_each_backend(|backend| {
        let server = start_oracle_server(backend);
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        // A framed payload with an unknown opcode.
        raw.write_all(&3u32.to_le_bytes()).unwrap();
        raw.write_all(&[0xEE, 1, 2]).unwrap();
        let mut buf = Vec::new();
        raw.read_to_end(&mut buf).unwrap(); // server responds then closes
        let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        assert_eq!(len, buf.len() - 4, "exactly one response frame before close");
        match server::proto::decode_response(&buf[4..]).unwrap() {
            Response::Err(msg) => assert!(msg.contains("opcode"), "unexpected error: {msg}"),
            other => panic!("expected Err response, got {other:?}"),
        }
        drop(raw);
        server.shutdown();
    });
}

#[test]
fn service_map_passes_the_mapapi_suites_over_the_wire() {
    for_each_backend(|backend| {
        // Every suite expects a fresh structure, so each gets its own server.
        let with_fresh_service = |check: &dyn Fn(&ServiceMap)| {
            let server = start_sharded_server(4, backend);
            let svc =
                ServiceMap::connect(server.local_addr(), 2, "shard4(int-avl-pathcas)").unwrap();
            assert_eq!(svc.name(), "svc(shard4(int-avl-pathcas))");
            check(&svc);
            drop(svc);
            server.shutdown();
        };
        with_fresh_service(&|svc| mapapi::suites::check_basic_semantics(svc));
        with_fresh_service(&|svc| mapapi::suites::check_scan_semantics(svc));
        with_fresh_service(&|svc| {
            mapapi::suites::check_random_against_oracle(svc, 2000, 64, 0x77FE)
        });
        with_fresh_service(&|svc| mapapi::suites::check_scan_against_oracle(svc, 64, 0x77FF));
    });
}

#[test]
fn scenarios_run_in_service_mode_with_latency_histograms() {
    for_each_backend(|backend| {
        let server = start_sharded_server(8, backend);
        let svc = ServiceMap::connect(server.local_addr(), 2, "shard8(int-avl-pathcas)").unwrap();
        let params = RunParams::standard(2, 512, Duration::from_millis(40), 0x5EC5);
        let out = run_scenario(&svc, &scenario("ycsb-b"), &params);
        assert!(out.total_ops > 0, "no ops over the socket path");
        assert!(0 < out.ok_ops && out.ok_ops < out.total_ops, "ycsb-b reads both hit and miss");
        // The quiescent audit works over the wire too: STATS + chunked SCANs.
        mapapi::suites::check_scan_matches_stats(&svc, &out.final_stats);
        drop(svc);
        server.shutdown();
    });
}

#[test]
fn batched_service_mode_stresses_pipelining() {
    for_each_backend(|backend| {
        let server = start_sharded_server(4, backend);
        let svc = ServiceMap::connect(server.local_addr(), 2, "shard4(int-avl-pathcas)").unwrap();
        let params = RunParams::standard(2, 512, Duration::from_millis(40), 0xBA7C);
        let out = run_scenario_batched(&svc, &svc, &scenario("service-mixed"), &params, 16);
        assert!(out.total_ops > 0);
        assert_eq!(out.total_ops % 16, 0, "whole batches only");
        assert!(out.scans > 0, "service-mixed must ship scans in its pipelines");
        drop(svc);
        server.shutdown();
    });
}

#[test]
fn shutdown_is_clean_and_releases_the_port() {
    for_each_backend(|backend| {
        let server = start_oracle_server(backend);
        let addr = server.local_addr();
        // A client that connects and holds the connection open and idle:
        // shutdown must still return (neither backend may wait on an idle
        // client) rather than waiting on the client.
        let mut idle = Connection::connect(addr).unwrap();
        assert_eq!(idle.request(&Request::Put(3, 30)).unwrap(), Response::Put(true));
        server.shutdown(); // must join every thread and return
        drop(idle);
        // The port no longer accepts new work.
        assert!(Connection::connect(addr).is_err() || {
            // A TIME_WAIT race can let the connect through; the write side
            // must then fail because nothing serves it.
            let mut c = Connection::connect(addr).unwrap();
            c.request(&Request::Get(1)).is_err()
        });
    });
}
