//! The many-connections soak: thousands of concurrent pipelined
//! connections held open against one server — the regime the reactor
//! backend exists for (a thread per connection at this scale means
//! thousands of stacks; the reactor spends a buffer pair each).
//!
//! Ignored by default (it wants a release build and a minute of wall
//! clock); CI runs it explicitly:
//!
//! ```text
//! cargo test --release -q -p server --test soak -- --ignored
//! ```
//!
//! It runs on the reactor, with `CONNS` connections.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};

use mapapi::ConcurrentMap;
use server::{proto, Backend, Request, Response, Server, ServerOpts, ServiceMap};
use shard::ShardedMap;

/// The herd: above the 2 000-connection acceptance floor.
const CONNS: usize = 2048;

/// Pipelined writes per connection; keys are unique per (connection, op),
/// so the response order proves per-connection FIFO end to end.
const OPS: usize = 32;

#[test]
#[ignore = "soak: thousands of live connections; run explicitly (CI release job)"]
fn many_connections_pipelined_soak() {
    // Server + client live in this one process: two fds per connection,
    // plus slack for the suite itself.
    let want_fds = (CONNS as u64) * 2 + 512;
    let got = epoll_shim::raise_nofile_limit(want_fds)
        .expect("raising RLIMIT_NOFILE for the soak");
    assert!(got >= want_fds, "fd limit {got} too low for {CONNS} connections");

    let map = ShardedMap::from_fn(8, |_| Box::new(pathcas_ds::PathCasAvl::new()));
    let map: Arc<dyn ConcurrentMap> = Arc::new(map);
    let srv = Server::start_with(
        Arc::clone(&map),
        ServerOpts { backend: Backend::Reactor, ..ServerOpts::default() },
        "127.0.0.1:0",
    )
    .expect("binding the soak server");
    let addr = srv.local_addr();

    // A modest pool of driver threads multiplexes the herd client-side; the
    // point of the soak is the *server-side* concurrency, which is exactly
    // `CONNS` — every socket is open, written, and unread-by-us while its
    // siblings are in flight.
    let drivers = 16usize;
    let barrier = Arc::new(Barrier::new(drivers));
    std::thread::scope(|s| {
        for d in 0..drivers {
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                // Phase 1: open this driver's slice of the herd.
                let lo = CONNS * d / drivers;
                let hi = CONNS * (d + 1) / drivers;
                let mut socks: Vec<TcpStream> = (lo..hi)
                    .map(|c| {
                        TcpStream::connect(addr)
                            .unwrap_or_else(|e| panic!("connect #{c}: {e}"))
                    })
                    .collect();
                // Every connection in the process exists before any op
                // flows: the server genuinely holds `CONNS` live sockets.
                barrier.wait();

                // Phase 2: every connection pipelines its burst of PUTs
                // (unique keys) without reading — all bursts are in flight
                // together.
                for (i, sock) in socks.iter_mut().enumerate() {
                    let c = (lo + i) as u64;
                    let mut burst = Vec::new();
                    for op in 0..OPS as u64 {
                        let key = c * OPS as u64 + op + 1;
                        proto::encode_request(&Request::Put(key, key), &mut burst);
                    }
                    sock.write_all(&burst).unwrap();
                }
                barrier.wait();

                // Phase 3: drain every connection; responses must be
                // complete and in submission order.  Then a pipelined GET
                // burst re-reads the same keys — the values coming back in
                // key order is the FIFO proof.
                for (i, sock) in socks.iter_mut().enumerate() {
                    let c = (lo + i) as u64;
                    let mut gets = Vec::new();
                    for op in 0..OPS as u64 {
                        let key = c * OPS as u64 + op + 1;
                        proto::encode_request(&Request::Get(key), &mut gets);
                    }
                    let mut reader = BufReader::new(sock.try_clone().unwrap());
                    let mut payload = Vec::new();
                    for op in 0..OPS {
                        assert!(
                            proto::read_frame(&mut reader, &mut payload).unwrap(),
                            "conn {c} put-response {op} missing"
                        );
                        assert_eq!(
                            proto::decode_response(&payload).unwrap(),
                            Response::Put(true),
                            "conn {c} put {op}"
                        );
                    }
                    sock.write_all(&gets).unwrap();
                    for op in 0..OPS as u64 {
                        let key = c * OPS as u64 + op + 1;
                        assert!(
                            proto::read_frame(&mut reader, &mut payload).unwrap(),
                            "conn {c} get-response {op} missing"
                        );
                        assert_eq!(
                            proto::decode_response(&payload).unwrap(),
                            Response::Get(Some(key)),
                            "conn {c}: response {op} out of order"
                        );
                    }
                }
                // The herd stays open until every driver has drained.
                barrier.wait();
                drop(socks);
            });
        }
    });

    // Final wire-level audit over a fresh connection: the chunked SCAN walk
    // must agree with STATS exactly — count and keysum — after the storm.
    let svc = ServiceMap::connect(addr, 2, "soak-audit").expect("audit pool");
    let stats = svc.stats();
    let n = (CONNS * OPS) as u64;
    assert_eq!(stats.key_count, n, "every put landed exactly once");
    assert_eq!(stats.key_sum, u128::from(n) * u128::from(n + 1) / 2, "keysum of 1..=n");
    mapapi::suites::check_scan_matches_stats(&svc, &stats);
    drop(svc);
    srv.shutdown();
}
