//! A subscriber that hangs up while the change log is idle is let go: its
//! connection's fds (and, on the threads backend, its handler thread) do not
//! wait for the next append or for the server's shutdown.
//!
//! The open-fd count is process-wide, so this file holds one test.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use common::for_each_backend;
use mapapi::ConcurrentMap;
use pathcas_ds::PathCasAvl;
use replica::{ChangeLog, ReplicatedMap};
use server::{Connection, Request, Response, Server, ServerOpts};

/// Subscribers opened and dropped per backend.
const SUBSCRIBERS: usize = 200;

/// The probe connection's handler, which the threads backend reaps only at
/// the next accept (three fds), and room for the test harness.
const SLACK: usize = 16;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("read /proc/self/fd").count()
}

#[test]
fn subscribers_that_hang_up_on_an_idle_log_hold_no_fds() {
    for_each_backend(|backend| {
        let map = Arc::new(ReplicatedMap::new(Box::new(PathCasAvl::new())));
        assert!(map.insert(1, 10));
        let opts = ServerOpts { log: Some(map.log()), backend, ..ServerOpts::default() };
        let served = Arc::clone(&map) as Arc<dyn ConcurrentMap>;
        let server = Server::start_with(served, opts, "127.0.0.1:0").expect("bind loopback");
        let start = open_fds();
        for _ in 0..SUBSCRIBERS {
            let mut sub = Connection::connect(server.local_addr()).expect("connect");
            // Resume after the one event: the log stays idle from here on.
            sub.subscribe(1).expect("SUBSCRIBE");
        }
        // Every subscriber has hung up.  A few polls later, one more
        // connection lets the threads backend reap the finished handlers.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            std::thread::sleep(ChangeLog::POLL * 3);
            let mut probe = Connection::connect(server.local_addr()).expect("connect");
            assert_eq!(probe.request(&Request::Get(1)).expect("GET"), Response::Get(Some(10)));
            drop(probe);
            let now = open_fds();
            if now <= start + SLACK {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{now} fds open after {SUBSCRIBERS} subscribers hung up, {start} before"
            );
        }
        server.shutdown();
    });
}
