//! A subscriber that hangs up while the change log is idle is let go: its
//! connection's fds (and, on the threads backend, its handler thread) wait
//! neither for the next append, nor for another connection, nor for the
//! server's shutdown.
//!
//! The open-fd count is process-wide, so this file holds one test.

mod common;

use std::sync::Arc;

use common::{await_fds, for_each_backend, open_fds, opts};
use mapapi::ConcurrentMap;
use pathcas_ds::PathCasAvl;
use replica::ReplicatedMap;
use server::{Connection, Server, ServerOpts};

/// Subscribers opened and dropped per backend.
const SUBSCRIBERS: usize = 200;

#[test]
fn subscribers_that_hang_up_on_an_idle_log_hold_no_fds() {
    for_each_backend(|backend| {
        let map = Arc::new(ReplicatedMap::new(Box::new(PathCasAvl::new())));
        assert!(map.insert(1, 10));
        let opts = ServerOpts { log: Some(map.log()), ..opts(backend) };
        let served = Arc::clone(&map) as Arc<dyn ConcurrentMap>;
        let server = Server::start_with(served, opts, "127.0.0.1:0").expect("bind loopback");
        let start = open_fds();
        for _ in 0..SUBSCRIBERS {
            let mut sub = Connection::connect(server.local_addr()).expect("connect");
            // Resume after the one event: the log stays idle from here on.
            sub.subscribe(1).expect("SUBSCRIBE");
        }
        await_fds(start, &format!("{SUBSCRIBERS} subscribers hung up"));
        server.shutdown();
    });
}
