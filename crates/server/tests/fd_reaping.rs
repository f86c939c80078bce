//! A burst of connections that close together is let go on both backends:
//! their fds (and, on the threads backend, their handler threads) wait
//! neither for the next connection nor for the server's shutdown.
//!
//! The open-fd count is process-wide, so this file holds one test.

mod common;

use std::sync::Arc;

use common::{await_fds, for_each_backend, open_fds, start_on};
use mapapi::ConcurrentMap;
use pathcas_ds::PathCasAvl;
use server::{Connection, Request, Response};

/// Connections opened at once and then closed together, per backend.
const CONCURRENT: usize = 100;

#[test]
fn connections_closed_at_once_hold_no_fds() {
    for_each_backend(|backend| {
        let map = Arc::new(PathCasAvl::new());
        assert!(map.insert(1, 10));
        let server = start_on(map, backend);
        let start = open_fds();
        let conns: Vec<Connection> = (0..CONCURRENT)
            .map(|_| {
                let mut conn = Connection::connect(server.local_addr()).expect("connect");
                assert_eq!(conn.request(&Request::Get(1)).expect("GET"), Response::Get(Some(10)));
                conn
            })
            .collect();
        assert!(open_fds() >= start + CONCURRENT, "the open connections hold no fds");
        drop(conns);
        // No further connection is made: the server must let go unprompted.
        await_fds(start, &format!("{CONCURRENT} connections closed at once"));
        server.shutdown();
    });
}
