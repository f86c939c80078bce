//! The threads backend lets go of a closed connection: its handler thread
//! ends and its socket clone is closed without waiting for the next accept,
//! so a server that has served many short connections holds no more fds than
//! one that has served a few.
//!
//! The open-fd count is process-wide, so this file holds one test.

mod common;

use std::sync::Arc;

use common::{await_fds, open_fds, start_on};
use mapapi::ConcurrentMap;
use pathcas_ds::PathCasAvl;
use server::{Backend, Connection, Request, Response};

/// Many short connections, one after another, checked as it goes: a leak of
/// one fd per connection fails here long before it could run the process out
/// of descriptors.
#[test]
fn sequential_connections_do_not_accumulate_fds_on_the_threads_backend() {
    let map = Arc::new(PathCasAvl::new());
    assert!(map.insert(1, 10));
    let server = start_on(map, Backend::Threads);
    let start = open_fds();
    for i in 0..1_000 {
        let mut conn = Connection::connect(server.local_addr()).expect("connect");
        assert_eq!(conn.request(&Request::Get(1)).expect("GET"), Response::Get(Some(10)));
        drop(conn);
        await_fds(start, &format!("{} sequential connections", i + 1));
    }
    server.shutdown();
}
