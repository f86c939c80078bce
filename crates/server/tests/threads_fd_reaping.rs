//! The threads backend lets go of a closed connection: its handler thread is
//! joined and its socket clone closed at a later accept, so a server that has
//! served many short connections holds no more fds than one that has served a
//! few.
//!
//! The open-fd count is process-wide, so this file holds one test.

use std::sync::Arc;

use mapapi::ConcurrentMap;
use pathcas_ds::PathCasAvl;
use server::{Backend, Connection, Request, Response, Server, ServerOpts};

/// Handlers still finishing when the next connection is accepted — the
/// previous one or two, three fds each — and room for the test harness.
const SLACK: usize = 16;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("read /proc/self/fd").count()
}

#[test]
fn sequential_connections_do_not_accumulate_fds_on_the_threads_backend() {
    let map = Arc::new(PathCasAvl::new());
    assert!(map.insert(1, 10));
    let opts = ServerOpts { backend: Backend::Threads, ..ServerOpts::default() };
    let server = Server::start_with(map, opts, "127.0.0.1:0").expect("bind loopback");
    let start = open_fds();
    for i in 0..1_000 {
        let mut conn = Connection::connect(server.local_addr()).expect("connect");
        assert_eq!(conn.request(&Request::Get(1)).expect("GET"), Response::Get(Some(10)));
        drop(conn);
        // Checked as it goes: a leak of one fd per connection fails here
        // long before it could run the process out of descriptors.
        let now = open_fds();
        assert!(now <= start + SLACK, "{now} fds open after {} connections, {start} before", i + 1);
    }
    server.shutdown();
}
