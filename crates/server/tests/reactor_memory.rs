//! The reactor holds buffers for the connections it has, not for the most
//! it ever had (DESIGN.md §10): a session's decoder takes a `READ_CHUNK`
//! (64 KiB) window on its first read, and that memory must leave with the
//! connection.  Live heap bytes — allocated minus freed, counted
//! process-wide by a global allocator, so this test sits alone in its
//! binary — are read before a herd of connections, while it is open, and
//! after it has closed.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mapapi::reference::LockedBTreeMap;
use mapapi::ConcurrentMap;
use server::{proto, Backend, Request, Server, ServerOpts};
use telemetry::alloc::{live_bytes, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Concurrent connections in the herd.
const CONNS: usize = 256;

/// What the server may still hold once the herd has gone: its connection
/// table's capacity and the like, far below one decoder window per
/// connection the herd had (`CONNS` × 64 KiB = 16 MiB).
const SLACK: i64 = 4 << 20;

/// GET response frame: `[len=10][tag=1][found u8][value u64]`.
const GET_RESP: usize = 14;

/// Open `n` connections, answer one GET on each with all `n` open, and
/// return them still open.
fn herd(server: &Server, n: usize, get: &[u8]) -> Vec<TcpStream> {
    let mut conns: Vec<TcpStream> = (0..n)
        .map(|_| TcpStream::connect(server.local_addr()).expect("connect"))
        .collect();
    let mut resp = [0u8; GET_RESP];
    for sock in &mut conns {
        sock.write_all(get).unwrap();
    }
    for sock in &mut conns {
        sock.read_exact(&mut resp).unwrap();
    }
    conns
}

/// Half-close every connection and wait for the server's EOF on each: the
/// server has read the client's EOF and is tearing the connection down.
fn close_all(conns: Vec<TcpStream>) {
    for sock in &conns {
        sock.shutdown(Shutdown::Write).unwrap();
    }
    let mut rest = [0u8; 1];
    for mut sock in conns {
        assert_eq!(sock.read(&mut rest).unwrap(), 0, "no bytes after the response");
    }
}

/// Poll until live bytes fall to `ceiling` (the teardown that follows the
/// server's FIN frees the session) or five seconds pass; returns the last
/// reading.
fn settle_below(ceiling: i64) -> i64 {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let live = live_bytes();
        if live <= ceiling || Instant::now() > deadline {
            return live;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn closed_connections_give_their_buffers_back() {
    let want_fds = (CONNS as u64) * 2 + 256;
    let got = epoll_shim::raise_nofile_limit(want_fds).expect("raising RLIMIT_NOFILE");
    assert!(got >= want_fds, "fd limit {got} too low for {CONNS} connections");

    let map: Arc<dyn ConcurrentMap> = Arc::new(LockedBTreeMap::new());
    map.insert(1, 10);
    let opts = ServerOpts { backend: Backend::Reactor, ..ServerOpts::default() };
    let server = Server::start_with(map, opts, "127.0.0.1:0").expect("bind loopback");
    let mut get = Vec::new();
    proto::encode_request(&Request::Get(1), &mut get);

    // Warm-up: lazy registries, both reactor threads' connection tables.
    close_all(herd(&server, 16, &get));
    std::thread::sleep(Duration::from_millis(100));
    let before = live_bytes();

    let conns = herd(&server, CONNS, &get);
    let open = live_bytes() - before;
    assert!(
        open >= (CONNS / 2 * proto::READ_CHUNK) as i64,
        "the herd should hold about a decoder window per connection: +{open} B"
    );
    close_all(conns);
    let after = settle_below(before + SLACK) - before;
    assert!(
        after <= SLACK,
        "{CONNS} closed connections left +{after} B live (+{open} B while open)"
    );
    server.shutdown();
}
