//! Asserts the steady-state allocation contract of both backends
//! (DESIGN.md §10): once a connection's pooled decoder and write queue are
//! warm, a GET round-trip — fill → incremental decode → execute → encode →
//! flush — performs **zero** heap allocations, counted process-wide by a
//! counting global allocator, and so does a SCAN: the served
//! `shard8(int-avl-pathcas)` merges out of its thread's scratch into the
//! session's scan buffer, which is encoded as a slice.  The client side of
//! the measured window is raw pre-encoded frames into fixed buffers, so the
//! whole process is allocation-silent while frames flow.
//!
//! A STATS phase then shows the counter is live (each shard's quiescent
//! `stats()` walk allocates its work stack) — keeping the zeros honest.
//!
//! After the raw-socket windows, the client's own contract: a warm
//! `Connection::pipeline` of 32 GETs allocates exactly once per call (the
//! `Vec` it returns), and a warm `Connection::request` allocates nothing.
//!
//! The measured window also runs with the telemetry layer fully enabled —
//! per-verb counters, the op latency histogram, reactor syscall counters —
//! and the registry delta
//! read *outside* the window must account for exactly the 2000 measured
//! GETs: instrumentation that is both live and allocation-free is the
//! zero-overhead claim of DESIGN.md §11.  On the reactor it must also count
//! exactly 2000 `read`s: a wakeup stops at a read that comes back short of
//! its window, so a round trip pays one `read` and no `WouldBlock` probe.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use mapapi::ConcurrentMap;
use server::{proto, Backend, Connection, Request, Response, Server, ServerOpts};
use telemetry::alloc::{allocations, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// GET request frame: `[len=9][op=1][key u64]`.
const GET_FRAME: usize = 13;
/// GET response frame: `[len=10][tag=1][found u8][value u64]`.
const GET_RESP: usize = 14;
/// SCAN(1, 16) response frame: `[len][tag=5][count=16][16 × (key, value)]`.
const SCAN_RESP: usize = 4 + 1 + 4 + 16 * 16;
/// STATS response frame: `[len][tag=6][u64][u128][u64][u64][u64]`.
const STATS_RESP: usize = 4 + 1 + 8 + 16 + 8 + 8 + 8;

/// `n` round trips of one pre-encoded request; returns the allocations the
/// whole process made meanwhile.
fn round_trips(sock: &mut TcpStream, req: &[u8], resp: &mut [u8], n: usize) -> u64 {
    let before = allocations();
    for _ in 0..n {
        sock.write_all(req).unwrap();
        sock.read_exact(resp).unwrap();
    }
    allocations() - before
}

/// The SCAN half of the contract on an open connection: warm, `SCAN(1, 16)`
/// allocates nothing; `STATS`, on the same connection, shows the counter
/// would have seen it.
fn scan_path_is_allocation_free(sock: &mut TcpStream, backend: &str) {
    let mut scan = Vec::new();
    proto::encode_request(&Request::Scan(1, 16), &mut scan);
    let mut scan_resp = [0u8; SCAN_RESP];
    // Warm-up: the serving thread's cursor table, runs, in-order stack and
    // builder, the session's scan buffer, and a write queue of this size.
    round_trips(sock, &scan, &mut scan_resp, 256);
    let scans_before = telemetry::value("srv_ops_scan_total").expect("metric registered");
    let delta = round_trips(sock, &scan, &mut scan_resp, 1000);
    // [len][tag=SCAN][count=16][(1, 10), (2, 2), …]
    assert_eq!(scan_resp[4..9], [5, 16, 0, 0, 0]);
    assert_eq!(u64::from_le_bytes(scan_resp[9..17].try_into().unwrap()), 1);
    assert_eq!(u64::from_le_bytes(scan_resp[17..25].try_into().unwrap()), 10);
    assert_eq!(u64::from_le_bytes(scan_resp[SCAN_RESP - 16..SCAN_RESP - 8].try_into().unwrap()), 16);
    assert_eq!(delta, 0, "{backend}: the warm SCAN path must not allocate ({delta} over 1000 round-trips)");
    assert_eq!(telemetry::value("srv_ops_scan_total").unwrap() - scans_before, 1000);

    let mut stats = Vec::new();
    proto::encode_request(&Request::Stats, &mut stats);
    let mut stats_resp = [0u8; STATS_RESP];
    let delta = round_trips(sock, &stats, &mut stats_resp, 100);
    assert_eq!(stats_resp[4], 6);
    assert!(
        delta >= 100,
        "{backend}: every shard's stats() walk allocates its stack (got {delta} allocations over \
         100 ops) — if this fires, the zeros above are not trustworthy"
    );
}

/// The client half of the contract, on a fresh connection to `srv`: warm,
/// a 32-GET `pipeline` allocates exactly its returned `Vec` and a `request`
/// allocates nothing — on the server side too, so the whole process counts.
fn client_allocation_contract(srv: &Server, backend: &str) {
    const CALLS: u64 = 500;
    let mut conn = Connection::connect(srv.local_addr()).unwrap();
    let burst = [Request::Get(1); 32];
    // Warm-up: the request buffer, the decoder's read window, and the
    // server's session for a burst of this size.
    for _ in 0..256 {
        conn.pipeline(&burst).unwrap();
        conn.request(&Request::Get(1)).unwrap();
    }
    let before = allocations();
    for _ in 0..CALLS {
        let resps = conn.pipeline(&burst).unwrap();
        assert!(resps.len() == 32 && resps.iter().all(|r| *r == Response::Get(Some(10))));
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, CALLS,
        "{backend}: a warm 32-GET pipeline must allocate only its returned Vec ({delta} \
         allocations over {CALLS} calls)"
    );
    let before = allocations();
    for _ in 0..CALLS {
        assert!(conn.request(&Request::Get(1)).unwrap() == Response::Get(Some(10)));
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "{backend}: a warm request must not allocate ({delta} over {CALLS} calls)");
}

/// One #[test] so no sibling test's bookkeeping can allocate concurrently
/// with the measured window — the counter is process-global.
#[test]
fn reactor_steady_state_get_path_is_allocation_free() {
    // Let libtest's main thread finish parking in its result-channel
    // `recv`: that first blocking receive lazily allocates the thread's
    // park context, which must not land inside a measured window.
    std::thread::sleep(std::time::Duration::from_millis(100));
    // The served map must not allocate on reads either: the trees' gets and
    // scans run out of per-thread scratch, and so does the shard merge.
    let map: Arc<dyn ConcurrentMap> = Arc::new(shard::ShardedMap::from_fn(8, |_| {
        Box::new(pathcas_ds::PathCasAvl::new())
    }));
    map.insert(1, 10);
    for k in 2..=64 {
        map.insert(k, k);
    }
    let srv = Server::start_with(
        Arc::clone(&map),
        // This test IS the reactor's allocation contract.
        ServerOpts { backend: Backend::Reactor, ..ServerOpts::default() },
        "127.0.0.1:0",
    )
    .unwrap();

    let mut sock = TcpStream::connect(srv.local_addr()).unwrap();
    sock.set_nodelay(true).unwrap();

    let mut get = Vec::with_capacity(GET_FRAME);
    proto::encode_request(&Request::Get(1), &mut get);
    assert_eq!(get.len(), GET_FRAME);
    let mut resp = [0u8; GET_RESP];

    // Warm up: the connection's pooled decoder grows to its read chunk, the
    // write queue to a response, the kernel-side windows settle.
    for _ in 0..256 {
        sock.write_all(&get).unwrap();
        sock.read_exact(&mut resp).unwrap();
    }
    // [len=10][tag=GET][found=1][value=10 LE]
    assert_eq!(resp[..6], [10, 0, 0, 0, 1, 1]);
    assert_eq!(u64::from_le_bytes(resp[6..].try_into().unwrap()), 10);

    // Registry reads stay outside the measured window (String rendering
    // allocates); the *increments* inside the window must not.
    let gets_before = telemetry::value("srv_ops_get_total").expect("metric registered");
    let reads_before = telemetry::value("reactor_read_syscalls_total").unwrap();
    let sampled_before = telemetry::value("trace_sampled_total").expect("tracer registered");
    let spans_before = telemetry::value("trace_spans_recorded_total").unwrap();

    let before = allocations();
    for _ in 0..2000 {
        sock.write_all(&get).unwrap();
        sock.read_exact(&mut resp).unwrap();
    }
    let after = allocations();
    assert_eq!(resp[..6], [10, 0, 0, 0, 1, 1]);
    assert_eq!(
        after - before,
        0,
        "the reactor's warm GET path must not allocate (got {} allocations over 2000 \
         round-trips)",
        after - before
    );

    // The allocation-free window was fully instrumented: every measured
    // GET landed in the per-verb counter, and the reactor's read-syscall
    // counter moved by one per round trip — each 13-byte request is one
    // short read, with no `WouldBlock` probe after it.
    assert_eq!(
        telemetry::value("srv_ops_get_total").unwrap() - gets_before,
        2000,
        "telemetry missed ops inside the zero-alloc window"
    );
    assert_eq!(
        telemetry::value("reactor_read_syscalls_total").unwrap() - reads_before,
        2000,
        "the reactor must pay exactly one read per round trip"
    );

    // The span tracer was live at its default 1-in-64 rate for the whole
    // window — every 64th GET recorded its full phase breakdown — and the
    // zero above was measured *with* it.  2000 ops must sample at least
    // ⌊2000/64⌋ times, each with several spans.
    assert_eq!(telemetry::trace::sample_every(), telemetry::trace::DEFAULT_SAMPLE_EVERY);
    let sampled = telemetry::value("trace_sampled_total").unwrap() - sampled_before;
    assert!(sampled >= 2000 / telemetry::trace::DEFAULT_SAMPLE_EVERY, "sampler stalled: {sampled}");
    assert!(
        telemetry::value("trace_spans_recorded_total").unwrap() - spans_before >= 4 * sampled,
        "sampled ops recorded too few spans"
    );

    scan_path_is_allocation_free(&mut sock, "reactor");
    client_allocation_contract(&srv, "reactor");
    drop(sock);
    srv.shutdown();

    // The threaded backend owes the same contract: its warm GET path —
    // blocking frame read → decode → execute → encode → batched flush —
    // with the tracer live at the default rate, allocation-free.
    let srv = Server::start_with(
        Arc::clone(&map),
        ServerOpts { backend: Backend::Threads, ..ServerOpts::default() },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut sock = TcpStream::connect(srv.local_addr()).unwrap();
    sock.set_nodelay(true).unwrap();
    for _ in 0..256 {
        sock.write_all(&get).unwrap();
        sock.read_exact(&mut resp).unwrap();
    }
    let sampled_before = telemetry::value("trace_sampled_total").unwrap();
    let before = allocations();
    for _ in 0..2000 {
        sock.write_all(&get).unwrap();
        sock.read_exact(&mut resp).unwrap();
    }
    let after = allocations();
    assert_eq!(resp[..6], [10, 0, 0, 0, 1, 1]);
    assert_eq!(
        after - before,
        0,
        "the threaded backend's warm GET path must not allocate (got {} allocations over \
         2000 round-trips)",
        after - before
    );
    assert!(
        telemetry::value("trace_sampled_total").unwrap() - sampled_before
            >= 2000 / telemetry::trace::DEFAULT_SAMPLE_EVERY,
        "sampler stalled on the threaded backend"
    );
    scan_path_is_allocation_free(&mut sock, "threads");
    client_allocation_contract(&srv, "threads");
    drop(sock);
    srv.shutdown();
}
