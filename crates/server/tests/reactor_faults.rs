//! The reactor-era fault battery: torn frames at every byte boundary,
//! slow-reader herds, mid-frame disconnects, and RST storms (the epoll
//! `EPOLLHUP`/`EPOLLERR` path).  Run against **both** backends — the torn
//! and slow cases are exactly where an event-loop rewrite diverges from a
//! thread per connection, so any difference fails with the backend named.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::Duration;

use common::{for_each_backend, start_on};
use mapapi::ConcurrentMap;
use replica::ReplicatedMap;
use server::{Backend, Connection, Request, Response, Server, ServerOpts};

fn start(backend: Backend) -> (Server, Arc<dyn ConcurrentMap>) {
    let map: Arc<dyn ConcurrentMap> = Arc::new(pathcas_ds::PathCasAvl::new());
    let srv = start_on(Arc::clone(&map), backend);
    (srv, map)
}

fn assert_still_serving(srv: &Server, key: u64) {
    let mut conn = Connection::connect(srv.local_addr()).unwrap();
    assert_eq!(conn.request(&Request::Put(key, key)).unwrap(), Response::Put(true));
    assert_eq!(conn.request(&Request::Get(key)).unwrap(), Response::Get(Some(key)));
}

/// Arrange for `drop(stream)` to send an RST instead of a FIN, so the
/// server sees a hard connection error (`EPOLLHUP`/`EPOLLERR` on the
/// reactor, `ECONNRESET` on a threaded read/write).
fn arm_reset_on_drop(stream: &TcpStream) {
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const Linger, len: u32) -> i32;
    }
    let opt = Linger { l_onoff: 1, l_linger: 0 };
    // SAFETY: passes a properly sized, repr(C) option struct for a live fd.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &opt,
            std::mem::size_of::<Linger>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_LINGER) failed: {}", std::io::Error::last_os_error());
}

#[test]
fn a_request_torn_at_every_byte_boundary_still_decodes() {
    for_each_backend(|backend| {
        let (srv, map) = start(backend);
        map.insert(77, 770);
        let mut frame = Vec::new();
        server::proto::encode_request(&Request::Get(77), &mut frame);
        // Deliver the same request split at every possible byte boundary,
        // with a pause so the server's read path genuinely sees two
        // deliveries (TCP_NODELAY is on both sides).
        for split in 1..frame.len() {
            let mut raw = TcpStream::connect(srv.local_addr()).unwrap();
            raw.set_nodelay(true).unwrap();
            raw.write_all(&frame[..split]).unwrap();
            std::thread::sleep(Duration::from_millis(2));
            raw.write_all(&frame[split..]).unwrap();
            let mut reader = std::io::BufReader::new(raw);
            let mut payload = Vec::new();
            assert!(
                server::proto::read_frame(&mut reader, &mut payload).unwrap(),
                "split at byte {split}: no response"
            );
            assert_eq!(
                server::proto::decode_response(&payload).unwrap(),
                Response::Get(Some(770)),
                "split at byte {split}"
            );
        }
        srv.shutdown();
    });
}

#[test]
fn a_pipelined_burst_torn_mid_stream_still_answers_in_order() {
    for_each_backend(|backend| {
        let (srv, _map) = start(backend);
        // 32 requests in one stream, torn in the middle of frame 17's body.
        let reqs: Vec<Request> = (1..=32u64).map(|k| Request::Put(k, k)).collect();
        let mut stream = Vec::new();
        for r in &reqs {
            server::proto::encode_request(r, &mut stream);
        }
        let cut = stream.len() / 2 + 3; // mid-frame, not on a boundary
        let mut raw = TcpStream::connect(srv.local_addr()).unwrap();
        raw.set_nodelay(true).unwrap();
        raw.write_all(&stream[..cut]).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        raw.write_all(&stream[cut..]).unwrap();
        let mut reader = std::io::BufReader::new(raw);
        let mut payload = Vec::new();
        for i in 0..reqs.len() {
            assert!(server::proto::read_frame(&mut reader, &mut payload).unwrap(), "frame {i}");
            assert_eq!(
                server::proto::decode_response(&payload).unwrap(),
                Response::Put(true),
                "response {i} out of order or wrong"
            );
        }
        srv.shutdown();
    });
}

#[test]
fn full_frame_plus_half_frame_answers_the_full_frame() {
    for_each_backend(|backend| {
        let (srv, map) = start(backend);
        map.insert(9, 90);
        // One write carries a complete PUT and the first half of a GET; the
        // client then waits.  The PUT's answer must not be held back until
        // the torn GET completes.
        let mut put = Vec::new();
        server::proto::encode_request(&Request::Put(8, 80), &mut put);
        let mut get = Vec::new();
        server::proto::encode_request(&Request::Get(9), &mut get);
        let half = get.len() / 2;
        let mut raw = TcpStream::connect(srv.local_addr()).unwrap();
        raw.set_nodelay(true).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        raw.write_all(&[&put[..], &get[..half]].concat()).unwrap();
        let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
        let mut payload = Vec::new();
        assert!(
            server::proto::read_frame(&mut reader, &mut payload)
                .expect("the PUT response was stranded behind the half-received GET"),
            "closed instead of answering the PUT"
        );
        assert_eq!(server::proto::decode_response(&payload).unwrap(), Response::Put(true));
        raw.write_all(&get[half..]).unwrap();
        assert!(server::proto::read_frame(&mut reader, &mut payload).unwrap());
        assert_eq!(server::proto::decode_response(&payload).unwrap(), Response::Get(Some(90)));
        srv.shutdown();
    });
}

#[test]
fn mid_frame_disconnect_storm_leaves_everyone_else_serving() {
    for_each_backend(|backend| {
        let (srv, _map) = start(backend);
        // 64 connections die mid-frame: half with a clean FIN, half with a
        // hard RST. The server must shrug all of them off.
        for wave in 0..64u32 {
            let mut raw = TcpStream::connect(srv.local_addr()).unwrap();
            raw.write_all(&1000u32.to_le_bytes()).unwrap();
            raw.write_all(&[0x5A; 37]).unwrap();
            if wave % 2 == 0 {
                arm_reset_on_drop(&raw);
            }
            drop(raw);
        }
        for k in 0..8 {
            assert_still_serving(&srv, 500 + k);
        }
        srv.shutdown();
    });
}

#[test]
fn rst_storm_against_live_subscribers_does_not_stall_the_stream() {
    for_each_backend(|backend| {
        let map = Arc::new(ReplicatedMap::new(Box::new(pathcas_ds::PathCasAvl::new())));
        let srv = Server::start_with(
            Arc::clone(&map) as Arc<dyn ConcurrentMap>,
            ServerOpts { log: Some(map.log()), backend, ..ServerOpts::default() },
            "127.0.0.1:0",
        )
        .unwrap();

        // A herd of subscribers that all die by RST while subscribed...
        let mut doomed = Vec::new();
        for _ in 0..32 {
            let mut sub = TcpStream::connect(srv.local_addr()).unwrap();
            let mut frame = Vec::new();
            server::proto::encode_request(&Request::Subscribe(0), &mut frame);
            sub.write_all(&frame).unwrap();
            arm_reset_on_drop(&sub);
            doomed.push(sub);
        }
        // ...plus one survivor that must keep receiving events throughout.
        let mut survivor = Connection::connect(srv.local_addr()).unwrap();
        survivor.subscribe(0).unwrap();

        let mut writer = Connection::connect(srv.local_addr()).unwrap();
        for k in 1..=50u64 {
            assert_eq!(writer.request(&Request::Put(k, k)).unwrap(), Response::Put(true));
        }
        drop(doomed); // the storm: 32 RSTs land while events are streaming
        for k in 51..=100u64 {
            assert_eq!(writer.request(&Request::Put(k, k)).unwrap(), Response::Put(true));
        }

        let mut seen = 0usize;
        while seen < 100 {
            let batch = survivor.next_events().unwrap();
            for (i, (seqno, _)) in batch.iter().enumerate() {
                assert_eq!(*seqno, (seen + i) as u64 + 1, "gap in the survivor's stream");
            }
            seen += batch.len();
        }
        assert_eq!(seen, 100);
        assert_still_serving(&srv, 10_000);
        srv.shutdown();
    });
}

#[test]
fn a_herd_of_slow_readers_stalls_none_of_the_fast_ones() {
    for_each_backend(|backend| {
        let (srv, map) = start(backend);
        for k in 1..=1024u64 {
            map.insert(k, k);
        }
        // 8 connections each pipeline 64 big scans (~16 KiB responses) and
        // read nothing: every one of them wedges its response path.
        const HERD: usize = 8;
        const BURST: usize = 64;
        let mut req = Vec::new();
        for _ in 0..BURST {
            server::proto::encode_request(&Request::Scan(1, 1024), &mut req);
        }
        let mut herd = Vec::new();
        for _ in 0..HERD {
            let mut raw = TcpStream::connect(srv.local_addr()).unwrap();
            raw.write_all(&req).unwrap();
            herd.push(raw);
        }
        std::thread::sleep(Duration::from_millis(50));
        // Fast connections are completely unaffected.
        for k in 0..20 {
            assert_still_serving(&srv, 200_000 + k);
        }
        // Each slow reader then drains all 64 scans, complete and in order.
        for (c, raw) in herd.into_iter().enumerate() {
            let mut reader = std::io::BufReader::new(raw);
            let mut payload = Vec::new();
            for i in 0..BURST {
                assert!(
                    server::proto::read_frame(&mut reader, &mut payload).unwrap(),
                    "conn {c} frame {i}"
                );
                match server::proto::decode_response(&payload).unwrap() {
                    Response::Scan(pairs) => assert_eq!(pairs.len(), 1024, "conn {c} scan {i}"),
                    other => panic!("conn {c} scan {i} answered {other:?}"),
                }
            }
        }
        srv.shutdown();
    });
}

#[test]
fn a_half_closed_connection_gets_its_tail_of_responses() {
    for_each_backend(|backend| {
        let (srv, _map) = start(backend);
        // Client writes a 32-frame burst, then shuts down its write half
        // before reading anything: the server must still deliver every
        // response (flush-then-close on EOF), not drop the tail.  The burst
        // and the FIN leave together, so the reactor's one read of the burst
        // comes back short with the EOF queued behind it; it stops at that
        // read, and the EOF must still reach it through the next wait, or
        // the connection never closes and the last read times out.
        let reqs: Vec<Request> = (1..=32u64).map(|k| Request::Put(k, k)).collect();
        let mut stream = Vec::new();
        for r in &reqs {
            server::proto::encode_request(r, &mut stream);
        }
        let mut raw = TcpStream::connect(srv.local_addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(&stream).unwrap();
        raw.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reader = std::io::BufReader::new(raw);
        let mut payload = Vec::new();
        for i in 0..reqs.len() {
            assert!(server::proto::read_frame(&mut reader, &mut payload).unwrap(), "frame {i}");
            assert_eq!(server::proto::decode_response(&payload).unwrap(), Response::Put(true));
        }
        assert!(
            !server::proto::read_frame(&mut reader, &mut payload)
                .expect("the server must close the connection after the last response"),
            "then EOF"
        );
        srv.shutdown();
    });
}
