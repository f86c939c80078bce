//! Fault injection against the server: torn frames, hostile length
//! prefixes, frames at and beyond the size ceiling, and a slow reader.
//! The invariant throughout: a misbehaving connection only ever hurts
//! itself — the server never panics and every other connection keeps
//! serving.
//!
//! Each fault runs against **both** serving backends; the reactor must be
//! exactly as fault-isolated as a thread per connection was.
//!
//! The last cases turn it round: a raw listener plays a misbehaving server,
//! and the client's [`Connection`] must fail with the right error — never
//! hang, never panic.

mod common;

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use common::{for_each_backend, start_on};
use mapapi::ConcurrentMap;
use server::{Backend, Connection, Request, Response, Server, MAX_FRAME};

fn start(backend: Backend) -> (Server, Arc<dyn ConcurrentMap>) {
    let map: Arc<dyn ConcurrentMap> = Arc::new(pathcas_ds::PathCasAvl::new());
    let srv = start_on(Arc::clone(&map), backend);
    (srv, map)
}

/// The canary: a well-behaved connection must work, fault or no fault.
fn assert_still_serving(srv: &Server, key: u64) {
    let mut conn = Connection::connect(srv.local_addr()).unwrap();
    assert_eq!(conn.request(&Request::Put(key, key)).unwrap(), Response::Put(true));
    assert_eq!(conn.request(&Request::Get(key)).unwrap(), Response::Get(Some(key)));
}

#[test]
fn disconnect_mid_frame_only_kills_that_connection() {
    for_each_backend(|backend| {
        let (srv, _map) = start(backend);
        // A frame promising 100 bytes, delivering 10, then gone.
        let mut raw = TcpStream::connect(srv.local_addr()).unwrap();
        raw.write_all(&100u32.to_le_bytes()).unwrap();
        raw.write_all(&[0u8; 10]).unwrap();
        drop(raw);
        assert_still_serving(&srv, 1);
        srv.shutdown();
    });
}

#[test]
fn truncated_length_prefix_only_kills_that_connection() {
    for_each_backend(|backend| {
        let (srv, _map) = start(backend);
        // Two bytes of a four-byte prefix, then EOF: the server must treat the
        // torn prefix as an error end-of-connection, not hang waiting.
        let mut raw = TcpStream::connect(srv.local_addr()).unwrap();
        raw.write_all(&[0x12, 0x34]).unwrap();
        raw.shutdown(std::net::Shutdown::Write).unwrap();
        // The server closes without a response.
        let mut buf = Vec::new();
        raw.read_to_end(&mut buf).unwrap();
        assert!(buf.is_empty(), "no response frame for a torn prefix");
        assert_still_serving(&srv, 2);
        srv.shutdown();
    });
}

#[test]
fn frame_exactly_at_the_ceiling_is_read_and_answered() {
    for_each_backend(|backend| {
        let (srv, _map) = start(backend);
        // len == MAX_FRAME is legal framing: the server reads the whole
        // payload.  Its first byte is an unknown opcode, so the answer is an
        // Err response followed by connection close — proving the frame was
        // consumed, not rejected at the prefix.
        let mut raw = TcpStream::connect(srv.local_addr()).unwrap();
        raw.write_all(&(MAX_FRAME as u32).to_le_bytes()).unwrap();
        raw.write_all(&vec![0xAAu8; MAX_FRAME]).unwrap();
        let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
        let mut payload = Vec::new();
        assert!(server::proto::read_frame(&mut reader, &mut payload).unwrap());
        match server::proto::decode_response(&payload).unwrap() {
            Response::Err(msg) => assert!(msg.contains("opcode"), "got: {msg}"),
            other => panic!("expected Err, got {other:?}"),
        }
        assert!(
            !server::proto::read_frame(&mut reader, &mut payload).unwrap(),
            "closed after Err"
        );
        assert_still_serving(&srv, 3);
        srv.shutdown();
    });
}

#[test]
fn frame_above_the_ceiling_is_rejected_before_allocation() {
    for_each_backend(|backend| {
        let (srv, _map) = start(backend);
        let mut raw = TcpStream::connect(srv.local_addr()).unwrap();
        raw.write_all(&(MAX_FRAME as u32 + 1).to_le_bytes()).unwrap();
        // The connection is torn with no response: the server refused at the
        // prefix and never tried to read (or allocate) the body.
        let mut buf = Vec::new();
        raw.read_to_end(&mut buf).unwrap();
        assert!(buf.is_empty(), "no response frame for an oversized prefix");
        assert_still_serving(&srv, 4);
        srv.shutdown();
    });
}

#[test]
fn malformed_trace_frames_only_hurt_their_connection() {
    for_each_backend(|backend| {
        let (srv, _map) = start(backend);

        // A TRACE frame with a truncated body (opcode but no version byte)
        // is a framing-level decode error: answered with Err, then closed.
        let mut raw = TcpStream::connect(srv.local_addr()).unwrap();
        raw.write_all(&1u32.to_le_bytes()).unwrap();
        raw.write_all(&[9u8]).unwrap();
        let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
        let mut payload = Vec::new();
        assert!(server::proto::read_frame(&mut reader, &mut payload).unwrap());
        match server::proto::decode_response(&payload).unwrap() {
            Response::Err(msg) => assert!(msg.contains("truncated"), "got: {msg}"),
            other => panic!("expected Err, got {other:?}"),
        }
        assert!(
            !server::proto::read_frame(&mut reader, &mut payload).unwrap(),
            "closed after Err"
        );
        assert_still_serving(&srv, 5);

        // A wrong TRACE *version* is a semantic error: the connection
        // survives and keeps serving.
        let mut conn = Connection::connect(srv.local_addr()).unwrap();
        match conn.request(&Request::Trace(99)).unwrap() {
            Response::Err(msg) => assert!(msg.contains("version 99"), "got: {msg}"),
            other => panic!("expected Err, got {other:?}"),
        }
        assert_eq!(conn.request(&Request::Put(6, 6)).unwrap(), Response::Put(true));
        assert_still_serving(&srv, 7);
        srv.shutdown();
    });
}

#[test]
fn a_slow_reader_stalls_only_itself() {
    for_each_backend(|backend| {
        let (srv, map) = start(backend);
        for k in 1..=4096u64 {
            map.insert(k, k);
        }
        // Pipeline a burst of big scans and then *don't read*: the responses
        // (~16 MB total) overflow the socket buffers and block the handler in
        // its write path (threads) or park the staged bytes behind EPOLLOUT
        // (reactor).
        const BURST: usize = 256;
        let mut slow = Connection::connect(srv.local_addr()).unwrap();
        let mut reqs = Vec::new();
        for _ in 0..BURST {
            reqs.push(Request::Scan(1, 4096));
        }
        let mut buf = Vec::new();
        for r in &reqs {
            server::proto::encode_request(r, &mut buf);
        }
        {
            // Write the burst through the raw socket half so no read happens.
            let mut raw = TcpStream::connect(srv.local_addr()).unwrap();
            raw.write_all(&buf).unwrap();
            // While that handler is wedged on writes, everyone else is live.
            std::thread::sleep(Duration::from_millis(50));
            for k in 0..20 {
                assert_still_serving(&srv, 100_000 + k);
            }
            // Now drain: every response arrives, complete and in order.
            let mut reader = std::io::BufReader::new(raw);
            let mut payload = Vec::new();
            for i in 0..BURST {
                assert!(
                    server::proto::read_frame(&mut reader, &mut payload).unwrap(),
                    "frame {i}"
                );
                match server::proto::decode_response(&payload).unwrap() {
                    Response::Scan(pairs) => assert_eq!(pairs.len(), 4096, "scan {i}"),
                    other => panic!("scan {i} answered {other:?}"),
                }
            }
        }
        // The pooled connection still works too.
        assert_eq!(slow.request(&Request::Stats).unwrap(), Response::Stats(map.stats()));
        srv.shutdown();
    });
}

/// Run `pipeline` of `n` GETs against a raw listener that reads the whole
/// burst (so a close is a FIN, not a reset) and answers with `reply`.  It
/// then closes the socket, or with `hold_open` keeps it open until the
/// client has returned.  Returns what `pipeline` returned; fails if that
/// takes longer than 10 s.
fn pipeline_against(n: u64, reply: Vec<u8>, hold_open: bool) -> std::io::Result<Vec<Response>> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut burst = vec![0u8; 13 * n as usize]; // 13 bytes per GET frame
        sock.read_exact(&mut burst).unwrap();
        sock.write_all(&reply).unwrap();
        hold_open.then_some(sock)
    });
    let (tx, rx) = mpsc::channel();
    let client = std::thread::spawn(move || {
        let mut conn = Connection::connect(addr).unwrap();
        let reqs: Vec<Request> = (1..=n).map(Request::Get).collect();
        tx.send(conn.pipeline(&reqs)).unwrap();
    });
    let held = server.join().unwrap();
    let out = rx.recv_timeout(Duration::from_secs(10)).expect("the client hung");
    drop(held);
    client.join().expect("the client panicked");
    out
}

/// `count` GET responses, `Some(k)` for the k-th.
fn get_responses(count: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    for k in 1..=count {
        server::proto::encode_response(&Response::Get(Some(k)), &mut bytes);
    }
    bytes
}

#[test]
fn a_server_that_closes_after_k_of_n_responses_fails_the_pipeline() {
    let err = pipeline_against(8, get_responses(3), false).map(|_| ()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    // And with all n delivered, the same listener is a working server.
    let resps = pipeline_against(8, get_responses(8), false).unwrap();
    assert_eq!(resps, (1..=8).map(|k| Response::Get(Some(k))).collect::<Vec<_>>());
}

#[test]
fn a_server_that_closes_mid_frame_fails_the_pipeline() {
    let mut reply = get_responses(4);
    reply.truncate(reply.len() - 5);
    let err = pipeline_against(4, reply, false).map(|_| ()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
}

#[test]
fn a_response_prefix_above_the_ceiling_fails_the_pipeline() {
    // The socket stays open: the prefix alone must fail the read.
    let mut reply = get_responses(2);
    reply.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
    let err = pipeline_against(4, reply, true).map(|_| ()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
}
