//! The TRACE verb battery, run differentially on both backends: with the
//! sampler at 1-in-1, a deterministic single-connection script must yield
//! **byte-identical** expositions across backends once the inherently
//! timing-valued fields (`start_ns`, `dur_ns`, the backend label) are
//! masked — same trace ids, same phase sets, same event counts, same
//! header counters.  Then a replicated SUBSCRIBE topology must surface
//! `commit` and `deliver` spans, a stale TRACE version must fail
//! semantically without killing the connection, and on a depth-1 closed
//! loop the per-op phase sums must tile the client-observed round trip.
//!
//! One `#[test]` on purpose: the span tracer is process-global (sampler
//! counter, rings), so nothing else in this binary may run concurrently.

mod common;

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use common::{for_each_backend, start_on};
use mapapi::reference::LockedBTreeMap;
use mapapi::ConcurrentMap;
use server::{Backend, Connection, Request, Response, Server, ServerOpts};
use shard::ShardedMap;

const SHARDS: usize = 4;

fn sharded() -> Arc<dyn ConcurrentMap> {
    Arc::new(ShardedMap::from_fn(SHARDS, |_| {
        Box::new(LockedBTreeMap::new()) as Box<dyn ConcurrentMap>
    }))
}

/// The deterministic script: seven sequential ops (one request in flight
/// at a time, so spans land in a fixed order on both backends).
fn script() -> Vec<Request> {
    vec![
        Request::Put(1, 10),
        Request::Get(1),
        Request::Rmw(1, 5),
        Request::Del(1),
        Request::Get(1),
        Request::Scan(0, 10),
        Request::Stats,
    ]
}

/// Mask the fields whose values are wall-clock (or name the backend):
/// `start_ns=`, `dur_ns=`, `backend=`.  Everything else — ids, phases,
/// retry/help counts, header totals — must match exactly.
fn canon(text: &str) -> String {
    text.lines()
        .map(|l| {
            l.split(' ')
                .map(|tok| match tok.split_once('=') {
                    Some((k @ ("start_ns" | "dur_ns" | "backend"), _)) => format!("{k}=_"),
                    _ => tok.to_string(),
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Registry names of the phase time sums a client request accrues, in
/// pipeline order (`deliver` belongs to SUBSCRIBE batches, which are
/// sampler ops of their own).
const PHASE_SUMS: [&str; 6] = [
    "trace_ready_ns_sum",
    "trace_decode_ns_sum",
    "trace_kcas_ns_sum",
    "trace_commit_ns_sum",
    "trace_resp_ns_sum",
    "trace_flush_ns_sum",
];

fn phase_sums() -> [u64; 6] {
    PHASE_SUMS.map(|name| telemetry::value(name).expect("tracer registered"))
}

#[test]
fn trace_expositions_are_differential_across_backends() {
    let canons: Mutex<Vec<String>> = Mutex::new(Vec::new());

    for_each_backend(|backend| {
        let server = start_on(sharded(), backend);
        let mut conn = Connection::connect(server.local_addr()).expect("connect");
        // Quiescent: the only server is idle and ours.
        telemetry::trace::clear();
        telemetry::trace::set_sample_every(1);

        for req in script() {
            conn.request(&req).expect("script op");
        }
        let text = conn.trace().expect("TRACE");
        telemetry::trace::set_sample_every(telemetry::trace::DEFAULT_SAMPLE_EVERY);

        assert!(
            text.starts_with(&format!("# pathcas-trace v1 backend={}", backend.label())),
            "version/backend header missing:\n{text}"
        );
        // Every scripted op (trace ids 0..=6) went through the full wire
        // path; the TRACE op itself (id 7) is sampled too but renders
        // before its own kcas/resp/flush spans are recorded.
        for id in 0..=6u64 {
            for phase in ["ready", "decode", "kcas", "resp", "flush"] {
                assert!(
                    text.contains(&format!("span trace={id} phase={phase} ")),
                    "trace {id} is missing its {phase} span:\n{text}"
                );
            }
        }
        for phase in ["ready", "decode"] {
            assert!(
                text.contains(&format!("span trace=7 phase={phase} ")),
                "the TRACE op is missing its {phase} span:\n{text}"
            );
        }
        assert!(!text.contains("phase=commit"), "unreplicated map committed?\n{text}");
        canons.lock().unwrap().push(canon(&text));

        // A stale client version is a semantic error, not a hangup.
        match conn.request(&Request::Trace(99)).expect("version mismatch roundtrip") {
            Response::Err(msg) => assert!(msg.contains("version 99"), "odd error: {msg}"),
            other => panic!("TRACE v99 answered with {other:?}"),
        }
        assert!(matches!(conn.request(&Request::Get(2)), Ok(Response::Get(None))));

        server.shutdown();
    });

    let canons = canons.into_inner().unwrap();
    assert_eq!(canons.len(), 2);
    assert_eq!(canons[0], canons[1], "trace expositions diverge across backends");

    // Replication: commits append under a sampled trace, and SUBSCRIBE
    // delivery batches are sampler ops of their own — both phases must
    // show up in the exposition on both backends.
    for_each_backend(|backend| {
        let rep = Arc::new(replica::ReplicatedMap::new(Box::new(LockedBTreeMap::new())));
        let server = Server::start_with(
            Arc::clone(&rep) as Arc<dyn ConcurrentMap>,
            ServerOpts { log: Some(rep.log()), backend, ..ServerOpts::default() },
            "127.0.0.1:0",
        )
        .expect("bind primary");
        let mut sub = Connection::connect(server.local_addr()).expect("connect subscriber");
        let mut conn = Connection::connect(server.local_addr()).expect("connect writer");
        telemetry::trace::clear();
        telemetry::trace::set_sample_every(1);
        let deliver_before = telemetry::value("trace_deliver_ns_sum").expect("tracer registered");

        sub.subscribe(0).expect("subscribe");
        for k in 1..=5u64 {
            assert!(matches!(conn.request(&Request::Put(k, k)), Ok(Response::Put(true))));
        }
        let mut delivered = 0;
        while delivered < 5 {
            delivered += sub.next_events().expect("event batch").len();
        }
        // A batch's deliver span ends when the server's write returns, which
        // can be after the subscriber has already read the batch: ask again
        // until it shows, within a deadline.
        let deadline = Instant::now() + Duration::from_secs(5);
        let text = loop {
            let text = conn.trace().expect("TRACE");
            if text.contains("phase=deliver") || Instant::now() > deadline {
                break text;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        telemetry::trace::set_sample_every(telemetry::trace::DEFAULT_SAMPLE_EVERY);

        assert!(text.contains("phase=commit"), "no commit span recorded:\n{text}");
        assert!(text.contains("phase=deliver"), "no deliver span recorded:\n{text}");
        // The TRACE round trip above saw a deliver span, and a span's
        // duration is added to its phase sum before the span is retained.
        let deliver_after = telemetry::value("trace_deliver_ns_sum").expect("tracer registered");
        assert!(deliver_after > deliver_before, "trace_deliver_ns_sum did not move over {delivered} events");

        server.shutdown();
    });

    // Phases tile the round trip: with one request in flight on one
    // connection, every nanosecond of an op sits in exactly one phase, so
    // the per-op phase sum reconstructs what the client observed.  The
    // threads backend owns its connection's whole wait; a reactor's
    // `epoll_wait` is shared, so it attributes a fraction by design.
    for_each_backend(|backend| {
        const OPS: u64 = 2000;
        let server = start_on(sharded(), backend);
        let mut conn = Connection::connect(server.local_addr()).expect("connect");
        telemetry::trace::clear();
        telemetry::trace::set_sample_every(1);
        let before = phase_sums();

        let mut client_ns = 0u64;
        for i in 0..OPS {
            let req = if i % 2 == 0 { Request::Put(i + 1, i) } else { Request::Get(i) };
            let sent = Instant::now();
            conn.request(&req).expect("closed-loop op");
            client_ns += sent.elapsed().as_nanos() as u64;
        }
        let sampled = telemetry::value("trace_sampled_total").expect("tracer registered");
        let after = phase_sums();
        telemetry::trace::set_sample_every(telemetry::trace::DEFAULT_SAMPLE_EVERY);

        assert_eq!(sampled, OPS, "every op of the loop is sampled at 1-in-1");
        let mut phase_ns = 0u64;
        for ((name, a), b) in PHASE_SUMS.iter().zip(after).zip(before) {
            if *name == "trace_commit_ns_sum" {
                assert_eq!(a, b, "commit time without a change log");
            } else {
                assert!(a > b, "{name} did not move over {OPS} sampled ops");
            }
            phase_ns += a - b;
        }
        let ratio = phase_ns as f64 / client_ns as f64;
        let bounds = match backend {
            Backend::Threads => 0.6..1.4,
            Backend::Reactor => 0.1..1.5,
        };
        assert!(
            bounds.contains(&ratio),
            "phase sums are {ratio:.3} of the client-observed time \
             ({phase_ns} ns of {client_ns} ns over {OPS} ops), expected {bounds:?}"
        );

        server.shutdown();
    });
}
