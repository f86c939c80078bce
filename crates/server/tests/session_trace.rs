//! How `Session` stamps a request, with no sockets: a pipelined burst fed
//! to one session with every op sampled and every op "slow" must leave
//!
//! - the driver's readiness wait as the first frame's `ready` span, and a
//!   zero-length `ready` span on every later frame;
//! - exactly one `decode`, one `kcas` and one `resp` span per frame, under
//!   the frame's own trace id;
//! - one `flush` span per write the driver reports, charged to the burst's
//!   last frame only;
//! - a flight record per frame whose packed `ready`/`decode`/`kcas` lanes
//!   are those spans' durations at the record's 64 ns granularity, and whose
//!   latency is the `kcas` span's.
//!
//! One `#[test]` on purpose: the sampler, the span rings, the slow-op
//! threshold and the flight recorder are process-global.

use std::collections::BTreeMap;

use pathcas_ds::PathCasAvl;
use server::proto::encode_request;
use server::session::Session;
use server::{Backend, Request, ServerOpts};
use telemetry::trace::{self, SpanRecord};

/// Restores the process-global knobs this test moves, even if it fails.
struct Restore;

impl Drop for Restore {
    fn drop(&mut self) {
        trace::set_sample_every(trace::DEFAULT_SAMPLE_EVERY);
        server::metrics::set_slow_op_threshold_ns(server::metrics::DEFAULT_SLOW_OP_THRESHOLD_NS);
    }
}

/// A flight record lane as the dump prints it: nanoseconds rounded down to
/// 64 ns units, saturating at `0xFFFF` units.
fn lane(ns: u64) -> u64 {
    (ns / 64).min(0xFFFF) * 64
}

/// The `name=value` fields of one `# slowop` dump line.
fn fields(line: &str) -> BTreeMap<&str, &str> {
    line.split(' ').filter_map(|tok| tok.split_once('=')).collect()
}

#[test]
fn a_sampled_burst_is_stamped_once_per_phase_boundary() {
    let _restore = Restore;
    // One distinct key per frame, so each flight record names its frame.
    let burst = [
        Request::Put(1, 10),
        Request::Put(2, 20),
        Request::Get(3),
        Request::Rmw(4, 5),
        Request::Del(5),
        Request::Scan(6, 4),
    ];
    let mut bytes = Vec::new();
    for req in &burst {
        encode_request(req, &mut bytes);
    }
    let map = PathCasAvl::new();
    let mut session =
        Session::new(&ServerOpts { backend: Backend::Reactor, ..ServerOpts::default() });

    trace::clear();
    trace::set_sample_every(1);
    server::metrics::set_slow_op_threshold_ns(0);
    let slow_before = fields(server::metrics::flight_dump().lines().next().unwrap())["recorded"]
        .parse::<usize>()
        .unwrap();

    let (wait_start, wait_ns) = (trace::now_ns(), 12_345);
    session.feed(&bytes);
    assert_eq!(session.process(&map, &mut Some((wait_start, wait_ns))), burst.len() as u64);
    let write_start = trace::now_ns();
    session.wrote(session.staged().len());
    session.flushed(write_start);
    // A later write answers no new frame and is charged to nobody.
    session.flushed(trace::now_ns());

    let spans = trace::snapshot();
    let last = burst.len() as u64 - 1;
    let span = |id: u64, phase: u64| -> SpanRecord {
        let mut of = spans.iter().filter(|s| s.trace_id == id && s.phase == phase);
        let name = trace::phase_name(phase);
        let s = *of.next().unwrap_or_else(|| panic!("frame {id} has no {name} span"));
        assert!(of.next().is_none(), "frame {id} has two {name} spans");
        s
    };
    for id in 0..=last {
        let ready = span(id, trace::PHASE_READY);
        if id == 0 {
            let wait = (ready.start_ns, ready.dur_ns);
            assert_eq!(wait, (wait_start, wait_ns), "the wait goes to the first frame");
        } else {
            assert_eq!(ready.dur_ns, 0, "frame {id} was charged a wait it did not pay");
        }
        let decode = span(id, trace::PHASE_DECODE);
        let kcas = span(id, trace::PHASE_KCAS);
        let resp = span(id, trace::PHASE_RESP);
        // In pipeline order, each stamped at its own ends: the recording
        // between them is charged to neither.
        assert!(decode.start_ns + decode.dur_ns <= kcas.start_ns, "frame {id}");
        assert!(kcas.start_ns + kcas.dur_ns <= resp.start_ns, "frame {id}");
        assert_eq!(kcas.events, 0, "one thread, nothing to retry or help");
    }
    let flushes: Vec<&SpanRecord> =
        spans.iter().filter(|s| s.phase == trace::PHASE_FLUSH).collect();
    assert_eq!(flushes.len(), 1, "one write, one flush span: {flushes:?}");
    assert_eq!((flushes[0].trace_id, flushes[0].start_ns), (last, write_start));
    assert_eq!(spans.len(), burst.len() * 4 + 1, "no other span was recorded: {spans:#?}");

    let dump = server::metrics::flight_dump();
    let records: Vec<BTreeMap<&str, &str>> =
        dump.lines().filter(|l| l.starts_with("# slowop ")).map(fields).collect();
    assert_eq!(records.len(), (slow_before + burst.len()).min(server::metrics::FLIGHT_CAPACITY));
    for (id, record) in (0..=last).zip(&records[records.len() - burst.len()..]) {
        assert_eq!(record["key"], (id + 1).to_string(), "flight records follow the frames");
        let lanes = ["ready_ns", "decode_ns", "kcas_ns"]
            .map(|name| record.get(name).map_or(0, |v| v.parse::<u64>().unwrap()));
        let phases = [trace::PHASE_READY, trace::PHASE_DECODE, trace::PHASE_KCAS]
            .map(|phase| lane(span(id, phase).dur_ns));
        assert_eq!(lanes, phases, "frame {id}: {record:?}");
        assert_eq!(record["latency_ns"], span(id, trace::PHASE_KCAS).dur_ns.to_string());
    }
}
