//! How `Session` stamps a request, with no sockets.  A pipelined burst fed
//! to one session with sampling off must advance each verb's counter by
//! its frames and do nothing else: no `srv_op_ns` sample, no span.  The
//! same burst with every op sampled must leave
//!
//! - the driver's readiness wait as the first frame's `ready` span, and a
//!   zero-length `ready` span on every later frame;
//! - exactly one `decode`, one `kcas` and one `resp` span per frame, under
//!   the frame's own trace id;
//! - one `flush` span per write the driver reports, charged to the burst's
//!   last frame only;
//! - one `srv_op_ns` sample per frame, one per `kcas` span.
//!
//! One `#[test]` on purpose: the sampler, the span rings and the server's
//! counters are process-global.

use pathcas_ds::PathCasAvl;
use server::proto::encode_request;
use server::session::Session;
use server::{Backend, Request, ServerOpts, METRICS_VERSION};
use telemetry::trace::{self, SpanRecord};

/// The server's per-verb counters the burst below moves, by the count of
/// its frames of each verb.
const VERB_FRAMES: [(&str, u64); 5] = [
    ("srv_ops_put_total", 2),
    ("srv_ops_get_total", 1),
    ("srv_ops_rmw_total", 1),
    ("srv_ops_del_total", 1),
    ("srv_ops_scan_total", 1),
];

/// A registered metric's value (a histogram reads as its sample count).
fn value(name: &str) -> u64 {
    telemetry::value(name).unwrap_or_else(|| panic!("{name} is not registered"))
}

/// Restores the process-global sampling period, even if the test fails.
struct Restore;

impl Drop for Restore {
    fn drop(&mut self) {
        trace::set_sample_every(trace::DEFAULT_SAMPLE_EVERY);
    }
}

#[test]
fn a_sampled_burst_is_stamped_once_per_phase_boundary() {
    let _restore = Restore;
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

    // Sampling off.  A METRICS frame registers the server's metric set, as
    // starting a server does, so the counters can be read by name.
    trace::clear();
    trace::set_sample_every(0);
    let mut metrics_frame = Vec::new();
    encode_request(&Request::Metrics(METRICS_VERSION), &mut metrics_frame);
    session.feed(&metrics_frame);
    assert_eq!(session.process(&map, &mut None), 1);
    session.wrote(session.staged().len());
    let verbs_before = VERB_FRAMES.map(|(name, _)| value(name));
    let op_ns_before = value("srv_op_ns");

    session.feed(&bytes);
    assert_eq!(session.process(&map, &mut Some((trace::now_ns(), 1))), burst.len() as u64);
    let write_start = trace::now_ns();
    session.wrote(session.staged().len());
    session.flushed(write_start);
    for ((name, frames), before) in VERB_FRAMES.iter().zip(verbs_before) {
        assert_eq!(value(name) - before, *frames, "{name} must count every executed frame");
    }
    assert_eq!(value("srv_op_ns"), op_ns_before, "an unsampled frame was timed");
    assert_eq!(trace::sampled_total(), 0);
    assert_eq!(trace::snapshot(), [], "an unsampled frame recorded a span");

    // Every op sampled.
    trace::clear();
    trace::set_sample_every(1);
    let op_ns_before = value("srv_op_ns");

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
    // The histogram holds the same measurement as the `kcas` spans.
    assert_eq!(value("srv_op_ns") - op_ns_before, burst.len() as u64, "one sample per kcas span");
}
