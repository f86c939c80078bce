//! How `Session` stamps a request, with no sockets: a pipelined burst fed
//! to one session with every op sampled must leave
//!
//! - the driver's readiness wait as the first frame's `ready` span, and a
//!   zero-length `ready` span on every later frame;
//! - exactly one `decode`, one `kcas` and one `resp` span per frame, under
//!   the frame's own trace id;
//! - one `flush` span per write the driver reports, charged to the burst's
//!   last frame only.
//!
//! One `#[test]` on purpose: the sampler and the span rings are
//! process-global.

use pathcas_ds::PathCasAvl;
use server::proto::encode_request;
use server::session::Session;
use server::{Backend, Request, ServerOpts};
use telemetry::trace::{self, SpanRecord};

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

    trace::clear();
    trace::set_sample_every(1);

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
}
