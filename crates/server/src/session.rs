//! The sans-I/O core of a connection: bytes in → staged bytes out.
//!
//! A [`Session`] is one connection's entire protocol state — the
//! incremental [`FrameDecoder`], the staged output buffer, the
//! request/streaming/closing mode, the read-only and change-stream gates —
//! and the **only** place the wire lifecycle lives: decode → `SUBSCRIBE`
//! hand-off → read-only gate → `execute` → encode → error-then-close,
//! with every span of a request and the per-batch `deliver` span woven
//! through it.  It owns no socket, no epoll set and no
//! thread; both serving backends are I/O drivers around the same three
//! calls (DESIGN.md §10):
//!
//! 1. bytes arrive — [`Session::fill_from`] (one `read` straight into the
//!    decoder) or [`Session::feed`] — then [`Session::process`] executes
//!    every complete frame buffered, appending the responses to the staged
//!    output;
//! 2. a subscribed session stages its next change-stream batch in
//!    [`Session::pull_events`], asked after a write and every
//!    [`ChangeLog::POLL`] while the log is idle;
//! 3. the driver writes [`Session::staged`] however its I/O model writes,
//!    reports progress with [`Session::wrote`] and the attempt's start with
//!    [`Session::flushed`].
//!
//! Because the session never blocks and never looks at a clock other than
//! the span timestamps, the same byte stream produces the same staged bytes
//! whatever the chunking and whichever [`Backend`] tag it carries —
//! `tests/session.rs` asserts exactly that, with no sockets.
//!
//! **Timing.**  Only a frame the trace sampler admits is timed: an
//! unsampled frame reads no clock and records nothing but its verb's
//! counter.  The session stamps a sampled frame's spans itself, from
//! explicit [`trace::now_ns`] reads — two around decode, two around
//! `execute` and two around encode — and records its `ready`, `decode`,
//! `kcas` and `resp` spans; the `kcas` window is also the frame's
//! `srv_op_ns` sample.  Each span is stamped at its own two ends, so the
//! tracer's own bookkeeping falls between spans and is charged to no
//! phase.  A driver measures only its own two windows: the readiness wait
//! it hands to [`Session::process`], and its write, whose start it hands to
//! [`Session::flushed`].  The thread's current trace (`trace::set_current`)
//! is set only while a sampled frame executes, so the replica's change-log
//! append can charge its `commit` span to it.

use std::io;
use std::sync::Arc;

use mapapi::{ConcurrentMap, Key, Value, MAX_KEY};
use replica::ChangeLog;
use telemetry::trace::{
    self, PHASE_DECODE, PHASE_DELIVER, PHASE_FLUSH, PHASE_KCAS, PHASE_READY, PHASE_RESP,
};

use crate::proto::{self, FrameDecoder, Request, Response, MAX_EVENTS_PER_FRAME, MAX_SCAN_LEN};
use crate::srv::{Backend, ServerOpts};

/// Rejection for write verbs on a read-only server.
pub const READ_ONLY_MSG: &str = "read-only replica: writes go to the primary";

/// Rejection for `SUBSCRIBE` on a server without a change stream.
pub const NO_LOG_MSG: &str = "no change stream: this server has no log";

/// Most bytes the staged output may keep allocated once drained: the
/// encoded size of a [`mapapi::SCAN_RETAIN_PAIRS`]-pair `SCAN` response, the
/// rule the session's scan buffer follows.  The client's request buffer
/// keeps to it too.
pub(crate) const OUT_RETAIN_BYTES: usize = 4 + 1 + 4 + 16 * mapapi::SCAN_RETAIN_PAIRS;

/// What a session is currently doing with its input.
enum Mode {
    /// Decoding requests, staging responses.
    Request,
    /// `SUBSCRIBE`d: [`Session::pull_events`] stages the log's events past
    /// this seqno, and anything the peer still sends is dropped (the
    /// protocol allows nothing after `SUBSCRIBE`).
    Streaming { after: u64 },
}

/// One connection's protocol state machine (module docs).
pub struct Session {
    dec: FrameDecoder,
    /// Staged response bytes the driver has not yet reported written.
    out: Vec<u8>,
    /// Prefix of `out` already written.
    out_pos: usize,
    mode: Mode,
    /// No more input will be processed; the driver closes the connection
    /// once the staged output drains.  Set after a framing-error response
    /// is staged, on a hostile length prefix, and by [`Session::close`].
    closing: bool,
    read_only: bool,
    /// The change stream a `SUBSCRIBE` follows, if the server has one.
    log: Option<Arc<ChangeLog>>,
    backend: Backend,
    /// The sampled `deliver` span of the staged `EVENTS` batch, as
    /// `(trace id, start)`; recorded when that batch has fully drained.
    deliver: Option<(u64, u64)>,
    /// The trace of the last frame that staged a response, if sampled: the
    /// next [`Session::flushed`] charges its write to it as `flush`.
    flush: Option<u64>,
    /// Where `SCAN`s scan into and are encoded from: empty between frames,
    /// its allocation kept (up to [`mapapi::SCAN_RETAIN_PAIRS`]) so that a
    /// warm `SCAN` allocates nothing.
    scan: Vec<(Key, Value)>,
}

/// What [`execute`] hands the `resp` phase to encode.
enum Reply {
    /// The pairs it appended to the session's scan buffer.
    Scan,
    /// Any other response, by value.
    Value(Response),
}

impl Session {
    /// A fresh session playing the roles `opts` names: read-only or
    /// writable, with or without a change stream to `SUBSCRIBE` to, tagged
    /// with the backend that drives it.  Allocates nothing until the first
    /// bytes arrive.
    pub fn new(opts: &ServerOpts) -> Session {
        Session {
            dec: FrameDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            mode: Mode::Request,
            closing: false,
            read_only: opts.read_only,
            log: opts.log.clone(),
            backend: opts.backend,
            deliver: None,
            flush: None,
            scan: Vec::new(),
        }
    }

    /// Read once from `r` straight into the decoder's buffer.  Returns the
    /// byte count (0 = EOF); `WouldBlock` and friends propagate untouched.
    pub fn fill_from<R: io::Read>(&mut self, r: &mut R) -> io::Result<usize> {
        self.dec.fill_from(r)
    }

    /// Append input bytes by hand — the socket-free entry point.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.dec.feed(bytes);
    }

    /// Decode and execute every complete frame currently buffered, staging
    /// the responses in order; returns how many frames were consumed.
    ///
    /// `ready` is the caller's readiness wait — `(start, duration)` of the
    /// blocking `read` or `epoll_wait` that produced these bytes.  The first
    /// frame processed takes it, sampled or not, so a burst never
    /// multiply-charges one wait; every later frame records a zero-length
    /// `ready` span, which keeps the per-op phase *set* the same for every
    /// frame on every backend.
    ///
    /// A closing session ignores its input; a streaming one drops it.
    pub fn process(&mut self, map: &dyn ConcurrentMap, ready: &mut Option<(u64, u64)>) -> u64 {
        if matches!(self.mode, Mode::Streaming { .. }) {
            self.dec.reset();
            return 0;
        }
        let mut frames = 0u64;
        while !self.closing {
            let payload = match self.dec.next_frame() {
                Ok(Some(payload)) => payload,
                Ok(None) => break,
                Err(_) => {
                    // Hostile length prefix: the stream offset can never be
                    // trusted again and there is no frame to answer, so the
                    // connection closes once the responses already staged
                    // ahead of it have drained.
                    self.closing = true;
                    break;
                }
            };
            frames += 1;
            let wait = ready.take();
            let decode_start = trace::should_sample().map(|t| (t, trace::now_ns()));
            // The decoded request is `Copy`, so the borrow on the decoder
            // ends here, before the response is staged into `out`.
            let decoded = proto::decode_request(payload);
            let sampled = decode_start.map(|(t, t0)| {
                let t1 = trace::now_ns();
                let (wait_start, wait_ns) = wait.unwrap_or((t0, 0));
                trace::record_span(t, PHASE_READY, wait_start, wait_ns, 0);
                trace::record_span(t, PHASE_DECODE, t0, t1 - t0, 0);
                t
            });
            let reply = match decoded {
                Ok(Request::Subscribe(after)) if self.log.is_some() => {
                    // Pipelined responses ahead of the subscription stay
                    // staged and drain before the first EVENTS frame.
                    // Anything after SUBSCRIBE is undefined by the
                    // protocol; drop it.
                    self.mode = Mode::Streaming { after };
                    self.dec.reset();
                    break;
                }
                Ok(Request::Subscribe(_)) => Reply::Value(Response::Err(NO_LOG_MSG.into())),
                // Semantic rejection, not a framing error: the connection
                // survives, exactly like an oversized scan.
                Ok(req) if self.read_only && is_write(&req) => {
                    Reply::Value(Response::Err(READ_ONLY_MSG.into()))
                }
                Ok(req) => execute(map, req, self.backend, &mut self.scan, sampled),
                Err(msg) => {
                    // Framing error: answer, then close once it drains —
                    // after a payload that does not parse, the stream offset
                    // can no longer be trusted.
                    self.closing = true;
                    Reply::Value(Response::Err(msg))
                }
            };
            let resp_start = sampled.map(|t| (t, trace::now_ns()));
            match reply {
                Reply::Scan => {
                    proto::encode_scan(&self.scan, &mut self.out);
                    self.scan.clear();
                    mapapi::release_oversized(&mut self.scan);
                }
                Reply::Value(resp) => proto::encode_response(&resp, &mut self.out),
            }
            if let Some((t, r0)) = resp_start {
                trace::record_span(t, PHASE_RESP, r0, trace::now_ns() - r0, 0);
            }
            self.flush = sampled;
        }
        frames
    }

    /// The driver's write of staged bytes that started at `start` (a
    /// [`trace::now_ns`] stamp) has returned: charge it as the `flush` span
    /// of the last frame that staged a response, if that frame was sampled,
    /// and forget the frame — a later write (an `EPOLLOUT` continuation, an
    /// `EVENTS` batch) records nothing.
    pub fn flushed(&mut self, start: u64) {
        if let Some(t) = self.flush.take() {
            trace::record_span(t, PHASE_FLUSH, start, trace::now_ns().saturating_sub(start), 0);
        }
    }

    /// On a subscribed session whose staged output has drained, stage the
    /// log's next `EVENTS` batch (≤ [`MAX_EVENTS_PER_FRAME`] events), move
    /// the resume point past it, and return whether there was one.  The
    /// unwritten batch is the backpressure bound: a subscriber that stops
    /// reading costs one batch of memory.  A sampled batch records one
    /// `deliver` span from here until the driver reports it fully written.
    pub fn pull_events(&mut self) -> bool {
        let (Mode::Streaming { after }, Some(log)) = (&self.mode, &self.log) else { return false };
        if !self.staged().is_empty() {
            return false;
        }
        let entries = log.read_from(*after, MAX_EVENTS_PER_FRAME);
        let Some(&(last, _)) = entries.last() else { return false };
        self.mode = Mode::Streaming { after: last };
        self.deliver = trace::should_sample().map(|t| (t, trace::now_ns()));
        proto::encode_response(&Response::Events(entries), &mut self.out);
        true
    }

    /// The staged bytes not yet written, oldest first.
    pub fn staged(&self) -> &[u8] {
        &self.out[self.out_pos..]
    }

    /// The driver wrote the first `n` bytes of [`Session::staged`].  Once
    /// everything staged has drained the buffer's window is recycled: its
    /// allocation is kept up to `OUT_RETAIN_BYTES` and given back past it,
    /// so one maximal response does not stay pinned on the connection.
    pub fn wrote(&mut self, n: usize) {
        debug_assert!(n <= self.staged().len(), "reported more bytes than were staged");
        self.out_pos += n;
        if self.out_pos >= self.out.len() {
            if self.out.capacity() > OUT_RETAIN_BYTES {
                self.out = Vec::new();
            } else {
                self.out.clear();
            }
            self.out_pos = 0;
            if let Some((t, start)) = self.deliver.take() {
                let dur = trace::now_ns().saturating_sub(start);
                trace::record_span(t, PHASE_DELIVER, start, dur, 0);
            }
        }
    }

    /// Process no more input (the peer half-closed): the driver drops the
    /// connection once the staged output drains.
    pub fn close(&mut self) {
        self.closing = true;
    }

    /// Whether the connection is to be closed once [`Session::staged`] is
    /// empty.
    pub fn is_closing(&self) -> bool {
        self.closing
    }

    /// The seqno a subscribed session's stream resumes after; `None` while
    /// it is still serving requests.
    pub fn streaming_after(&self) -> Option<u64> {
        match self.mode {
            Mode::Request => None,
            Mode::Streaming { after } => Some(after),
        }
    }
}

/// Whether a request mutates the map (the verbs a read-only server rejects).
fn is_write(req: &Request) -> bool {
    matches!(req, Request::Put(..) | Request::Del(..) | Request::Rmw(..))
}

/// Execute one decoded request against the map and count it under its
/// verb (`crate::metrics`).  An unsampled op does nothing else: it reads
/// no clock.
///
/// A trace-sampled op (`sampled` holds its trace id) runs under the
/// thread's current trace and is timed by two clock reads around the
/// structure execution, shard routing included.  That one window is its
/// `kcas` span, with the KCAS retries and helps the thread tallied
/// meanwhile, and its `srv_op_ns` sample.
///
/// A `SCAN` appends its pairs to `scan` (empty on entry) and answers
/// [`Reply::Scan`]; every other verb leaves `scan` alone.
fn execute(
    map: &dyn ConcurrentMap,
    req: Request,
    backend: Backend,
    scan: &mut Vec<(Key, Value)>,
    sampled: Option<u64>,
) -> Reply {
    let reply = match sampled {
        None => execute_inner(map, req, backend, scan),
        Some(t) => {
            let tallies = trace::tallies();
            trace::set_current(sampled);
            let start = trace::now_ns();
            let reply = execute_inner(map, req, backend, scan);
            let ns = trace::now_ns() - start;
            trace::set_current(None);
            let (retries, helps) = trace::tallies();
            let events =
                trace::pack_events(retries.wrapping_sub(tallies.0), helps.wrapping_sub(tallies.1));
            trace::record_span(t, PHASE_KCAS, start, ns, events);
            crate::metrics::metrics().op_ns.record(ns);
            reply
        }
    };
    crate::metrics::record_op(&req);
    reply
}

fn execute_inner(
    map: &dyn ConcurrentMap,
    req: Request,
    backend: Backend,
    scan: &mut Vec<(Key, Value)>,
) -> Reply {
    Reply::Value(match req {
        // Refused before the map sees them, like an oversized scan: keys 0
        // and MAX_KEY + 1 are the trees' sentinels, and a key or value wider
        // than a KCAS word's 62-bit payload would be truncated into another.
        Request::Get(k) | Request::Put(k, _) | Request::Del(k) | Request::Rmw(k, _)
            if !(1..=MAX_KEY).contains(&k) =>
        {
            Response::Err(format!("key {k} outside 1..={MAX_KEY}"))
        }
        Request::Put(_, v) | Request::Rmw(_, v) if v > MAX_KEY => {
            Response::Err(format!("value {v} exceeds MAX_KEY ({MAX_KEY})"))
        }
        Request::Get(k) => Response::Get(map.get(k)),
        Request::Put(k, v) => Response::Put(map.insert(k, v)),
        Request::Del(k) => Response::Del(map.remove(k)),
        // The canonical affine RMW (see the proto docs), shaped exactly
        // like `workload::apply`'s in-process increment (`map_or(δ, (v+δ)
        // & MAX_KEY)`); atomic on the PathCAS structures because their
        // `rmw` override is.
        Request::Rmw(k, delta) => Response::Rmw(
            map.rmw(k, &mut |v| v.map_or(delta, |x| x.wrapping_add(delta) & MAX_KEY)),
        ),
        // A scan longer than MAX_SCAN_LEN would encode to a response frame
        // the protocol itself declares illegal (> MAX_FRAME), so it is
        // refused up front: callers chunk large walks (like the quiescent
        // audit does) instead of receiving a silently truncated window.
        Request::Scan(_, len) if len as usize > MAX_SCAN_LEN => Response::Err(format!(
            "scan len {len} exceeds MAX_SCAN_LEN ({MAX_SCAN_LEN}); chunk the scan"
        )),
        Request::Scan(start, len) => {
            map.scan_into(start, len as usize, scan);
            return Reply::Scan;
        }
        Request::Stats => Response::Stats(map.stats()),
        // The telemetry exposition: version-checked so a client built
        // against a future layout fails loudly instead of misparsing.
        // A read verb — followers answer it too.  The exposition is
        // rendered *before* this request's own accounting, so the first
        // METRICS call on a fresh server reports srv_ops_metrics_total 0.
        Request::Metrics(v) if v == proto::METRICS_VERSION => {
            Response::Metrics(crate::metrics::render(map, backend))
        }
        Request::Metrics(v) => Response::Err(format!(
            "METRICS version {v} unsupported (server speaks {})",
            proto::METRICS_VERSION
        )),
        // The span-trace exposition: same versioning contract as METRICS,
        // same read-verb status.  Rendered *before* this request's own
        // kcas/resp/flush spans are recorded, so the dump is a pure
        // function of the ops that preceded it.
        Request::Trace(v) if v == proto::TRACE_VERSION => {
            Response::Trace(crate::metrics::render_trace(backend))
        }
        Request::Trace(v) => Response::Err(format!(
            "TRACE version {v} unsupported (server speaks {})",
            proto::TRACE_VERSION
        )),
        // Taken by `Session::process` before execute (it flips the session
        // into streaming mode); reaching here means a bug in the dispatch
        // order.
        Request::Subscribe(_) => Response::Err("SUBSCRIBE is not a point request".into()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapapi::reference::LockedBTreeMap;

    /// One maximal `SCAN` must not pin its pairs on the connection for good:
    /// the scan buffer and the staged output stay warm across ordinary scans
    /// and are given back once they have outgrown `mapapi::SCAN_RETAIN_PAIRS`
    /// (pairs, and the bytes of a response carrying that many).
    #[test]
    fn an_oversized_scan_buffer_is_not_retained() {
        let map = LockedBTreeMap::new();
        for k in 1..=10_000u64 {
            map.insert(k, k);
        }
        let mut session = Session::new(&ServerOpts::default());
        let scan = |session: &mut Session, len: u32| {
            let mut req = Vec::new();
            proto::encode_request(&Request::Scan(1, len), &mut req);
            session.feed(&req);
            assert_eq!(session.process(&map, &mut None), 1);
            assert_eq!(session.staged().len(), 4 + 1 + 4 + 16 * len as usize);
            session.wrote(session.staged().len());
            assert!(session.scan.is_empty(), "the buffer is empty between frames");
            (session.scan.capacity(), session.out.capacity())
        };
        let warm = scan(&mut session, 16);
        assert!((16..=mapapi::SCAN_RETAIN_PAIRS).contains(&warm.0), "{warm:?}");
        assert!((4 + 1 + 4 + 16 * 16..=OUT_RETAIN_BYTES).contains(&warm.1), "{warm:?}");
        assert_eq!(scan(&mut session, 16), warm, "warm buffers are reused as they are");
        assert_eq!(scan(&mut session, 10_000), (0, 0), "outgrown buffers are given back");
    }
}
