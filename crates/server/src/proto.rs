//! The wire protocol: small length-prefixed binary frames, no external
//! serialization crates.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! [len: u32 LE] [payload: len bytes]
//! ```
//!
//! The first payload byte is the opcode (requests) or status tag
//! (responses); all integers are little-endian, fixed width.  Request
//! payloads:
//!
//! | op      | code | payload after the opcode                    |
//! |---------|------|---------------------------------------------|
//! | `GET`   | 1    | `key: u64`                                  |
//! | `PUT`   | 2    | `key: u64, value: u64`                      |
//! | `DEL`   | 3    | `key: u64`                                  |
//! | `RMW`   | 4    | `key: u64, delta: u64`                      |
//! | `SCAN`  | 5    | `start: u64, len: u32`                      |
//! | `STATS` | 6    | —                                           |
//! | `SUBSCRIBE` | 7 | `after: u64` (resume seqno)                |
//! | `METRICS` | 8  | `version: u8` (must be [`METRICS_VERSION`]) |
//! | `TRACE`   | 9  | `version: u8` (must be [`TRACE_VERSION`])   |
//!
//! A `GET`, `PUT`, `DEL` or `RMW` key must lie in `1..=MAX_KEY`
//! ([`mapapi::MAX_KEY`], 2^62 − 2): 0 and `MAX_KEY + 1` are the trees'
//! sentinel keys.  A `PUT` value or an `RMW` delta must be at most
//! `MAX_KEY`, so that it fits a KCAS word's 62-bit payload.  A request
//! outside either range answers with a semantic `Err` and never reaches the
//! map; the connection stays usable, as it does after an oversized `SCAN`.
//!
//! Responses reuse the request's code as their tag (so a pipelined client
//! can sanity-check ordering) with tag `0` reserved for protocol errors:
//!
//! | resp    | tag  | payload after the tag                                    |
//! |---------|------|----------------------------------------------------------|
//! | `Err`   | 0    | `msg: [u8]` (UTF-8, rest of frame)                       |
//! | `GET`   | 1    | `found: u8, value: u64`                                  |
//! | `PUT`   | 2    | `inserted: u8`                                           |
//! | `DEL`   | 3    | `removed: u8`                                            |
//! | `RMW`   | 4    | `was_present: u8`                                        |
//! | `SCAN`  | 5    | `count: u32`, then `count × (key: u64, value: u64)`      |
//! | `STATS` | 6    | `key_count: u64, key_sum: u128, node_count: u64, key_depth_sum: u64, approx_bytes: u64` |
//! | `EVENTS`| 7    | `count: u32`, then `count × (seqno: u64, event: 17 bytes)` |
//! | `METRICS`| 8   | `text: [u8]` (UTF-8 exposition, rest of frame)           |
//! | `TRACE` | 9    | `text: [u8]` (UTF-8 exposition, rest of frame)           |
//!
//! `METRICS` and `TRACE` are versioned on the *request*: the client names
//! the exposition version it understands, and a version the server does not
//! speak answers with a semantic `Err` response (connection stays usable)
//! rather than a silently different format.  Both exposition bodies are
//! produced by code shared between both serving backends, so their byte
//! layout is a pure function of the registered instrument state — `TRACE`
//! dumps the sampled span rings (see `telemetry::trace`), one line per
//! span, ordered by `(trace, phase)` so the layout never depends on raw
//! timestamps.
//!
//! `SUBSCRIBE` switches the connection into streaming mode: the server
//! answers with `EVENTS` frames — each a batch of change-stream entries in
//! strict sequence order, encoded with [`replica::Event`]'s fixed-width
//! codec — for as long as the connection lives.  No other request may
//! follow a `SUBSCRIBE` on the same connection.
//!
//! `RMW` is deliberately a **verb with a delta**, not a shipped closure:
//! the server applies the workspace's canonical affine update
//! (`absent ↦ δ, present v ↦ (v + δ) & MAX_KEY` — the same shape as the
//! workload engine's in-process increment, mask included) atomically through
//! [`mapapi::ConcurrentMap::rmw`] — the same shape Redis `INCRBY` or a
//! Memcached `incr` exposes.  See DESIGN.md §8 for why arbitrary RMW
//! closures cannot cross a wire.

use std::io::{self, BufRead};

use mapapi::{Key, MapStats, Value};
use replica::{Event, EVENT_WIRE_BYTES};

/// Hard ceiling on a frame's payload size; anything larger is a protocol
/// error (protects the server from a garbage length prefix committing it to
/// a multi-gigabyte read).
pub const MAX_FRAME: usize = 16 << 20;

/// Largest scan length the server accepts: the biggest window whose
/// response frame (tag + count + 16 bytes per pair) is guaranteed to fit
/// under [`MAX_FRAME`].  Larger walks must chunk — exactly what the
/// quiescent audit (`mapapi::suites::check_scan_matches_stats`, 4096 keys
/// per scan) already does.  A `SCAN` beyond this answers with a semantic
/// `Err` response, not a torn connection.
pub const MAX_SCAN_LEN: usize = (MAX_FRAME - 8) / 16;

/// Largest change-stream batch per `EVENTS` frame.  Well under the
/// [`MAX_FRAME`]-derived bound (tag + count + 25 bytes per entry); kept
/// small so a follower's visible staleness moves in modest steps.
pub const MAX_EVENTS_PER_FRAME: usize = 8192;

/// The text-exposition version this server speaks.  A `METRICS` request
/// carrying any other version gets a semantic `Err` response, so clients
/// can probe for compatibility without risking a misparse.
pub const METRICS_VERSION: u8 = 1;

/// The span-trace exposition version this server speaks (same contract as
/// [`METRICS_VERSION`]: any other version on a `TRACE` request answers with
/// a semantic `Err`, and the connection stays usable).
pub const TRACE_VERSION: u8 = 1;

/// One client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Point lookup.
    Get(Key),
    /// Insert-if-absent.
    Put(Key, Value),
    /// Delete.
    Del(Key),
    /// Server-side atomic affine read-modify-write by `delta`.
    Rmw(Key, u64),
    /// Ordered range scan: first `len` pairs with key ≥ `start`.
    Scan(Key, u32),
    /// Quiescent structural statistics of the served structure.
    Stats,
    /// Switch this connection into change-stream mode, resuming after the
    /// given sequence number (0 = from the beginning).
    Subscribe(u64),
    /// Telemetry text exposition in the named version (see
    /// [`METRICS_VERSION`]).  A read: permitted on read-only servers.
    Metrics(u8),
    /// Sampled span-trace exposition in the named version (see
    /// [`TRACE_VERSION`]).  A read: permitted on read-only servers.
    Trace(u8),
}

/// One server response (same order as the request stream of a connection).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Value for a `Get`, if the key was present.
    Get(Option<Value>),
    /// Whether a `Put` inserted.
    Put(bool),
    /// Whether a `Del` removed.
    Del(bool),
    /// Whether the `Rmw` key was present before the update.
    Rmw(bool),
    /// The scanned window, ascending by key.
    Scan(Vec<(Key, Value)>),
    /// The structure's statistics.
    Stats(MapStats),
    /// A change-stream batch: `(seqno, event)` entries in strict sequence
    /// order.  Only sent on subscribed connections.
    Events(Vec<(u64, Event)>),
    /// The telemetry text exposition (UTF-8).
    Metrics(String),
    /// The sampled span-trace exposition (UTF-8).
    Trace(String),
    /// Protocol-level error; the server closes the connection after it.
    Err(String),
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Copy an exactly-`N`-byte slice into an array. Every caller passes a
/// slice produced by `take(N)`, so the lengths always match; a mismatch
/// would be an internal cursor bug, surfaced as a decode error (killing
/// just the frame) rather than a process abort.
fn array<const N: usize>(s: &[u8]) -> Result<[u8; N], String> {
    s.try_into().map_err(|_| format!("internal: expected {N} bytes, got {}", s.len()))
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.buf.len() {
            return Err(format!("truncated frame: wanted {n} bytes at offset {}", self.pos));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(array::<4>(self.take(4)?)?))
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(array::<8>(self.take(8)?)?))
    }
    fn u128(&mut self) -> Result<u128, String> {
        Ok(u128::from_le_bytes(array::<16>(self.take(16)?)?))
    }
    fn done(&self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes in frame", self.buf.len() - self.pos))
        }
    }
}

/// Append `req` to `buf` as one complete frame (length prefix included).
pub fn encode_request(req: &Request, buf: &mut Vec<u8>) {
    let at = buf.len();
    put_u32(buf, 0); // length back-patched below
    match *req {
        Request::Get(k) => {
            buf.push(1);
            put_u64(buf, k);
        }
        Request::Put(k, v) => {
            buf.push(2);
            put_u64(buf, k);
            put_u64(buf, v);
        }
        Request::Del(k) => {
            buf.push(3);
            put_u64(buf, k);
        }
        Request::Rmw(k, d) => {
            buf.push(4);
            put_u64(buf, k);
            put_u64(buf, d);
        }
        Request::Scan(start, len) => {
            buf.push(5);
            put_u64(buf, start);
            put_u32(buf, len);
        }
        Request::Stats => buf.push(6),
        Request::Subscribe(after) => {
            buf.push(7);
            put_u64(buf, after);
        }
        Request::Metrics(version) => {
            buf.push(8);
            buf.push(version);
        }
        Request::Trace(version) => {
            buf.push(9);
            buf.push(version);
        }
    }
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Decode one request payload (the frame body, length prefix stripped).
pub fn decode_request(payload: &[u8]) -> Result<Request, String> {
    let mut c = Cursor::new(payload);
    let req = match c.u8()? {
        1 => Request::Get(c.u64()?),
        2 => Request::Put(c.u64()?, c.u64()?),
        3 => Request::Del(c.u64()?),
        4 => Request::Rmw(c.u64()?, c.u64()?),
        5 => Request::Scan(c.u64()?, c.u32()?),
        6 => Request::Stats,
        7 => Request::Subscribe(c.u64()?),
        8 => Request::Metrics(c.u8()?),
        9 => Request::Trace(c.u8()?),
        op => return Err(format!("unknown request opcode {op}")),
    };
    c.done()?;
    Ok(req)
}

/// Append `resp` to `buf` as one complete frame (length prefix included).
pub fn encode_response(resp: &Response, buf: &mut Vec<u8>) {
    let at = buf.len();
    put_u32(buf, 0);
    match resp {
        Response::Err(msg) => {
            buf.push(0);
            buf.extend_from_slice(msg.as_bytes());
        }
        Response::Get(v) => {
            buf.push(1);
            buf.push(v.is_some() as u8);
            put_u64(buf, v.unwrap_or(0));
        }
        Response::Put(ok) => {
            buf.push(2);
            buf.push(*ok as u8);
        }
        Response::Del(ok) => {
            buf.push(3);
            buf.push(*ok as u8);
        }
        Response::Rmw(present) => {
            buf.push(4);
            buf.push(*present as u8);
        }
        Response::Scan(pairs) => put_scan(buf, pairs),
        Response::Stats(s) => {
            buf.push(6);
            put_u64(buf, s.key_count);
            buf.extend_from_slice(&s.key_sum.to_le_bytes());
            put_u64(buf, s.node_count);
            put_u64(buf, s.key_depth_sum);
            put_u64(buf, s.approx_bytes);
        }
        Response::Events(entries) => {
            buf.push(7);
            put_u32(buf, entries.len() as u32);
            for (seq, ev) in entries {
                put_u64(buf, *seq);
                ev.encode(buf);
            }
        }
        Response::Metrics(text) => {
            buf.push(8);
            buf.extend_from_slice(text.as_bytes());
        }
        Response::Trace(text) => {
            buf.push(9);
            buf.extend_from_slice(text.as_bytes());
        }
    }
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// The payload of a `Scan` response: tag, count, the pairs.
fn put_scan(buf: &mut Vec<u8>, pairs: &[(Key, Value)]) {
    buf.push(5);
    put_u32(buf, pairs.len() as u32);
    for &(k, v) in pairs {
        put_u64(buf, k);
        put_u64(buf, v);
    }
}

/// Append the `Scan` response holding `pairs` to `buf` as one complete
/// frame — byte for byte what [`encode_response`] appends for
/// `Response::Scan(pairs.to_vec())`, without the vector: the server answers
/// a `SCAN` from the buffer its session scanned into.
pub fn encode_scan(pairs: &[(Key, Value)], buf: &mut Vec<u8>) {
    put_u32(buf, (1 + 4 + 16 * pairs.len()) as u32);
    put_scan(buf, pairs);
}

/// Decode one response payload (the frame body, length prefix stripped).
pub fn decode_response(payload: &[u8]) -> Result<Response, String> {
    let mut c = Cursor::new(payload);
    let resp = match c.u8()? {
        0 => {
            let rest = c.take(payload.len() - 1)?;
            Response::Err(String::from_utf8_lossy(rest).into_owned())
        }
        1 => {
            let found = c.u8()? != 0;
            let v = c.u64()?;
            Response::Get(found.then_some(v))
        }
        2 => Response::Put(c.u8()? != 0),
        3 => Response::Del(c.u8()? != 0),
        4 => Response::Rmw(c.u8()? != 0),
        5 => {
            let n = c.u32()? as usize;
            let mut pairs = Vec::with_capacity(n.min(MAX_FRAME / 16));
            for _ in 0..n {
                pairs.push((c.u64()?, c.u64()?));
            }
            Response::Scan(pairs)
        }
        6 => Response::Stats(MapStats {
            key_count: c.u64()?,
            key_sum: c.u128()?,
            node_count: c.u64()?,
            key_depth_sum: c.u64()?,
            approx_bytes: c.u64()?,
        }),
        7 => {
            let n = c.u32()? as usize;
            let mut entries = Vec::with_capacity(n.min(MAX_FRAME / (8 + EVENT_WIRE_BYTES)));
            for _ in 0..n {
                let seq = c.u64()?;
                let raw = array::<EVENT_WIRE_BYTES>(c.take(EVENT_WIRE_BYTES)?)?;
                entries.push((seq, Event::decode(&raw)?));
            }
            Response::Events(entries)
        }
        8 => {
            let rest = c.take(payload.len() - 1)?;
            match String::from_utf8(rest.to_vec()) {
                Ok(text) => Response::Metrics(text),
                Err(_) => return Err("METRICS exposition is not valid UTF-8".into()),
            }
        }
        9 => {
            let rest = c.take(payload.len() - 1)?;
            match String::from_utf8(rest.to_vec()) {
                Ok(text) => Response::Trace(text),
                Err(_) => return Err("TRACE exposition is not valid UTF-8".into()),
            }
        }
        tag => return Err(format!("unknown response tag {tag}")),
    };
    c.done()?;
    Ok(resp)
}

/// Read one frame's payload into `payload` (cleared first) — the raw
/// blocking reader the socket tests use, and the oracle the incremental
/// [`FrameDecoder`] (what the server and the client read with) is
/// property-tested against.  Returns
/// `Ok(false)` on clean EOF at a frame boundary; propagates any other I/O
/// error (including mid-frame EOF, surfaced as `UnexpectedEof`).
pub fn read_frame<R: BufRead>(r: &mut R, payload: &mut Vec<u8>) -> io::Result<bool> {
    let mut prefix = [0u8; 4];
    // Distinguish clean EOF (no bytes at all) from a torn prefix.
    match r.read(&mut prefix[..1])? {
        0 => return Ok(false),
        _ => r.read_exact(&mut prefix[1..])?,
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})"),
        ));
    }
    payload.clear();
    payload.resize(len, 0);
    r.read_exact(payload)?;
    Ok(true)
}

/// How many bytes [`FrameDecoder::fill_from`] asks the source for per call.
/// Big enough that a pipelined burst of point requests arrives in one read;
/// small enough that a connection's retained buffer stays modest.  A read
/// that returns fewer bytes took all the socket held, so the reactor reads
/// again only after one that filled it.
pub const READ_CHUNK: usize = 64 << 10;

/// An **incremental** frame decoder: the counterpart of [`read_frame`] for
/// readers that receive bytes in whatever pieces the network delivers —
/// every server connection's `Session`, on both backends, and the client
/// [`Connection`](crate::Connection).
///
/// Bytes accumulate in one internal buffer ([`FrameDecoder::fill_from`]
/// reads straight into its tail — no staging copy) and
/// [`FrameDecoder::next_frame`] yields each complete payload as a borrowed
/// slice.  Two properties the battery asserts:
///
/// * **chunking-oblivious**: any split of a byte stream — down to one byte
///   at a time — decodes to exactly the frame sequence the one-shot
///   [`read_frame`] oracle produces (proptest-differential);
/// * **bounded**: a frame's length prefix is validated against
///   [`MAX_FRAME`] *before* any buffer growth beyond the bytes actually
///   received, so a hostile length can never force an allocation past the
///   ceiling — and the buffer only ever grows toward the one frame it is
///   assembling (plus up to one [`READ_CHUNK`] of lookahead).
///
/// Consumed bytes are compacted away lazily; capacity is retained across
/// frames for the life of the connection, which is what makes the
/// steady-state read path allocation-free.
#[derive(Default)]
pub struct FrameDecoder {
    /// Received bytes live in `buf[start..end]`.  Everything past `end` is
    /// the read window of an earlier [`FrameDecoder::fill_from`], already
    /// initialized, which the next fill reads into without zeroing it again
    /// — a socket reader pays for the bytes it receives, not for
    /// [`READ_CHUNK`] per `read`.
    buf: Vec<u8>,
    /// Start of unconsumed bytes in `buf`.
    start: usize,
    /// End of received bytes in `buf`.
    end: usize,
}

impl FrameDecoder {
    /// An empty decoder (no buffer until the first fill).
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append bytes by hand — the test-side entry point; socket readers use
    /// [`FrameDecoder::fill_from`].
    pub fn feed(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.truncate(self.end);
        self.buf.extend_from_slice(bytes);
        self.end = self.buf.len();
    }

    /// Read once from `r` into the buffer's tail, growing it by at most
    /// [`READ_CHUNK`].  Returns the byte count (0 = EOF); `WouldBlock` and
    /// friends propagate untouched.
    pub fn fill_from<R: io::Read>(&mut self, r: &mut R) -> io::Result<usize> {
        self.compact();
        let window = self.end + READ_CHUNK;
        if self.buf.len() < window {
            // Zero-fill only what no earlier fill has; with retained
            // capacity this is a memset, not an allocation.
            self.buf.resize(window, 0);
        }
        let n = r.read(&mut self.buf[self.end..window])?;
        self.end += n;
        Ok(n)
    }

    /// The next complete frame payload, if the buffer holds one.
    /// `Ok(None)` means "need more bytes"; `Err` means the stream is
    /// poisoned (hostile length prefix) and the connection must die —
    /// exactly when the [`read_frame`] oracle errors.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, String> {
        let avail = &self.buf[self.start..self.end];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(array::<4>(&avail[..4])?) as usize;
        if len > MAX_FRAME {
            return Err(format!("frame of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})"));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        self.start += 4 + len;
        Ok(Some(&self.buf[self.start - len..self.start]))
    }

    /// Whether undecoded bytes remain — i.e. the stream ended mid-frame if
    /// no more input is coming.
    pub fn has_partial(&self) -> bool {
        self.start < self.end
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// The buffer's capacity — what the allocation-bound property test
    /// checks against [`MAX_FRAME`] `+` [`READ_CHUNK`] slack.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Forget buffered bytes but keep the allocation: what a session does
    /// with input that arrives after `SUBSCRIBE`.
    pub fn reset(&mut self) {
        self.start = 0;
        self.end = 0;
    }

    /// Drop the consumed prefix once it dominates the buffer, so the buffer
    /// tracks the frames in flight instead of the bytes ever received.
    /// Amortized O(1) per byte: each byte is copied at most once per
    /// half-buffer of consumption.
    fn compact(&mut self) {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.start >= READ_CHUNK.max(self.end / 2) {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        assert_eq!(len, buf.len() - 4, "length prefix must cover the payload");
        assert_eq!(decode_request(&buf[4..]), Ok(req));
    }

    fn roundtrip_resp(resp: Response) {
        let mut buf = Vec::new();
        encode_response(&resp, &mut buf);
        let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        assert_eq!(len, buf.len() - 4);
        if let Response::Scan(pairs) = &resp {
            // The slice encoder appends the same frame, after whatever the
            // buffer already holds.
            let mut again = vec![0xEE];
            encode_scan(pairs, &mut again);
            assert_eq!(again[1..], buf[..]);
        }
        assert_eq!(decode_response(&buf[4..]), Ok(resp));
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Get(42));
        roundtrip_req(Request::Put(1, u64::MAX));
        roundtrip_req(Request::Del(mapapi::MAX_KEY));
        roundtrip_req(Request::Rmw(7, 123));
        roundtrip_req(Request::Scan(10, 4096));
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Subscribe(0));
        roundtrip_req(Request::Subscribe(u64::MAX));
        roundtrip_req(Request::Metrics(METRICS_VERSION));
        roundtrip_req(Request::Metrics(0));
        roundtrip_req(Request::Metrics(u8::MAX));
        roundtrip_req(Request::Trace(TRACE_VERSION));
        roundtrip_req(Request::Trace(0));
        roundtrip_req(Request::Trace(u8::MAX));
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Get(None));
        roundtrip_resp(Response::Get(Some(99)));
        roundtrip_resp(Response::Put(true));
        roundtrip_resp(Response::Del(false));
        roundtrip_resp(Response::Rmw(true));
        roundtrip_resp(Response::Scan(vec![]));
        roundtrip_resp(Response::Scan(vec![(1, 2), (3, 4), (u64::MAX, 0)]));
        roundtrip_resp(Response::Stats(MapStats {
            key_count: 5,
            key_sum: u128::MAX / 3,
            node_count: 9,
            key_depth_sum: 20,
            approx_bytes: 1000,
        }));
        roundtrip_resp(Response::Err("bad opcode".into()));
        roundtrip_resp(Response::Events(vec![]));
        roundtrip_resp(Response::Events(vec![
            (1, replica::Event::Put(5, 50)),
            (2, replica::Event::Del(5)),
            (3, replica::Event::Set(9, u64::MAX)),
        ]));
        roundtrip_resp(Response::Metrics(String::new()));
        roundtrip_resp(Response::Metrics("srv_ops_get_total 42\nsrv_ops_put_total 7\n".into()));
        roundtrip_resp(Response::Trace(String::new()));
        roundtrip_resp(Response::Trace(
            "# pathcas-trace v1 backend=reactor sample_every=64 sampled=1 spans=6 dropped=0\n"
                .into(),
        ));
        // Non-UTF-8 exposition bytes are rejected, not lossily decoded.
        assert!(decode_response(&[8, 0xFF, 0xFE]).is_err());
        assert!(decode_response(&[9, 0xFF, 0xFE]).is_err());
    }

    #[test]
    fn corrupt_event_frames_are_rejected() {
        let mut buf = Vec::new();
        encode_response(&Response::Events(vec![(7, replica::Event::Put(1, 2))]), &mut buf);
        let mut payload = buf[4..].to_vec();
        // Flip the event kind byte to an unknown value.
        payload[5 + 8] = 99;
        assert!(decode_response(&payload).is_err());
        // Truncate mid-entry.
        let cut = payload.len() - 3;
        assert!(decode_response(&payload[..cut]).is_err());
    }

    #[test]
    fn garbage_is_rejected_not_misparsed() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[99, 0, 0]).is_err());
        // Truncated GET.
        assert!(decode_request(&[1, 1, 2]).is_err());
        // Trailing bytes.
        let mut buf = Vec::new();
        encode_request(&Request::Stats, &mut buf);
        let mut payload = buf[4..].to_vec();
        payload.push(0);
        assert!(decode_request(&payload).is_err());
        assert!(decode_response(&[77]).is_err());
    }

    #[test]
    fn read_frame_handles_eof_and_oversize() {
        use std::io::BufReader;
        let mut payload = Vec::new();
        // Clean EOF.
        let mut r = BufReader::new(&[][..]);
        assert!(!read_frame(&mut r, &mut payload).unwrap());
        // A full frame followed by clean EOF.
        let mut buf = Vec::new();
        encode_request(&Request::Get(5), &mut buf);
        let mut r = BufReader::new(&buf[..]);
        assert!(read_frame(&mut r, &mut payload).unwrap());
        assert_eq!(decode_request(&payload), Ok(Request::Get(5)));
        assert!(!read_frame(&mut r, &mut payload).unwrap());
        // Torn prefix is an error, not a silent EOF.
        let mut r = BufReader::new(&buf[..2]);
        assert!(read_frame(&mut r, &mut payload).is_err());
        // Oversized length prefix is rejected before allocating.
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        let mut r = BufReader::new(&huge[..]);
        assert!(read_frame(&mut r, &mut payload).is_err());
    }

    #[test]
    fn incremental_decoder_handles_any_split() {
        let reqs = [Request::Get(1), Request::Put(2, 20), Request::Scan(1, 8), Request::Stats];
        let mut stream = Vec::new();
        for r in &reqs {
            encode_request(r, &mut stream);
        }
        // Feed the whole stream one byte at a time; every frame must pop
        // out exactly once, in order, at the moment its last byte lands.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for &b in &stream {
            dec.feed(&[b]);
            while let Some(payload) = dec.next_frame().unwrap() {
                got.push(decode_request(payload).unwrap());
            }
        }
        assert_eq!(got, reqs);
        assert!(!dec.has_partial());
    }

    #[test]
    fn incremental_decoder_rejects_hostile_lengths_without_buffering() {
        let mut dec = FrameDecoder::new();
        dec.feed(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(dec.next_frame().is_err());
        // The rejection happened at the prefix: four bytes buffered, no
        // multi-megabyte reservation.
        assert!(dec.capacity() < 1024, "hostile prefix grew the buffer");
    }

    #[test]
    fn incremental_decoder_retains_capacity_across_frames_and_reset() {
        let mut dec = FrameDecoder::new();
        let mut stream = Vec::new();
        encode_request(&Request::Put(1, 1), &mut stream);
        for _ in 0..100 {
            dec.feed(&stream);
            assert!(dec.next_frame().unwrap().is_some());
        }
        let cap = dec.capacity();
        assert!(cap > 0);
        dec.reset();
        assert_eq!(dec.capacity(), cap, "reset must keep the allocation");
        assert_eq!(dec.buffered(), 0);
        // Mid-frame state is visible: feed a prefix only.
        dec.feed(&stream[..3]);
        assert!(dec.next_frame().unwrap().is_none());
        assert!(dec.has_partial());
    }

    #[test]
    fn pipelined_frames_decode_in_order() {
        use std::io::BufReader;
        let reqs =
            [Request::Get(1), Request::Put(2, 20), Request::Scan(1, 8), Request::Stats];
        let mut buf = Vec::new();
        for r in &reqs {
            encode_request(r, &mut buf);
        }
        let mut r = BufReader::new(&buf[..]);
        let mut payload = Vec::new();
        for want in &reqs {
            assert!(read_frame(&mut r, &mut payload).unwrap());
            assert_eq!(decode_request(&payload).as_ref(), Ok(want));
        }
        assert!(!read_frame(&mut r, &mut payload).unwrap());
    }
}
