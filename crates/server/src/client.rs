//! The loopback client: a pipelined [`Connection`], and the [`ServiceMap`]
//! pool that makes a remote structure drivable by everything written
//! against [`ConcurrentMap`] — the correctness suites, the workload
//! executor, the quiescent scan audits.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use mapapi::{ConcurrentMap, Key, MapStats, Value};
use replica::{Event, Follower};

use crate::proto::{self, Request, Response, MAX_SCAN_LEN};

/// One client connection: a buffered request writer and response reader
/// over a `TcpStream`, supporting single requests and pipelined batches.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    scratch: Vec<u8>,
}

impl Connection {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            scratch: Vec::new(),
        })
    }

    fn read_response(&mut self) -> io::Result<Response> {
        if !proto::read_frame(&mut self.reader, &mut self.scratch)? {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-pipeline",
            ));
        }
        proto::decode_response(&self.scratch)
            .map_err(|msg| io::Error::new(io::ErrorKind::InvalidData, msg))
    }

    /// Send one request and wait for its response.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        let mut buf = Vec::new();
        proto::encode_request(req, &mut buf);
        self.writer.write_all(&buf)?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Send `reqs` as one pipelined burst — every frame written, **one**
    /// flush — then read the `reqs.len()` responses, which the protocol
    /// guarantees arrive in request order.  This is the client half of the
    /// server's batched-response path.
    pub fn pipeline(&mut self, reqs: &[Request]) -> io::Result<Vec<Response>> {
        let mut buf = Vec::new();
        for req in reqs {
            proto::encode_request(req, &mut buf);
        }
        self.writer.write_all(&buf)?;
        self.writer.flush()?;
        (0..reqs.len()).map(|_| self.read_response()).collect()
    }

    /// Pull the server's telemetry exposition (the `METRICS` verb at
    /// [`crate::proto::METRICS_VERSION`]): one metric per line, `name
    /// value`, plus `#`-prefixed annotations.
    ///
    /// ```text
    /// # pathcas-metrics v1 backend=reactor
    /// kcas_ops_total 1024
    /// ...registry lines, sorted by name...
    /// srv_shard_point_ops{shard="0"} 217
    /// srv_shard_scan_ops{shard="0"} 3
    /// ```
    ///
    /// The registry section is process-global; the `srv_shard_*` section
    /// reads the *served map's* per-shard load counters (absent entirely
    /// when the map doesn't track them): point ops routed to the shard, and
    /// inner `scan` calls made on it — one per chunk a merged scan pulled,
    /// none for a shard no scan reached.  Both backends answer with the same
    /// byte layout; only the values differ.
    pub fn metrics(&mut self) -> io::Result<String> {
        match self.request(&Request::Metrics(proto::METRICS_VERSION))? {
            Response::Metrics(text) => Ok(text),
            Response::Err(msg) => Err(io::Error::other(msg)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("METRICS answered with {other:?}"),
            )),
        }
    }

    /// Pull the server's span-trace exposition (the `TRACE` verb at
    /// [`crate::proto::TRACE_VERSION`]): a `# pathcas-trace` header line
    /// followed by one `span ...` line per retained span.
    ///
    /// ```text
    /// # pathcas-trace v1 backend=reactor sample_every=64 sampled=3 spans=17 dropped=0
    /// span trace=0 phase=ready start_ns=1201 dur_ns=802 retries=0 helps=0
    /// span trace=0 phase=decode start_ns=2101 dur_ns=190 retries=0 helps=0
    /// ...
    /// ```
    ///
    /// Lines are sorted by `(trace, phase, start, ticket)` — phase ids are
    /// pipeline-ordered, so the *line order* is a pure function of which ops
    /// were sampled, never of raw timestamps; the differential battery masks
    /// the `start_ns=`/`dur_ns=` digits and asserts the rest byte-identical
    /// across backends.  Like METRICS, the dump is rendered before the TRACE
    /// request's own post-execute spans exist.
    pub fn trace(&mut self) -> io::Result<String> {
        match self.request(&Request::Trace(proto::TRACE_VERSION))? {
            Response::Trace(text) => Ok(text),
            Response::Err(msg) => Err(io::Error::other(msg)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("TRACE answered with {other:?}"),
            )),
        }
    }

    /// Switch this connection into change-stream mode, resuming after
    /// seqno `after`.  From here on only [`Connection::next_events`] makes
    /// sense; the server answers nothing else on this connection.
    pub fn subscribe(&mut self, after: u64) -> io::Result<()> {
        let mut buf = Vec::new();
        proto::encode_request(&Request::Subscribe(after), &mut buf);
        self.writer.write_all(&buf)?;
        self.writer.flush()
    }

    /// Block for the next `EVENTS` batch on a subscribed connection.
    /// Server-side errors (e.g. subscribing to a server without a log) and
    /// EOF surface as `io::Error`.
    pub fn next_events(&mut self) -> io::Result<Vec<(u64, Event)>> {
        match self.read_response()? {
            Response::Events(entries) => Ok(entries),
            Response::Err(msg) => Err(io::Error::other(msg)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("SUBSCRIBE answered with {other:?}"),
            )),
        }
    }
}

/// A follower's wire-side tail: a dedicated thread holding a subscribed
/// [`Connection`], applying every received batch to the [`Follower`] in
/// sequence — the socket counterpart of [`replica::tail_log`].
///
/// The tail resumes from `follower.applied_seqno()`, so a follower
/// bootstrapped from a checkpoint at seqno `S` asks the primary only for
/// events after `S`.  It runs until [`WireTail::stop`] (or drop) shuts the
/// socket down, or the primary closes the connection.
pub struct WireTail {
    sock: TcpStream,
    thread: Option<JoinHandle<()>>,
}

impl WireTail {
    /// Subscribe to the primary at `addr` and start applying events to
    /// `follower` on a background thread.
    pub fn start(addr: impl ToSocketAddrs, follower: Arc<Follower>) -> io::Result<WireTail> {
        let mut conn = Connection::connect(addr)?;
        let sock = conn.reader.get_ref().try_clone()?;
        conn.subscribe(follower.applied_seqno())?;
        let thread = std::thread::spawn(move || {
            // EOF / reset / shutdown all end the tail; the follower simply
            // stops advancing (it is stale, not corrupt).
            while let Ok(entries) = conn.next_events() {
                for (seq, ev) in entries {
                    follower.apply(seq, ev);
                }
            }
        });
        Ok(WireTail { sock, thread: Some(thread) })
    }

    /// Shut the subscription down and join the tail thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        let _ = self.sock.shutdown(Shutdown::Both);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for WireTail {
    fn drop(&mut self) {
        self.halt();
    }
}

/// A pool of loopback connections exposing a **remote** structure through
/// the [`ConcurrentMap`] trait, so every existing scenario, suite and audit
/// runs over the socket path unchanged.
///
/// Each calling thread is hashed onto a pool slot (falling through to the
/// first free slot under collision), so with `pool_size >= worker threads`
/// the workload executor's workers effectively own a connection each — the
/// same discipline a real service client would use.
///
/// Semantics over the wire:
///
/// * point ops are exactly the remote structure's (one request, one
///   response — the server executes them on the inner map), and so is a
///   scan of up to [`MAX_SCAN_LEN`] pairs; a longer one is chunked (see
///   `scan_into`);
/// * `rmw` ships **δ = `update(Some(0))`** and the server applies the
///   canonical affine update atomically.  Affine updates (`v ↦ v + δ`,
///   which is every RMW the workload engine issues) behave identically to
///   in-process `rmw`; arbitrary closures cannot cross a wire — see
///   DESIGN.md §8;
/// * `stats` is the wire `STATS` verb: quiescent-only, like the trait says.
///
/// I/O failures panic: the suites and executor have no error channel, and
/// a dead loopback server *should* fail the run loudly.
pub struct ServiceMap {
    name: &'static str,
    pool: Vec<Mutex<Connection>>,
}

impl ServiceMap {
    /// Open `pool_size` connections to `addr`.  `label` names the served
    /// structure in benchmark rows: the map reports `svc(label)`.
    pub fn connect(
        addr: impl ToSocketAddrs + Copy,
        pool_size: usize,
        label: &str,
    ) -> io::Result<ServiceMap> {
        assert!(pool_size >= 1, "ServiceMap needs at least one connection");
        let pool = (0..pool_size)
            .map(|_| Connection::connect(addr).map(Mutex::new))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(ServiceMap { name: mapapi::intern_name(format!("svc({label})")), pool })
    }

    /// Lock a connection for the calling thread: its hashed home slot if
    /// free, else the first free slot, else block on the home slot.
    fn conn(&self) -> MutexGuard<'_, Connection> {
        let mut h = DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        let home = (h.finish() % self.pool.len() as u64) as usize;
        for i in 0..self.pool.len() {
            if let Ok(g) = self.pool[(home + i) % self.pool.len()].try_lock() {
                return g;
            }
        }
        // A handler that panicked mid-request poisons its connection lock;
        // the connection itself re-syncs on the next frame, so keep serving.
        self.pool[home].lock().unwrap_or_else(|e| e.into_inner())
    }

    fn roundtrip(&self, req: Request) -> Response {
        self.conn()
            .request(&req)
            .unwrap_or_else(|e| panic!("service connection failed: {e}"))
    }
}

impl ConcurrentMap for ServiceMap {
    fn name(&self) -> &'static str {
        self.name
    }

    fn insert(&self, key: Key, value: Value) -> bool {
        matches!(self.roundtrip(Request::Put(key, value)), Response::Put(true))
    }

    fn remove(&self, key: Key) -> bool {
        matches!(self.roundtrip(Request::Del(key)), Response::Del(true))
    }

    fn get(&self, key: Key) -> Option<Value> {
        match self.roundtrip(Request::Get(key)) {
            Response::Get(v) => v,
            other => panic!("GET answered with {other:?}"),
        }
    }

    fn rmw(&self, key: Key, update: &mut dyn FnMut(Option<Value>) -> Value) -> bool {
        // Derive the affine delta by probing the closure at zero (see the
        // struct docs); the server applies it atomically.
        let delta = update(Some(0));
        matches!(self.roundtrip(Request::Rmw(key, delta)), Response::Rmw(true))
    }

    /// Sent as `SCAN`s of at most [`MAX_SCAN_LEN`] pairs, each starting at
    /// the key after the last one returned, until `len` pairs have arrived,
    /// a chunk comes back short or one ends at `Key::MAX`.  Each chunk is
    /// its own snapshot on the server, so a scan longer than one chunk is
    /// not one atomic snapshot — the same relaxation as `ShardedMap`'s
    /// merge.
    fn scan_into(&self, mut start: Key, len: usize, out: &mut Vec<(Key, Value)>) {
        let mut need = len;
        while need > 0 {
            let chunk = need.min(MAX_SCAN_LEN);
            let pairs = match self.roundtrip(Request::Scan(start, chunk as u32)) {
                Response::Scan(pairs) => pairs,
                other => panic!("SCAN answered with {other:?}"),
            };
            out.extend_from_slice(&pairs);
            match pairs.last() {
                Some(&(k, _)) if pairs.len() == chunk && k < Key::MAX => {
                    need -= chunk;
                    start = k + 1;
                }
                _ => return,
            }
        }
    }

    fn stats(&self) -> MapStats {
        match self.roundtrip(Request::Stats) {
            Response::Stats(s) => s,
            other => panic!("STATS answered with {other:?}"),
        }
    }
}
