//! The server front door — backend selection — plus the threaded backend:
//! one acceptor thread, one blocking handler thread per connection.
//!
//! [`Server`] is one handle over two interchangeable I/O drivers around the
//! same sans-I/O [`Session`] — so the wire protocol, request execution and
//! error behaviour are one piece of code, not two kept alike (the whole test
//! battery still runs against both; see [`Backend`]):
//!
//! * **threads** — the driver below: simple, blocking, one OS thread per
//!   connection;
//! * **reactor** — the epoll-driven event loop in [`crate::reactor`]: a
//!   fixed thread pool multiplexing every connection through readiness
//!   notifications, which is what scales past a few hundred connections.
//!
//! A handler reads once, lets its session execute every frame that read
//! completed, and writes what they staged as one batch — so a client that
//! pipelines N requests gets its N responses in one write, which is where
//! the service throughput comes from (syscalls and wakeups are paid per
//! *burst*, not per op).  The structure itself needs no extra locking: it is
//! a [`ConcurrentMap`], so handler threads hit it concurrently exactly like
//! in-process worker threads do.
//!
//! The acceptor spawns every handler in one [`std::thread::scope`], and a
//! handler borrows the map and the options from it.  A live connection is
//! two fds — the handler's stream and one clone the acceptor can reach —
//! and a handler closes the clone on its way out, so a finished connection
//! holds no fd and no thread: it waits for neither the next accept nor the
//! shutdown.
//!
//! Handlers serving requests block in plain reads with **no read timeout** —
//! a frame split across TCP segments can take as long as it takes; a
//! subscribed handler's reads time out every [`ChangeLog::POLL`], its cue to
//! pull the log again.  [`Server::shutdown`] sets the stop flag and wakes the
//! acceptor with a connection to itself; the acceptor shuts down the sockets
//! still open (blocked reads return EOF/reset), and leaving the scope joins
//! every handler.  `shutdown` returns only after the last join.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use mapapi::ConcurrentMap;
use replica::ChangeLog;

use crate::session::Session;

/// Optional server roles beyond plain KV serving.
///
/// * `log` — publish this [`ChangeLog`] to `SUBSCRIBE`rs.  The server does
///   **not** tap requests itself: the served map must be the
///   [`replica::ReplicatedMap`] feeding that log, so only *committed*
///   mutations appear on the stream, already in per-key order.
/// * `read_only` — reject PUT/DEL/RMW with a semantic `Err` response (the
///   connection survives, framing stays intact).  This is the follower
///   role: the map behind a read-only server is typically a
///   [`replica::Follower`], whose own write methods panic as a second line
///   of defense.
#[derive(Clone)]
pub struct ServerOpts {
    /// Change stream served to `SUBSCRIBE`, if any.
    pub log: Option<Arc<ChangeLog>>,
    /// Reject write verbs with a semantic error response.
    pub read_only: bool,
    /// Which serving backend runs the connections.
    pub backend: Backend,
    /// Reactor thread count (ignored by the threaded backend).  Each
    /// reactor thread runs its own epoll loop; they share the accept fd.
    pub reactor_threads: usize,
}

impl Default for ServerOpts {
    /// No log, writable, the threads backend (an acceptor plus one scoped
    /// handler thread per connection), and two reactor threads should the
    /// caller pick the reactor — enough that reactor-vs-threads differences
    /// in the battery are about the model, not parallelism.
    fn default() -> ServerOpts {
        ServerOpts { log: None, read_only: false, backend: Backend::Threads, reactor_threads: 2 }
    }
}

/// The two serving backends.  Both speak the byte-identical wire protocol
/// against the same [`ServiceMap`](crate::ServiceMap)/
/// [`Connection`](crate::Connection) clients; a caller names the one it
/// wants in [`ServerOpts::backend`] (the batteries run every case on both
/// via `for_each_backend`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// One blocking handler thread per connection (the PR 5 model).
    Threads,
    /// A fixed pool of epoll reactor threads multiplexing all connections.
    Reactor,
}

impl Backend {
    /// Both backends — what the differential batteries iterate over.
    pub const ALL: [Backend; 2] = [Backend::Threads, Backend::Reactor];

    /// The backend's name in reports and test output: `threads` / `reactor`.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Threads => "threads",
            Backend::Reactor => "reactor",
        }
    }
}

/// A running KV service bound to a local address, on either backend.
///
/// Both backends are the same handle: the bound address, a stop flag, the
/// threads to join, and a way to wake them out of their wait — the threads
/// backend's acceptor sleeps in `accept` (woken by a connection to itself),
/// the reactor's loops in `epoll_wait` (woken through their eventfds).
///
/// Dropping the handle **without** calling [`Server::shutdown`] detaches the
/// threads (they keep serving until the process exits); the benches and
/// tests always shut down explicitly so a clean exit is observable.
pub struct Server {
    local_addr: SocketAddr,
    backend: Backend,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    wake: Wake,
}

/// Wakes a server's threads out of their wait, once, at shutdown.
pub(crate) type Wake = Box<dyn FnOnce() + Send + Sync>;

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `map` on the default backend.  Returns once the listener is
    /// accepting.
    pub fn start(map: Arc<dyn ConcurrentMap>, addr: impl ToSocketAddrs) -> io::Result<Server> {
        Self::start_with(map, ServerOpts::default(), addr)
    }

    /// Like [`Server::start`], with explicit [`ServerOpts`] — a primary
    /// publishing a change stream, a read-only follower front-end, or a
    /// specific [`Backend`].
    pub fn start_with(
        map: Arc<dyn ConcurrentMap>,
        opts: ServerOpts,
        addr: impl ToSocketAddrs,
    ) -> io::Result<Server> {
        // Register every metric name (server + kcas + replica) before the
        // first connection, so both backends expose the identical name set
        // from their very first METRICS response.
        crate::metrics::metrics();
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let backend = opts.backend;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (threads, wake) = match backend {
            Backend::Threads => {
                let stop = Arc::clone(&shutdown);
                let acceptor =
                    std::thread::spawn(move || accept_loop(&listener, &*map, &opts, &stop));
                // The acceptor blocks in `accept`: a connection wakes it.
                let wake: Wake = Box::new(move || _ = TcpStream::connect(local_addr));
                (vec![acceptor], wake)
            }
            Backend::Reactor => crate::reactor::start(listener, map, opts, &shutdown)?,
        };
        Ok(Server { local_addr, backend, shutdown, threads, wake })
    }

    /// The bound address (with the actual port when started on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Which backend is serving.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Stop accepting, unblock every connection, and join all threads.
    /// Returns when the last serving thread has exited — the "clean
    /// shutdown" the CI smoke step asserts via the process exit code.
    /// Clients still connected see EOF (or a reset mid-request).
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::Release);
        (self.wake)();
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// The threads backend's acceptor: one handler thread per connection, all
/// spawned in one scope, so returning joins every handler.  `open` holds each
/// live connection's socket clone; its handler removes it, and so closes the
/// socket, on the way out (unwinding included), and at shutdown the acceptor
/// shuts down the clones still open, which unblocks their handlers' reads.
fn accept_loop(
    listener: &TcpListener,
    map: &dyn ConcurrentMap,
    opts: &ServerOpts,
    shutdown: &AtomicBool,
) {
    let open: Mutex<HashMap<u64, TcpStream>> = Mutex::default();
    let lock = || open.lock().unwrap_or_else(PoisonError::into_inner);
    std::thread::scope(|scope| {
        for (id, stream) in (0u64..).zip(listener.incoming()) {
            if shutdown.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let Ok(peer) = stream.try_clone() else { continue };
            crate::metrics::metrics().conns_accepted.inc();
            lock().insert(id, peer);
            scope.spawn(move || {
                // Protocol errors, broken pipes and panics just end this
                // connection; they must not take the server down.
                let _ = panic::catch_unwind(AssertUnwindSafe(|| {
                    serve_conn(map, stream, opts, shutdown)
                }));
                drop(lock().remove(&id));
            });
        }
        for peer in lock().values() {
            // Blocked reads in the handler return EOF/reset immediately.
            let _ = peer.shutdown(Shutdown::Both);
        }
    });
}

/// Serve one connection until EOF, shutdown (surfaced as EOF/reset on the
/// socket), or a framing error: the blocking driver around a [`Session`].
/// One `read` into the session's decoder, process whatever frames that
/// completed, one `write_all` of what they staged, repeat — so a pipelined
/// burst that arrives in one read is answered with one write, and a
/// complete frame is always answered before the next blocking read, whatever
/// partial frame trails it.
fn serve_conn(
    map: &dyn ConcurrentMap,
    mut stream: TcpStream,
    opts: &ServerOpts,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut session = Session::new(opts);
    while !session.is_closing() && session.streaming_after().is_none() {
        // The blocking read is this backend's readiness wait.
        let ready_start = telemetry::trace::now_ns();
        if session.fill_from(&mut stream)? == 0 {
            return Ok(());
        }
        let mut ready =
            Some((ready_start, telemetry::trace::now_ns().saturating_sub(ready_start)));
        session.process(map, &mut ready);
        write_staged(&mut session, &mut stream)?;
    }
    // The subscribed half: write each `EVENTS` batch the session pulls,
    // until the peer hangs up or the server shuts down.  With nothing to
    // pull, wait in a read bounded by `ChangeLog::POLL`: EOF ends the
    // connection, bytes the peer sends are dropped by `process`, and a
    // timeout means "pull again".
    stream.set_read_timeout(Some(ChangeLog::POLL))?;
    while session.streaming_after().is_some() && !shutdown.load(Ordering::Acquire) {
        if session.pull_events() {
            write_staged(&mut session, &mut stream)?;
            continue;
        }
        match session.fill_from(&mut stream) {
            Ok(0) => break,
            Ok(_) => _ = session.process(map, &mut None),
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Write everything the session has staged, and hand the session the
/// write's start so it can charge the write to the burst it answers.
fn write_staged(session: &mut Session, stream: &mut TcpStream) -> io::Result<()> {
    let start = telemetry::trace::now_ns();
    let n = session.staged().len();
    stream.write_all(session.staged())?;
    session.wrote(n);
    session.flushed(start);
    Ok(())
}
