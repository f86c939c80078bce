//! The server front door — backend selection — plus the threaded backend:
//! one acceptor thread, one blocking handler thread per connection.
//!
//! [`Server`] itself is a thin facade over two interchangeable I/O drivers
//! around the same sans-I/O [`Session`] — so the wire protocol, request
//! execution and error behaviour are one piece of code, not two kept alike
//! (the whole test battery still runs against both; see [`Backend`]):
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
//! Handlers serving requests block in plain reads with **no read timeout** —
//! a frame split across TCP segments can take as long as it takes; a
//! subscribed handler's reads time out every [`ChangeLog::POLL`], its cue to
//! pull the log again.  [`Server::shutdown`] unblocks them by shutting the
//! sockets down: blocked reads return EOF/reset, every thread exits, and
//! `shutdown` returns only after the last join.

use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
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
    /// No log, writable, the threads backend, and two reactor threads —
    /// enough that reactor-vs-threads differences in the battery are about
    /// the model, not parallelism.
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
/// Dropping the handle **without** calling [`Server::shutdown`] detaches the
/// threads (they keep serving until the process exits); the benches and
/// tests always shut down explicitly so a clean exit is observable.
pub struct Server {
    inner: Inner,
}

enum Inner {
    Threads(ThreadedServer),
    Reactor(crate::reactor::ReactorServer),
}

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
        let inner = match opts.backend {
            Backend::Threads => Inner::Threads(ThreadedServer::start(map, opts, addr)?),
            Backend::Reactor => {
                Inner::Reactor(crate::reactor::ReactorServer::start(map, opts, addr)?)
            }
        };
        Ok(Server { inner })
    }

    /// The bound address (with the actual port when started on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        match &self.inner {
            Inner::Threads(s) => s.local_addr,
            Inner::Reactor(s) => s.local_addr(),
        }
    }

    /// Which backend is serving.
    pub fn backend(&self) -> Backend {
        match &self.inner {
            Inner::Threads(_) => Backend::Threads,
            Inner::Reactor(_) => Backend::Reactor,
        }
    }

    /// Stop accepting, unblock every connection, and join all threads.
    /// Returns when the last serving thread has exited — the "clean
    /// shutdown" the CI smoke step asserts via the process exit code.
    /// Clients still connected see EOF (or a reset mid-request).
    pub fn shutdown(self) {
        match self.inner {
            Inner::Threads(s) => s.shutdown(),
            Inner::Reactor(s) => s.shutdown(),
        }
    }
}

/// One live connection as the threaded backend tracks it: the handler
/// thread plus a socket clone used to unblock its reads at shutdown.
type ConnHandle = (JoinHandle<()>, TcpStream);

/// The thread-per-connection backend.
struct ThreadedServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    /// The live connections.  Each accept first reaps the handlers that have
    /// finished, so a closed connection's thread and socket clone (an fd) do
    /// not outlive it by more than one accept.
    conns: Arc<Mutex<Vec<ConnHandle>>>,
}

impl ThreadedServer {
    fn start(
        map: Arc<dyn ConcurrentMap>,
        opts: ServerOpts,
        addr: impl ToSocketAddrs,
    ) -> io::Result<ThreadedServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<ConnHandle>>> = Arc::new(Mutex::new(Vec::new()));

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // The clone shares the socket: shutdown() uses it to
                    // unblock the handler's blocking reads.
                    let Ok(peer) = stream.try_clone() else { continue };
                    crate::metrics::metrics().conns_accepted.inc();
                    let map = Arc::clone(&map);
                    let opts = opts.clone();
                    let shutdown = Arc::clone(&shutdown);
                    let handle = std::thread::spawn(move || {
                        let sock = stream.try_clone().ok();
                        // Protocol errors and broken pipes just end this
                        // connection; they must not take the server down.
                        let _ = serve_conn(&*map, stream, &opts, &shutdown);
                        // The clone parked in `conns` keeps the fd alive
                        // after this thread drops its handles, so shut the
                        // socket down explicitly — the peer must see EOF
                        // when its connection is done, not when the whole
                        // server shuts down.
                        if let Some(sock) = sock {
                            let _ = sock.shutdown(Shutdown::Both);
                        }
                    });
                    let mut conns = conns.lock().unwrap_or_else(|e| e.into_inner());
                    for (finished, _peer) in conns.extract_if(.., |(h, _)| h.is_finished()) {
                        let _ = finished.join();
                    }
                    conns.push((handle, peer));
                }
            })
        };

        Ok(ThreadedServer { local_addr, shutdown, acceptor: Some(acceptor), conns })
    }

    /// Stop accepting, unblock every handler, and join all threads.
    fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Unblock the acceptor's blocking `incoming()`.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        let handles =
            std::mem::take(&mut *self.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for (handle, stream) in handles {
            // Blocked reads in the handler return EOF/reset immediately.
            let _ = stream.shutdown(Shutdown::Both);
            let _ = handle.join();
        }
    }
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
