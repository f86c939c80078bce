//! The epoll reactor backend: a fixed pool of event-loop threads
//! multiplexing every connection through readiness notifications
//! (DESIGN.md §10).
//!
//! Where the threaded backend spends an OS thread (stack, scheduler slot,
//! context switches) per connection, the reactor spends a few hundred
//! bytes of state machine: each connection is a nonblocking socket and a
//! [`Session`] (incremental decoder + staged write queue).  N reactor
//! threads (`ServerOpts::reactor_threads`, default 2) each run their own epoll
//! instance; the **accept fd is shared** — the nonblocking listener is
//! registered level-triggered in every loop, and whichever thread wins the
//! `accept` race owns that connection for its whole life (no cross-thread
//! migration, so a connection's frames are processed strictly in order
//! with no locking).
//!
//! The wire protocol, request execution, and error behavior are the
//! threaded backend's by construction — both drive the same sans-I/O
//! [`Session`], and this file holds only what is epoll: accept, the token
//! map, `WouldBlock`/`EPOLLOUT` arming and the
//! syscall/wakeup counters.  The entire loopback / fault / replication
//! battery still runs differentially against both
//! (`tests/common/mod.rs::for_each_backend`).
//!
//! **Batching.**  A readability wakeup reads the socket until a read
//! fills less than the [`READ_CHUNK`] window it offered, lets the session
//! execute every complete frame and stage all responses, and only then
//! writes — so a pipelined burst of D requests costs one `read` and one
//! `write` syscall.  Every fd is registered level-triggered, so a short read
//! needs no `WouldBlock` probe after it: bytes, an EOF or a reset that
//! arrive later are reported by the next `epoll_wait`.  That is the depth-D
//! batching win the threaded backend gets from its read-process-write loop,
//! except here it compounds across thousands of connections instead of
//! thousands of threads.
//!
//! **Memory.**  A session's decoder and write queue retain their capacity
//! across frames — the steady-state read path (fill → decode → execute →
//! encode) performs zero heap allocations, asserted by the counting-allocator
//! test in `tests/zero_alloc_wire.rs` — and are freed with the connection,
//! so the reactor holds buffers for the connections it has, not for the
//! most it ever had (`tests/reactor_memory.rs`).
//!
//! **Backpressure.**  A slow reader's write queue simply grows (staged
//! bytes, not blocked threads) while `EPOLLOUT` drains it as the peer
//! permits; no connection can wedge another, asserted by
//! `tests/reactor_faults.rs`.
//!
//! **Streaming.**  `SUBSCRIBE` flips a session's mode: instead of
//! decoding requests, it follows the change log.  While any subscriber
//! exists the epoll timeout is [`ChangeLog::POLL`], and after every wakeup
//! each streaming session pulls its next `EVENTS` batch
//! ([`Session::pull_events`], which also holds the backpressure rule) and
//! the loop writes it.
//!
//! **Lifetime.**  [`start`] takes the bound listener and returns the loops'
//! join handles and one wake, which [`Server`](crate::Server) keeps like the
//! threads backend's acceptor and self-connect.  A loop owns its
//! connections' sockets and sessions outright: one fd per connection, closed
//! when the connection is.  At shutdown the wake pulls every loop out of
//! `epoll_wait`, and a loop that sees the stop flag drops its connections
//! (clients see EOF/reset) and its share of the listener, so the port stops
//! accepting with the last loop.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use epoll_shim::{Epoll, Events, Interest, WakeFd};
use mapapi::ConcurrentMap;
use replica::ChangeLog;

use crate::metrics::metrics;
use crate::proto::READ_CHUNK;
use crate::session::Session;
use crate::srv::{ServerOpts, Wake};

/// Token of the shared listener in every reactor thread's epoll set.
const TOK_LISTENER: u64 = 0;
/// Token of the per-thread shutdown eventfd.
const TOK_WAKE: u64 = 1;
/// First token handed to an accepted connection.
const TOK_CONN0: u64 = 2;

/// Kernel events drained per `epoll_wait` call.
const WAIT_EVENTS: usize = 256;

/// Start `opts.reactor_threads` event loops sharing `listener`.  Returns the
/// loops, for [`Server`](crate::Server) to join, and the wake that pulls
/// every loop out of `epoll_wait` once `shutdown` is set.
pub(crate) fn start(
    listener: TcpListener,
    map: Arc<dyn ConcurrentMap>,
    opts: ServerOpts,
    shutdown: &Arc<AtomicBool>,
) -> io::Result<(Vec<JoinHandle<()>>, Wake)> {
    assert!(opts.reactor_threads >= 1, "a reactor needs at least one thread");
    listener.set_nonblocking(true)?;
    let listener = Arc::new(listener);
    let mut threads = Vec::new();
    let mut wakes = Vec::new();
    for _ in 0..opts.reactor_threads {
        let wake = Arc::new(WakeFd::new()?);
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), TOK_LISTENER, Interest::READ)?;
        epoll.add(wake.as_raw_fd(), TOK_WAKE, Interest::READ)?;
        let mut loop_ = ReactorLoop {
            epoll,
            wake: Arc::clone(&wake),
            listener: Arc::clone(&listener),
            map: Arc::clone(&map),
            opts: opts.clone(),
            shutdown: Arc::clone(shutdown),
            conns: HashMap::new(),
            next_token: TOK_CONN0,
            streaming: 0,
            dead: Vec::new(),
        };
        wakes.push(wake);
        threads.push(std::thread::spawn(move || loop_.run()));
    }
    Ok((threads, Box::new(move || wakes.iter().for_each(|w| w.wake()))))
}

/// One connection's entire state — this is what replaces a thread.
struct Conn {
    stream: TcpStream,
    session: Session,
    /// Whether `EPOLLOUT` is currently registered.
    want_write: bool,
}

/// One reactor thread's state.  `run` is the event loop.
struct ReactorLoop {
    epoll: Epoll,
    wake: Arc<WakeFd>,
    listener: Arc<TcpListener>,
    map: Arc<dyn ConcurrentMap>,
    opts: ServerOpts,
    shutdown: Arc<AtomicBool>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Live subscribed (streaming) connections owned by this thread.
    streaming: usize,
    /// Scratch list of tokens to close after an iteration phase.
    dead: Vec<u64>,
}

impl ReactorLoop {
    fn run(&mut self) {
        let mut events = Events::with_capacity(WAIT_EVENTS);
        loop {
            let timeout = (self.streaming > 0).then_some(ChangeLog::POLL.as_millis() as i32);
            // The `epoll_wait` below is this backend's readiness wait; its
            // duration is charged, once, to the first frame decoded out of
            // this wakeup (if that frame is sampled) — a whole burst paid
            // one wait, so attributing it to one op *is* the amortized
            // per-op cost the attribution columns report.
            let wait_start = telemetry::trace::now_ns();
            if self.epoll.wait(&mut events, timeout).is_err() {
                // An unusable epoll fd means this loop cannot continue;
                // its connections die with it.
                break;
            }
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            let mut ready =
                Some((wait_start, telemetry::trace::now_ns().saturating_sub(wait_start)));
            let mut any = false;
            let mut frames = 0u64;
            for ev in events.iter() {
                any = true;
                match ev.token {
                    TOK_LISTENER => self.accept_ready(),
                    TOK_WAKE => {
                        self.wake.drain();
                    }
                    token => {
                        let Some(conn) = self.conns.get_mut(&token) else { continue };
                        // Hangup is handled through the read path: the
                        // socket stays readable until the error/EOF has
                        // been consumed, and buffered request bytes that
                        // raced the close are still served.
                        let was_streaming = conn.session.streaming_after().is_some();
                        let mut dead = false;
                        if ev.readable || ev.hangup {
                            dead = handle_readable(conn, &*self.map, &mut frames, &mut ready);
                        }
                        if !dead
                            && (ev.writable
                                || !conn.session.staged().is_empty()
                                || conn.session.is_closing())
                        {
                            dead = flush(conn, &self.epoll, token);
                        }
                        if !was_streaming && conn.session.streaming_after().is_some() {
                            self.streaming += 1;
                        }
                        if dead {
                            self.close(token);
                        }
                    }
                }
            }
            // A wakeup that delivered events is the unit the batching story
            // is told in: frames-per-wakeup is the depth the pipeline
            // actually achieved (recorded only when frames arrived, so the
            // streaming polls don't bury the distribution in zeros).
            if any {
                metrics().reactor_wakeups.inc();
            }
            if frames > 0 {
                metrics().reactor_frames_per_wakeup.record(frames);
            }
            if self.streaming > 0 {
                self.pump_streams();
            }
        }
        // Drop everything: sockets close, peers see EOF/reset.
        self.conns.clear();
    }

    /// Accept until the shared listener runs dry.  Losing the race to a
    /// sibling thread surfaces as `WouldBlock`, which is the load balancer.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Mirror the threaded accept loop: a connection that
                    // fails setup is dropped, the server keeps serving.
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err()
                    {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self.epoll.add(stream.as_raw_fd(), token, Interest::READ).is_err() {
                        continue;
                    }
                    metrics().conns_accepted.inc();
                    let session = Session::new(&self.opts);
                    self.conns.insert(token, Conn { stream, session, want_write: false });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // ECONNABORTED and friends: that one connection is gone,
                // the listener is fine.
                Err(_) => break,
            }
        }
    }

    /// Write the next `EVENTS` batch of every subscriber whose session
    /// pulls one.  A sampled batch is one `deliver` span; its flush charges
    /// no request.
    fn pump_streams(&mut self) {
        debug_assert!(self.dead.is_empty());
        for (&token, conn) in &mut self.conns {
            if conn.session.pull_events() && flush(conn, &self.epoll, token) {
                self.dead.push(token);
            }
        }
        while let Some(token) = self.dead.pop() {
            self.close(token);
        }
    }

    /// Tear a connection down, its buffers with it.
    fn close(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else { return };
        if conn.session.streaming_after().is_some() {
            self.streaming -= 1;
        }
        // Closing the fd deregisters it from epoll implicitly; the explicit
        // delete keeps the set tidy if the stream clone semantics change.
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        // `conn` drops here, session buffers and socket: FIN (or RST if the
        // peer sent bytes we never read), exactly like the threaded
        // handler's socket teardown.
    }
}

/// Read the socket until a read comes back short of its [`READ_CHUNK`]
/// window (or `WouldBlock`), letting the session process every complete
/// frame; adds the number of frames executed to `frames`.  Returns whether
/// the connection is already dead (reset, or EOF with nothing left to
/// write).
/// `ready` is the wakeup's epoll-wait window, consumed by the first frame
/// processed in this wakeup (see [`Session::process`]).
fn handle_readable(
    conn: &mut Conn,
    map: &dyn ConcurrentMap,
    frames: &mut u64,
    ready: &mut Option<(u64, u64)>,
) -> bool {
    loop {
        metrics().reactor_read_syscalls.inc();
        match conn.session.fill_from(&mut conn.stream) {
            // EOF.  At a frame boundary: flush staged responses, then
            // close.  Mid-frame (a torn frame): the tail is never answered.
            Ok(0) => {
                conn.session.close();
                return conn.session.staged().is_empty();
            }
            Ok(n) => {
                *frames += conn.session.process(map, ready);
                // A read that left room in its window took all the socket
                // held.  The fd is level-triggered, so bytes, an EOF or a
                // reset that arrive later show up in the next wait.
                if n < READ_CHUNK {
                    return false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Reset mid-read: the connection is gone, staged output and all.
            Err(_) => return true,
        }
    }
}

/// Write staged bytes until drained or the kernel pushes back.  Arms and
/// disarms `EPOLLOUT` as the queue transitions; returns whether the
/// connection is dead (write error, or drained with `closing` set).
///
/// The attempt's start goes to [`Session::flushed`], which charges it to
/// the burst's last frame if that frame was sampled.  An `EPOLLOUT`
/// continuation in a later wakeup is charged to nobody (documented
/// undercount: backpressured flushes attribute only their first attempt).
fn flush(conn: &mut Conn, epoll: &Epoll, token: u64) -> bool {
    let start = telemetry::trace::now_ns();
    let dead = flush_inner(conn, epoll, token);
    conn.session.flushed(start);
    dead
}

fn flush_inner(conn: &mut Conn, epoll: &Epoll, token: u64) -> bool {
    let m = metrics();
    while !conn.session.staged().is_empty() {
        m.reactor_write_syscalls.inc();
        match conn.stream.write(conn.session.staged()) {
            Ok(0) => return true,
            Ok(n) => conn.session.wrote(n),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if !conn.want_write {
                    conn.want_write = true;
                    if epoll
                        .modify(conn.stream.as_raw_fd(), token, Interest::READ_WRITE)
                        .is_err()
                    {
                        return true;
                    }
                }
                return false;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    if conn.want_write {
        conn.want_write = false;
        if epoll.modify(conn.stream.as_raw_fd(), token, Interest::READ).is_err() {
            return true;
        }
    }
    conn.session.is_closing()
}
