//! Shared helpers for the backend-differential server batteries: every
//! loopback, fault, and replication test runs once per [`Backend`], so the
//! reactor inherits the threaded backend's entire coverage and any
//! divergence fails with the backend's name in the panic message.

// Each test binary compiles its own copy of this module and uses a
// different subset of it.
#![allow(dead_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mapapi::ConcurrentMap;
use replica::ChangeLog;
use server::{Backend, Server, ServerOpts};

/// Run `body` once per serving backend.  A panic inside `body` is re-thrown
/// with the backend's name prepended — "the reactor diverged on test X" is
/// a named failure, not a guess.
pub fn for_each_backend(body: impl Fn(Backend)) {
    for backend in Backend::ALL {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(backend))) {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            panic!("[{} backend] {msg}", backend.label());
        }
    }
}

/// Default [`ServerOpts`] on `backend`.
pub fn opts(backend: Backend) -> ServerOpts {
    ServerOpts { backend, ..ServerOpts::default() }
}

/// Start a server for `map` on an ephemeral loopback port, on `backend`.
pub fn start_on(map: Arc<dyn ConcurrentMap>, backend: Backend) -> Server {
    Server::start_with(map, opts(backend), "127.0.0.1:0").expect("bind loopback")
}

/// The fd binaries' room for the test harness, and for a handler or two that
/// has not yet seen its EOF (two fds each on the threads backend).
pub const FD_SLACK: usize = 8;

/// How long a server may take to let go of connections that have closed.
pub const FD_DEADLINE: Duration = Duration::from_secs(5);

/// The fds open in this process. The count is process-wide, so each binary
/// that checks it holds one test.
pub fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("read /proc/self/fd").count()
}

/// Wait, making no connection, until at most `start + FD_SLACK` fds are open;
/// fail after [`FD_DEADLINE`], naming `what` was let go.
pub fn await_fds(start: usize, what: &str) {
    let deadline = Instant::now() + FD_DEADLINE;
    loop {
        let now = open_fds();
        if now <= start + FD_SLACK {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{now} fds open {FD_DEADLINE:?} after {what}, {start} before"
        );
        std::thread::sleep(ChangeLog::POLL);
    }
}
