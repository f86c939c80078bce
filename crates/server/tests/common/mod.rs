//! Shared helpers for the backend-differential server batteries: every
//! loopback, fault, and replication test runs once per [`Backend`], so the
//! reactor inherits the threaded backend's entire coverage and any
//! divergence fails with the backend's name in the panic message.

// Each test binary compiles its own copy of this module and uses a
// different subset of it.
#![allow(dead_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use mapapi::ConcurrentMap;
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
