//! Server-side telemetry: per-verb counters, the op-latency histogram of
//! the trace-sampled ops and reactor loop instrumentation — plus `render`
//! and `render_trace`, the text expositions the `METRICS` and `TRACE` verbs
//! answer with.
//!
//! Everything here is process-global (the same striped counters no matter
//! how many `Server`s a test process starts), so readers work in *deltas*:
//! snapshot before, snapshot after, subtract.  The per-shard load section
//! of the exposition is the exception — it comes from the *served map's*
//! own [`mapapi::ConcurrentMap::shard_loads`] counters, so it is
//! per-instance.
//!
//! The increment path is the whole point: one `Once` check to reach the
//! statics, then per-thread-striped relaxed `fetch_add`s — no locks, no
//! heap, nothing the counting-allocator suites (`tests/zero_alloc_wire.rs`)
//! can see.  DESIGN.md §11 has the overhead argument.

use std::sync::Once;

use mapapi::ConcurrentMap;
use telemetry::{Counter, Handle, Histogram};

use crate::proto::{Request, METRICS_VERSION, TRACE_VERSION};
use crate::srv::Backend;

/// One wire verb's counter of executed requests, with the name it is
/// registered under (`None` for codes that are never executed as point
/// requests), indexed by opcode in [`VERBS`].
struct Verb {
    metric: Option<&'static str>,
    ops: Counter,
}

const fn verb(metric: Option<&'static str>) -> Verb {
    Verb { metric, ops: Counter::new() }
}

/// The verb table, indexed by wire opcode (`proto`'s request codes).
/// `SCAN` counts oversized scans answered with an error too; `METRICS` and
/// `TRACE` render their exposition *before* their own counter bump, so the
/// first call reports 0 for itself.
static VERBS: [Verb; 10] = [
    verb(None), // 0 is the `Err` response tag; no request carries it
    verb(Some("srv_ops_get_total")),
    verb(Some("srv_ops_put_total")),
    verb(Some("srv_ops_del_total")),
    verb(Some("srv_ops_rmw_total")),
    verb(Some("srv_ops_scan_total")),
    verb(Some("srv_ops_stats_total")),
    verb(None), // SUBSCRIBE flips the session's mode; never executed
    verb(Some("srv_ops_metrics_total")),
    verb(Some("srv_ops_trace_total")),
];

/// The server's global metric set (the per-verb counters live in
/// [`VERBS`]).  Counters cover both backends; the `reactor_*` group only
/// moves when the reactor backend serves.
pub(crate) struct ServerMetrics {
    /// Connections accepted, both backends.
    pub conns_accepted: Counter,
    /// Wall time per executed op the trace sampler admitted, nanoseconds:
    /// the same window as the op's `kcas` span.  Empty while sampling is
    /// off.
    pub op_ns: Histogram,
    /// Reactor: `epoll_wait` returns that delivered at least one event.
    pub reactor_wakeups: Counter,
    /// Reactor: complete frames decoded per productive wakeup (recorded
    /// only when a wakeup decoded at least one frame, so idle streaming
    /// polls don't drown the distribution in zeros).
    pub reactor_frames_per_wakeup: Histogram,
    /// Reactor: `read` syscalls issued.  A wakeup reads until a read comes
    /// back short of its window, so a burst that fits one window costs one;
    /// a read that returns `WouldBlock`, EOF or an error counts too.
    pub reactor_read_syscalls: Counter,
    /// Reactor: `write` syscalls issued.
    pub reactor_write_syscalls: Counter,
}

static METRICS: ServerMetrics = ServerMetrics {
    conns_accepted: Counter::new(),
    op_ns: Histogram::new(),
    reactor_wakeups: Counter::new(),
    reactor_frames_per_wakeup: Histogram::new(),
    reactor_read_syscalls: Counter::new(),
    reactor_write_syscalls: Counter::new(),
};

static INIT: Once = Once::new();

/// The server metric set, registering every name on first use.  The fast
/// path after the first call is a single atomic load — the increment sites
/// in the hot loops pay essentially nothing for registration.
pub(crate) fn metrics() -> &'static ServerMetrics {
    INIT.call_once(|| {
        for v in &VERBS {
            if let Some(name) = v.metric {
                telemetry::register(name, Handle::Counter(&v.ops));
            }
        }
        telemetry::register("srv_conns_accepted_total", Handle::Counter(&METRICS.conns_accepted));
        telemetry::register("srv_op_ns", Handle::Histogram(&METRICS.op_ns));
        telemetry::register("reactor_wakeups_total", Handle::Counter(&METRICS.reactor_wakeups));
        telemetry::register(
            "reactor_frames_per_wakeup",
            Handle::Histogram(&METRICS.reactor_frames_per_wakeup),
        );
        telemetry::register(
            "reactor_read_syscalls_total",
            Handle::Counter(&METRICS.reactor_read_syscalls),
        );
        telemetry::register(
            "reactor_write_syscalls_total",
            Handle::Counter(&METRICS.reactor_write_syscalls),
        );
        // Materialize the subsystem registries too, so a METRICS call sees
        // the identical name set on every backend (and on a server that has
        // not yet executed a single KCAS or replication op).
        let _ = kcas::metrics::metrics();
        let _ = replica::metrics::metrics();
        // The span tracer's instruments (per-phase duration sums + sampler
        // tallies).
        telemetry::trace::register_metrics();
    });
    &METRICS
}

/// The wire opcode of a request: its index in [`VERBS`].
fn opcode(req: &Request) -> usize {
    match *req {
        Request::Get(_) => 1,
        Request::Put(..) => 2,
        Request::Del(_) => 3,
        Request::Rmw(..) => 4,
        Request::Scan(..) => 5,
        Request::Stats => 6,
        Request::Subscribe(_) => 7,
        Request::Metrics(_) => 8,
        Request::Trace(_) => 9,
    }
}

/// Account one executed request: one tick of its verb's counter.  Zero
/// heap allocations.
pub(crate) fn record_op(req: &Request) {
    VERBS[opcode(req)].ops.inc();
}

/// Render the full text exposition the `METRICS` verb answers with (the
/// layout is documented on [`crate::Connection::metrics`]).  Both backends
/// produce it through this one function, so the byte layout is identical —
/// only the values differ.
pub(crate) fn render(map: &dyn ConcurrentMap, backend: Backend) -> String {
    use std::fmt::Write;
    metrics();
    let mut out = String::new();
    let _ = writeln!(out, "# pathcas-metrics v{METRICS_VERSION} backend={}", backend.label());
    out.push_str(&telemetry::render());
    for (i, load) in map.shard_loads().iter().enumerate() {
        let _ = writeln!(out, "srv_shard_point_ops{{shard=\"{i}\"}} {}", load.point_ops);
        let _ = writeln!(out, "srv_shard_scan_ops{{shard=\"{i}\"}} {}", load.scan_ops);
    }
    out
}

/// Render the span-trace exposition the `TRACE` verb answers with (the
/// layout is documented on [`crate::Connection::trace`]).
pub(crate) fn render_trace(backend: Backend) -> String {
    use std::fmt::Write;
    metrics();
    let spans = telemetry::trace::snapshot();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# pathcas-trace v{TRACE_VERSION} backend={} sample_every={} sampled={} spans={} dropped={}",
        backend.label(),
        telemetry::trace::sample_every(),
        telemetry::trace::sampled_total(),
        spans.len(),
        telemetry::trace::dropped_total(),
    );
    for s in &spans {
        let _ = writeln!(
            out,
            "span trace={} phase={} start_ns={} dur_ns={} retries={} helps={}",
            s.trace_id,
            telemetry::trace::phase_name(s.phase),
            s.start_ns,
            s.dur_ns,
            telemetry::trace::retries_of(s.events),
            telemetry::trace::helps_of(s.events),
        );
    }
    out
}
