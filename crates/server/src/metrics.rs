//! Server-side telemetry: per-verb counters, the op-latency histogram,
//! reactor loop instrumentation, and the slow-op flight recorder — plus
//! `render`, the text exposition the `METRICS` verb answers with.
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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;

use mapapi::ConcurrentMap;
use telemetry::{Counter, FlightRecorder, Handle, Histogram};

use crate::proto::{METRICS_VERSION, TRACE_VERSION};
use crate::srv::Backend;

/// Slow-op records kept by the flight recorder (a power of two; older
/// records are overwritten ring-style).
pub const FLIGHT_CAPACITY: usize = 128;

/// Default slow-op threshold: 1 ms.  Loopback point ops sit far under
/// this, so in a healthy run the recorder stays near-empty and the
/// recorder's cost is one relaxed load per op.
pub const DEFAULT_SLOW_OP_THRESHOLD_NS: u64 = 1_000_000;

/// Everything this module knows about one wire verb, indexed by opcode in
/// [`VERBS`]: its name in the slow-op dump, and the counter of executed
/// requests with the name it is registered under (`None` for codes that are
/// never executed as point requests).
struct Verb {
    name: &'static str,
    metric: Option<&'static str>,
    ops: Counter,
}

const fn verb(name: &'static str, metric: Option<&'static str>) -> Verb {
    Verb { name, metric, ops: Counter::new() }
}

/// The verb table, indexed by wire opcode (`proto`'s request codes).
/// `SCAN` counts oversized scans answered with an error too; `METRICS` and
/// `TRACE` render their exposition *before* their own counter bump, so the
/// first call reports 0 for itself.
static VERBS: [Verb; 10] = [
    verb("?", None), // 0 is the `Err` response tag; no request carries it
    verb("GET", Some("srv_ops_get_total")),
    verb("PUT", Some("srv_ops_put_total")),
    verb("DEL", Some("srv_ops_del_total")),
    verb("RMW", Some("srv_ops_rmw_total")),
    verb("SCAN", Some("srv_ops_scan_total")),
    verb("STATS", Some("srv_ops_stats_total")),
    verb("SUBSCRIBE", None), // flips the session's mode; never executed
    verb("METRICS", Some("srv_ops_metrics_total")),
    verb("TRACE", Some("srv_ops_trace_total")),
];

/// The server's global metric set (the per-verb counters live in
/// [`VERBS`]).  Counters cover both backends; the `reactor_*` group only
/// moves when the reactor backend serves.
pub(crate) struct ServerMetrics {
    /// Ops whose wall time crossed the slow-op threshold (each also lands
    /// in the flight recorder).
    pub slow_ops: Counter,
    /// Connections accepted, both backends.
    pub conns_accepted: Counter,
    /// Wall time per executed op, nanoseconds.
    pub op_ns: Histogram,
    /// Reactor: `epoll_wait` returns that delivered at least one event.
    pub reactor_wakeups: Counter,
    /// Reactor: complete frames decoded per productive wakeup (recorded
    /// only when a wakeup decoded at least one frame, so idle streaming
    /// polls don't drown the distribution in zeros).
    pub reactor_frames_per_wakeup: Histogram,
    /// Reactor: `read` syscalls issued (including the final `WouldBlock`
    /// probe that ends every drain — that read is real work the kernel did).
    pub reactor_read_syscalls: Counter,
    /// Reactor: `write` syscalls issued.
    pub reactor_write_syscalls: Counter,
    /// Reactor: staged bytes pending at each flush attempt — the write-
    /// queue depth distribution.
    pub reactor_write_queue_bytes: Histogram,
    /// Reactor: flushes that hit `WouldBlock` and had to arm `EPOLLOUT` —
    /// one per backpressure stall, not per retried write.
    pub reactor_epollout_stalls: Counter,
}

static METRICS: ServerMetrics = ServerMetrics {
    slow_ops: Counter::new(),
    conns_accepted: Counter::new(),
    op_ns: Histogram::new(),
    reactor_wakeups: Counter::new(),
    reactor_frames_per_wakeup: Histogram::new(),
    reactor_read_syscalls: Counter::new(),
    reactor_write_syscalls: Counter::new(),
    reactor_write_queue_bytes: Histogram::new(),
    reactor_epollout_stalls: Counter::new(),
};

/// The last [`FLIGHT_CAPACITY`] slow ops, ring-style.
static FLIGHT: FlightRecorder<FLIGHT_CAPACITY> = FlightRecorder::new();

/// Nanosecond threshold above which an op is "slow".
static SLOW_NS: AtomicU64 = AtomicU64::new(DEFAULT_SLOW_OP_THRESHOLD_NS);

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
        telemetry::register("srv_slow_ops_total", Handle::Counter(&METRICS.slow_ops));
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
        telemetry::register(
            "reactor_write_queue_bytes",
            Handle::Histogram(&METRICS.reactor_write_queue_bytes),
        );
        telemetry::register(
            "reactor_epollout_stalls_total",
            Handle::Counter(&METRICS.reactor_epollout_stalls),
        );
        // Materialize the subsystem registries too, so a METRICS call sees
        // the identical name set on every backend (and on a server that has
        // not yet executed a single KCAS or replication op).
        let _ = kcas::metrics::metrics();
        let _ = replica::metrics::metrics();
        // The span tracer's instruments (per-phase histograms + sampler
        // tallies), plus its sampling-period knob: `PATHCAS_TRACE_SAMPLE`
        // overrides the default 1-in-64 (0 disables tracing).
        telemetry::trace::register_metrics();
        if let Some(n) = std::env::var("PATHCAS_TRACE_SAMPLE")
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
        {
            telemetry::trace::set_sample_every(n);
        }
    });
    &METRICS
}

/// Set the slow-op threshold.  `0` records every op — what the metrics
/// battery uses to exercise the recorder deterministically.
pub fn set_slow_op_threshold_ns(ns: u64) {
    // ORDERING: Relaxed — a standalone tuning knob; readers only need some
    // recent value, and no other memory is published through it.
    SLOW_NS.store(ns, Ordering::Relaxed);
}

/// The wire opcode (the [`VERBS`] index) and subject key of a request — the
/// flight recorder's `op`/`key` fields.  Keyless verbs report key 0.
pub(crate) fn op_tag(req: &crate::proto::Request) -> (u64, u64) {
    use crate::proto::Request;
    match *req {
        Request::Get(k) => (1, k),
        Request::Put(k, _) => (2, k),
        Request::Del(k) => (3, k),
        Request::Rmw(k, _) => (4, k),
        Request::Scan(start, _) => (5, start),
        Request::Stats => (6, 0),
        Request::Subscribe(_) => (7, 0),
        Request::Metrics(_) => (8, 0),
        Request::Trace(_) => (9, 0),
    }
}

/// Backend → flight-record code (0 = threads, 1 = reactor).
pub(crate) fn backend_code(backend: Backend) -> u64 {
    match backend {
        Backend::Threads => 0,
        Backend::Reactor => 1,
    }
}

fn backend_name(code: u64) -> &'static str {
    match code {
        0 => "threads",
        1 => "reactor",
        _ => "?",
    }
}

/// Account one executed request: latency histogram, the per-verb counter,
/// and — past the slow threshold — a flight record tagged with the key's
/// owning shard.  `lanes` are the `ready`/`decode`/`kcas` durations of a
/// trace-sampled request, packed into the record; an unsampled one records
/// phases=0, which the dump prints as `-`.  Zero heap allocations on every
/// path, slow or not.
pub(crate) fn record_op(
    op: u64,
    key: u64,
    ns: u64,
    lanes: Option<[u64; PACKED_PHASES]>,
    map: &dyn ConcurrentMap,
    backend: Backend,
) {
    let m = metrics();
    m.op_ns.record(ns);
    if let Some(v) = VERBS.get(op as usize) {
        v.ops.inc();
    }
    // ORDERING: Relaxed — the threshold is a tuning knob (see
    // `set_slow_op_threshold_ns`); a racing update may misclassify one op.
    if ns >= SLOW_NS.load(Ordering::Relaxed) {
        m.slow_ops.inc();
        let phases = lanes.map_or(0, pack_phases);
        FLIGHT.record(op, key, ns, map.shard_of(key) as u64, backend_code(backend), phases);
    }
}

/// Granularity of a packed phase lane: durations are stored in units of
/// 64 ns, saturating at `0xFFFF` (≈ 4.19 ms per lane).
const PHASE_LANE_UNIT_NS: u64 = 64;

/// Phases a flight record's breakdown covers: the first three of the
/// pipeline-ordered taxonomy (`ready`, `decode`, `kcas`).  `resp`
/// and `flush` are not yet known when the record is written (they happen
/// after `record_op`), so the packed breakdown covers the server-side path
/// up to and including the structure execution.
pub(crate) const PACKED_PHASES: usize = 3;

/// Pack the [`PACKED_PHASES`] durations into 16-bit lanes of one `u64`
/// (64 ns units, saturating) — the flight record's phase-breakdown field.
fn pack_phases(lanes: [u64; PACKED_PHASES]) -> u64 {
    (0..PACKED_PHASES)
        .fold(0, |packed, p| packed | (lanes[p] / PHASE_LANE_UNIT_NS).min(0xFFFF) << (16 * p))
}

/// Unpack one lane of a packed phase field back to approximate nanoseconds.
fn unpack_lane(phases: u64, lane: usize) -> u64 {
    ((phases >> (16 * lane)) & 0xFFFF) * PHASE_LANE_UNIT_NS
}

/// The slow-op flight recorder's current contents as `# slowop ...` lines,
/// oldest first.
pub fn flight_dump() -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "# slowops recorded={} capacity={}", FLIGHT.recorded(), FLIGHT_CAPACITY);
    for r in FLIGHT.snapshot() {
        let _ = write!(
            out,
            "# slowop ticket={} op={} key={} latency_ns={} shard={} backend={}",
            r.ticket,
            VERBS.get(r.op as usize).map_or("?", |v| v.name),
            r.key,
            r.latency_ns,
            r.shard,
            backend_name(r.backend),
        );
        // Phase breakdown (64 ns granularity), present only when the slow
        // op was also trace-sampled.
        if r.phases != 0 {
            for lane in 0..PACKED_PHASES {
                let name = telemetry::trace::phase_name(lane as u64);
                let _ = write!(out, " {name}_ns={}", unpack_lane(r.phases, lane));
            }
        } else {
            let _ = write!(out, " phases=-");
        }
        out.push('\n');
    }
    out
}

/// Render the full text exposition the `METRICS` verb answers with.
///
/// Layout (one metric per line, `name value`; `#` lines are annotations):
///
/// ```text
/// # pathcas-metrics v1 backend=reactor
/// kcas_ops_total 1024
/// ...registry lines, sorted by name...
/// srv_shard_point_ops{shard="0"} 217
/// srv_shard_scan_ops{shard="0"} 3
/// # slowops recorded=2 capacity=128
/// # slowop ticket=0 op=SCAN key=0 latency_ns=1980211 shard=0 backend=reactor
/// ```
///
/// The registry section is global; the `srv_shard_*` section reads the
/// *served map's* per-shard load counters (absent entirely when the map
/// doesn't track them): point ops routed to the shard, and inner `scan`
/// calls made on it — one per chunk a merged scan pulled, so at least one
/// per shard per scan.  Both backends produce this through the same code
/// path, so the byte layout is identical — only the values differ.
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
    out.push_str(&flight_dump());
    out
}

/// Render the span-trace exposition the `TRACE` verb answers with.
///
/// Layout:
///
/// ```text
/// # pathcas-trace v1 backend=reactor sample_every=64 sampled=3 spans=17 dropped=0
/// span trace=0 phase=ready start_ns=1201 dur_ns=802 retries=0 helps=0
/// span trace=0 phase=decode start_ns=2101 dur_ns=190 retries=0 helps=0
/// ...
/// ```
///
/// One line per retained span, sorted by `(trace, phase, start, ticket)` —
/// phase ids are pipeline-ordered, so the *line order* is a pure function
/// of which ops were sampled, never of raw timestamps; the differential
/// battery masks the `start_ns=`/`dur_ns=` digits and asserts the rest
/// byte-identical across backends.  Like METRICS, the dump is rendered
/// before the TRACE request's own post-execute spans exist.
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
