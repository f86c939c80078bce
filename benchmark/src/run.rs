//! Drives one workload: set-up, warm-up, the timed windows, and the audit.
//!
//! The program is only ever *called*: `ConcurrentMap` methods in-process,
//! `Connection::pipeline` over the wire.  All timing is taken here, outside it.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use mapapi::{ConcurrentMap, MAX_KEY};
use pathcas_ds::PathCasAvl;
use server::{Backend, Connection, Request, Response, Server, ServerOpts};
use shard::ShardedMap;

use crate::calib::{self, RefLookups, RefTable, Speed};
use crate::gen::{self, KeySampler, Op, OpGen, OpKind, Spec, Target};
use crate::spans::Recorder;

/// Untimed warm-up before the first window.
pub const WARMUP_SECS: f64 = 2.0;
/// Worker threads of the in-process workloads (the box has two cores).
pub const INPROC_THREADS: usize = 2;
/// In-process latency is taken on every Nth op per thread; all ops are counted.
const SAMPLE_EVERY: u64 = 32;
/// In traced windows every Nth op or burst records spans.
const SPAN_EVERY: u64 = 16;
/// In-process workers time `CAL_LOOKUPS` reference lookups about once a
/// millisecond (2–5 % of the time); the closed served loop times `CAL_PINGS`
/// echo round trips and `CAL_BURST_LOOKUPS` lookups every Nth burst (~8 %),
/// in about the shares a burst spends on syscalls and on its own work.
const CAL_SPACING_NS: f64 = 1e6;
const CAL_LOOKUPS: u64 = 32;
const CAL_EVERY_BURST: u64 = 8;
const CAL_PINGS: u64 = 1;
const CAL_BURST_LOOKUPS: u64 = 64;
/// The open loop pings the reference once in the first idle gap after every Nth call.
const CAL_EVERY_CALL: u64 = 16;
/// A request finishing later than this after its due time misses the SLO.
pub const SLO_NS: u64 = 200_000;
/// An open-loop window fails below this share of the offered rate ...
const MIN_RATE_SHARE: f64 = 0.99;
/// ... or when it ends further behind schedule than this.
const MAX_BACKLOG: Duration = Duration::from_millis(10);
/// Largest burst the open loop forms when it has fallen behind.
const MAX_BURST: u64 = 1024;
/// Chunk of the quiescent wire scan.
const AUDIT_CHUNK: u32 = 4096;

/// Nanoseconds since the process-wide epoch (one clock read).
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().saturating_duration_since(epoch).as_nanos() as u64
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The core the served workloads run on, generator and server threads alike.
///
/// On this two-vCPU VM a cross-core wake-up costs ~30 us of hypervisor time,
/// and left alone the scheduler flips between same-core and cross-core
/// placement from run to run (0.6 vs 0.2 Mops at depth 32).  One core makes the
/// program's own CPU cost the measured quantity and leaves the other core to
/// the rest of the box.
pub const SERVED_CPU: usize = 1;

/// Pin the calling thread, and every thread spawned from it afterwards, to `cpu`.
fn pin_to(cpu: usize) -> bool {
    let mask = 1u64 << cpu;
    // SAFETY: pid 0 names the calling thread; `mask` is one live u64 and its size is passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// One phase of a run.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub secs: f64,
    /// False for the warm-up, whose numbers are discarded.
    pub timed: bool,
    /// Spans, the program's 1-in-64 sampler and allocation counting are on.
    pub traced: bool,
}

/// What one phase measured, summed over the threads that drove it.
#[derive(Default, Debug)]
pub struct WindowData {
    pub ops: u64,
    /// Sum over threads of ops / seconds.
    pub rate: f64,
    /// Calls into the program (`pipeline` calls when served).
    pub calls: u64,
    /// Latency samples in ns (from due time in the open loop).
    pub lat: Vec<u64>,
    /// The samples of `lat` that are scans.
    pub scan_lat: Vec<u64>,
    /// Open loop only: the same requests timed from when they were sent.
    pub send_lat: Vec<u64>,
    /// Open loop only: how long after it was both due and sendable each request was sent.
    pub lag: Vec<u64>,
    /// Open loop only: the window missed its rate or ended behind schedule.
    pub failed: bool,
    /// Open loop only: `rate` is the achieved share of a fixed schedule, not a speed.
    pub fixed_rate: bool,
    /// The machine-speed reference measured inside this window; its time is
    /// excluded from `rate`.
    pub speed: Speed,
}

impl WindowData {
    /// `rate` at the reference's nominal speed (see `calib`).
    pub fn rate_at_nominal(&self) -> f64 {
        if self.fixed_rate {
            self.rate
        } else {
            self.rate / self.speed.factor()
        }
    }

    /// Bytes of latency samples this window holds: the benchmark's own
    /// memory, which grows with the ops a run gets through.
    fn sample_bytes(&self) -> usize {
        (self.lat.len() + self.scan_lat.len() + self.send_lat.len() + self.lag.len())
            * std::mem::size_of::<u64>()
    }

    fn absorb(&mut self, other: WindowData) {
        self.ops += other.ops;
        self.rate += other.rate;
        self.calls += other.calls;
        self.lat.extend(other.lat);
        self.scan_lat.extend(other.scan_lat);
        self.speed.absorb(other.speed);
    }
}

/// Conservation bookkeeping (Setbench): successful inserts minus removes.
#[derive(Default, Clone, Copy, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub net_count: i64,
    pub net_sum: i128,
    /// Gets that found their key but returned another key's value.  Reported,
    /// not failed: `PathCasAvl::get` reads key and value without validating,
    /// so a two-child removal that moves the successor's key and value into
    /// the node can slip between the two reads (about once in 10^7 gets).
    pub foreign_values: u64,
}

impl Tally {
    fn add_key(&mut self, key: u64) {
        self.net_count += 1;
        self.net_sum += key as i128;
    }

    fn sub_key(&mut self, key: u64) {
        self.net_count -= 1;
        self.net_sum -= key as i128;
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.net_count += other.net_count;
        self.net_sum += other.net_sum;
        self.foreign_values += other.foreign_values;
    }
}

/// The call into the program for one op, in-process.
#[inline]
pub fn call<M: ConcurrentMap + ?Sized>(map: &M, op: &Op) -> Response {
    match op.kind {
        OpKind::Get => Response::Get(map.get(op.key)),
        OpKind::Insert => Response::Put(map.insert(op.key, op.key)),
        OpKind::Remove => Response::Del(map.remove(op.key)),
        // The server's affine RMW, so both paths leave the same values behind.
        OpKind::Rmw => Response::Rmw(map.rmw(op.key, &mut |v| {
            v.map_or(op.arg, |x| x.wrapping_add(op.arg) & MAX_KEY)
        })),
        OpKind::Scan => Response::Scan(map.scan(op.key, op.arg as usize)),
    }
}

/// The same op as a wire request.
#[inline]
pub fn request(op: &Op) -> Request {
    match op.kind {
        OpKind::Get => Request::Get(op.key),
        OpKind::Insert => Request::Put(op.key, op.key),
        OpKind::Remove => Request::Del(op.key),
        OpKind::Rmw => Request::Rmw(op.key, op.arg),
        OpKind::Scan => Request::Scan(op.key, op.arg as u32),
    }
}

/// Every scan must be strictly ascending, start at or after `start`, and hold
/// at most `len` pairs.
pub fn scan_ok(pairs: &[(u64, u64)], start: u64, len: u64) -> bool {
    pairs.len() as u64 <= len
        && pairs.first().is_none_or(|p| p.0 >= start)
        && pairs.windows(2).all(|w| w[0].0 < w[1].0)
}

/// Check one response against its op and book it.  `values_are_keys` holds on
/// workloads without RMW, where every stored value equals its key.
#[inline]
fn account(op: &Op, resp: &Response, tally: &mut Tally, values_are_keys: bool) {
    tally.attempted += 1;
    let ok = match (op.kind, resp) {
        (OpKind::Get, Response::Get(v)) => {
            tally.foreign_values += u64::from(values_are_keys && v.is_some_and(|v| v != op.key));
            true
        }
        (OpKind::Insert, Response::Put(inserted)) => {
            if *inserted {
                tally.add_key(op.key);
            }
            true
        }
        (OpKind::Remove, Response::Del(removed)) => {
            if *removed {
                tally.sub_key(op.key);
            }
            true
        }
        (OpKind::Rmw, Response::Rmw(was_present)) => {
            if !*was_present {
                tally.add_key(op.key);
            }
            true
        }
        (OpKind::Scan, Response::Scan(pairs)) => {
            scan_ok(pairs, op.key, op.arg) && (!values_are_keys || pairs.iter().all(|p| p.0 == p.1))
        }
        _ => false,
    };
    if !ok {
        tally.failed += 1;
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// The structure under test, prefilled, with whatever serves it.
pub enum Sut {
    Avl(Arc<PathCasAvl>),
    Sharded {
        map: Arc<ShardedMap>,
        shards: Vec<Arc<PathCasAvl>>,
    },
    Served {
        server: Server,
        conn: Connection,
    },
}

/// Insert uniform keys until half the range is present; returns (count, sum).
pub fn prefill<M: ConcurrentMap + ?Sized>(map: &M, spec: &Spec, seed: u64) -> (u64, u128) {
    let (mut count, mut sum) = (0u64, 0u128);
    for key in gen::prefill_keys(seed, spec.name, spec.key_range) {
        if count == spec.key_range / 2 {
            break;
        }
        if map.insert(key, key) {
            count += 1;
            sum += key as u128;
        }
    }
    (count, sum)
}

pub fn backend_of(target: Target) -> Backend {
    match target {
        Target::ServedPipelined { .. } => Backend::Reactor,
        _ => Backend::Threads,
    }
}

/// Start a server on `map` and connect to it, everything pinned to `SERVED_CPU`
/// (the server's threads inherit the caller's affinity).
pub fn serve(map: Arc<dyn ConcurrentMap>, backend: Backend) -> io::Result<(Server, Connection)> {
    if !pin_to(SERVED_CPU) {
        return Err(io::Error::other(format!("cannot pin to cpu {SERVED_CPU}")));
    }
    let opts = ServerOpts {
        log: None,
        read_only: false,
        backend,
        reactor_threads: 1,
    };
    let server = Server::start_with(map, opts, "127.0.0.1:0")?;
    let conn = Connection::connect(server.local_addr())?;
    Ok((server, conn))
}

/// Build, prefill, and (when served) start the server and connect.  This is
/// what `setup_s` times.
pub fn set_up(spec: &Spec, seed: u64) -> io::Result<(Sut, (u64, u128))> {
    Ok(match spec.target {
        Target::Avl => {
            let map = Arc::new(PathCasAvl::new());
            let filled = prefill(&*map, spec, seed);
            (Sut::Avl(map), filled)
        }
        Target::Sharded => {
            let shards: Vec<Arc<PathCasAvl>> = (0..gen::SHARDS)
                .map(|_| Arc::new(PathCasAvl::new()))
                .collect();
            let boxed = shards
                .iter()
                .map(|s| Box::new(s.clone()) as Box<dyn ConcurrentMap>);
            let map = Arc::new(ShardedMap::new(boxed.collect()));
            let filled = prefill(&*map, spec, seed);
            (Sut::Sharded { map, shards }, filled)
        }
        Target::ServedRate { .. } | Target::ServedPipelined { .. } => {
            let map: Arc<dyn ConcurrentMap> = Arc::from(harness::make(gen::SERVED_STRUCTURE));
            let filled = prefill(&*map, spec, seed);
            let (server, conn) = serve(map, backend_of(spec.target))?;
            (Sut::Served { server, conn }, filled)
        }
    })
}

impl Sut {
    /// Drop the structure; a served one must shut its server down cleanly.
    pub fn tear_down(self) {
        if let Sut::Served { server, conn, .. } = self {
            drop(conn);
            server.shutdown();
        }
    }
}

// ---------------------------------------------------------------------------
// The windows
// ---------------------------------------------------------------------------

/// Everything the phases of one run produced.
pub struct Driven {
    /// One entry per phase, warm-up included.
    pub windows: Vec<WindowData>,
    pub tally: Tally,
    pub spans: Recorder,
    /// The process's `VmHWM` when the last phase ended, less the latency
    /// samples held at that moment.
    pub rss_mb: f64,
}

fn high_water_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        });
    kb.unwrap_or(0.0) / 1024.0
}

/// `VmHWM` less the samples in `windows`, in MiB.  Call it while every sample
/// taken is still held exactly once.
fn rss_less_samples<'a>(windows: impl Iterator<Item = &'a WindowData>) -> f64 {
    let samples: usize = windows.map(WindowData::sample_bytes).sum();
    high_water_mb() - samples as f64 / (1 << 20) as f64
}

/// Switches tracing at phase boundaries and reads the program's registries
/// there; the drivers call it from the thread that owns the schedule.
pub struct Switch {
    trees: Vec<Arc<PathCasAvl>>,
    state: Mutex<SwitchState>,
}

const COUNTERS: [&str; 4] = [
    "kcas_ops_total",
    "kcas_retries_total",
    "kcas_help_events_total",
    "kcas_boxed_fallbacks_total",
];

#[derive(Default)]
pub struct SwitchState {
    before: [f64; 6],
    /// Deltas summed over the traced windows: the four `COUNTERS`, op restarts, rotations.
    pub traced: [f64; 6],
    /// Untraced timed windows that found the program's sampler on.
    pub sampler_on_in_untraced: u64,
}

impl Switch {
    fn read(&self) -> [f64; 6] {
        let mut v = [0.0; 6];
        for (slot, name) in v.iter_mut().zip(COUNTERS) {
            *slot = telemetry::value(name).unwrap_or(0) as f64;
        }
        for t in &self.trees {
            v[4] += t.retry_count() as f64;
            v[5] += t.rotation_count() as f64;
        }
        v
    }

    fn check_untraced(&self, phase: &Phase) {
        if phase.timed && !phase.traced && telemetry::trace::sample_every() != 0 {
            self.state
                .lock()
                .expect("switch state")
                .sampler_on_in_untraced += 1;
        }
    }
}

impl Switch {
    /// `trees`: the concrete trees whose restart and rotation counts to follow.
    pub fn new(trees: Vec<Arc<PathCasAvl>>) -> Self {
        Switch {
            trees,
            state: Mutex::default(),
        }
    }

    pub fn into_state(self) -> SwitchState {
        self.state.into_inner().expect("switch state")
    }

    fn begin(&self, phase: &Phase) {
        if phase.traced {
            self.state.lock().expect("switch state").before = self.read();
            crate::alloc::set_counting(true);
            telemetry::trace::set_sample_every(telemetry::trace::DEFAULT_SAMPLE_EVERY);
        }
        self.check_untraced(phase);
    }

    fn end(&self, phase: &Phase) {
        self.check_untraced(phase);
        if phase.traced {
            telemetry::trace::set_sample_every(0);
            crate::alloc::set_counting(false);
            let now = self.read();
            let mut s = self.state.lock().expect("switch state");
            let before = s.before;
            for ((sum, now), before) in s.traced.iter_mut().zip(now).zip(before) {
                *sum += now - before;
            }
        }
    }
}

/// What a run drives, beyond the structure itself.
pub struct Plan<'a> {
    pub spec: &'a Spec,
    pub keys: &'a KeySampler,
    pub seed: u64,
    pub phases: &'a [Phase],
    pub hook: &'a Switch,
    /// The in-process machine-speed reference (see `calib`).
    pub table: &'a Arc<RefTable>,
}

impl Plan<'_> {
    /// On workloads without RMW every stored value equals its key.
    fn values_are_keys(&self) -> bool {
        self.spec.mix.rmw == 0
    }
}

pub fn drive(sut: &mut Sut, plan: &Plan<'_>) -> io::Result<Driven> {
    match sut {
        Sut::Avl(map) => Ok(drive_inproc(&**map, plan)),
        Sut::Sharded { map, .. } => Ok(drive_inproc(&**map, plan)),
        Sut::Served { conn, .. } => {
            let mut gen = OpGen::for_workload(plan.spec, plan.keys, plan.seed, 0);
            // `serve` pinned this thread, so the echo thread lands on the served core too.
            let mut echo = calib::Echo::start()?;
            let mut lookups = (plan.spec.ref_lookup_ns > 0.0).then(|| {
                RefLookups::new(
                    plan.table.clone(),
                    plan.keys.clone(),
                    plan.spec.ref_lookup_ns,
                    gen::stream_seed(plan.seed, "reference", 0),
                )
            });
            let mut out = Driven {
                windows: Vec::new(),
                tally: Tally::default(),
                spans: Recorder::default(),
                rss_mb: 0.0,
            };
            for phase in plan.phases {
                plan.hook.begin(phase);
                let mut next = || gen.next_op();
                let mut load = Load {
                    next_op: &mut next,
                    tally: &mut out.tally,
                    spans: phase.traced.then_some(&mut out.spans),
                    echo: Some(&mut echo),
                    lookups: lookups.as_mut(),
                    values_are_keys: plan.values_are_keys(),
                };
                let dur = Duration::from_secs_f64(phase.secs);
                let window = match plan.spec.target {
                    Target::ServedRate { per_second } => {
                        open_loop(conn, &mut load, per_second, dur)?
                    }
                    Target::ServedPipelined { depth } => closed_loop(conn, &mut load, depth, dur)?,
                    _ => unreachable!("in-process targets are driven above"),
                };
                plan.hook.end(phase);
                out.windows.push(window);
            }
            out.rss_mb = rss_less_samples(out.windows.iter());
            Ok(out)
        }
    }
}

const DONE: usize = usize::MAX;

fn drive_inproc<M: ConcurrentMap>(map: &M, plan: &Plan<'_>) -> Driven {
    let (phases, hook) = (plan.phases, plan.hook);
    // Release/Acquire: a worker that sees phase `i` also sees the tracing
    // switches `hook.begin(i)` flipped before publishing it.
    let phase_idx = AtomicUsize::new(0);
    let start = Barrier::new(INPROC_THREADS + 1);
    let outs: Vec<(Vec<WindowData>, Tally, Recorder)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..INPROC_THREADS as u64)
            .map(|t| {
                let gen = OpGen::for_workload(plan.spec, plan.keys, plan.seed, t);
                let reference = RefLookups::new(
                    plan.table.clone(),
                    plan.keys.clone(),
                    plan.spec.ref_lookup_ns,
                    gen::stream_seed(plan.seed, "reference", t),
                );
                let (phase_idx, start) = (&phase_idx, &start);
                s.spawn(move || {
                    start.wait();
                    worker(
                        map,
                        gen,
                        reference,
                        phases,
                        phase_idx,
                        t,
                        plan.values_are_keys(),
                    )
                })
            })
            .collect();
        hook.begin(&phases[0]);
        start.wait();
        for (i, phase) in phases.iter().enumerate() {
            if i > 0 {
                hook.begin(phase);
                phase_idx.store(i, Ordering::Release);
            }
            std::thread::sleep(Duration::from_secs_f64(phase.secs));
            hook.end(phase);
        }
        phase_idx.store(DONE, Ordering::Release);
        workers
            .into_iter()
            .map(|w| w.join().expect("worker thread panicked"))
            .collect()
    });
    let mut driven = Driven {
        windows: phases.iter().map(|_| WindowData::default()).collect(),
        tally: Tally::default(),
        spans: Recorder::default(),
        // Before the threads' windows are merged, which would hold samples twice for a while.
        rss_mb: rss_less_samples(outs.iter().flat_map(|(windows, ..)| windows)),
    };
    for (windows, tally, spans) in outs {
        for (into, w) in driven.windows.iter_mut().zip(windows) {
            into.absorb(w);
        }
        driven.tally.absorb(tally);
        driven.spans.absorb(spans);
    }
    driven
}

fn worker<M: ConcurrentMap>(
    map: &M,
    mut gen: OpGen,
    mut reference: RefLookups,
    phases: &[Phase],
    phase_idx: &AtomicUsize,
    thread: u64,
    values_are_keys: bool,
) -> (Vec<WindowData>, Tally, Recorder) {
    let mut windows: Vec<WindowData> = phases.iter().map(|_| WindowData::default()).collect();
    let (mut tally, mut spans) = (Tally::default(), Recorder::default());
    let (mut cur, mut traced, mut began, mut n) = (DONE, false, 0u64, 0u64);
    let (mut slice_every, mut until_slice, mut last_slice) = (1024u64, 1024u64, now_ns());
    loop {
        let p = phase_idx.load(Ordering::Acquire);
        if p != cur {
            let now = now_ns();
            if cur != DONE {
                let w = &mut windows[cur];
                w.calls = w.ops;
                w.speed = reference.take();
                w.rate = w.ops as f64 / ((now - began - w.speed.ns) as f64 / 1e9);
            }
            if p == DONE {
                break;
            }
            (cur, traced, began) = (p, phases[p].traced, now);
        }
        n += 1;
        until_slice -= 1;
        if until_slice == 0 {
            // Keep the slices about `CAL_SPACING_NS` apart whatever an op costs.
            let t = reference.slice(CAL_LOOKUPS);
            let elapsed = (t - last_slice).max(1) as f64;
            slice_every =
                (slice_every as f64 * CAL_SPACING_NS / elapsed).clamp(8.0, 65_536.0) as u64;
            (until_slice, last_slice) = (slice_every, t);
        }
        let w = &mut windows[cur];
        w.ops += 1;
        let (op, resp) = if traced && n.is_multiple_of(SPAN_EVERY) {
            let t0 = now_ns();
            let op = gen.next_op();
            let t1 = now_ns();
            let resp = call(map, &op);
            let t2 = now_ns();
            let id = thread << 48 | n;
            spans.push(id, "op", None, t0, t2);
            spans.push(id, "gen", Some("op"), t0, t1);
            spans.push(id, "call", Some("op"), t1, t2);
            sample(w, &op, t2 - t1);
            (op, resp)
        } else if !traced && n.is_multiple_of(SAMPLE_EVERY) {
            let op = gen.next_op();
            let t1 = now_ns();
            let resp = call(map, &op);
            let t2 = now_ns();
            sample(w, &op, t2 - t1);
            (op, resp)
        } else {
            let op = gen.next_op();
            let resp = call(map, &op);
            (op, resp)
        };
        account(&op, &resp, &mut tally, values_are_keys);
    }
    (windows, tally, spans)
}

#[inline]
fn sample(w: &mut WindowData, op: &Op, ns: u64) {
    w.lat.push(ns);
    if op.kind == OpKind::Scan {
        w.scan_lat.push(ns);
    }
}

/// The one call the served drivers make into the program; a trait so the
/// open-loop accounting can be tested against a backend that stalls.
pub trait Pipeline {
    fn pipeline(&mut self, reqs: &[Request]) -> io::Result<Vec<Response>>;
}

impl Pipeline for Connection {
    fn pipeline(&mut self, reqs: &[Request]) -> io::Result<Vec<Response>> {
        Connection::pipeline(self, reqs)
    }
}

/// What a served driver draws ops from and books results into.
pub struct Load<'a> {
    pub next_op: &'a mut dyn FnMut() -> Op,
    pub tally: &'a mut Tally,
    /// `Some` in traced windows.
    pub spans: Option<&'a mut Recorder>,
    /// The machine-speed reference of the served loops; `None` leaves times raw.
    pub echo: Option<&'a mut calib::Echo>,
    /// The second reference of the closed loop, beside the echo (see `calib`).
    pub lookups: Option<&'a mut RefLookups>,
    pub values_are_keys: bool,
}

/// Scratch of one burst, reused across bursts.
#[derive(Default)]
struct Burst {
    ops: Vec<Op>,
    reqs: Vec<Request>,
}

impl Burst {
    /// Generate `n` ops, build their requests, send them as one `pipeline`
    /// call and book the responses.  Returns `(sent_ns, done_ns)` around the call.
    fn run(
        &mut self,
        conn: &mut impl Pipeline,
        load: &mut Load<'_>,
        n: usize,
        index: u64,
    ) -> io::Result<(u64, u64)> {
        let t0 = now_ns();
        self.ops.clear();
        self.ops.extend((0..n).map(|_| (load.next_op)()));
        let t1 = now_ns();
        self.reqs.clear();
        self.reqs.extend(self.ops.iter().map(request));
        let t2 = now_ns();
        let resps = conn.pipeline(&self.reqs)?;
        let t3 = now_ns();
        if resps.len() != n {
            // Response count must equal request count; book the whole burst as failed.
            load.tally.attempted += n as u64;
            load.tally.failed += n as u64;
        } else {
            for (op, resp) in self.ops.iter().zip(&resps) {
                account(op, resp, load.tally, load.values_are_keys);
            }
        }
        let t4 = now_ns();
        if let Some(spans) = load.spans.as_deref_mut() {
            if index.is_multiple_of(SPAN_EVERY) {
                spans.push(index, "burst", None, t0, t4);
                spans.push(index, "gen", Some("burst"), t0, t1);
                spans.push(index, "encode", Some("burst"), t1, t2);
                spans.push(index, "pipeline", Some("burst"), t2, t3);
                spans.push(index, "decode", Some("burst"), t3, t4);
            }
        }
        Ok((t2, t3))
    }
}

/// Closed loop: one burst of `depth` requests in flight at a time; each op is
/// charged its burst's round trip.
pub fn closed_loop(
    conn: &mut impl Pipeline,
    load: &mut Load<'_>,
    depth: usize,
    dur: Duration,
) -> io::Result<WindowData> {
    let mut w = WindowData::default();
    let mut burst = Burst::default();
    let began = now_ns();
    let end = began + dur.as_nanos() as u64;
    while now_ns() < end {
        if w.calls.is_multiple_of(CAL_EVERY_BURST) {
            if let Some(echo) = load.echo.as_deref_mut() {
                echo.ping(CAL_PINGS)?;
            }
            if let Some(lookups) = load.lookups.as_deref_mut() {
                lookups.slice(CAL_BURST_LOOKUPS);
            }
        }
        let (sent, done) = burst.run(conn, load, depth, w.calls)?;
        w.calls += 1;
        w.ops += depth as u64;
        w.lat.push(done - sent);
        let scans = burst
            .ops
            .iter()
            .filter(|op| op.kind == OpKind::Scan)
            .count();
        w.scan_lat.extend(std::iter::repeat_n(done - sent, scans));
    }
    w.speed = load
        .echo
        .as_deref_mut()
        .map(calib::Echo::take)
        .unwrap_or_default();
    if let Some(lookups) = load.lookups.as_deref_mut() {
        w.speed.absorb(lookups.take());
    }
    w.rate = w.ops as f64 / ((now_ns() - began - w.speed.ns) as f64 / 1e9);
    Ok(w)
}

/// Open loop: request `i` is due at `began + i / per_second`, whatever the
/// server does.  A spinning generator sends everything due by now as one
/// burst, and every request is timed from its *due* time, so a stall is
/// charged to the requests that had to wait behind it.
pub fn open_loop(
    conn: &mut impl Pipeline,
    load: &mut Load<'_>,
    per_second: u64,
    dur: Duration,
) -> io::Result<WindowData> {
    let mut w = WindowData::default();
    let mut burst = Burst::default();
    let mut idle_since_ping = 0u64;
    let due_at =
        |began: u64, i: u64| began + (i as u128 * 1_000_000_000 / per_second as u128) as u64;
    let dur_ns = dur.as_nanos() as u64;
    let total = (dur_ns as u128 * per_second as u128 / 1_000_000_000) as u64;
    let began = now_ns();
    let (mut sent, mut free_at) = (0u64, began);
    loop {
        let now = now_ns();
        if now >= began + dur_ns || sent == total {
            break;
        }
        // Requests 0..due are due by now.
        let due =
            (((now - began) as u128 * per_second as u128 / 1_000_000_000) as u64 + 1).min(total);
        if due == sent {
            // Idle until the next request falls due; now and then, ping the reference.
            if let Some(echo) = load.echo.as_deref_mut() {
                if idle_since_ping >= CAL_EVERY_CALL {
                    echo.ping(1)?;
                    idle_since_ping = 0;
                }
            }
            std::hint::spin_loop();
            continue;
        }
        let n = (due - sent).min(MAX_BURST);
        let (sent_ns, done) = burst.run(conn, load, n as usize, w.calls)?;
        w.calls += 1;
        idle_since_ping += 1;
        for (j, op) in burst.ops.iter().enumerate() {
            let due_ns = due_at(began, sent + j as u64);
            sample(&mut w, op, done.saturating_sub(due_ns));
            w.send_lat.push(done - sent_ns);
            w.lag.push(sent_ns.saturating_sub(due_ns.max(free_at)));
        }
        sent += n;
        free_at = done;
    }
    let elapsed = now_ns() - began;
    w.speed = load
        .echo
        .as_deref_mut()
        .map(calib::Echo::take)
        .unwrap_or_default();
    w.ops = sent;
    w.fixed_rate = true;
    w.rate = sent as f64 / (elapsed as f64 / 1e9);
    let behind = total - sent;
    w.failed = w.rate < MIN_RATE_SHARE * per_second as f64
        || behind as u128 * 1_000_000_000 / per_second as u128 > MAX_BACKLOG.as_nanos();
    Ok(w)
}

// ---------------------------------------------------------------------------
// The audit
// ---------------------------------------------------------------------------

/// Quiescent correctness audit.  Returns one message per mismatch.
pub fn audit(sut: &mut Sut, spec: &Spec, prefilled: (u64, u128), tally: &Tally) -> Vec<String> {
    let want_count = prefilled.0 as i128 + tally.net_count as i128;
    let want_sum = prefilled.1 as i128 + tally.net_sum;
    let mut errors = Vec::new();
    let (stats, scanned) = match sut {
        Sut::Avl(map) => (map.stats(), Ok(map.scan(1, spec.key_range as usize + 1))),
        Sut::Sharded { map, .. } => (map.stats(), Ok(map.scan(1, spec.key_range as usize + 1))),
        Sut::Served { conn, .. } => match conn.request(&Request::Stats) {
            Ok(Response::Stats(stats)) => (stats, wire_scan(conn)),
            other => return vec![format!("STATS answered with {other:?}")],
        },
    };
    // Setbench conservation: what the threads saw succeed is what the structure holds.
    if stats.key_count as i128 != want_count || stats.key_sum as i128 != want_sum {
        errors.push(format!(
            "keysum: structure holds {} keys summing to {}, the ops account for {want_count} / {want_sum}",
            stats.key_count, stats.key_sum
        ));
    }
    match scanned {
        Err(e) => errors.push(format!("quiescent scan: {e}")),
        Ok(pairs) => {
            let sum: u128 = pairs.iter().map(|p| p.0 as u128).sum();
            if !scan_ok(&pairs, 1, u64::MAX) {
                errors.push("quiescent scan is not strictly ascending".into());
            }
            if pairs.len() as u64 != stats.key_count || sum != stats.key_sum {
                errors.push(format!(
                    "quiescent scan saw {} keys summing to {sum}, stats() reports {} / {}",
                    pairs.len(),
                    stats.key_count,
                    stats.key_sum
                ));
            }
        }
    }
    errors
}

/// The whole key space over the wire, in `AUDIT_CHUNK`-pair SCANs.
fn wire_scan(conn: &mut Connection) -> Result<Vec<(u64, u64)>, String> {
    let mut all: Vec<(u64, u64)> = Vec::new();
    let mut start = 1;
    loop {
        match conn.request(&Request::Scan(start, AUDIT_CHUNK)) {
            Ok(Response::Scan(pairs)) => {
                let full = pairs.len() == AUDIT_CHUNK as usize;
                all.extend(pairs);
                if !full {
                    return Ok(all);
                }
                start = all[all.len() - 1].0 + 1;
            }
            other => return Err(format!("SCAN answered with {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::quantile;

    /// Answers every burst at once, except one call that stalls.
    struct Stalling {
        calls: u32,
        stall_on: u32,
        stall: Duration,
    }

    impl Pipeline for Stalling {
        fn pipeline(&mut self, reqs: &[Request]) -> io::Result<Vec<Response>> {
            self.calls += 1;
            if self.calls == self.stall_on {
                std::thread::sleep(self.stall);
            }
            Ok(reqs.iter().map(|_| Response::Get(None)).collect())
        }
    }

    fn gets() -> impl FnMut() -> Op {
        || Op {
            kind: OpKind::Get,
            key: 1,
            arg: 0,
        }
    }

    /// The coordinated-omission witness: a 5 ms stall delays the requests that
    /// became due *during* it.  Timed from their due time they show the stall;
    /// timed from when they were finally sent they do not.
    #[test]
    fn due_time_latency_shows_a_stall_that_send_time_latency_hides() {
        let mut conn = Stalling {
            calls: 0,
            stall_on: 50,
            stall: Duration::from_millis(5),
        };
        let (mut next, mut tally) = (gets(), Tally::default());
        let mut load = Load {
            next_op: &mut next,
            tally: &mut tally,
            spans: None,
            echo: None,
            lookups: None,
            values_are_keys: true,
        };
        // 20k req/s for 50 ms = 1000 requests; ~100 of them fall due in the stall.
        let w = open_loop(&mut conn, &mut load, 20_000, Duration::from_millis(50)).unwrap();
        assert_eq!((w.ops, tally.attempted, tally.failed), (1000, 1000, 0));
        assert_eq!(w.lat.len(), w.send_lat.len());
        let stalled = |samples: &[u64]| samples.iter().filter(|&&ns| ns >= 1_000_000).count();
        // From due time, the requests queued behind the stall waited a millisecond or more ...
        assert!(
            stalled(&w.lat) >= 50,
            "only {} due-time samples show the stall",
            stalled(&w.lat)
        );
        // ... from send time only the burst that stalled did.
        assert!(
            stalled(&w.send_lat) <= 2,
            "{} send-time samples show the stall",
            stalled(&w.send_lat)
        );
        let mut due = w.lat.clone();
        due.sort_unstable();
        assert!(quantile(&due, 0.99) >= 4_000_000.0);
        // The backlog was sent as one catch-up burst, and the window recovered.
        assert!(w.calls < 1000 && !w.failed);
    }

    #[test]
    fn an_open_loop_that_cannot_keep_up_fails_its_window() {
        let mut conn = Stalling {
            calls: 0,
            stall_on: 1,
            stall: Duration::from_millis(30),
        };
        let (mut next, mut tally) = (gets(), Tally::default());
        let mut load = Load {
            next_op: &mut next,
            tally: &mut tally,
            spans: None,
            echo: None,
            lookups: None,
            values_are_keys: true,
        };
        let w = open_loop(&mut conn, &mut load, 20_000, Duration::from_millis(20)).unwrap();
        assert!(w.failed && w.ops < 400);
    }

    #[test]
    fn closed_loop_charges_each_op_its_burst_and_records_spans() {
        let mut conn = Stalling {
            calls: 0,
            stall_on: 0,
            stall: Duration::ZERO,
        };
        let mut k = 0;
        let mut next = || {
            k += 1;
            Op {
                kind: if k % 4 == 0 {
                    OpKind::Scan
                } else {
                    OpKind::Get
                },
                key: k,
                arg: 8,
            }
        };
        let (mut tally, mut spans) = (Tally::default(), Recorder::default());
        let mut load = Load {
            next_op: &mut next,
            tally: &mut tally,
            spans: Some(&mut spans),
            echo: None,
            lookups: None,
            values_are_keys: true,
        };
        let w = closed_loop(&mut conn, &mut load, 32, Duration::from_millis(5)).unwrap();
        assert_eq!(w.ops, w.calls * 32);
        assert_eq!(w.lat.len() as u64, w.calls);
        assert_eq!(w.scan_lat.len() as u64, w.calls * 8);
        // The fake answers scans with GET responses: every scan is a failed op.
        assert_eq!(tally.failed, w.calls * 8);
        assert!(spans
            .spans
            .iter()
            .any(|s| s.name == "pipeline" && s.parent == Some("burst")));
    }

    #[test]
    fn accounting_tracks_net_keys_and_rejects_bad_scans() {
        let mut t = Tally::default();
        let op = |kind, key| Op { kind, key, arg: 2 };
        account(&op(OpKind::Insert, 5), &Response::Put(true), &mut t, true);
        account(&op(OpKind::Insert, 5), &Response::Put(false), &mut t, true);
        account(&op(OpKind::Rmw, 9), &Response::Rmw(false), &mut t, false);
        account(&op(OpKind::Remove, 5), &Response::Del(true), &mut t, true);
        assert_eq!((t.net_count, t.net_sum, t.failed), (1, 9, 0));
        account(&op(OpKind::Get, 5), &Response::Get(Some(6)), &mut t, true);
        assert_eq!((t.foreign_values, t.failed), (1, 0));
        account(
            &op(OpKind::Get, 5),
            &Response::Err("boom".into()),
            &mut t,
            true,
        );
        account(
            &op(OpKind::Scan, 5),
            &Response::Scan(vec![(6, 6), (6, 6)]),
            &mut t,
            true,
        );
        account(
            &op(OpKind::Scan, 5),
            &Response::Scan(vec![(4, 4)]),
            &mut t,
            true,
        );
        account(
            &op(OpKind::Scan, 5),
            &Response::Scan(vec![(5, 5), (6, 6), (7, 7)]),
            &mut t,
            true,
        );
        account(
            &op(OpKind::Scan, 5),
            &Response::Scan(vec![(5, 5), (8, 8)]),
            &mut t,
            true,
        );
        assert_eq!((t.attempted, t.failed), (10, 4));
    }
}
