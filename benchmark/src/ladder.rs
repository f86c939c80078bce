//! The layer ladder: one single-threaded replay that times calls into each
//! layer's public functions from outside, bottom rung to top, so adjacent rungs
//! differ by one layer's tax.  Keys come from the workload's distribution and
//! key range; the op mix is the ladder's own (a fifth each of get, insert,
//! remove, rmw and scan(16)), so every rung has a number on every workload.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::sync::Arc;

use kcas::{CasWord, KcasArg, VisitArg};
use mapapi::ConcurrentMap;
use pathcas::OpBuilder;
use pathcas_ds::PathCasAvl;
use server::proto::{self, FrameDecoder};
use server::{Backend, Request, Response};

use crate::alloc;
use crate::gen::{self, KeySampler, Mix, Op, OpGen, OpKind, Spec};
use crate::run::{self, now_ns};
use crate::stats::median;

/// Ops replayed at each structure rung.
const REPLAY_OPS: usize = 200_000;
/// Micro rungs: blocks of calls timed as one, so the timer is amortised.
const BLOCKS: usize = 400;
const PER_BLOCK: usize = 64;
/// Depth-1 requests and depth-32 bursts timed at the served rungs.
const D1_REQUESTS: usize = 20_000;
const D32_BURSTS: usize = 1_500;
const DEPTH: usize = 32;
/// Ops of the workload's own stream whose wire size is averaged.
const SIZE_OPS: usize = 2_000;

const LADDER_MIX: Mix = Mix {
    get: 200,
    insert: 200,
    remove: 200,
    rmw: 200,
    scan: 200,
    scan_len: (16, 16),
};

pub type Layers = BTreeMap<&'static str, f64>;

/// Median ns per call; `block` makes `PER_BLOCK` calls.
fn per_call_ns(mut block: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..BLOCKS)
        .map(|_| {
            let t0 = now_ns();
            block();
            (now_ns() - t0) as f64 / PER_BLOCK as f64
        })
        .collect();
    median(&times)
}

/// Per-call times of one replay, by op kind.
#[derive(Default)]
struct Replay {
    by_kind: [Vec<f64>; 5],
}

impl Replay {
    fn run<M: ConcurrentMap + ?Sized>(map: &M, ops: &[Op]) -> Replay {
        let mut r = Replay::default();
        for op in ops {
            let t0 = now_ns();
            let resp = run::call(map, op);
            let t1 = now_ns();
            black_box(resp);
            r.by_kind[op.kind as usize].push((t1 - t0) as f64);
        }
        r
    }

    /// Median of one kind, less the one clock read each sample contains.
    fn ns(&self, kind: OpKind, clock_read_ns: f64) -> f64 {
        median(&self.by_kind[kind as usize]) - clock_read_ns
    }
}

fn registry(name: &str) -> f64 {
    telemetry::value(name).unwrap_or(0) as f64
}

/// Registry deltas across `f`.
fn deltas<T>(
    names: &[&'static str],
    f: impl FnOnce() -> io::Result<T>,
) -> io::Result<(T, Vec<f64>)> {
    let before: Vec<f64> = names.iter().map(|n| registry(n)).collect();
    let out = f()?;
    Ok((
        out,
        names
            .iter()
            .zip(before)
            .map(|(n, b)| registry(n) - b)
            .collect(),
    ))
}

pub fn run(spec: &Spec, keys: &KeySampler, seed: u64) -> io::Result<Layers> {
    let mut l = Layers::new();
    alloc::set_counting(true);

    // -- workload: the benchmark's own costs, subtracted from the rungs above.
    let timer_pair = per_call_ns(|| {
        for _ in 0..PER_BLOCK {
            black_box(now_ns());
            black_box(now_ns());
        }
    });
    let clock_read = timer_pair / 2.0;
    l.insert("workload.timer_ns", timer_pair);
    let mut gen = OpGen::for_workload(spec, keys, seed, 0);
    l.insert(
        "workload.gen_ns",
        per_call_ns(|| {
            for _ in 0..PER_BLOCK {
                black_box(gen.next_op());
            }
        }),
    );

    // -- epoch, kcas, pathcas: private words, no contention.
    l.insert(
        "epoch.pin_ns",
        per_call_ns(|| {
            for _ in 0..PER_BLOCK {
                drop(black_box(crossbeam_epoch::pin()));
            }
        }),
    );
    let (a, b) = (CasWord::new(0), CasWord::new(0));
    let versions: Vec<CasWord> = (0..16).map(|_| CasWord::new(0)).collect();
    let path: Vec<VisitArg<'_>> = versions
        .iter()
        .map(|v| VisitArg {
            ver_addr: v,
            seen: 0,
        })
        .collect();
    let mut value = 0u64;
    let mut failures = 0u64;
    for (name, path) in [
        ("kcas.execute_k2_ns", &[][..]),
        ("kcas.execute_k2_path16_ns", &path[..]),
    ] {
        let ns = per_call_ns(|| {
            let guard = crossbeam_epoch::pin();
            for _ in 0..PER_BLOCK {
                let entries = [
                    KcasArg {
                        addr: &a,
                        old: value,
                        new: value + 1,
                    },
                    KcasArg {
                        addr: &b,
                        old: value,
                        new: value + 1,
                    },
                ];
                failures += !kcas::execute(black_box(&entries), path, &guard) as u64;
                value += 1;
            }
        });
        l.insert(name, ns);
    }
    let mut builder = OpBuilder::new();
    l.insert(
        "pathcas.op_k2_path16_ns",
        per_call_ns(|| {
            let guard = crossbeam_epoch::pin();
            for _ in 0..PER_BLOCK {
                let mut op = builder.start(&guard);
                for v in &versions {
                    black_box(op.visit(v));
                }
                op.add(&a, value, value + 1);
                op.add(&b, value, value + 1);
                failures += !op.vexec() as u64;
                value += 1;
            }
        }),
    );
    l.insert(
        "pathcas.validate_path16_ns",
        per_call_ns(|| {
            let guard = crossbeam_epoch::pin();
            for _ in 0..PER_BLOCK {
                let mut op = builder.start(&guard);
                for v in &versions {
                    black_box(op.visit(v));
                }
                failures += !op.validate() as u64;
            }
        }),
    );
    if failures > 0 {
        return Err(io::Error::other(format!(
            "{failures} uncontended KCAS/PathCAS ops failed"
        )));
    }

    // -- pathcas-ds, mapapi, shard: the same ops on the concrete tree, the
    //    boxed tree, and the sharded composition, each prefilled alike.
    let ops: Vec<Op> = {
        let mut g = OpGen::new(
            gen::stream_seed(seed, spec.name, u64::MAX),
            keys.clone(),
            LADDER_MIX,
        );
        (0..REPLAY_OPS).map(|_| g.next_op()).collect()
    };
    let concrete = PathCasAvl::new();
    run::prefill(&concrete, spec, seed);
    let stats = concrete.stats();
    l.insert("pathcas-ds.avg_key_depth", stats.avg_key_depth());
    l.insert(
        "pathcas-ds.bytes_per_key",
        stats.approx_bytes as f64 / stats.key_count as f64,
    );
    let allocs = alloc::allocations();
    let on_concrete = Replay::run(&concrete, &ops);
    l.insert(
        "pathcas-ds.allocs_per_op",
        (alloc::allocations() - allocs) as f64 / REPLAY_OPS as f64,
    );
    for (name, kind) in [
        ("pathcas-ds.get_ns", OpKind::Get),
        ("pathcas-ds.insert_ns", OpKind::Insert),
        ("pathcas-ds.remove_ns", OpKind::Remove),
        ("pathcas-ds.rmw_ns", OpKind::Rmw),
        ("pathcas-ds.scan16_ns", OpKind::Scan),
    ] {
        l.insert(name, on_concrete.ns(kind, clock_read));
    }
    drop(concrete);

    let boxed = harness::make("int-avl-pathcas");
    run::prefill(&*boxed, spec, seed);
    let on_boxed = Replay::run(&*boxed, &ops);
    drop(boxed);
    let dyn_get = on_boxed.ns(OpKind::Get, clock_read);
    l.insert("mapapi.dyn_tax_ns", dyn_get - l["pathcas-ds.get_ns"]);

    let sharded: Arc<dyn ConcurrentMap> = Arc::from(harness::make(gen::SERVED_STRUCTURE));
    run::prefill(&*sharded, spec, seed);
    let on_sharded = Replay::run(&*sharded, &ops);
    let loads = sharded.shard_loads();
    let scans = on_sharded.by_kind[OpKind::Scan as usize].len() as f64;
    let points: Vec<f64> = loads.iter().map(|s| s.point_ops as f64).collect();
    l.insert("shard.get_ns", on_sharded.ns(OpKind::Get, clock_read));
    l.insert("shard.route_tax_ns", l["shard.get_ns"] - dyn_get);
    l.insert("shard.scan16_ns", on_sharded.ns(OpKind::Scan, clock_read));
    l.insert(
        "shard.scan_amplification",
        l["shard.scan16_ns"] / l["pathcas-ds.scan16_ns"],
    );
    l.insert(
        "shard.shards_per_scan",
        loads.iter().map(|s| s.scan_ops as f64).sum::<f64>() / scans,
    );
    l.insert(
        "shard.imbalance",
        points.iter().copied().fold(0.0, f64::max)
            / (points.iter().sum::<f64>() / points.len() as f64),
    );

    // -- proto: the codec on point GET frames.
    let mut buf = Vec::with_capacity(64 << 10);
    let mut errors = 0u64;
    l.insert(
        "proto.encode_req_ns",
        per_call_ns(|| {
            for k in 0..PER_BLOCK as u64 {
                buf.clear();
                proto::encode_request(black_box(&Request::Get(k + 1)), &mut buf);
            }
        }),
    );
    let req_frame = buf.clone();
    l.insert(
        "proto.decode_req_ns",
        per_call_ns(|| {
            for _ in 0..PER_BLOCK {
                errors +=
                    black_box(proto::decode_request(black_box(&req_frame[4..]))).is_err() as u64;
            }
        }),
    );
    l.insert(
        "proto.encode_resp_ns",
        per_call_ns(|| {
            for k in 0..PER_BLOCK as u64 {
                buf.clear();
                proto::encode_response(black_box(&Response::Get(Some(k))), &mut buf);
            }
        }),
    );
    let resp_frame = buf.clone();
    l.insert(
        "proto.decode_resp_ns",
        per_call_ns(|| {
            for _ in 0..PER_BLOCK {
                errors +=
                    black_box(proto::decode_response(black_box(&resp_frame[4..]))).is_err() as u64;
            }
        }),
    );
    let scan8 = Response::Scan((1..=8).map(|k| (k, k)).collect());
    l.insert(
        "proto.scan8_resp_ns",
        per_call_ns(|| {
            for _ in 0..PER_BLOCK {
                buf.clear();
                proto::encode_response(black_box(&scan8), &mut buf);
                errors += black_box(proto::decode_response(&buf[4..])).is_err() as u64;
            }
        }),
    );
    let burst: Vec<u8> = req_frame
        .iter()
        .copied()
        .cycle()
        .take(req_frame.len() * DEPTH)
        .collect();
    let mut decoder = FrameDecoder::new();
    let mut frames = 0usize;
    let per_feed = per_call_ns(|| {
        for _ in 0..PER_BLOCK {
            decoder.feed(black_box(&burst));
            while let Ok(Some(frame)) = decoder.next_frame() {
                frames += black_box(frame).len().min(1);
            }
        }
    });
    l.insert("proto.frame_decode_ns", per_feed / DEPTH as f64);
    if errors > 0 || frames != BLOCKS * PER_BLOCK * DEPTH {
        return Err(io::Error::other(format!(
            "codec rung: {errors} decode errors, {frames} frames"
        )));
    }
    // Wire bytes of the workload's own traffic, answered by the sharded map.
    let mut stream = OpGen::for_workload(spec, keys, seed, 0);
    let (mut req_bytes, mut resp_bytes) = (0usize, 0usize);
    for _ in 0..SIZE_OPS {
        let op = stream.next_op();
        buf.clear();
        proto::encode_request(&run::request(&op), &mut buf);
        req_bytes += buf.len();
        buf.clear();
        proto::encode_response(&run::call(&*sharded, &op), &mut buf);
        resp_bytes += buf.len();
    }
    l.insert("proto.bytes_per_req", req_bytes as f64 / SIZE_OPS as f64);
    l.insert("proto.bytes_per_resp", resp_bytes as f64 / SIZE_OPS as f64);

    // -- client and server: GETs over loopback, with the program's own
    //    sampler at its default so its phase spans can be read back.
    let gets: Vec<Request> = ops
        .iter()
        .filter(|op| op.kind == OpKind::Get)
        .map(run::request)
        .collect();
    telemetry::trace::set_sample_every(telemetry::trace::DEFAULT_SAMPLE_EVERY);
    let served = served_rungs(&sharded, &gets, &mut l);
    telemetry::trace::set_sample_every(0);
    served?;
    alloc::set_counting(false);

    let codec: f64 = [
        "proto.encode_req_ns",
        "proto.decode_req_ns",
        "proto.encode_resp_ns",
        "proto.decode_resp_ns",
    ]
    .iter()
    .map(|n| l[n])
    .sum();
    l.insert(
        "server.residual_d1_ns",
        l["client.rtt_d1_ns"] - codec - l["shard.get_ns"],
    );
    l.insert(
        "server.residual_d32_ns",
        l["client.rtt_d32_ns"] - codec - l["shard.get_ns"],
    );
    Ok(l)
}

fn served_rungs(map: &Arc<dyn ConcurrentMap>, gets: &[Request], l: &mut Layers) -> io::Result<()> {
    // Depth 1 on the blocking-handler backend: single-request latency.
    let (server, mut conn) = run::serve(map.clone(), Backend::Threads)?;
    const PHASES: [(&str, &str); 5] = [
        ("server.ready_ns", "trace_ready_ns_sum"),
        ("server.decode_ns", "trace_decode_ns_sum"),
        ("server.op_ns", "trace_kcas_ns_sum"),
        ("server.resp_ns", "trace_resp_ns_sum"),
        ("server.flush_ns", "trace_flush_ns_sum"),
    ];
    let mut names: Vec<&'static str> = PHASES.iter().map(|p| p.1).collect();
    names.push("trace_sampled_total");
    let (rtts, d) = deltas(&names, || {
        let mut rtts = Vec::with_capacity(D1_REQUESTS);
        for req in gets.iter().cycle().take(D1_REQUESTS) {
            let t0 = now_ns();
            let resp = conn.request(req)?;
            rtts.push((now_ns() - t0) as f64);
            if !matches!(resp, Response::Get(_)) {
                return Err(io::Error::other(format!("GET answered with {resp:?}")));
            }
        }
        Ok(rtts)
    })?;
    drop(conn);
    server.shutdown();
    l.insert("client.rtt_d1_ns", median(&rtts));
    let sampled = d[PHASES.len()].max(1.0);
    for (i, (name, _)) in PHASES.iter().enumerate() {
        l.insert(name, d[i] / sampled);
    }

    // Depth 32 on the reactor: bursts, where its batched writes matter.
    let (server, mut conn) = run::serve(map.clone(), Backend::Reactor)?;
    let counters = [
        "reactor_read_syscalls_total",
        "reactor_write_syscalls_total",
        "reactor_wakeups_total",
    ];
    let allocs = alloc::allocations();
    let (rtts, d) = deltas(&counters, || {
        let mut rtts = Vec::with_capacity(D32_BURSTS);
        for i in 0..D32_BURSTS {
            let at = i * DEPTH % (gets.len() - DEPTH);
            let t0 = now_ns();
            let resps = conn.pipeline(&gets[at..at + DEPTH])?;
            rtts.push((now_ns() - t0) as f64 / DEPTH as f64);
            if resps.len() != DEPTH {
                return Err(io::Error::other(format!(
                    "{} responses to {DEPTH} requests",
                    resps.len()
                )));
            }
        }
        Ok(rtts)
    })?;
    let requests = (D32_BURSTS * DEPTH) as f64;
    l.insert(
        "server.allocs_per_req",
        (alloc::allocations() - allocs) as f64 / requests,
    );
    drop(conn);
    server.shutdown();
    l.insert("client.rtt_d32_ns", median(&rtts));
    l.insert("server.read_syscalls_per_req", d[0] / requests);
    l.insert("server.write_syscalls_per_req", d[1] / requests);
    l.insert("server.wakeups_per_req", d[2] / requests);
    l.insert("server.frames_per_wakeup", requests / d[2].max(1.0));
    Ok(())
}
