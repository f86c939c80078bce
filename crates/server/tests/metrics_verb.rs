//! The METRICS verb battery, run differentially on both backends: the
//! exposition must reconcile with client-side op counts, the per-shard
//! load section must sum to the total, the metric *name set* must be
//! identical across backends, every metric family must have a reader, and
//! version mismatches must fail semantically.
//!
//! One server test on purpose: the server counters are process-global, so
//! the assertions work in deltas and nothing else in this binary may move
//! them concurrently.  The reader matcher's own test starts no server.

mod common;

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;
use std::sync::Arc;

use common::{for_each_backend, opts, start_on};
use mapapi::reference::LockedBTreeMap;
use mapapi::ConcurrentMap;
use server::{Backend, Connection, Request, Response, Server, ServerOpts, TRACE_VERSION};
use shard::ShardedMap;

const SHARDS: usize = 4;

fn sharded() -> Arc<dyn ConcurrentMap> {
    Arc::new(ShardedMap::from_fn(SHARDS, |_| {
        Box::new(LockedBTreeMap::new()) as Box<dyn ConcurrentMap>
    }))
}

/// The value of metric `name` in an exposition (`name value` lines).
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing from exposition:\n{text}"))
}

/// Every metric name in an exposition (annotation lines excluded).
fn names(text: &str) -> BTreeSet<String> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| l.split_whitespace().next().unwrap().to_string())
        .collect()
}

/// Sum of a labeled per-shard family, e.g. `srv_shard_point_ops{shard="i"}`.
fn shard_sum(text: &str, family: &str) -> u64 {
    let lines: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with(family) && l.as_bytes().get(family.len()) == Some(&b'{'))
        .collect();
    assert_eq!(lines.len(), SHARDS, "{family}: expected one line per shard:\n{text}");
    lines.iter().map(|l| l.split_whitespace().last().unwrap().parse::<u64>().unwrap()).sum()
}

/// The sub-line suffixes a histogram expands to in the exposition.
const HISTOGRAM_SUFFIXES: [&str; 6] = ["_count", "_p50", "_p99", "_p999", "_max", "_saturated"];

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether `corpus` names `family` as a whole identifier, bare or with one
/// of the histogram suffixes (so `x_ns_sum` does not read a family `x_ns`).
fn is_read(family: &str, corpus: &str) -> bool {
    corpus.match_indices(family).any(|(at, _)| {
        let bytes = corpus.as_bytes();
        if at > 0 && is_ident(bytes[at - 1]) {
            return false;
        }
        let rest = &corpus[at + family.len()..];
        let ends = |r: &str| r.as_bytes().first().is_none_or(|&b| !is_ident(b));
        ends(rest) || HISTOGRAM_SUFFIXES.iter().any(|s| rest.strip_prefix(s).is_some_and(ends))
    })
}

/// The metric families of an exposition — names with their `{…}` labels
/// and histogram suffixes stripped — that `corpus` never names.
fn unread_families(exposition: &str, corpus: &str) -> BTreeSet<String> {
    names(exposition)
        .iter()
        .map(|name| {
            let name = name.split('{').next().unwrap();
            HISTOGRAM_SUFFIXES.iter().find_map(|s| name.strip_suffix(s)).unwrap_or(name)
        })
        .filter(|family| !is_read(family, corpus))
        .map(str::to_string)
        .collect()
}

fn push_tree(path: &Path, out: &mut String) {
    if path.is_dir() {
        let mut entries: Vec<_> = fs::read_dir(path).unwrap().map(|e| e.unwrap().path()).collect();
        entries.sort();
        for entry in entries {
            push_tree(&entry, out);
        }
    } else if let Ok(text) = fs::read_to_string(path) {
        out.push_str(&text);
        out.push('\n');
    }
}

/// Everything that may read a metric: the crates' integration tests, the
/// workspace tests and examples, the repo benchmark and the two docs.
/// Change logs and plans are not readers.
fn reader_corpus() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut corpus = String::new();
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        push_tree(&krate.unwrap().path().join("tests"), &mut corpus);
    }
    for part in ["tests", "examples", "benchmark/src", "README.md", "DESIGN.md"] {
        push_tree(&root.join(part), &mut corpus);
    }
    corpus
}

#[test]
fn reader_check_reports_an_unread_family() {
    let exposition = "# pathcas-metrics v1 backend=threads\n\
                      demo_read_total 4\n\
                      demo_lat_ns_count 2\n\
                      demo_lat_ns_p999 9\n\
                      demo_shard_ops{shard=\"0\"} 1\n\
                      demo_unread_ns_count 1\n\
                      demo_unread_ns_max 7\n";
    let corpus = "value(\"demo_read_total\"); `demo_lat_ns_p99`; shard_sum(t, \"demo_shard_ops\");\n\
                  demo_unread_ns_sum xdemo_unread_ns demo_unread_nsx";
    let unread: Vec<String> = unread_families(exposition, corpus).into_iter().collect();
    assert_eq!(unread, ["demo_unread_ns"]);
}

/// Restores the process-global sampling period, even if the test fails.
struct Restore;

impl Drop for Restore {
    fn drop(&mut self) {
        telemetry::trace::set_sample_every(telemetry::trace::DEFAULT_SAMPLE_EVERY);
    }
}

#[test]
fn metrics_reconcile_on_both_backends() {
    // `srv_op_ns` times only the frames the sampler admits: admit them all.
    let _restore = Restore;
    telemetry::trace::set_sample_every(1);
    let corpus = reader_corpus();
    let per_backend_names: std::sync::Mutex<Vec<BTreeSet<String>>> = std::sync::Mutex::new(Vec::new());

    for_each_backend(|backend| {
        let map = sharded();
        let server = start_on(Arc::clone(&map), backend);
        let mut conn = Connection::connect(server.local_addr()).expect("connect");

        let before = conn.metrics().expect("baseline METRICS");
        assert!(
            before.starts_with(&format!("# pathcas-metrics v1 backend={}\n", backend.label())),
            "version/backend header missing:\n{before}"
        );

        // Known traffic, pipelined: 300 PUT, 500 GET, 50 RMW, 100 DEL
        // (some misses — executed is executed), 2 SCAN, 1 STATS, 3 TRACE.
        let mut reqs = Vec::new();
        reqs.extend((1..=300u64).map(|k| Request::Put(k, k)));
        reqs.extend((1..=500u64).map(Request::Get));
        reqs.extend((1..=50u64).map(|k| Request::Rmw(k, 1)));
        reqs.extend((251..=350u64).map(Request::Del));
        reqs.push(Request::Scan(0, 1000));
        reqs.push(Request::Scan(0, 10));
        reqs.push(Request::Stats);
        reqs.extend([Request::Trace(TRACE_VERSION); 3]);
        let resps = conn.pipeline(&reqs).expect("pipeline");
        assert_eq!(resps.len(), reqs.len());

        let after = conn.metrics().expect("METRICS after traffic");

        // Every per-verb counter reconciles exactly with what we sent.  The
        // baseline METRICS call is accounted *after* it rendered, so its own
        // tick shows up in the second exposition.
        let sent = [
            ("srv_ops_put_total", 300),
            ("srv_ops_get_total", 500),
            ("srv_ops_rmw_total", 50),
            ("srv_ops_del_total", 100),
            ("srv_ops_scan_total", 2),
            ("srv_ops_stats_total", 1),
            ("srv_ops_metrics_total", 1),
            ("srv_ops_trace_total", 3),
        ];
        for (name, count) in sent {
            let delta = metric(&after, name) - metric(&before, name);
            assert_eq!(delta, count, "{name} delta != client-side count");
        }
        let counted: BTreeSet<String> = sent.iter().map(|(name, _)| name.to_string()).collect();
        let exposed: BTreeSet<String> =
            names(&after).into_iter().filter(|n| n.starts_with("srv_ops_")).collect();
        assert_eq!(exposed, counted, "a per-verb counter the reconciliation does not check");
        // Latency histogram: with every frame sampled, one sample per
        // executed op (956 traffic ops plus the baseline METRICS).
        let op_samples = metric(&after, "srv_op_ns_count") - metric(&before, "srv_op_ns_count");
        assert!(op_samples >= 957, "op latency histogram missed samples");
        // And exactly one per sampled frame.  A METRICS frame is admitted by
        // the sampler when it is decoded, before it renders, but records its
        // sample after: each exposition's `trace_sampled_total` counts its
        // own frame and its `srv_op_ns_count` does not.  Both expositions
        // are off by that one frame, so the deltas are equal.
        let sampled =
            metric(&after, "trace_sampled_total") - metric(&before, "trace_sampled_total");
        assert_eq!(op_samples, sampled, "srv_op_ns must hold one sample per sampled frame");
        // This connection was accepted.
        assert!(
            metric(&after, "srv_conns_accepted_total")
                >= metric(&before, "srv_conns_accepted_total").max(1)
        );

        // Per-shard loads (fresh map, so absolute values) sum to the map-
        // level totals: 950 point ops, and one inner scan call per shard the
        // scan reached.  The map holds keys 1..=250 by then, fewer than
        // SCAN(0, 1000) asks for, so that scan asks every shard once and each
        // comes back short.  SCAN(0, 10) stays in the first 128-key block;
        // the serving thread's first scan measured how dense the keys are,
        // so the second asks the block's owner once, for all 10 pairs.
        assert_eq!(shard_sum(&after, "srv_shard_point_ops"), 950);
        assert_eq!(shard_sum(&after, "srv_shard_scan_ops"), SHARDS as u64 + 1);

        // The reactor counter group only moves under the reactor backend
        // (Threads runs first in Backend::ALL, so this also proves the
        // threaded path never touches them).
        let reads = metric(&after, "reactor_read_syscalls_total")
            - metric(&before, "reactor_read_syscalls_total");
        let writes = metric(&after, "reactor_write_syscalls_total")
            - metric(&before, "reactor_write_syscalls_total");
        match backend {
            Backend::Threads => assert_eq!((reads, writes), (0, 0)),
            Backend::Reactor => {
                assert!(reads > 0 && writes > 0, "reactor served without syscalls?");
                assert!(
                    metric(&after, "reactor_wakeups_total")
                        > metric(&before, "reactor_wakeups_total")
                );
                assert!(metric(&after, "reactor_frames_per_wakeup_count") > 0);
            }
        }

        // Eager registration: subsystem names are present even though this
        // map is no KCAS structure and nothing replicated.
        let set = names(&after);
        for expected in [
            "kcas_ops_total",
            "kcas_retries_total",
            "kcas_htm_fallbacks_total",
            "kcas_htm_available",
            "replica_log_seqno",
        ] {
            assert!(set.contains(expected), "{expected} not registered");
        }
        per_backend_names.lock().unwrap().push(set);

        // Every family has a reader: a test, the benchmark or a doc names
        // it, or it is dead weight on the path that records it.
        let unread = unread_families(&after, &corpus);
        assert!(unread.is_empty(), "metric families nothing reads: {unread:?}");

        // A stale client version is a semantic error, not a hangup: the
        // connection survives and answers the next request.
        match conn.request(&Request::Metrics(99)).expect("version mismatch roundtrip") {
            Response::Err(msg) => assert!(msg.contains("version 99"), "odd error: {msg}"),
            other => panic!("METRICS v99 answered with {other:?}"),
        }
        assert!(matches!(conn.request(&Request::Get(1)), Ok(Response::Get(Some(2)))));

        server.shutdown();
    });

    // Both backends expose the identical metric-name set.
    let per_backend_names = per_backend_names.into_inner().unwrap();
    assert_eq!(per_backend_names.len(), 2);
    assert_eq!(
        per_backend_names[0], per_backend_names[1],
        "metric name sets diverge across backends"
    );

    // And a read-only follower front-end still answers METRICS (it is a
    // read verb), while rejecting writes.
    let server = Server::start_with(
        sharded(),
        ServerOpts { read_only: true, ..opts(Backend::Reactor) },
        "127.0.0.1:0",
    )
    .expect("bind read-only");
    let mut conn = Connection::connect(server.local_addr()).expect("connect");
    assert!(conn.metrics().unwrap().contains("srv_ops_get_total"));
    assert!(matches!(conn.request(&Request::Put(1, 1)), Ok(Response::Err(_))));
    server.shutdown();
}
