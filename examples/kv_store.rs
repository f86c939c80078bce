//! A concurrent key-value store serving a realistic, skewed workload: the
//! YCSB-B scenario (95% reads / 5% updates, Zipfian-distributed keys) from
//! the `workload` engine, run against the PathCAS AVL map, reporting
//! throughput *and* the per-operation latency percentile table — the
//! numbers an online service actually provisions against.
//!
//! Run with `cargo run --release --example kv_store`.  Reproducible: set
//! `PATHCAS_SEED` (decimal or `0x` hex) to vary (or pin) the key streams.

use std::time::Duration;

use mapapi::ConcurrentMap;
use pathcas_ds::PathCasAvl;
use workload::{fmt_ns, run_scenario, scenario, RunParams};

fn main() {
    let store = PathCasAvl::new();
    let sc = scenario("ycsb-b");
    let key_range = 100_000u64;
    let seed = harness::Config::from_env().seed;

    println!("kv_store: {} ({}) on {}", sc.name, sc.summary, store.name());
    println!("| threads | Mops/s | p50 | p90 | p99 | p99.9 | max |");
    println!("|---|---|---|---|---|---|---|");
    for threads in [1, 2, 4] {
        let params = RunParams::standard(threads, key_range, Duration::from_millis(400), seed);
        let out = run_scenario(&store, &sc, &params);
        let p = out.hist.percentiles();
        println!(
            "| {} | {:.3} | {} | {} | {} | {} | {} |",
            threads,
            out.mops(),
            fmt_ns(p.p50),
            fmt_ns(p.p90),
            fmt_ns(p.p99),
            fmt_ns(p.p999),
            fmt_ns(out.hist.max()),
        );
    }

    let stats = store.stats();
    store.check_invariants();
    println!(
        "\n{} live keys, ~{:.1} MiB resident, avg key depth {:.1}",
        stats.key_count,
        stats.approx_bytes as f64 / (1024.0 * 1024.0),
        stats.avg_key_depth()
    );
}
