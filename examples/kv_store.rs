//! A concurrent key-value store serving a realistic, skewed workload: the
//! YCSB-B scenario (95% reads / 5% updates, Zipfian-distributed keys) from
//! the `workload` engine, run against the PathCAS AVL map, reporting
//! throughput per thread count and the tree's shape afterwards.
//!
//! Run with `cargo run --release --example kv_store`.  Reproducible: set
//! `PATHCAS_SEED` (decimal or `0x` hex) to vary (or pin) the key streams.

use std::time::Duration;

use mapapi::ConcurrentMap;
use pathcas_ds::PathCasAvl;
use workload::{run_scenario, scenario, RunParams};

fn main() {
    let store = PathCasAvl::new();
    let sc = scenario("ycsb-b");
    let key_range = 100_000u64;
    let seed = harness::Config::from_env().seed;

    println!("kv_store: {} ({}) on {}", sc.name, sc.summary, store.name());
    println!("| threads | Mops/s |");
    println!("|---|---|");
    for threads in [1, 2, 4] {
        let params = RunParams::standard(threads, key_range, Duration::from_millis(400), seed);
        let out = run_scenario(&store, &sc, &params);
        println!("| {threads} | {:.3} |", out.mops());
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
