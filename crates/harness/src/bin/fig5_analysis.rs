//! Figure 5: detailed analysis of the 100% update workload at the maximum
//! thread count — throughput plus structural metrics. Hardware performance
//! counters (LLC misses, cycles, instructions) are replaced by the software
//! proxies recorded in DESIGN.md §4: average key depth, node count and
//! approximate resident memory, which are the quantities the paper uses the
//! counters to explain.

use harness::Config;
use workload::{paper_mix, run_scenario, RunParams};

fn main() {
    let cfg = Config::from_env();
    let key_range = cfg.scaled_keyrange(20_000_000);
    let threads = *cfg.threads.iter().max().unwrap_or(&4);
    let algos = [
        "int-bst-pathcas",
        "ext-bst-locks",
        "int-avl-pathcas",
        "int-avl-norec",
        "int-avl-tl2",
        "int-bst-mcms",
    ];
    println!("\n## Figure 5 — detailed analysis (100% updates, {threads} threads, {key_range} keys)");
    println!("| algorithm | Mops/s | avg key depth | keys | nodes | approx MiB |");
    println!("|---|---|---|---|---|---|");
    for name in algos {
        let params = RunParams::standard(threads, key_range, cfg.duration, cfg.seed);
        let out = run_scenario(&harness::make(name), &paper_mix(100), &params);
        let s = out.final_stats;
        println!(
            "| {name} | {:.3} | {:.2} | {} | {} | {:.2} |",
            out.mops(),
            s.avg_key_depth(),
            s.key_count,
            s.node_count,
            s.approx_bytes as f64 / (1024.0 * 1024.0),
        );
    }
}
