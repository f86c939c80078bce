//! Figure 6: an internal BST implemented with PathCAS vs the same tree
//! implemented with MCMS (software path), on a 100k-key tree, for a 100%
//! update and a 100% search workload. The HTM-assisted MCMS+ variant is not
//! reproducible without HTM; MCMS- (the software path) is the comparison
//! that exists on the paper's AMD machine as well.

use harness::{print_throughput_table, sweep, Config};

fn main() {
    let cfg = Config::from_env();
    let key_range = cfg.scaled_keyrange(100_000).max(10_000);
    let algos = ["int-bst-pathcas", "int-bst-mcms"];
    for (label, update_percent) in [("100% update", 100u32), ("100% search", 0u32)] {
        let rows: Vec<_> = algos.iter().map(|name| sweep(&cfg, name, update_percent, key_range)).collect();
        print_throughput_table(
            &format!("Figure 6 — PathCAS vs MCMS, {label}, {key_range} keys"),
            &cfg.threads,
            &rows,
        );
    }
}
