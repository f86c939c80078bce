//! Figure 3 (top row): unbalanced BSTs at 1%, 10% and 100% updates.
//!
//! The paper's AMD runs use 20M-key ranges; PATHCAS_KEYRANGE_SCALE shrinks
//! them to fit this machine. Of the handcrafted unbalanced baselines, the
//! ASCY-style ext-bst-locks tree is reproduced; the Ellen et al. and
//! Natarajan-Mittal lock-free external BSTs are not (DESIGN.md §4).

use harness::{print_throughput_table, sweep, Config};

fn main() {
    let cfg = Config::from_env();
    let key_range = cfg.scaled_keyrange(20_000_000);
    let algos = ["int-bst-pathcas", "ext-bst-locks", "int-bst-norec"];
    for update_percent in [1u32, 10, 100] {
        let rows: Vec<_> = algos.iter().map(|name| sweep(&cfg, name, update_percent, key_range)).collect();
        print_throughput_table(
            &format!("Figure 3 (top) — unbalanced BSTs, {update_percent}% updates, {key_range} keys"),
            &cfg.threads,
            &rows,
        );
    }
}
