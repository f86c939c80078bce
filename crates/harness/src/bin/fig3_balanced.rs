//! Figure 3 (bottom row): balanced BSTs at 1%, 10% and 100% updates.
//!
//! The BCCO optimistic AVL (pext-avl-occ) and the LLX/SCX chromatic tree are
//! not reproduced; the comparison runs int-avl-pathcas against the
//! transactional AVL trees and the handcrafted external BST as a reference
//! point (DESIGN.md §4 records the substitution).

use harness::{print_throughput_table, sweep, Config};

fn main() {
    let cfg = Config::from_env();
    let key_range = cfg.scaled_keyrange(20_000_000);
    let algos = ["int-avl-pathcas", "int-avl-norec", "int-avl-tl2", "ext-bst-locks"];
    for update_percent in [1u32, 10, 100] {
        let rows: Vec<_> = algos.iter().map(|name| sweep(&cfg, name, update_percent, key_range)).collect();
        print_throughput_table(
            &format!("Figure 3 (bottom) — balanced BSTs, {update_percent}% updates, {key_range} keys"),
            &cfg.threads,
            &rows,
        );
    }
}
