//! Figure 1: AVL trees using PathCAS vs state-of-the-art transactional
//! memory. 10% updates, 1M-key trees (scaled by PATHCAS_KEYRANGE_SCALE),
//! thread sweep; values are millions of operations per second.
//!
//! Where the CPU enumerates `rtm`, the `int-avl-pathcas` row is the paper's
//! int-avl-pathcas+ (the KCAS engine commits in one hardware transaction,
//! DESIGN.md §3); elsewhere it is the software algorithm.  The HTM-assisted
//! TMs (hynorec, rhnorec) are not reproduced; the software TMs carry the
//! comparison (see DESIGN.md §4).

use harness::{print_throughput_table, sweep, Config};

fn main() {
    let cfg = Config::from_env();
    let key_range = cfg.scaled_keyrange(2_000_000);
    let algos = ["int-avl-pathcas", "int-avl-norec", "int-avl-tl2", "int-avl-tle"];
    let rows: Vec<_> = algos.iter().map(|name| sweep(&cfg, name, 10, key_range)).collect();
    print_throughput_table(
        &format!("Figure 1 — AVL on PathCAS vs TM (10% updates, {key_range} keys)"),
        &cfg.threads,
        &rows,
    );
}
