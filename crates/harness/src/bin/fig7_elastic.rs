//! Figure 7 / Figure 15: elastic-transaction ("speculation-friendly") tree vs
//! a handcrafted tree at 1% updates on a large key range. Elastic STM is not
//! reproduced; its role — a transaction-structured tree losing badly to a
//! handcrafted tree even in a read-mostly workload — is played by the NOrec
//! transactional BST, compared against the handcrafted external BST and the
//! PathCAS BST (DESIGN.md §4).

use harness::{print_throughput_table, sweep, Config};

fn main() {
    let cfg = Config::from_env();
    let key_range = cfg.scaled_keyrange(20_000_000);
    let algos = ["ext-bst-locks", "int-bst-pathcas", "int-bst-norec"];
    let rows: Vec<_> = algos.iter().map(|name| sweep(&cfg, name, 1, key_range)).collect();
    print_throughput_table(
        &format!("Figure 7 — transaction-structured tree vs handcrafted trees (1% updates, {key_range} keys)"),
        &cfg.threads,
        &rows,
    );
}
