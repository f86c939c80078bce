//! # harness — Setbench-style benchmark harness
//!
//! Reproduces the experimental methodology of §5 of the PathCAS paper: each
//! trial pre-fills the structure to half its key range, then runs a timed
//! mixed workload of uniformly random operations and reports throughput in
//! millions of operations per second, averaged over several trials with
//! min/max recorded.
//!
//! The per-figure experiment drivers live in `src/bin/` (one binary per
//! table/figure, see DESIGN.md §2).  A trial is one
//! [`workload::run_scenario`] of [`workload::paper_mix`]; what this crate
//! adds is the [`registry`](mod@registry) of algorithm factories, the
//! `PATHCAS_*` knobs ([`Config`]) and the [`sweep`] / [`Summary`] /
//! [`print_throughput_table`] trio the tables are built from.

#![warn(missing_docs)]

pub mod alloc_count;
pub mod registry;

pub use registry::{make, registry, try_make, AlgoFactory, MAX_SHARDS};

use std::time::Duration;

/// The seed used when `PATHCAS_SEED` is unset (the historical hard-coded
/// constant, so default runs match pre-knob behaviour).
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Global knobs read from the environment so the same binaries scale from a
/// laptop-class container (the defaults) up to a large server.
///
/// * `PATHCAS_THREADS` — comma-separated thread counts (default `1,2,4,8`)
/// * `PATHCAS_DURATION_MS` — per-trial duration in milliseconds (default 500)
/// * `PATHCAS_TRIALS` — trials per configuration (default 2)
/// * `PATHCAS_KEYRANGE_SCALE` — divide the paper's key ranges by this factor
///   (default 100, i.e. "10M keys" experiments run with 100k keys)
/// * `PATHCAS_SEED` — base seed for every trial RNG, decimal or `0x` hex
///   (default `0xC0FFEE`).  Prefill contents and per-thread operation
///   streams derive from it, so two runs with the same seed (and
///   thread/duration settings) draw identical key sequences.
#[derive(Debug, Clone)]
pub struct Config {
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Duration of each timed trial.
    pub duration: Duration,
    /// Number of trials per configuration.
    pub trials: usize,
    /// Divisor applied to the paper's key-range sizes.
    pub keyrange_scale: u64,
    /// Base seed every trial RNG derives from (`PATHCAS_SEED`).
    pub seed: u64,
}

impl Config {
    /// Read the configuration from the environment (see the struct docs).
    ///
    /// # Panics
    /// Panics, naming the variable and its value, if a knob is set to
    /// something unparsable: a typoed knob must not silently run the
    /// defaults.
    pub fn from_env() -> Self {
        Config {
            threads: knob("PATHCAS_THREADS", parse_threads).unwrap_or_else(|| vec![1, 2, 4, 8]),
            duration: Duration::from_millis(knob("PATHCAS_DURATION_MS", parse_number).unwrap_or(500)),
            trials: knob("PATHCAS_TRIALS", parse_number).unwrap_or(2),
            keyrange_scale: knob("PATHCAS_KEYRANGE_SCALE", parse_number).unwrap_or(100).max(1),
            seed: knob("PATHCAS_SEED", parse_seed).unwrap_or(DEFAULT_SEED),
        }
    }

    /// Scale one of the paper's key ranges (e.g. 2×10⁷) by the configured
    /// divisor, keeping at least 1024 keys.
    pub fn scaled_keyrange(&self, paper_range: u64) -> u64 {
        (paper_range / self.keyrange_scale).max(1024)
    }
}

/// Environment variable `var` run through `parse`, `None` when unset.
fn knob<T>(var: &str, parse: fn(&str) -> Result<T, String>) -> Option<T> {
    let value = std::env::var(var).ok()?;
    Some(parse(&value).unwrap_or_else(|e| panic!("{var}={value:?}: {e}")))
}

fn parse_number<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.trim().parse().map_err(|_| "expected a non-negative integer".to_string())
}

/// Comma-separated thread counts, each at least 1.
fn parse_threads(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|t| match parse_number(t) {
            Ok(0) | Err(_) => Err(format!("'{}' is not a thread count >= 1", t.trim())),
            Ok(n) => Ok(n),
        })
        .collect()
}

/// A seed in decimal or `0x` hex — the `{:#x}` spelling seeds are printed
/// in, and the one `benchmark -- --seed` accepts.
fn parse_seed(s: &str) -> Result<u64, String> {
    let s = s.trim();
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
    .ok_or_else(|| "expected a decimal or 0x-prefixed hex u64".to_string())
}

/// Throughput over the trials of one configuration (Mops/s).
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Mean over the trials.
    pub avg_mops: f64,
    /// Slowest trial.
    pub min_mops: f64,
    /// Fastest trial.
    pub max_mops: f64,
}

/// One table row: `cfg.trials` timed trials of the paper's mix with
/// `update_percent`% updates over `key_range` keys, each on a fresh `name`
/// map, at every thread count in `cfg.threads`.
pub fn sweep(cfg: &Config, name: &str, update_percent: u32, key_range: u64) -> (String, Vec<Summary>) {
    let sc = workload::paper_mix(update_percent);
    let summaries = cfg.threads.iter().map(|&threads| {
        let params = workload::RunParams::standard(threads, key_range, cfg.duration, cfg.seed);
        let mops: Vec<f64> = (0..cfg.trials.max(1))
            .map(|_| workload::run_scenario(&make(name), &sc, &params).mops())
            .collect();
        Summary {
            avg_mops: mops.iter().sum::<f64>() / mops.len() as f64,
            min_mops: mops.iter().copied().fold(f64::INFINITY, f64::min),
            max_mops: mops.iter().copied().fold(0.0, f64::max),
        }
    });
    (name.to_string(), summaries.collect())
}

/// Print a Markdown-style table: one row per algorithm, one column per thread
/// count, entries in millions of operations per second.
pub fn print_throughput_table(
    title: &str,
    threads: &[usize],
    rows: &[(String, Vec<Summary>)],
) {
    println!("\n## {title}");
    print!("| algorithm |");
    for t in threads {
        print!(" {t} thr |");
    }
    println!();
    print!("|---|");
    for _ in threads {
        print!("---|");
    }
    println!();
    for (name, summaries) in rows {
        print!("| {name} |");
        for s in summaries {
            print!(" {:.3} ({:.3}-{:.3}) |", s.avg_mops, s.min_mops, s.max_mops);
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let c = Config::from_env();
        assert!(!c.threads.is_empty());
        assert!(c.trials >= 1);
        assert!(c.scaled_keyrange(20_000_000) >= 1024);
    }

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        assert_eq!(parse_seed("12648430"), Ok(0xC0FFEE));
        assert_eq!(parse_seed("0x7ab5"), Ok(0x7ab5));
        assert_eq!(parse_seed(" 0X7AB5 "), Ok(0x7ab5));
        for bad in ["", "0x", "7ab5", "-1", "0x10000000000000000"] {
            assert!(parse_seed(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn thread_lists_reject_any_bad_entry() {
        assert_eq!(parse_threads("1, 2,8"), Ok(vec![1, 2, 8]));
        for bad in ["1,two", "", "1,,2", "0", "2,-1"] {
            assert!(parse_threads(bad).is_err(), "{bad:?} parsed");
        }
        assert!(parse_threads("1,two").unwrap_err().contains("'two'"));
        assert_eq!(parse_number::<u64>(" 100 "), Ok(100));
        assert!(parse_number::<u64>("100ms").is_err());
    }

    #[test]
    fn scaled_keyrange_has_floor() {
        let c = Config { threads: vec![1], duration: Duration::from_millis(1), trials: 1, keyrange_scale: 1_000_000_000, seed: DEFAULT_SEED };
        assert_eq!(c.scaled_keyrange(20_000_000), 1024);
    }

    #[test]
    fn summary_aggregates_trials() {
        let c = Config { threads: vec![1, 2], duration: Duration::from_millis(30), trials: 2, keyrange_scale: 1, seed: DEFAULT_SEED };
        let (name, row) = sweep(&c, "locked-btreemap", 50, 128);
        assert_eq!(name, "locked-btreemap");
        assert_eq!(row.len(), 2, "one summary per thread count");
        for s in row {
            assert!(0.0 < s.min_mops && s.min_mops <= s.avg_mops && s.avg_mops <= s.max_mops, "{s:?}");
        }
    }
}
