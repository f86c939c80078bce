//! Declarative scenario specifications, modeled on the YCSB core workloads
//! (Cooper et al., SoCC '10) plus two PathCAS-specific scenarios.
//!
//! A [`Scenario`] names a key distribution and an operation mix in
//! per-mille weights.  "Update" follows the Setbench convention used by the
//! rest of this repository: an update is an insert-if-absent or a delete
//! with equal probability, which keeps the structure near its pre-filled
//! size.  "RMW" (YCSB-F) goes through [`mapapi::ConcurrentMap::rmw`] (the
//! PathCAS structures commit it atomically; the composed default is the
//! non-atomic read-then-write-back YCSB itself performs).  "Scan" calls the
//! native [`mapapi::ConcurrentMap::scan`] — a validated ordered range query,
//! with per-scan lengths drawn from the scenario's [`ScanLen`] distribution
//! (DESIGN.md §7).
//!
//! The four extra scenarios exercise exactly the axes where PathCAS's
//! validate-then-KCAS design should differentiate:
//!
//! * `txn-transfer` — atomic two-key read-modify-writes: a metadata lookup
//!   through `mapapi::get` composed with a 2-word [`kcas::execute`] over a
//!   shared account bank, with a conserved-sum linearizability check;
//! * `contended-hot-set` — 99% of operations on 64 keys, the hot-key regime
//!   where descriptor reuse and path validation are stress-tested;
//! * `scan-heavy` — 80% validated range scans of 8–64 keys, the
//!   composite-read regime where scans must repeatedly re-validate against
//!   concurrent updates;
//! * `service-mixed` — every operation kind at once (reads, both update
//!   flavours, RMW, and short scans), sized for the **service mode**: over
//!   the wire, mixing fixed-size point responses with variable-size scan
//!   responses inside one pipeline is what stresses batching depth (see
//!   [`crate::exec::run_scenario_batched`] and DESIGN.md §8).

use crate::dist::{DistKind, ZIPFIAN_THETA};

/// Operation-mix weights in per-mille (the six weights sum to 1000).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// `get` lookups.
    pub read: u32,
    /// Insert-if-absent of a sampled key.
    pub insert: u32,
    /// Delete of a sampled key.
    pub remove: u32,
    /// YCSB-F read-modify-write via [`mapapi::ConcurrentMap::rmw`].
    pub rmw: u32,
    /// Native validated range scan ([`mapapi::ConcurrentMap::scan`]) whose
    /// length is drawn from the scenario's [`ScanLen`] distribution.
    pub scan: u32,
    /// Atomic 2-key KCAS transfer over the account bank.
    pub transfer: u32,
}

impl Mix {
    /// Check the per-mille weights sum to 1000.
    pub fn is_valid(&self) -> bool {
        self.read + self.insert + self.remove + self.rmw + self.scan + self.transfer == 1000
    }
}

/// Per-scan length distribution for scenarios with a scan component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanLen {
    /// Every scan touches exactly this many keys (YCSB-E's fixed short
    /// scan).
    Fixed(u64),
    /// Lengths drawn uniformly from `min..=max` per scan (YCSB's
    /// `maxscanlength` with the uniform `scanlengthdistribution`).
    Uniform {
        /// Smallest scan length (≥ 1).
        min: u64,
        /// Largest scan length (≥ `min`).
        max: u64,
    },
}

impl ScanLen {
    /// True iff every drawable length is at least 1.
    pub fn is_valid(&self) -> bool {
        match *self {
            ScanLen::Fixed(n) => n >= 1,
            ScanLen::Uniform { min, max } => min >= 1 && max >= min,
        }
    }
}

/// How inserts pick their keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertKind {
    /// Insert a key drawn from the scenario's distribution (paired with
    /// removes, this keeps the structure near its pre-filled size).
    Sampled,
    /// Claim a fresh monotonically increasing key (YCSB-D/E ingest), which
    /// also advances the frontier the `latest` distribution chases.
    Fresh,
}

/// One benchmark scenario: a name, a distribution, and an operation mix.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable identifier ([`scenario`] looks scenarios up by it).
    pub name: &'static str,
    /// One-line description for docs and `--list` style output.
    pub summary: &'static str,
    /// Key distribution for reads/updates/rmw/scan-starts.
    pub dist: DistKind,
    /// Operation mix (per-mille).
    pub mix: Mix,
    /// Key selection policy for inserts.
    pub insert_kind: InsertKind,
    /// Scan-length distribution (`None` iff `mix.scan == 0`).
    pub scan_len: Option<ScanLen>,
    /// Number of accounts in the KCAS bank (only used when
    /// `mix.transfer > 0`).
    pub accounts: u64,
}

impl Scenario {
    /// True if any operation of this scenario uses the KCAS account bank.
    pub fn uses_bank(&self) -> bool {
        self.mix.transfer > 0
    }
}

/// Initial balance of every account in the `txn-transfer` bank; the
/// conserved quantity the linearizability check sums.
pub const INITIAL_BALANCE: u64 = 1_000;

/// The full scenario suite: YCSB A–F plus the two PathCAS-specific
/// scenarios. Order matches the README table.
pub fn all_scenarios() -> Vec<Scenario> {
    let zipf = DistKind::Zipfian { theta: ZIPFIAN_THETA };
    let none = Mix { read: 0, insert: 0, remove: 0, rmw: 0, scan: 0, transfer: 0 };
    vec![
        Scenario {
            name: "ycsb-a",
            summary: "update heavy: 50% read / 50% update, zipfian",
            dist: zipf,
            mix: Mix { read: 500, insert: 250, remove: 250, ..none },
            insert_kind: InsertKind::Sampled,
            scan_len: None,
            accounts: 0,
        },
        Scenario {
            name: "ycsb-b",
            summary: "read mostly: 95% read / 5% update, zipfian",
            dist: zipf,
            mix: Mix { read: 950, insert: 25, remove: 25, ..none },
            insert_kind: InsertKind::Sampled,
            scan_len: None,
            accounts: 0,
        },
        Scenario {
            name: "ycsb-c",
            summary: "read only: 100% read, zipfian",
            dist: zipf,
            mix: Mix { read: 1000, ..none },
            insert_kind: InsertKind::Sampled,
            scan_len: None,
            accounts: 0,
        },
        Scenario {
            name: "ycsb-d",
            summary: "read latest: 95% read / 5% fresh insert, latest",
            dist: DistKind::Latest { theta: ZIPFIAN_THETA },
            mix: Mix { read: 950, insert: 50, ..none },
            insert_kind: InsertKind::Fresh,
            scan_len: None,
            accounts: 0,
        },
        Scenario {
            name: "ycsb-e",
            summary: "short scans: 95% scan(16) / 5% fresh insert, zipfian",
            dist: zipf,
            mix: Mix { scan: 950, insert: 50, ..none },
            insert_kind: InsertKind::Fresh,
            scan_len: Some(ScanLen::Fixed(16)),
            accounts: 0,
        },
        Scenario {
            name: "ycsb-f",
            summary: "read-modify-write: 50% read / 50% rmw, zipfian",
            dist: zipf,
            mix: Mix { read: 500, rmw: 500, ..none },
            insert_kind: InsertKind::Sampled,
            scan_len: None,
            accounts: 0,
        },
        Scenario {
            name: "txn-transfer",
            summary: "atomic 2-key transfers: mapapi::get + 2-word kcas::execute",
            dist: DistKind::Uniform,
            mix: Mix { transfer: 1000, ..none },
            insert_kind: InsertKind::Sampled,
            scan_len: None,
            accounts: 1024,
        },
        Scenario {
            name: "contended-hot-set",
            summary: "99% of ops on 64 keys: 50% read / 50% update",
            dist: DistKind::Hotspot { hot_keys: 64, hot_permille: 990 },
            mix: Mix { read: 500, insert: 250, remove: 250, ..none },
            insert_kind: InsertKind::Sampled,
            scan_len: None,
            accounts: 0,
        },
        Scenario {
            name: "scan-heavy",
            summary: "range heavy: 80% scan(len~U[8,64]) / 10% read / 10% update, zipfian",
            dist: zipf,
            mix: Mix { read: 100, insert: 50, remove: 50, scan: 800, ..none },
            // Sampled updates keep the structure near its pre-filled size, so
            // scans repeatedly collide with in-place churn — the regime that
            // stresses per-path validation and retry.
            insert_kind: InsertKind::Sampled,
            scan_len: Some(ScanLen::Uniform { min: 8, max: 64 }),
            accounts: 0,
        },
        Scenario {
            name: "service-mixed",
            summary: "service pipeline stress: 60% read / 20% update / 10% rmw / 10% scan(8), zipfian",
            dist: zipf,
            // Every op kind in one mix: a pipelined batch interleaves
            // fixed-size point responses with variable-size scan responses,
            // which is precisely what exercises response batching.
            mix: Mix { read: 600, insert: 100, remove: 100, rmw: 100, scan: 100, ..none },
            insert_kind: InsertKind::Sampled,
            scan_len: Some(ScanLen::Fixed(8)),
            accounts: 0,
        },
        Scenario {
            name: "read-replica",
            summary: "replicated service: 92% read / 4% update / 4% scan(16) — reads fan out to followers, writes go to the primary",
            dist: zipf,
            // Read-dominated on purpose: the read side is what followers
            // scale, while the write side funnels through the primary and
            // its change stream.  No RMW — over a replica set the workload's
            // read-back check would race follower staleness by design.
            mix: Mix { read: 920, insert: 20, remove: 20, scan: 40, ..none },
            insert_kind: InsertKind::Sampled,
            scan_len: Some(ScanLen::Fixed(16)),
            accounts: 0,
        },
    ]
}

/// Look up one scenario by name.
///
/// # Panics
/// Panics if the name is unknown ([`all_scenarios`] lists the valid names).
pub fn scenario(name: &str) -> Scenario {
    all_scenarios()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("unknown scenario '{name}'"))
}

/// The paper's §5 mix (Setbench), the one every `fig*` driver runs:
/// `update_percent`% updates, half inserts and half removes, the rest reads,
/// keys uniform.  A family over the update share, so it is not in
/// [`all_scenarios`].
///
/// # Panics
/// Panics if `update_percent > 100`.
pub fn paper_mix(update_percent: u32) -> Scenario {
    assert!(update_percent <= 100, "{update_percent}% updates");
    let half = update_percent * 5; // per-mille
    Scenario {
        name: "paper",
        summary: "the paper's mix: u% update (half insert, half remove) / rest read, uniform",
        dist: DistKind::Uniform,
        mix: Mix { read: 1000 - 2 * half, insert: half, remove: half, rmw: 0, scan: 0, transfer: 0 },
        insert_kind: InsertKind::Sampled,
        scan_len: None,
        accounts: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_complete_and_valid() {
        let all = all_scenarios();
        let names: Vec<_> = all.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f", "txn-transfer",
             "contended-hot-set", "scan-heavy", "service-mixed", "read-replica"]
        );
        for s in &all {
            assert!(s.mix.is_valid(), "{}: mix must sum to 1000", s.name);
            assert_eq!(s.scan_len.is_some(), s.mix.scan > 0, "{}: scan_len iff scans", s.name);
            if let Some(sl) = s.scan_len {
                assert!(sl.is_valid(), "{}: scan lengths must be >= 1", s.name);
            }
            if s.uses_bank() {
                assert!(s.accounts >= 2, "{}: transfers need two accounts", s.name);
            }
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(scenario("ycsb-f").mix.rmw, 500);
    }

    #[test]
    #[should_panic(expected = "unknown scenario")]
    fn unknown_scenario_panics() {
        let _ = scenario("ycsb-z");
    }
}
