//! Timed throughput trials (the Setbench measurement loop).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mapapi::{ConcurrentMap, Key};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One workload configuration (one point of a figure).
#[derive(Debug, Clone)]
pub struct Workload {
    /// Keys are drawn uniformly from `1..=key_range`.
    pub key_range: Key,
    /// Percentage of operations that are updates (split evenly between
    /// inserts and deletes); the rest (minus `scan_percent`) are `contains`.
    pub update_percent: u32,
    /// Percentage of operations that are native validated range scans
    /// ([`mapapi::ConcurrentMap::scan`]) of `scan_len` keys from a uniformly
    /// random start.  0 in the paper's standard mixes; the scan-enabled
    /// figure sweeps set it through [`Workload::with_scans`].
    pub scan_percent: u32,
    /// Number of keys each scan requests.
    pub scan_len: usize,
    /// Number of worker threads.
    pub threads: usize,
    /// Timed duration of the trial.
    pub duration: Duration,
    /// Number of keys inserted before the timer starts (the paper pre-fills
    /// to half the key range).
    pub prefill: u64,
    /// Base seed: the prefill RNG and every worker thread's RNG derive from
    /// it, so a trial is reproducible given the same seed and thread count
    /// (set via `PATHCAS_SEED`, see [`crate::Config`]).
    pub seed: u64,
}

impl Workload {
    /// The paper's standard workload: prefill to half the key range, seeded
    /// with the default seed (override with [`Workload::with_seed`]).
    pub fn paper(key_range: Key, update_percent: u32, threads: usize, duration: Duration) -> Self {
        Workload {
            key_range,
            update_percent,
            scan_percent: 0,
            scan_len: 16,
            threads,
            duration,
            prefill: key_range / 2,
            seed: crate::DEFAULT_SEED,
        }
    }

    /// Replace the base seed (builder style), e.g. with [`crate::Config::seed`].
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Add a range-scan component (builder style): `percent` of operations
    /// become `scan(key, len)` calls, carved out of the `contains` share.
    pub fn with_scans(mut self, percent: u32, len: usize) -> Self {
        assert!(
            self.update_percent + percent <= 100,
            "update_percent + scan_percent must not exceed 100"
        );
        self.scan_percent = percent;
        self.scan_len = len;
        self
    }
}

/// The outcome of a single timed trial.
#[derive(Debug, Clone, Copy)]
pub struct TrialResult {
    /// Total completed operations across all threads.
    pub total_ops: u64,
    /// Wall-clock time actually spent in the timed region.
    pub elapsed: Duration,
}

impl TrialResult {
    /// Millions of operations per second.
    pub fn mops(&self) -> f64 {
        self.total_ops as f64 / self.elapsed.as_secs_f64() / 1e6
    }
}

/// Aggregate of several trials of the same configuration.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Mean throughput (Mops/s).
    pub avg_mops: f64,
    /// Fastest trial.
    pub max_mops: f64,
    /// Slowest trial.
    pub min_mops: f64,
    /// Total operations across all trials.
    pub total_ops: u64,
}

/// Run one timed trial of `workload` against `map`.
///
/// The map is pre-filled to `workload.prefill` keys if it is not already, so
/// repeated trials on the same map skip redundant prefilling (matching the
/// Setbench behaviour of reusing the structure across trials in a step).
pub fn run_trial<M: ConcurrentMap + ?Sized>(map: &M, workload: &Workload) -> TrialResult {
    mapapi::stress::prefill(
        map,
        workload.key_range,
        workload.prefill,
        mapapi::stress::prefill_seed(workload.seed),
    );
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(workload.threads + 1);
    let (ops, elapsed): (Vec<u64>, Duration) = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workload.threads);
        for t in 0..workload.threads {
            let stop = &stop;
            let barrier = &barrier;
            let map = &*map;
            let workload = workload.clone();
            handles.push(s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(workload.seed ^ (t as u64) << 17);
                let mut ops = 0u64;
                barrier.wait();
                // ORDERING: Relaxed — stop flag polled in a loop; the join
                // below is the real synchronization point.
                while !stop.load(Ordering::Relaxed) {
                    let key = rng.gen_range(1..=workload.key_range);
                    let roll = rng.gen_range(0..100u32);
                    if roll < workload.update_percent / 2 {
                        let _ = map.insert(key, key);
                    } else if roll < workload.update_percent {
                        let _ = map.remove(key);
                    } else if roll < workload.update_percent + workload.scan_percent {
                        let _ = map.scan(key, workload.scan_len);
                    } else {
                        let _ = map.contains(key);
                    }
                    ops += 1;
                }
                ops
            }));
        }
        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(workload.duration);
        // ORDERING: Relaxed — pairs with the Relaxed poll above; thread join
        // synchronizes the per-thread op counts.
        stop.store(true, Ordering::Relaxed);
        let ops = handles.into_iter().map(|h| h.join().expect("worker panicked")).collect();
        // Read after the join, so every counted op completed inside it.
        (ops, start.elapsed())
    });
    TrialResult { total_ops: ops.iter().sum(), elapsed }
}

/// Run `trials` trials on freshly created maps and summarize.
pub fn run_trials<M, F>(make_map: F, workload: &Workload, trials: usize) -> Summary
where
    M: ConcurrentMap,
    F: Fn() -> M,
{
    let mut mops = Vec::with_capacity(trials);
    let mut total = 0u64;
    for _ in 0..trials.max(1) {
        let map = make_map();
        let r = run_trial(&map, workload);
        mops.push(r.mops());
        total += r.total_ops;
    }
    Summary {
        avg_mops: mops.iter().sum::<f64>() / mops.len() as f64,
        max_mops: mops.iter().cloned().fold(f64::MIN, f64::max),
        min_mops: mops.iter().cloned().fold(f64::MAX, f64::min),
        total_ops: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapapi::reference::LockedBTreeMap;

    #[test]
    fn trial_measures_operations() {
        let w = Workload::paper(256, 20, 2, Duration::from_millis(50));
        let map = LockedBTreeMap::new();
        let r = run_trial(&map, &w);
        assert!(r.total_ops > 0);
        assert!(r.mops() > 0.0);
        // Prefill happened.
        assert!(map.stats().key_count > 0);
    }

    /// A map whose lookups overrun any short trial.
    struct SlowReads(LockedBTreeMap);

    impl ConcurrentMap for SlowReads {
        fn insert(&self, key: Key, value: mapapi::Value) -> bool {
            self.0.insert(key, value)
        }
        fn remove(&self, key: Key) -> bool {
            self.0.remove(key)
        }
        fn contains(&self, key: Key) -> bool {
            std::thread::sleep(Duration::from_millis(40));
            self.0.contains(key)
        }
        fn get(&self, key: Key) -> Option<mapapi::Value> {
            self.0.get(key)
        }
        fn name(&self) -> &'static str {
            "slow-reads"
        }
        fn scan_into(&self, start: Key, len: usize, out: &mut Vec<(Key, mapapi::Value)>) {
            self.0.scan_into(start, len, out)
        }
        fn stats(&self) -> mapapi::MapStats {
            self.0.stats()
        }
    }

    #[test]
    fn elapsed_covers_ops_that_overrun_the_stop_flag() {
        let w = Workload::paper(64, 0, 1, Duration::from_millis(5));
        let r = run_trial(&SlowReads(LockedBTreeMap::new()), &w);
        assert!(r.total_ops >= 1);
        assert!(r.elapsed >= Duration::from_millis(40), "elapsed {:?} is the nominal 5 ms", r.elapsed);
        assert_eq!(r.mops(), r.total_ops as f64 / r.elapsed.as_secs_f64() / 1e6);
    }

    #[test]
    fn summary_aggregates_trials() {
        let w = Workload::paper(128, 50, 2, Duration::from_millis(30));
        let s = run_trials(LockedBTreeMap::new, &w, 2);
        assert!(s.avg_mops > 0.0);
        assert!(s.max_mops >= s.min_mops);
        assert!(s.total_ops > 0);
    }

    #[test]
    fn scan_component_runs_in_trials() {
        let w = Workload::paper(256, 20, 2, Duration::from_millis(30)).with_scans(30, 8);
        assert_eq!(w.scan_percent, 30);
        let map = LockedBTreeMap::new();
        let r = run_trial(&map, &w);
        assert!(r.total_ops > 0);
    }

    #[test]
    #[should_panic(expected = "must not exceed 100")]
    fn oversubscribed_scan_share_panics() {
        let _ = Workload::paper(256, 60, 1, Duration::from_millis(1)).with_scans(50, 8);
    }
}
