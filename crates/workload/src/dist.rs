//! Key-distribution samplers.
//!
//! Every sampler is deterministic from the `StdRng` it is given: the same
//! seed produces the same key sequence, which is what makes workload runs
//! reproducible from `RunParams::seed` (and what the determinism proptests
//! assert).  All samplers emit keys in `1..=key_range` except
//! [`Sampler::Latest`], which follows a monotonically growing insertion
//! frontier exactly like YCSB's `latest` distribution.
//!
//! The Zipfian sampler is the rejection-free O(1)-per-sample generator of
//! Gray et al. ("Quickly generating billion-record synthetic databases",
//! SIGMOD '94) as popularized by YCSB's `ZipfianGenerator`: the zeta
//! normalization constants are precomputed once in `O(n)`, after which each
//! sample is a single uniform draw pushed through a closed-form inverse.
//! Ranks are then *scrambled* over the key space with an FNV-1a hash (again
//! following YCSB) so the hottest keys are spread across the structure
//! instead of clustered at its left edge.

use std::sync::atomic::{AtomicU64, Ordering};

use mapapi::Key;
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

/// Default Zipfian skew; the YCSB constant.
pub const ZIPFIAN_THETA: f64 = 0.99;

/// A precomputed Zipfian rank generator over `0..n` with skew `theta`.
///
/// Sampling is rejection-free: one uniform draw, no loops (Gray et al.).
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Precompute the zeta constants for `n` items with skew `theta`
    /// (`0 < theta < 1`; YCSB uses 0.99).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 1, "Zipfian needs at least one item");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian { n, theta, alpha, zetan, eta }
    }

    /// `zeta(n, theta) = sum_{i=1..=n} 1 / i^theta`.
    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Probability of the hottest rank (rank 0), `1 / zeta(n, theta)`.
    pub fn p_rank0(&self) -> f64 {
        1.0 / self.zetan
    }

    /// Draw a rank in `0..n`; rank 0 is the most frequent.
    pub fn next_rank(&self, rng: &mut StdRng) -> u64 {
        // One uniform draw in [0, 1).
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// FNV-1a over the 8 little-endian bytes of `x`; used to scramble Zipfian
/// ranks across the key space (the YCSB `FNVhash64` trick).
#[inline]
pub fn fnv1a(x: u64) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The declarative distribution choices a [`crate::Scenario`] can name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DistKind {
    /// Uniform over the whole key range.
    Uniform,
    /// Zipfian with the given skew, rank-scrambled over the key range.
    Zipfian {
        /// Skew parameter in `(0, 1)`; YCSB uses [`ZIPFIAN_THETA`].
        theta: f64,
    },
    /// A fraction of operations hits a small hot set at the front of the key
    /// range; the rest are uniform over the remaining (cold) keys.
    Hotspot {
        /// Size of the hot set (keys `1..=hot_keys`).
        hot_keys: u64,
        /// Per-mille of operations that target the hot set (990 = 99%).
        hot_permille: u32,
    },
    /// YCSB's `latest`: recency-skewed around a growing insertion frontier
    /// (newly inserted keys are the most popular).
    Latest {
        /// Skew of the recency Zipfian.
        theta: f64,
    },
}

/// Executor-owned state shared by every worker thread of one scenario run.
///
/// Currently this is the insertion frontier that the `latest` distribution
/// chases and that YCSB-D-style inserts advance.
#[derive(Debug)]
pub struct SharedState {
    /// The next key an insert operation will claim; `latest` reads sample
    /// backwards from (roughly) this frontier.
    pub insert_frontier: AtomicU64,
}

impl SharedState {
    /// A frontier starting just past the pre-filled key range.
    pub fn new(key_range: Key) -> Self {
        SharedState { insert_frontier: AtomicU64::new(key_range + 1) }
    }

    /// Claim a fresh key for an insert (monotone, never reused).
    pub fn claim_insert_key(&self) -> Key {
        // ORDERING: Relaxed — the RMW itself guarantees uniqueness of claimed
        // keys; no cross-key ordering is needed for a workload generator.
        self.insert_frontier.fetch_add(1, Ordering::Relaxed).min(mapapi::MAX_KEY)
    }

    /// The most recently claimed key (approximate under concurrency, exactly
    /// like YCSB's shared counter).
    pub fn latest_key(&self) -> Key {
        // ORDERING: Relaxed — an intentionally approximate read, matching
        // YCSB's shared-counter semantics.
        (self.insert_frontier.load(Ordering::Relaxed) - 1).max(1)
    }
}

/// A concrete sampler: a [`DistKind`] instantiated for one key range.
#[derive(Debug, Clone)]
pub enum Sampler {
    /// See [`DistKind::Uniform`].
    Uniform {
        /// Keys are drawn from `1..=key_range`.
        key_range: Key,
    },
    /// See [`DistKind::Zipfian`]; ranks are FNV-scrambled onto the range.
    Zipfian {
        /// The precomputed rank generator.
        zipf: Zipfian,
        /// Keys land in `1..=key_range`.
        key_range: Key,
    },
    /// See [`DistKind::Hotspot`].
    Hotspot {
        /// Keys `1..=hot_keys` form the hot set.
        hot_keys: u64,
        /// Per-mille of draws that hit the hot set.
        hot_permille: u32,
        /// Cold draws are uniform over `hot_keys+1..=key_range`.
        key_range: Key,
    },
    /// See [`DistKind::Latest`]; offsets from the shared frontier.
    Latest {
        /// Recency rank generator (rank 0 = newest key).
        zipf: Zipfian,
    },
}

impl Sampler {
    /// Instantiate `kind` for `key_range` (`key_range >= 2`).
    pub fn new(kind: DistKind, key_range: Key) -> Self {
        assert!(key_range >= 2, "need at least two keys");
        match kind {
            DistKind::Uniform => Sampler::Uniform { key_range },
            DistKind::Zipfian { theta } => {
                Sampler::Zipfian { zipf: Zipfian::new(key_range, theta), key_range }
            }
            DistKind::Hotspot { hot_keys, hot_permille } => {
                let hot_keys = hot_keys.min(key_range - 1);
                Sampler::Hotspot { hot_keys, hot_permille, key_range }
            }
            DistKind::Latest { theta } => {
                Sampler::Latest { zipf: Zipfian::new(key_range, theta) }
            }
        }
    }

    /// Draw the next key. `shared` supplies the insertion frontier for the
    /// `latest` distribution (ignored by the stationary distributions).
    pub fn next_key(&self, rng: &mut StdRng, shared: &SharedState) -> Key {
        match self {
            Sampler::Uniform { key_range } => rng.gen_range(1..=*key_range),
            Sampler::Zipfian { zipf, key_range } => {
                let rank = zipf.next_rank(rng);
                1 + fnv1a(rank) % *key_range
            }
            Sampler::Hotspot { hot_keys, hot_permille, key_range } => {
                if rng.gen_range(0..1000u32) < *hot_permille {
                    rng.gen_range(1..=*hot_keys)
                } else {
                    rng.gen_range(hot_keys + 1..=*key_range)
                }
            }
            Sampler::Latest { zipf } => {
                let newest = shared.latest_key();
                let back = zipf.next_rank(rng);
                newest.saturating_sub(back).max(1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sample_n(s: &Sampler, seed: u64, n: usize) -> Vec<Key> {
        let mut rng = StdRng::seed_from_u64(seed);
        let shared = SharedState::new(1000);
        (0..n).map(|_| s.next_key(&mut rng, &shared)).collect()
    }

    #[test]
    fn samplers_stay_in_range() {
        for kind in [
            DistKind::Uniform,
            DistKind::Zipfian { theta: ZIPFIAN_THETA },
            DistKind::Hotspot { hot_keys: 64, hot_permille: 990 },
        ] {
            let s = Sampler::new(kind, 1000);
            for k in sample_n(&s, 7, 5000) {
                assert!((1..=1000).contains(&k), "{kind:?} produced {k}");
            }
        }
        // Latest never exceeds the frontier and never goes below 1.
        let s = Sampler::new(DistKind::Latest { theta: ZIPFIAN_THETA }, 1000);
        for k in sample_n(&s, 7, 5000) {
            assert!((1..=1000).contains(&k));
        }
    }

    #[test]
    fn zipfian_rank0_probability_matches_theory() {
        let z = Zipfian::new(1000, ZIPFIAN_THETA);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let hits = (0..n).filter(|_| z.next_rank(&mut rng) == 0).count();
        let observed = hits as f64 / n as f64;
        let expected = z.p_rank0();
        assert!(
            (observed - expected).abs() < 0.015,
            "rank-0 frequency {observed:.4} vs theoretical {expected:.4}"
        );
    }

    #[test]
    fn hotspot_hits_hot_set_at_configured_rate() {
        let s = Sampler::new(DistKind::Hotspot { hot_keys: 64, hot_permille: 990 }, 100_000);
        let keys = sample_n(&s, 99, 50_000);
        let hot = keys.iter().filter(|&&k| k <= 64).count() as f64 / keys.len() as f64;
        assert!((hot - 0.99).abs() < 0.01, "hot fraction {hot}");
    }

    #[test]
    fn latest_tracks_the_frontier() {
        let s = Sampler::new(DistKind::Latest { theta: ZIPFIAN_THETA }, 1000);
        let shared = SharedState::new(1000);
        for _ in 0..100 {
            shared.claim_insert_key();
        }
        let mut rng = StdRng::seed_from_u64(5);
        let newest = shared.latest_key();
        assert_eq!(newest, 1100);
        let mut saw_near_frontier = false;
        for _ in 0..1000 {
            let k = s.next_key(&mut rng, &shared);
            assert!(k <= newest);
            if k > newest - 10 {
                saw_near_frontier = true;
            }
        }
        assert!(saw_near_frontier, "latest should favour recent keys");
    }
}
