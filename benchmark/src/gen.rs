//! The benchmark's own op generator and the five workload definitions.
//!
//! Frozen on purpose: the load must not shift when a later change edits
//! `crates/workload`, so nothing here calls into it.  The golden tests at the
//! bottom pin the first ops of every workload for the default seed.
//!
//! Seeding is splitmix64; the Zipfian sampler is the rejection-free generator
//! of Gray et al. (SIGMOD '94) with precomputed zeta, θ = 0.99, and YCSB's FNV
//! rank scrambling so the hot keys are spread over the key space.

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// splitmix64 (Steele, Lea & Flood): one add, three xor-shift-multiplies.
#[derive(Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-40 for the
    /// ranges used here).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Derive an independent stream seed from `(seed, workload, stream index)`.
pub fn stream_seed(seed: u64, workload: &str, stream: u64) -> u64 {
    let mut h = SplitMix64::new(seed ^ fnv1a_bytes(workload.as_bytes()));
    h.next_u64() ^ SplitMix64::new(stream.wrapping_add(1)).next_u64()
}

fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const THETA: f64 = 0.99;

/// Precomputed-zeta Zipfian ranks over `0..n`.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    rank1_below: f64,
}

impl Zipf {
    pub fn new(n: u64) -> Self {
        assert!(n >= 2);
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-THETA)).sum::<f64>();
        let zetan = zeta(n);
        Zipf {
            n,
            alpha: 1.0 / (1.0 - THETA),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - THETA)) / (1.0 - zeta(2) / zetan),
            rank1_below: 1.0 + 0.5f64.powf(THETA),
        }
    }

    #[inline]
    fn rank(&self, u: f64) -> u64 {
        let uz = u * self.zetan;
        if uz < 1.0 {
            0
        } else if uz < self.rank1_below {
            1
        } else {
            ((self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64)
                .min(self.n - 1)
        }
    }
}

/// How keys are drawn from `1..=key_range`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Dist {
    Uniform,
    Zipfian,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Get,
    Insert,
    Remove,
    Rmw,
    Scan,
}

/// One generated operation; `arg` is the scan length for `Scan`, the delta for
/// `Rmw` and unused otherwise (inserts store the key as the value).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub key: u64,
    pub arg: u64,
}

/// Traffic mix in per-mille; the five shares sum to 1000.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub get: u32,
    pub insert: u32,
    pub remove: u32,
    pub rmw: u32,
    pub scan: u32,
    /// Scan lengths are uniform in `scan_len.0..=scan_len.1`.
    pub scan_len: (u64, u64),
}

/// What the ops are driven against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Target {
    /// Concrete `pathcas_ds::PathCasAvl`, called in-process.
    Avl,
    /// `shard::ShardedMap` over 8 `PathCasAvl`, called in-process.
    Sharded,
    /// Open loop at a fixed request rate over one connection, threads backend.
    ServedRate { per_second: u64 },
    /// Closed loop of pipelined bursts over one connection, reactor backend.
    ServedPipelined { depth: usize },
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub mix: Mix,
    pub dist: Dist,
    pub key_range: u64,
    pub target: Target,
    /// Nominal ns per lookup of the in-process machine-speed reference (see
    /// `calib`) on the box the baseline was taken on: while this workload's
    /// windows run (0 where the windows run no lookups) ...
    pub ref_lookup_ns: f64,
    /// ... and around its set-ups, when nothing else runs.
    pub ref_setup_lookup_ns: f64,
}

/// Shard count of every sharded structure the benchmark builds or names.
pub const SHARDS: usize = 8;
/// Registry name of the served structure.
pub const SERVED_STRUCTURE: &str = "shard8(int-avl-pathcas)";

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "inproc-read-mostly",
        why: "95% get on a 2^20-key Zipfian AVL, far larger than L2: traversal, epoch pin and cache misses do the work, kcas almost none",
        mix: Mix { get: 950, insert: 25, remove: 25, rmw: 0, scan: 0, scan_len: (0, 0) },
        dist: Dist::Zipfian,
        key_range: 1 << 20,
        target: Target::Avl,
        ref_lookup_ns: 950.0,
        ref_setup_lookup_ns: 600.0,
    },
    Spec {
        name: "inproc-update-heavy",
        why: "50/50 insert/remove, uniform over a cache-resident 100k-key AVL: every op records a path, validates and commits a KCAS, so kcas and pathcas do the work",
        mix: Mix { get: 0, insert: 500, remove: 500, rmw: 0, scan: 0, scan_len: (0, 0) },
        dist: Dist::Uniform,
        key_range: 100_000,
        target: Target::Avl,
        ref_lookup_ns: 390.0,
        ref_setup_lookup_ns: 175.0,
    },
    Spec {
        name: "inproc-scan-sharded",
        why: "80% scans of 8..64 pairs over 8 shards: the shard k-way merge and validated scans do the work, the point-op path is nearly bypassed",
        mix: Mix { get: 100, insert: 50, remove: 50, rmw: 0, scan: 800, scan_len: (8, 64) },
        dist: Dist::Zipfian,
        key_range: 100_000,
        target: Target::Sharded,
        ref_lookup_ns: 540.0,
        ref_setup_lookup_ns: 200.0,
    },
    Spec {
        name: "served-rate",
        why: "open loop at a fixed 50k req/s on the threads backend, timed from due time: syscalls, wake-ups, flush and codec do the work, the structure almost none",
        mix: Mix { get: 950, insert: 25, remove: 25, rmw: 0, scan: 0, scan_len: (0, 0) },
        dist: Dist::Zipfian,
        key_range: 100_000,
        target: Target::ServedRate { per_second: 50_000 },
        ref_lookup_ns: 0.0,
        ref_setup_lookup_ns: 200.0,
    },
    Spec {
        name: "served-pipelined",
        why: "closed loop of depth-32 bursts with RMW and SCAN(8) on the reactor: syscalls are amortised 32x, so codec, execute bookkeeping and the map op set capacity",
        mix: Mix { get: 600, insert: 100, remove: 100, rmw: 100, scan: 100, scan_len: (8, 8) },
        dist: Dist::Zipfian,
        key_range: 100_000,
        target: Target::ServedPipelined { depth: 32 },
        ref_lookup_ns: 450.0,
        ref_setup_lookup_ns: 200.0,
    },
];

pub fn workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Key sampler for one key range; build once per process (the zeta sum is
/// O(key_range)) and clone per stream.
#[derive(Clone, Debug)]
pub struct KeySampler {
    key_range: u64,
    zipf: Option<Zipf>,
}

impl KeySampler {
    pub fn new(dist: Dist, key_range: u64) -> Self {
        KeySampler {
            key_range,
            zipf: (dist == Dist::Zipfian).then(|| Zipf::new(key_range)),
        }
    }

    #[inline]
    pub fn key(&self, rng: &mut SplitMix64) -> u64 {
        match &self.zipf {
            None => 1 + rng.below(self.key_range),
            Some(z) => {
                let rank = z.rank(rng.next_f64());
                1 + fnv1a_bytes(&rank.to_le_bytes()) % self.key_range
            }
        }
    }
}

/// One deterministic op stream.
pub struct OpGen {
    rng: SplitMix64,
    keys: KeySampler,
    mix: Mix,
}

impl OpGen {
    pub fn new(seed: u64, keys: KeySampler, mix: Mix) -> Self {
        debug_assert_eq!(mix.get + mix.insert + mix.remove + mix.rmw + mix.scan, 1000);
        OpGen {
            rng: SplitMix64::new(seed),
            keys,
            mix,
        }
    }

    /// The stream of worker `stream` of `spec` under `seed`.
    pub fn for_workload(spec: &Spec, keys: &KeySampler, seed: u64, stream: u64) -> Self {
        OpGen::new(stream_seed(seed, spec.name, stream), keys.clone(), spec.mix)
    }

    #[inline]
    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.below(1000) as u32;
        let key = self.keys.key(&mut self.rng);
        let m = &self.mix;
        let (kind, arg) = if roll < m.get {
            (OpKind::Get, 0)
        } else if roll < m.get + m.insert {
            (OpKind::Insert, 0)
        } else if roll < m.get + m.insert + m.remove {
            (OpKind::Remove, 0)
        } else if roll < m.get + m.insert + m.remove + m.rmw {
            (OpKind::Rmw, 1)
        } else {
            let (lo, hi) = m.scan_len;
            (OpKind::Scan, lo + self.rng.below(hi - lo + 1))
        };
        Op { kind, key, arg }
    }
}

/// The keys prefilled before a run: uniform draws until half the range is
/// present, inserted in draw order (so the tree shape is a function of the seed).
pub fn prefill_keys(seed: u64, workload: &str, key_range: u64) -> impl Iterator<Item = u64> {
    let mut rng = SplitMix64::new(stream_seed(seed, workload, u64::MAX - 1));
    std::iter::repeat_with(move || 1 + rng.below(key_range))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_ops(name: &str, n: usize) -> Vec<(OpKind, u64, u64)> {
        let spec = workload(name).unwrap();
        let keys = KeySampler::new(spec.dist, spec.key_range);
        let mut g = OpGen::for_workload(spec, &keys, DEFAULT_SEED, 0);
        (0..n)
            .map(|_| {
                let op = g.next_op();
                (op.kind, op.key, op.arg)
            })
            .collect()
    }

    /// The generator is frozen: these are the first 16 ops of stream 0 of every
    /// workload for seed 0xC0FFEE.  A diff here means the load changed and
    /// every committed number is void.
    #[test]
    fn golden_first_16_ops() {
        for (name, want) in golden::GOLDEN {
            let got: Vec<String> = first_ops(name, 16)
                .iter()
                .map(|(k, key, arg)| format!("{k:?}:{key}:{arg}"))
                .collect();
            assert_eq!(got.join(" "), *want, "workload {name}");
        }
        assert_eq!(golden::GOLDEN.len(), WORKLOADS.len());
    }

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        assert_eq!(
            first_ops("served-pipelined", 64),
            first_ops("served-pipelined", 64)
        );
        let spec = workload("inproc-update-heavy").unwrap();
        let keys = KeySampler::new(spec.dist, spec.key_range);
        let mut a = OpGen::for_workload(spec, &keys, 1, 0);
        let mut b = OpGen::for_workload(spec, &keys, 1, 1);
        assert!((0..16).any(|_| a.next_op() != b.next_op()));
    }

    #[test]
    fn mixes_and_ranges_hold() {
        for spec in &WORKLOADS {
            let keys = KeySampler::new(spec.dist, spec.key_range);
            let mut g = OpGen::for_workload(spec, &keys, 7, 0);
            let mut scans = 0u32;
            for _ in 0..20_000 {
                let op = g.next_op();
                assert!((1..=spec.key_range).contains(&op.key));
                if op.kind == OpKind::Scan {
                    scans += 1;
                    assert!((spec.mix.scan_len.0..=spec.mix.scan_len.1).contains(&op.arg));
                }
            }
            let want = spec.mix.scan * 20;
            assert!(
                scans.abs_diff(want) <= want / 10 + 50,
                "{}: {scans} scans",
                spec.name
            );
        }
    }

    #[test]
    fn zipfian_is_skewed_and_scrambled() {
        let keys = KeySampler::new(Dist::Zipfian, 100_000);
        let mut rng = SplitMix64::new(3);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..100_000 {
            *counts.entry(keys.key(&mut rng)).or_insert(0u32) += 1;
        }
        let hottest = counts.iter().max_by_key(|(_, c)| **c).unwrap();
        // rank 0 has probability 1/zeta(1e5, 0.99) ≈ 8%, and FNV moves it off key 1.
        assert!(*hottest.1 > 5_000, "hottest key drew {}", hottest.1);
        assert_ne!(*hottest.0, 1);
    }

    mod golden {
        pub const GOLDEN: &[(&str, &str)] = &[
            (
                "inproc-read-mostly",
                "Get:62886:0 Get:973782:0 Get:577032:0 Get:266750:0 Get:692918:0 Get:506195:0 Get:990748:0 Get:526824:0 Get:855560:0 Get:955495:0 Get:247965:0 Get:135556:0 Get:811673:0 Get:656516:0 Get:114112:0 Get:51911:0",
            ),
            (
                "inproc-update-heavy",
                "Insert:37729:0 Insert:88419:0 Remove:52285:0 Insert:75148:0 Remove:28134:0 Remove:32419:0 Remove:14192:0 Insert:34495:0 Remove:36143:0 Insert:1461:0 Remove:53342:0 Remove:11879:0 Insert:33354:0 Insert:90065:0 Remove:27875:0 Insert:73566:0",
            ),
            (
                "inproc-scan-sharded",
                "Insert:26867:0 Scan:84997:27 Scan:15558:48 Insert:27361:0 Scan:43985:64 Scan:9407:16 Scan:19012:11 Insert:87914:0 Scan:51611:58 Scan:88441:9 Scan:53224:32 Scan:13648:46 Scan:49830:37 Scan:69281:17 Remove:68139:0 Scan:73836:30",
            ),
            (
                "served-rate",
                "Get:53224:0 Get:6831:0 Get:53027:0 Insert:21341:0 Get:91094:0 Get:92323:0 Get:52651:0 Get:38062:0 Get:74406:0 Get:12064:0 Get:81627:0 Get:64603:0 Get:92219:0 Get:58887:0 Get:7738:0 Get:35050:0",
            ),
            (
                "served-pipelined",
                "Get:96919:0 Get:22900:0 Scan:74406:8 Remove:53224:0 Get:30031:0 Get:48925:0 Get:21341:0 Get:20274:0 Get:53224:0 Rmw:53224:1 Get:29665:0 Rmw:75318:1 Get:94384:0 Insert:78074:0 Get:79409:0 Get:61970:0",
            ),
        ];
    }
}
