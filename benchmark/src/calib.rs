//! The machine-speed references.
//!
//! The box this benchmark runs on is a shared two-vCPU VM.  Its cores change
//! speed by 10–25 % in plateaus of seconds to minutes, and the cost of a
//! syscall or a wake-up swings by up to 2x, so raw numbers repeat no better
//! than that: ten runs of one build spread (interquartile range over median)
//! by 13–21 % in-process and by up to 45 % served.
//!
//! Every driver therefore interleaves its ops with short timed slices of a
//! **reference** — frozen work the benchmark owns, of the same kind as the
//! workload, on the same threads and cores — and every end-to-end time is
//! reported as if the reference had run at its nominal speed:
//!
//! * in-process, [`RefLookups`]: bisections over sorted 64-byte records, as
//!   many records as the structure holds keys, with keys drawn from the
//!   workload's own distribution (the same cache footprint and locality);
//! * served, [`Echo`]: one-byte round trips over loopback TCP to an echo thread
//!   on the served core (the syscalls, loopback stack and context switches a
//!   request pays, and nothing of the program).  A depth-32 burst spends about
//!   a sixth of its time there and the rest in the codec and the structure, so
//!   the closed loop runs the two references side by side in those shares —
//!   one round trip and 64 lookups — and they count as one: nominal time over
//!   measured time.  Over twelve runs the echo alone left `served-pipelined`
//!   spread by 7 % (20 % from lowest to highest), the pair by 4 % (8 %).
//!
//! Reference time is excluded from the measured time.  Measured against the
//! same ten runs, normalising cut the spread to 5–10 % in-process and 3–4 %
//! served.  The raw values and the speed factor are printed beside every
//! result, so nothing is hidden, and a change to the program still moves the
//! normalised number in full: no reference runs any program code.
//!
//! A throughput goes by the reference's mean.  An in-process median latency
//! goes by the reference's *median* slice ([`Speed::p50_factor`]): when the
//! host takes a vCPU away, throughput and the mean slice lose the gap, but the
//! median op and the median slice do not (a window at half speed showed a raw
//! `lat_p50_ns` no higher than its neighbours').  Served latencies go by the
//! mean, which repeated better there (4 % against 7 %).

use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::gen::{KeySampler, SplitMix64};
use crate::run::now_ns;

/// Nominal duration of one echo round trip on the box the baseline was taken
/// on.  Like `Spec::ref_lookup_ns`, any constant would do; these keep
/// normalised values close to raw ones.
pub const NOMINAL_ECHO_NS: f64 = 6_000.0;

/// Reference work done: what it nominally takes and what it took.
#[derive(Default, Clone, Copy, Debug)]
pub struct Speed {
    pub nominal_ns: f64,
    pub ns: u64,
    /// Nominal over measured time of the *median* slice; 0 where the slices
    /// are not kept apart.
    pub p50: f64,
}

impl Speed {
    /// Measured speed over nominal speed; 1 when nothing was measured.
    pub fn factor(&self) -> f64 {
        if self.ns == 0 {
            1.0
        } else {
            self.nominal_ns / self.ns as f64
        }
    }

    /// The factor for a median latency: the median slice's where there is one.
    /// When the host takes a vCPU away for a while, the gap lands in the mean
    /// of the reference and in the throughput, but in the median of neither
    /// the reference nor the op.
    pub fn p50_factor(&self) -> f64 {
        if self.p50 > 0.0 {
            self.p50
        } else {
            self.factor()
        }
    }

    /// Add reference work of the same phase: another thread's, or another
    /// reference's (nominal times and measured times both add up).
    pub fn absorb(&mut self, other: Speed) {
        if other.ns == 0 {
            return;
        }
        if self.ns == 0 {
            *self = other;
            return;
        }
        // A median slice only where every part has one.
        self.p50 = if self.p50 > 0.0 && other.p50 > 0.0 {
            (self.p50 * self.nominal_ns + other.p50 * other.nominal_ns)
                / (self.nominal_ns + other.nominal_ns)
        } else {
            0.0
        };
        self.nominal_ns += other.nominal_ns;
        self.ns += other.ns;
    }
}

/// The in-process reference structure: sorted 64-byte records, one per cache
/// line like a tree node, holding the even keys `2, 4, ..`.
pub struct RefTable {
    records: Vec<[u64; 8]>,
}

impl RefTable {
    pub fn new(records: usize) -> Self {
        RefTable {
            records: (1..=records as u64)
                .map(|i| [2 * i, 0, 0, 0, 0, 0, 0, 0])
                .collect(),
        }
    }

    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.records[..])
    }

    #[inline]
    fn rank(&self, key: u64) -> usize {
        let (mut lo, mut hi) = (0, self.records.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.records[mid][0] < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// One thread's timed lookups in the shared [`RefTable`].
pub struct RefLookups {
    table: Arc<RefTable>,
    keys: KeySampler,
    rng: SplitMix64,
    nominal_lookup_ns: f64,
    /// Lookups done and the time they took since the last `take` ...
    units: u64,
    ns: u64,
    /// ... and each slice's time per lookup.
    slices: Vec<f32>,
}

impl RefLookups {
    pub fn new(table: Arc<RefTable>, keys: KeySampler, nominal_lookup_ns: f64, seed: u64) -> Self {
        RefLookups {
            table,
            keys,
            rng: SplitMix64::new(seed),
            nominal_lookup_ns,
            units: 0,
            ns: 0,
            slices: Vec::new(),
        }
    }

    /// Run and time `lookups` bisections; returns the time it ended.
    #[inline(never)]
    pub fn slice(&mut self, lookups: u64) -> u64 {
        let t0 = now_ns();
        let mut sink = 0;
        for _ in 0..lookups {
            sink ^= self.table.rank(self.keys.key(&mut self.rng));
        }
        black_box(sink);
        let t1 = now_ns();
        self.ns += t1 - t0;
        self.units += lookups;
        self.slices.push((t1 - t0) as f32 / lookups as f32);
        t1
    }

    /// What was measured since the last call, which it forgets.
    pub fn take(&mut self) -> Speed {
        self.slices.sort_unstable_by(f32::total_cmp);
        let median = self.slices.get(self.slices.len() / 2).copied();
        self.slices.clear();
        Speed {
            nominal_ns: std::mem::take(&mut self.units) as f64 * self.nominal_lookup_ns,
            ns: std::mem::take(&mut self.ns),
            p50: median.map_or(0.0, |ns| self.nominal_lookup_ns / ns as f64),
        }
    }
}

/// The served reference: a loopback connection to an echo thread.  Start it
/// after the caller is pinned, so the echo thread inherits the served core.
pub struct Echo {
    stream: TcpStream,
    server: Option<JoinHandle<()>>,
    /// Round trips done and the time they took since the last `take`.
    units: u64,
    ns: u64,
}

impl Echo {
    pub fn start() -> io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let server = std::thread::spawn(move || {
            if let Ok((mut peer, _)) = listener.accept() {
                let _ = peer.set_nodelay(true);
                let mut byte = [0u8; 1];
                while peer.read_exact(&mut byte).is_ok() && peer.write_all(&byte).is_ok() {}
            }
        });
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Echo {
            stream,
            server: Some(server),
            units: 0,
            ns: 0,
        })
    }

    /// Run and time `n` round trips.
    pub fn ping(&mut self, n: u64) -> io::Result<()> {
        let t0 = now_ns();
        let mut byte = [7u8; 1];
        for _ in 0..n {
            self.stream.write_all(&byte)?;
            self.stream.read_exact(&mut byte)?;
        }
        self.ns += now_ns() - t0;
        self.units += n;
        Ok(())
    }

    /// What was measured since the last call, which it forgets.
    pub fn take(&mut self) -> Speed {
        Speed {
            nominal_ns: std::mem::take(&mut self.units) as f64 * NOMINAL_ECHO_NS,
            ns: std::mem::take(&mut self.ns),
            p50: 0.0,
        }
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        // The echo thread ends at EOF; errors here have nowhere to go.
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Dist;

    #[test]
    fn speed_factor_is_nominal_over_measured() {
        assert_eq!(Speed::default().factor(), 1.0);
        // Work of nominally 1000 ns took 500 ns: the machine ran at twice nominal speed.
        let mut s = Speed {
            nominal_ns: 1000.0,
            ns: 500,
            p50: 0.0,
        };
        assert!((s.factor() - 2.0).abs() < 1e-12);
        // Without a median slice, latencies go by the mean.
        assert_eq!(s.p50_factor(), s.factor());
        // A second reference beside it: nominal and measured times both add up.
        s.absorb(Speed {
            nominal_ns: 1000.0,
            ns: 1500,
            p50: 0.5,
        });
        assert!((s.factor() - 1.0).abs() < 1e-12);
        assert_eq!(s.p50_factor(), s.factor());
    }

    #[test]
    fn threads_merge_their_median_slices() {
        let half = Speed {
            nominal_ns: 100.0,
            ns: 100,
            p50: 1.2,
        };
        let mut s = Speed::default();
        s.absorb(half);
        s.absorb(Speed { p50: 0.8, ..half });
        assert!((s.p50_factor() - 1.0).abs() < 1e-12 && s.factor() == 1.0);
    }

    #[test]
    fn reference_lookups_bisect_and_are_timed() {
        let table = Arc::new(RefTable::new(1000));
        assert_eq!(
            (
                table.rank(1),
                table.rank(2),
                table.rank(3),
                table.rank(2001)
            ),
            (0, 0, 1, 1000)
        );
        assert_eq!(table.bytes(), 64_000);
        let mut r = RefLookups::new(table, KeySampler::new(Dist::Uniform, 2000), 250.0, 1);
        r.slice(64);
        r.slice(64);
        let took = r.take();
        assert!(took.nominal_ns == 128.0 * 250.0 && took.ns > 0 && took.p50 > 0.0);
        assert_eq!(r.take().ns, 0);
    }

    #[test]
    fn echo_round_trips_and_joins() {
        let mut echo = Echo::start().unwrap();
        echo.ping(8).unwrap();
        let took = echo.take();
        assert!(took.nominal_ns == 8.0 * NOMINAL_ECHO_NS && took.ns > 0 && took.p50 == 0.0);
        drop(echo);
    }
}
