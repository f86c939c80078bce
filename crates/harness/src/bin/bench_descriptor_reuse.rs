//! Descriptor-reuse microbenchmark (DESIGN.md §3, README "Reproducing the
//! descriptor-reuse speedup").
//!
//! Measures the same workload — each thread performs random 4-word KCAS
//! increments over a shared array — through both descriptor schemes, and
//! through the transactional fast path in front of them:
//!
//! * **reuse**: the pooled path (`kcas::execute` with the worker pinned to
//!   the software path, so that this arm measures descriptors where the CPU
//!   has RTM too), which recycles per-thread descriptor slots and performs
//!   zero per-operation heap allocations;
//! * **alloc**: the legacy baseline (`kcas::execute_alloc`), which
//!   heap-allocates a descriptor per operation and retires it through the
//!   epoch collector;
//! * **htm**: `kcas::execute` as shipped — one hardware transaction per
//!   operation, the reuse path behind it.  Skipped with a note where the CPU
//!   does not enumerate RTM.
//!
//! The binary runs under a counting global allocator and *asserts* that the
//! reuse and htm arms allocate nothing inside the timed region, then writes
//! the alloc-vs-reuse throughput comparison to `BENCH_descriptor_reuse.json`
//! (override the path with `PATHCAS_BENCH_JSON`).  Thread counts, trial
//! duration and trial count follow the usual `PATHCAS_*` knobs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use harness::alloc_count::{heap_allocations, CountingAllocator};
use harness::Config;
use kcas::{CasWord, KcasArg};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Number of shared words the workload spreads its operations over.
const WORDS: usize = 1024;
/// Width of each multi-word CAS.
const K: usize = 4;

#[derive(Clone, Copy)]
enum Arm {
    Reuse,
    Alloc,
    Htm,
}

impl Arm {
    fn name(self) -> &'static str {
        match self {
            Arm::Reuse => "reuse",
            Arm::Alloc => "alloc",
            Arm::Htm => "htm",
        }
    }
}

struct TrialOutcome {
    ops: u64,
    successes: u64,
    allocations: u64,
    elapsed_secs: f64,
}

/// One fixed-duration trial: `threads` workers hammer the shared array, the
/// allocation counter is sampled strictly inside the barrier-delimited
/// region (thread-exit bookkeeping happens outside it).
fn run_trial(arm: Arm, threads: usize, cfg: &Config) -> TrialOutcome {
    let base_seed = cfg.seed;
    let words: Vec<CasWord> = (0..WORDS).map(|_| CasWord::new(0)).collect();
    let stop = AtomicBool::new(false);
    let start_barrier = Barrier::new(threads + 1);
    let end_barrier = Barrier::new(threads + 1);
    let exit_barrier = Barrier::new(threads + 1);
    let (ops, successes, allocations, elapsed) = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let words = &words;
            let stop = &stop;
            let start_barrier = &start_barrier;
            let end_barrier = &end_barrier;
            let exit_barrier = &exit_barrier;
            handles.push(s.spawn(move || {
                kcas::software_path_only(matches!(arm, Arm::Reuse));
                let mut rng = StdRng::seed_from_u64(base_seed ^ 0xDE5C ^ ((t as u64) << 20));
                // Warm up this thread's descriptor pool, epoch participant
                // record and rng before the measured region.
                for _ in 0..64 {
                    one_op(arm, words, &mut rng);
                }
                start_barrier.wait();
                let mut ops = 0u64;
                let mut successes = 0u64;
                // ORDERING: Relaxed — a stop flag polled in a loop; the end
                // barrier below provides the actual synchronization.
                while !stop.load(Ordering::Relaxed) {
                    ops += 1;
                    if one_op(arm, words, &mut rng) {
                        successes += 1;
                    }
                }
                end_barrier.wait();
                // Hold every worker here until the main thread has sampled
                // the allocation counter: thread teardown (TLS destructors
                // returning pool slots, epoch deregistration) allocates, and
                // must not land inside the measured window.
                exit_barrier.wait();
                (ops, successes)
            }));
        }
        start_barrier.wait();
        let allocs_before = heap_allocations();
        let start = Instant::now();
        std::thread::sleep(cfg.duration);
        // ORDERING: Relaxed — pairs with the Relaxed poll above; workers
        // rendezvous at `end_barrier` for real synchronization.
        stop.store(true, Ordering::Relaxed);
        end_barrier.wait();
        // Every worker has finished its loop and is parked at exit_barrier.
        let elapsed = start.elapsed().as_secs_f64();
        let allocs_after = heap_allocations();
        exit_barrier.wait();
        let mut ops = 0u64;
        let mut successes = 0u64;
        for h in handles {
            let (o, s_) = h.join().expect("worker panicked");
            ops += o;
            successes += s_;
        }
        (ops, successes, allocs_after - allocs_before, elapsed)
    });
    TrialOutcome { ops, successes, allocations, elapsed_secs: elapsed }
}

/// One 4-word KCAS increment over random distinct indices. Returns success.
fn one_op(arm: Arm, words: &[CasWord], rng: &mut StdRng) -> bool {
    let guard = crossbeam_epoch::pin();
    let mut idx = [0usize; K];
    for i in 0..K {
        loop {
            let cand = rng.gen_range(0..words.len());
            if !idx[..i].contains(&cand) {
                idx[i] = cand;
                break;
            }
        }
    }
    let mut args = [KcasArg { addr: &words[0], old: 0, new: 0 }; K];
    for (arg, &i) in args.iter_mut().zip(idx.iter()) {
        let old = kcas::read(&words[i], &guard);
        *arg = KcasArg { addr: &words[i], old, new: old + 1 };
    }
    match arm {
        Arm::Reuse | Arm::Htm => kcas::execute(&args, &[], &guard),
        Arm::Alloc => kcas::execute_alloc(&args, &[], &guard),
    }
}

struct Row {
    threads: usize,
    reuse_mops: f64,
    alloc_mops: f64,
    reuse_allocs_per_op: f64,
    alloc_allocs_per_op: f64,
    reuse_success_rate: f64,
    /// `None` where the CPU has no RTM.
    htm_mops: Option<f64>,
}

fn main() {
    let cfg = Config::from_env();
    println!("# descriptor-reuse microbenchmark");
    println!(
        "workload: {K}-word KCAS increments over {WORDS} shared words, \
         {} trial(s) x {:?} per configuration\n",
        cfg.trials, cfg.duration
    );
    let arms: &[Arm] = if kcas::htm_available() {
        &[Arm::Reuse, Arm::Alloc, Arm::Htm]
    } else {
        println!("note: this CPU does not enumerate RTM — htm arm skipped\n");
        &[Arm::Reuse, Arm::Alloc]
    };
    let mut rows = Vec::new();
    for &threads in &cfg.threads {
        let mut per_arm = Vec::new();
        for &arm in arms {
            let mut total_ops = 0u64;
            let mut total_successes = 0u64;
            let mut total_allocs = 0u64;
            let mut mops = Vec::new();
            for _ in 0..cfg.trials.max(1) {
                let t = run_trial(arm, threads, &cfg);
                mops.push(t.ops as f64 / t.elapsed_secs / 1e6);
                total_ops += t.ops;
                total_successes += t.successes;
                total_allocs += t.allocations;
            }
            let avg_mops = mops.iter().sum::<f64>() / mops.len() as f64;
            let allocs_per_op = total_allocs as f64 / total_ops.max(1) as f64;
            if !matches!(arm, Arm::Alloc) {
                assert_eq!(
                    total_allocs,
                    0,
                    "the {} KCAS path must perform zero heap allocations \
                     inside the timed region (saw {total_allocs} over {total_ops} ops \
                     at {threads} threads)",
                    arm.name()
                );
            }
            println!(
                "{:>2} thr  {:5}: {:8.3} Mops/s  {:6.2} allocs/op  {:5.1}% success",
                threads,
                arm.name(),
                avg_mops,
                allocs_per_op,
                100.0 * total_successes as f64 / total_ops.max(1) as f64
            );
            per_arm.push((avg_mops, allocs_per_op, total_successes as f64 / total_ops.max(1) as f64));
        }
        rows.push(Row {
            threads,
            reuse_mops: per_arm[0].0,
            alloc_mops: per_arm[1].0,
            reuse_allocs_per_op: per_arm[0].1,
            alloc_allocs_per_op: per_arm[1].1,
            reuse_success_rate: per_arm[0].2,
            htm_mops: per_arm.get(2).map(|htm| htm.0),
        });
    }

    println!("\n## speedup (reuse vs alloc; htm vs reuse)");
    println!("| threads | reuse Mops/s | alloc Mops/s | speedup | alloc allocs/op | htm Mops/s | htm/reuse |");
    println!("|---|---|---|---|---|---|---|");
    for r in &rows {
        let htm = r.htm_mops.map_or("- | -".to_string(), |htm| {
            format!("{:.3} | {:.2}x", htm, htm / r.reuse_mops)
        });
        println!(
            "| {} | {:.3} | {:.3} | {:.2}x | {:.2} | {} |",
            r.threads,
            r.reuse_mops,
            r.alloc_mops,
            r.reuse_mops / r.alloc_mops,
            r.alloc_allocs_per_op,
            htm
        );
    }

    let json_path = std::env::var("PATHCAS_BENCH_JSON")
        .unwrap_or_else(|_| "BENCH_descriptor_reuse.json".to_string());
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"descriptor_reuse\",\n");
    json.push_str(&format!("  \"k\": {K},\n"));
    json.push_str(&format!("  \"words\": {WORDS},\n"));
    json.push_str(&format!("  \"duration_ms\": {},\n", cfg.duration.as_millis()));
    json.push_str(&format!("  \"trials\": {},\n", cfg.trials));
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {}, \"reuse_mops\": {:.4}, \"alloc_mops\": {:.4}, \
             \"speedup\": {:.4}, \"reuse_allocs_per_op\": {:.4}, \
             \"alloc_allocs_per_op\": {:.4}, \"reuse_success_rate\": {:.4}, \
             \"htm_mops\": {}}}{}\n",
            r.threads,
            r.reuse_mops,
            r.alloc_mops,
            r.reuse_mops / r.alloc_mops,
            r.reuse_allocs_per_op,
            r.alloc_allocs_per_op,
            r.reuse_success_rate,
            r.htm_mops.map_or("null".to_string(), |htm| format!("{htm:.4}")),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&json_path, json).expect("writing bench JSON");
    println!("\nwrote {json_path}");
}
