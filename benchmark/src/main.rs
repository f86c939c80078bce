//! The repo benchmark.  `README.md` explains the workloads and metrics;
//! `../BENCHMARK.json` is the contract a driver runs it under.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, this process
//! benchmark run [--seed <n>] [--seconds <s>] [--traced]                 all five, one child each
//! benchmark aa  [--seed <n>] [--seconds <s>]                            the suite twice, compared
//! ```

mod alloc;
mod calib;
mod gen;
mod ladder;
mod metrics;
mod run;
mod spans;
mod stats;
mod suite;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use gen::{KeySampler, Spec, Target};
use run::{Phase, Switch, SwitchState, WindowData};
use stats::{median, quantile, spread, supported_tail};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// `setup_s` is the median of the set-ups timed in an untraced run: at least
/// `MIN_SETUPS`, then more until `SETUP_BUDGET_SECS` are spent or `MAX_SETUPS`
/// are done, so that a 60 ms set-up is repeated often enough to be steady.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_SECS: f64 = 2.0;
/// Reference lookups timed before and after each set-up (~5 ms each time).
const SETUP_REF_LOOKUPS: u64 = 16_384;
/// Timed windows per untraced run; each metric is the median over them.
const WINDOWS: usize = 5;

pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<u64>,
    pub trace: bool,
    /// Test-only: corrupt the audit's expectation, to show a failing audit fails the run.
    pub break_audit: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<(Option<String>, Options), String> {
    let mut opts = Options {
        workload: None,
        seed: gen::DEFAULT_SEED,
        seconds: None,
        trace: false,
        break_audit: false,
    };
    let mut command = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "run" | "aa" if command.is_none() => command = Some(arg.clone()),
            "--workload" => opts.workload = Some(value("a workload name")?.clone()),
            "--seed" => opts.seed = parse_u64(value("a number")?).ok_or("--seed: not a number")?,
            "--seconds" => {
                opts.seconds = Some(
                    parse_u64(value("a number")?)
                        .filter(|s| *s >= 1)
                        .ok_or("--seconds: need >= 1")?,
                )
            }
            "--trace" => opts.trace = value("0 or 1")? == "1",
            "--traced" => opts.trace = true,
            "--break-audit" => opts.break_audit = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((command, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|(command, opts)| match command.as_deref() {
        Some("run") => suite::run(&opts),
        Some("aa") => suite::aa(&opts),
        _ => match opts.workload.as_deref().map(gen::workload) {
            Some(Some(spec)) => one_workload(spec, &opts),
            Some(None) => Err(format!(
                "unknown workload; the workloads are {}",
                gen::WORKLOADS.map(|w| w.name).join(", ")
            )),
            None => Err("give --workload <name>, or the command `run` or `aa`".into()),
        },
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

pub fn out_dir() -> PathBuf {
    // Run from the repo root (as the driver does) or from the package directory.
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        "benchmark/out"
    } else {
        "out"
    }
    .into()
}

/// One printed metric.
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// `(max − min) / median` over the windows, where the value is a median of windows.
    pub spread: Option<f64>,
    /// Samples (or windows, or set-ups) behind the value.
    pub samples: u64,
}

/// Sorted latency samples of one window and the quantiles read off them.
struct Latency {
    sorted: Vec<u64>,
}

impl Latency {
    fn of(samples: &[u64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        Latency { sorted }
    }

    fn q(&self, q: f64) -> f64 {
        quantile(&self.sorted, q)
    }
}

/// Cores the workload needs: one per in-process worker; served, the generator
/// and the serving thread share `run::SERVED_CPU`, which must exist.
fn cores_needed(spec: &Spec) -> usize {
    match spec.target {
        Target::Avl | Target::Sharded => run::INPROC_THREADS,
        Target::ServedRate { .. } | Target::ServedPipelined { .. } => run::SERVED_CPU + 1,
    }
}

/// Run one workload in this process and print its result; `Ok(false)` when the
/// outputs were wrong or an op failed.
fn one_workload(spec: &'static Spec, opts: &Options) -> Result<bool, String> {
    let seconds = opts.seconds.unwrap_or(suite::DEFAULT_SECONDS) as f64;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores_needed(spec) > nproc {
        return Err(format!(
            "{} needs {} cores but the box has {nproc}",
            spec.name,
            cores_needed(spec)
        ));
    }
    // Nothing may trace until a traced window says so (the server's metric
    // registration reads PATHCAS_TRACE_SAMPLE; the switch below overrides it).
    telemetry::trace::set_sample_every(0);
    kcas::metrics::metrics();
    suite::print_header(spec, opts, seconds);

    let keys = KeySampler::new(spec.dist, spec.key_range);
    // Set-up, several times over when it is being reported.
    let mut setups = Vec::new();
    let table = Arc::new(calib::RefTable::new(spec.key_range as usize / 2));
    let mut reference = calib::RefLookups::new(
        table.clone(),
        keys.clone(),
        spec.ref_setup_lookup_ns,
        opts.seed,
    );
    let mut current = None;
    let mut spent = 0.0;
    while current.is_none()
        || !opts.trace
            && (setups.len() < MIN_SETUPS || spent < SETUP_BUDGET_SECS && setups.len() < MAX_SETUPS)
    {
        if let Some((sut, _)) = current.take() {
            run::Sut::tear_down(sut);
        }
        // The machine speed around a set-up is measured just before and after it.
        reference.slice(SETUP_REF_LOOKUPS);
        let t = Instant::now();
        current = Some(run::set_up(spec, opts.seed).map_err(|e| format!("set-up: {e}"))?);
        let secs = t.elapsed().as_secs_f64();
        reference.slice(SETUP_REF_LOOKUPS);
        setups.push((secs, reference.take().factor()));
        spent += secs;
    }
    let (mut sut, prefilled) = current.expect("at least one set-up ran");

    let warmup = Phase {
        secs: run::WARMUP_SECS,
        timed: false,
        traced: false,
    };
    let phases: Vec<Phase> = if opts.trace {
        // Untraced and traced windows alternate, so their ratio is the tracing overhead.
        let w = |traced| Phase {
            secs: seconds / 4.0,
            timed: true,
            traced,
        };
        vec![warmup, w(false), w(true), w(false), w(true)]
    } else {
        let w = Phase {
            secs: seconds / WINDOWS as f64,
            timed: true,
            traced: false,
        };
        std::iter::once(warmup)
            .chain(std::iter::repeat_n(w, WINDOWS))
            .collect()
    };
    let trees = match &sut {
        run::Sut::Avl(map) => vec![map.clone()],
        run::Sut::Sharded { shards, .. } => shards.clone(),
        run::Sut::Served { .. } => Vec::new(),
    };
    let switch = Switch::new(trees);
    let plan = run::Plan {
        spec,
        keys: &keys,
        seed: opts.seed,
        phases: &phases,
        hook: &switch,
        table: &table,
    };
    let driven = run::drive(&mut sut, &plan)
        .map_err(|e| format!("{}: the connection failed mid-run: {e}", spec.name))?;
    // The program's memory: the high-water mark less the benchmark's own
    // latency samples and reference table.
    let rss_mb = driven.rss_mb - table.bytes() as f64 / (1 << 20) as f64;

    // Audit, quiescent.
    let mut tally = driven.tally;
    if opts.break_audit {
        tally.net_count += 1;
    }
    // Every mismatch below counts as (at least) one failed op.
    let mut problems = run::audit(&mut sut, spec, prefilled, &tally);
    sut.tear_down();
    let state = switch.into_state();
    if state.sampler_on_in_untraced > 0 {
        problems.push(format!(
            "{} untraced windows ran with the program's sampler on",
            state.sampler_on_in_untraced
        ));
    }
    let mut failed = tally.failed + problems.len() as u64;
    let timed: Vec<(&Phase, &WindowData)> = phases
        .iter()
        .zip(&driven.windows)
        .filter(|(p, _)| p.timed)
        .collect();
    for (i, (_, w)) in timed.iter().enumerate() {
        if w.failed {
            problems.push(format!(
                "window {i} missed its offered rate ({:.0} req/s achieved)",
                w.rate
            ));
            failed += w.ops;
        }
    }

    let reported = if opts.trace {
        let mut layers = ladder::run(spec, &keys, opts.seed).map_err(|e| format!("ladder: {e}"))?;
        window_layers(&mut layers, &timed, &state);
        let path = out_dir().join(format!("{}.trace.jsonl", spec.name));
        spans::write_jsonl(&path, &driven.spans.spans)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "# spans: {} written to {} ({} dropped)",
            driven.spans.spans.len(),
            path.display(),
            driven.spans.dropped
        );
        for (name, t) in spans::self_times(&driven.spans.spans) {
            println!(
                "# span {name:<9} count {:>7}  mean {:>10.1} ns  self {:>10.1} ns",
                t.count,
                t.total_ns as f64 / t.count as f64,
                t.self_ns as f64 / t.count as f64
            );
        }
        metrics::PER_LAYER
            .iter()
            .map(|&(name, unit, _)| Reported {
                name,
                unit,
                value: layers.get(name).copied().unwrap_or(0.0),
                spread: None,
                samples: 0,
            })
            .collect()
    } else {
        end_to_end(spec, &timed, &setups, rss_mb)
    };

    if tally.foreign_values > 0 {
        println!("# note: {} gets returned another key's value (unvalidated key/value read in PathCasAvl::get); not counted as failed", tally.foreign_values);
    }
    for problem in &problems {
        println!("# FAILED: {problem}");
    }
    let correct = failed == 0;
    suite::print_result(spec, &reported, correct, tally.attempted, failed);
    Ok(correct)
}

/// Median ops/s, at nominal machine speed, of the traced or the untraced windows.
fn rate_of(timed: &[(&Phase, &WindowData)], traced: bool) -> f64 {
    let rates: Vec<f64> = timed
        .iter()
        .filter(|(p, _)| p.traced == traced)
        .map(|(_, w)| w.rate_at_nominal())
        .collect();
    median(&rates)
}

/// The end-to-end metrics: each the median over the timed windows, at
/// nominal machine speed (see `calib`).  The raw values are printed beside them.
fn end_to_end(
    spec: &Spec,
    timed: &[(&Phase, &WindowData)],
    setups: &[(f64, f64)],
    rss_mb: f64,
) -> Vec<Reported> {
    let lats: Vec<Latency> = timed.iter().map(|(_, w)| Latency::of(&w.lat)).collect();
    let factors: Vec<f64> = timed.iter().map(|(_, w)| w.speed.factor()).collect();
    let open_loop = matches!(spec.target, Target::ServedRate { .. });
    // Latency quantiles go by the median slice of the reference where there is one (see `calib`).
    let lat_factors: Vec<f64> = timed.iter().map(|(_, w)| w.speed.p50_factor()).collect();
    let at = |q: f64| -> Vec<f64> {
        lats.iter()
            .zip(&lat_factors)
            .map(|(l, f)| l.q(q) * f)
            .collect()
    };
    let windows = 0..timed.len();

    let raw: Vec<String> = windows
        .map(|i| {
            format!(
                "{:.0}/{:.0}/{:.3}/{:.3}",
                timed[i].1.rate,
                lats[i].q(0.5),
                factors[i],
                lat_factors[i]
            )
        })
        .collect();
    println!(
        "# windows, raw (ops_per_s/lat_p50_ns/speed factor/latency factor): {}",
        raw.join(" ")
    );
    let raw_setups: Vec<String> = setups
        .iter()
        .map(|(secs, f)| format!("{secs:.4}/{f:.3}"))
        .collect();
    println!("# set-ups, raw (s/speed factor): {}", raw_setups.join(" "));

    let samples: u64 = lats.iter().map(|l| l.sorted.len() as u64).sum();
    let ops: u64 = timed.iter().map(|(_, w)| w.ops).sum();
    let over = |name: &str, values: Vec<f64>, samples: u64| {
        let m = metrics::end_to_end(name);
        Reported {
            name: m.name,
            unit: m.unit,
            value: median(&values),
            spread: Some(spread(&values)),
            samples,
        }
    };
    let out = vec![
        over(
            "setup_s",
            setups.iter().map(|(secs, f)| secs * f).collect(),
            setups.len() as u64,
        ),
        over(
            "ops_per_s",
            timed.iter().map(|(_, w)| w.rate_at_nominal()).collect(),
            ops,
        ),
        over("lat_p50_ns", at(0.50), samples),
        Reported {
            name: "rss_mb",
            unit: "MiB",
            value: rss_mb,
            spread: None,
            samples: 1,
        },
    ];
    for (q, label) in [(0.90, "p90"), (0.99, "p99")] {
        let v = at(q);
        println!(
            "# lat_{label}_ns {:.1} ns (spread {:.3})",
            median(&v),
            spread(&v)
        );
    }
    // Beside p99, the highest percentile each window's sample still supports.
    let fewest = lats.iter().map(|l| l.sorted.len()).min().unwrap_or(0);
    if let Some((q, label)) = supported_tail(fewest) {
        let v = at(q);
        println!(
            "# lat_{label}_ns {:.1} ns (spread {:.3}): the highest percentile with >= 10 of a window's {fewest} samples beyond it",
            median(&v),
            spread(&v)
        );
    }
    if open_loop {
        let q_of = |pick: fn(&WindowData) -> &Vec<u64>, q: f64| -> f64 {
            median(
                &timed
                    .iter()
                    .map(|(_, w)| Latency::of(pick(w)).q(q))
                    .collect::<Vec<f64>>(),
            )
        };
        println!(
            "# lat_from_send_p50_ns {:.1} ns raw: what a closed-loop clock would have reported",
            q_of(|w| &w.send_lat, 0.5)
        );
        let batch: Vec<f64> = timed
            .iter()
            .map(|(_, w)| w.ops as f64 / w.calls as f64)
            .collect();
        println!(
            "# gen_lag_p99_ns {:.1} ns raw, batch_mean {:.3} requests per pipeline call",
            q_of(|w| &w.lag, 0.99),
            median(&batch)
        );
    }
    out
}

/// The per-layer numbers that come from the traced windows rather than the ladder.
fn window_layers(l: &mut ladder::Layers, timed: &[(&Phase, &WindowData)], state: &SwitchState) {
    let traced: Vec<&WindowData> = timed
        .iter()
        .filter(|(p, _)| p.traced)
        .map(|(_, w)| *w)
        .collect();
    let ops: f64 = traced.iter().map(|w| w.ops as f64).sum();
    let all = |pick: fn(&WindowData) -> &Vec<u64>| -> Latency {
        Latency::of(
            &traced
                .iter()
                .flat_map(|w| pick(w).iter().copied())
                .collect::<Vec<u64>>(),
        )
    };
    let (lat, scans, lag) = (all(|w| &w.lat), all(|w| &w.scan_lat), all(|w| &w.lag));
    l.insert("workload.gen_lag_p99_ns", lag.q(0.99));
    l.insert(
        "workload.batch_mean",
        ops / traced.iter().map(|w| w.calls as f64).sum::<f64>().max(1.0),
    );
    l.insert("kcas.ops_per_op", state.traced[0] / ops);
    l.insert("kcas.retries_per_kop", state.traced[1] / ops * 1e3);
    l.insert("kcas.helps_per_kop", state.traced[2] / ops * 1e3);
    l.insert("kcas.boxed_fallbacks", state.traced[3]);
    l.insert("pathcas-ds.restarts_per_kop", state.traced[4] / ops * 1e3);
    l.insert("pathcas-ds.rotations_per_kop", state.traced[5] / ops * 1e3);
    let slow = lat.sorted.len() - lat.sorted.partition_point(|&ns| ns <= run::SLO_NS);
    l.insert(
        "client.slo_miss_share",
        slow as f64 / lat.sorted.len().max(1) as f64,
    );
    // The tail is read off the windows that ran with tracing off.
    let untraced: Vec<u64> = timed
        .iter()
        .filter(|(p, _)| !p.traced)
        .flat_map(|(_, w)| w.lat.iter().copied())
        .collect();
    l.insert("client.lat_p99_ns", Latency::of(&untraced).q(0.99));
    l.insert("client.scan_p50_ns", scans.q(0.50));
    l.insert("client.scan_p99_ns", scans.q(0.99));
    let (untraced_rate, traced_rate) = (rate_of(timed, false), rate_of(timed, true));
    println!("# ops_per_s untraced {untraced_rate:.1}, traced {traced_rate:.1}");
    l.insert(
        "telemetry.trace_overhead_share",
        1.0 - traced_rate / untraced_rate,
    );
    let factors: Vec<f64> = timed.iter().map(|(_, w)| w.speed.factor()).collect();
    l.insert("workload.speed_factor", median(&factors));
}
