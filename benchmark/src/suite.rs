//! Output, and the two commands that run every workload: `run` (each workload
//! in a fresh child of this binary, so no pool, counter or allocator state
//! leaks between them) and `aa` (the suite twice, compared against the bounds).

use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::gen::{Spec, WORKLOADS};
use crate::metrics::END_TO_END;
use crate::{out_dir, Options, Reported};

/// `--seconds` of `run` and `aa`: five 3 s windows.
pub const DEFAULT_SECONDS: u64 = 15;

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The machine header as JSON fields: what a number cannot be read without.
pub fn header_json(seed: u64, seconds: f64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(": ").nth(1))
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into());
    let load =
        std::fs::read_to_string("/proc/loadavg").map_or("unknown".into(), |s| s.trim().to_owned());
    format!(
        "\"seed\":\"{seed:#x}\",\"seconds\":{seconds},\"commit\":\"{}\",\"nproc\":{},\"cpu\":\"{}\",\"loadavg\":\"{}\",\"rustc\":\"{}\"",
        first_line_of("git", &["rev-parse", "--short", "HEAD"]),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu.replace('"', "'"),
        load,
        first_line_of("rustc", &["-V"]),
    )
}

pub fn print_header(spec: &Spec, opts: &Options, seconds: f64) {
    println!(
        "# workload {} (trace {}): {}",
        spec.name,
        u8::from(opts.trace),
        spec.why
    );
    println!("# {{{}}}", header_json(opts.seed, seconds));
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The metric table for people, then — as the last line — the result object.
pub fn print_result(
    spec: &Spec,
    reported: &[Reported],
    correct: bool,
    attempted: u64,
    failed: u64,
) {
    let mut line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{",
        attempted.max(1)
    );
    for (i, m) in reported.iter().enumerate() {
        let spread = m
            .spread
            .map_or(String::new(), |s| format!("  {}.spread {:.4}", m.name, s));
        let samples = if m.samples > 0 {
            format!("  n={}", m.samples)
        } else {
            String::new()
        };
        println!(
            "{:<34} {:>16.4} {:<6}{spread}{samples}",
            m.name, m.value, m.unit
        );
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            line,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            finite(m.value),
            m.unit
        );
    }
    line.push_str("}}");
    println!(
        "# {}: attempted {attempted}, failed {failed} (failed_ops_share {:.6}), outputs {}",
        spec.name,
        failed as f64 / attempted.max(1) as f64,
        if correct { "correct" } else { "WRONG" }
    );
    println!("{line}");
}

/// What `parse_result` recovers from a child's last line.
#[derive(Debug, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
}

/// Parse the result object `print_result` writes (that shape only).
pub fn parse_result(line: &str) -> Option<ResultLine> {
    let field = |key: &str| {
        let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
        Some(line[at..].split([',', '}']).next()?.trim())
    };
    let (_, body) = line.split_once("\"metrics\":{")?;
    let mut metrics = Vec::new();
    for entry in body.split("\"},").filter(|e| e.contains("\"value\":")) {
        let name = entry
            .trim_start_matches(['"', ','])
            .split('"')
            .next()?
            .to_owned();
        let value = entry
            .split("\"value\":")
            .nth(1)?
            .split(',')
            .next()?
            .parse()
            .ok()?;
        let unit = entry
            .split("\"unit\":\"")
            .nth(1)?
            .split('"')
            .next()?
            .to_owned();
        metrics.push((name, value, unit));
    }
    Some(ResultLine {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        metrics,
    })
}

/// Run one workload in a child of this binary; echo its output, return its result.
fn child(
    spec: &Spec,
    opts: &Options,
    seconds: u64,
    trace: bool,
    extra: &[&str],
) -> Result<ResultLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", spec.name, "--seed", &opts.seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(extra)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {} child: {e}", spec.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let result = stdout.lines().last().and_then(parse_result);
    result.ok_or(format!(
        "the {} child ({}) printed no result",
        spec.name, out.status
    ))
}

/// A workload's untraced result and, when asked for, its traced one.
type Results = (&'static Spec, ResultLine, Option<ResultLine>);

/// One pass over the five workloads.  Returns per workload its untraced and
/// (with `traced`) its traced result.
fn pass(opts: &Options, traced: bool) -> Result<Vec<Results>, String> {
    let seconds = opts.seconds.unwrap_or(DEFAULT_SECONDS);
    let extra: &[&str] = if opts.break_audit {
        &["--break-audit"]
    } else {
        &[]
    };
    WORKLOADS
        .iter()
        .map(|spec| {
            let plain = child(spec, opts, seconds, false, extra)?;
            let layers = if traced {
                Some(child(spec, opts, seconds, true, extra)?)
            } else {
                None
            };
            Ok((spec, plain, layers))
        })
        .collect()
}

fn metrics_json(r: &ResultLine) -> String {
    let rows: Vec<String> = r
        .metrics
        .iter()
        .map(|(n, v, u)| format!("      \"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!("{{\n{}\n    }}", rows.join(",\n"))
}

fn write_out(name: &str, text: &str) -> Result<(), String> {
    let path = out_dir().join(name);
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    Ok(())
}

/// `run`: every workload once; all metrics by name; non-zero on any failure.
pub fn run(opts: &Options) -> Result<bool, String> {
    let seconds = opts.seconds.unwrap_or(DEFAULT_SECONDS);
    let results = pass(opts, opts.trace)?;
    let mut json = format!(
        "{{\n  \"header\": {{{}}},\n  \"workloads\": {{\n",
        header_json(opts.seed, seconds as f64)
    );
    let mut ok = true;
    for (i, (spec, plain, layers)) in results.iter().enumerate() {
        ok &= plain.correct && layers.as_ref().is_none_or(|l| l.correct);
        let per_layer = layers.as_ref().map_or(String::new(), |l| {
            format!(",\n    \"per_layer\": {}", metrics_json(l))
        });
        let _ = write!(
            json,
            "  \"{}\": {{\n    \"correct\": {}, \"attempted\": {}, \"failed\": {},\n    \"end_to_end\": {}{per_layer}\n  }}{}\n",
            spec.name,
            plain.correct,
            plain.attempted,
            plain.failed,
            metrics_json(plain),
            if i + 1 == results.len() { "" } else { "," }
        );
    }
    json.push_str("  }\n}\n");
    write_out("run.json", &json)?;
    println!(
        "# suite: {}",
        if ok {
            "all workloads correct, no failed ops"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}

/// `aa`: the suite twice on one build and seed.  Every workload × end-to-end
/// metric must repeat within its bound, with nothing failed.
pub fn aa(opts: &Options) -> Result<bool, String> {
    let seconds = opts.seconds.unwrap_or(DEFAULT_SECONDS);
    let (first, second) = (pass(opts, false)?, pass(opts, false)?);
    let mut ok = true;
    let mut rows = Vec::new();
    println!("# A/A: |a-b|/a per workload and end-to-end metric, against the metric's bound");
    for ((spec, a, _), (_, b, _)) in first.iter().zip(&second) {
        ok &= a.correct && b.correct && a.failed + b.failed == 0;
        for m in &END_TO_END {
            let value = |r: &ResultLine| r.metrics.iter().find(|x| x.0 == m.name).map(|x| x.1);
            let (Some(va), Some(vb)) = (value(a), value(b)) else {
                return Err(format!("{}: no {} in a result", spec.name, m.name));
            };
            let diff = (va - vb).abs() / va;
            let within = diff <= m.bound;
            ok &= within;
            println!(
                "{:<20} {:<11} ({} is better) a {va:>14.3}  b {vb:>14.3}  diff {diff:.4}  bound {:.2}  {}",
                spec.name,
                m.name,
                m.better.label(),
                m.bound,
                if within { "ok" } else { "OUTSIDE" }
            );
            rows.push(format!(
                "    {{\"workload\": \"{}\", \"metric\": \"{}\", \"a\": {va}, \"b\": {vb}, \"diff\": {diff:.5}, \"bound\": {}, \"within\": {within}, \"failed\": {}}}",
                spec.name, m.name, m.bound, a.failed + b.failed
            ));
        }
    }
    let json = format!(
        "{{\n  \"header\": {{{}}},\n  \"ok\": {ok},\n  \"rows\": [\n{}\n  ]\n}}\n",
        header_json(opts.seed, seconds as f64),
        rows.join(",\n")
    );
    write_out("aa.json", &json)?;
    println!(
        "# A/A: {}",
        if ok {
            "every metric repeated within its bound"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = "{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{\"latency_ms\":{\"value\":1.2034,\"unit\":\"ms\"},\"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}}";
        let r = parse_result(line).unwrap();
        assert_eq!((r.correct, r.attempted, r.failed), (true, 1000, 0));
        assert_eq!(
            r.metrics,
            vec![
                ("latency_ms".to_owned(), 1.2034, "ms".to_owned()),
                ("setup_s".to_owned(), 0.8127, "s".to_owned())
            ]
        );
        assert_eq!(parse_result("# not a result"), None);
    }
}
