//! `benchmark` — end-to-end and per-layer benchmark of the CETS tuning
//! stack.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed S] [--seconds T] [--trace [0|1]] [--smoke] [--out PATH]
//! ... -- --compare BASE.jsonl NEW.jsonl
//! ```
//!
//! With `--workload` one workload runs in this process for about `T`
//! seconds (default 15) and the last line of standard output is its
//! result: `{"correct", "attempted", "failed", "metrics"}`, the
//! end-to-end metrics by default and the per-layer metrics with
//! `--trace`. The line before it holds the details (thread counts, sample
//! counts, the tail percentile used, final-configuration hashes, every
//! check). Without `--workload` every workload runs in its own child
//! process, one after another, so each reports its own peak memory.
//! `--out` appends each run's details to a JSON-lines file that
//! `--compare` reads. Any failed check exits 1. See README.md for the
//! workloads, the metrics and how the layers add up.

mod compare;
mod joint;
mod methodology;
mod probe;
mod replay;
mod report;
mod serve;
mod stats;

use report::RunResult;
use serde_json::Value;
use std::cell::Cell;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const WORKLOADS: [&str; 4] = [
    "synthetic-case3",
    "tddft-cs1",
    "serve-crash",
    "joint20-long",
];

/// Time a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Bit-exact fingerprint of a final configuration and its objective value,
/// compared between runs that must agree.
pub fn final_hash(cfg: &cets_space::Config, value: f64) -> String {
    format!("{}/{:016x}", cets_serve::config_hash(cfg), value.to_bits())
}

/// Hardware threads this process may use, as the compute layer sees them.
pub fn threads_available() -> usize {
    cets_linalg::par::available_threads()
}

/// One workload run's settings and scratch space.
pub struct RunCtx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    scratch: PathBuf,
    attempted: Cell<usize>,
}

impl RunCtx {
    /// A directory under this run's scratch space (created if missing).
    pub fn dir(&self, name: &str) -> Result<PathBuf, String> {
        let d = self.scratch.join(name);
        std::fs::create_dir_all(&d).map_err(|e| format!("create {}: {e}", d.display()))?;
        Ok(d)
    }

    /// Run units `0, 1, 2, ...` until at least `min` have run and the
    /// run's seconds have passed (smoke runs stop at `min`). Unit `i`
    /// derives its inputs from `seed + i`, so the first `min` units, which
    /// every run completes, are a function of the seed alone.
    pub fn repeat<T>(
        &self,
        min: usize,
        mut unit: impl FnMut(usize) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let start = Instant::now();
        let mut out = Vec::new();
        while out.len() < min || (!self.smoke && start.elapsed().as_secs_f64() < self.seconds) {
            self.attempted.set(self.attempted.get() + 1);
            out.push(unit(out.len())?);
        }
        Ok(out)
    }
}

/// Fill the per-layer metrics from a traced run's ledger: per-unit means
/// of every booked time and count, the maxima and percentiles, and
/// `residual_s`, the part of a unit no listed layer explains.
pub fn finish_traced(ledger: &replay::Ledger, units: usize, out: &mut RunResult) {
    let per_unit = |k: &str| ledger.sum(k) / units.max(1) as f64;
    for def in &report::PER_LAYER {
        if !out.metrics.contains_key(def.name) {
            out.set(def.name, per_unit(def.name));
        }
    }
    out.set("gp.train_n_max", ledger.maximum("gp.train_n_max"));
    let appends = ledger.samples("wal.append_us");
    out.set("wal.append_us_p50", stats::median(appends).unwrap_or(0.0));
    let (tail_p, tail) = stats::tail(appends).unwrap_or((0.0, 0.0));
    out.set("wal.append_us_tail", tail);
    out.detail("wal.append_tail_percentile", Value::Float(tail_p));
    let replay_s = ledger.sum("wal.replay_s");
    out.set(
        "wal.replay_records_per_s",
        if replay_s > 0.0 {
            ledger.sum("wal.records") / replay_s
        } else {
            0.0
        },
    );
    let leaves: f64 = report::LEAVES.iter().map(|k| per_unit(k)).sum();
    out.set("residual_s", per_unit("trace.unit_s") - leaves);
    out.detail("traced_units", Value::UInt(units as u64));
}

/// `par.speedup_t2`: the median single-thread unit time over the median
/// two-thread one. Reported as 0, with the reason in the detail record,
/// when the workload has no two-thread runs (`two` empty) or the machine
/// has fewer than two hardware threads.
pub fn set_speedup_t2(one: &[f64], two: &[f64], out: &mut RunResult) {
    let available = threads_available();
    let speedup = match (stats::median(one), stats::median(two)) {
        (Some(t1), Some(t2)) if available >= 2 => t1 / t2,
        _ => {
            let why = if two.is_empty() {
                "the workload is single-threaded".to_string()
            } else {
                format!("{available} hardware thread(s) available")
            };
            out.detail(
                "par.speedup_t2_note",
                Value::String(format!("not measured: {why}")),
            );
            0.0
        }
    };
    out.set("par.speedup_t2", speedup);
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
        out: None,
        compare: None,
    };
    let mut it = argv.iter().peekable();
    let value = |flag: &str, it: &mut std::iter::Peekable<std::slice::Iter<String>>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload", &mut it)?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?} (expected one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                let v = value("--seed", &mut it)?;
                a.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a u64"))?;
            }
            "--seconds" => {
                let v = value("--seconds", &mut it)?;
                a.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {v:?} is not a non-negative number"))?;
            }
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(value("--out", &mut it)?),
            "--compare" => {
                let base = value("--compare", &mut it)?;
                let new = value("--compare", &mut it)?;
                a.compare = Some((base, new));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn usage() {
    eprintln!(
        "usage: benchmark [--workload {}] [--seed S] [--seconds T] [--trace [0|1]] [--smoke] \
         [--out PATH]\n       benchmark --compare BASE.jsonl NEW.jsonl",
        WORKLOADS.join("|")
    );
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scratch_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    target
        .join("benchmark")
        .join("tmp")
        .join(std::process::id().to_string())
}

fn run_workload(name: &str, a: &Args) -> ExitCode {
    let scratch = Scratch(scratch_dir());
    let ctx = RunCtx {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        smoke: a.smoke,
        scratch: scratch.0.clone(),
        attempted: Cell::new(0),
    };
    // Every thread count the workloads use is explicit; nothing falls
    // back to "all cores".
    cets_linalg::par::set_global_threads(1);
    let mut out = RunResult::default();
    let outcome = match name {
        "synthetic-case3" => {
            methodology::run(methodology::Pipeline::SyntheticCase3, &ctx, &mut out)
        }
        "tddft-cs1" => methodology::run(methodology::Pipeline::TddftCase1, &ctx, &mut out),
        "serve-crash" => serve::run(&ctx, &mut out),
        _ => joint::run(&ctx, &mut out),
    };
    out.attempted = ctx.attempted.get().max(1);
    drop(scratch);
    if let Err(e) = outcome {
        eprintln!("benchmark: {name}: {e}");
        return ExitCode::FAILURE;
    }
    if !a.trace {
        match report::peak_rss_mb() {
            Ok(mb) => out.set("peak_rss_mb", mb),
            Err(e) => {
                eprintln!("benchmark: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let result = match report::result_line(&out, a.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let header = vec![
        ("workload", Value::String(name.to_string())),
        ("seed", Value::UInt(a.seed)),
        ("seconds", Value::Float(a.seconds)),
        ("trace", Value::Bool(a.trace)),
        ("smoke", Value::Bool(a.smoke)),
        ("threads_available", Value::UInt(threads_available() as u64)),
        (
            "nproc",
            report::nproc().map_or(Value::Null, |n| Value::UInt(n as u64)),
        ),
    ];
    let detail = report::detail_line(&out, header, &result);
    for c in out.checks.iter().filter(|c| !c.ok) {
        eprintln!("benchmark: {name}: check failed: {}: {}", c.name, c.detail);
    }
    if let Some(path) = &a.out {
        if let Err(e) = report::append_jsonl(path, &detail) {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    }
    match (
        serde_json::to_string(&detail),
        serde_json::to_string(&result),
    ) {
        (Ok(d), Ok(r)) => {
            println!("{d}");
            println!("{r}");
        }
        _ => return ExitCode::FAILURE,
    }
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload in its own child process, one after another.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("benchmark: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let started = Instant::now();
        let child = Command::new(&exe)
            .args(argv)
            .args(["--workload", w])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .output();
        let out = match child {
            Ok(o) => o,
            Err(e) => {
                eprintln!("benchmark: {w}: cannot start: {e}");
                ok = false;
                continue;
            }
        };
        print!("{}", String::from_utf8_lossy(&out.stdout));
        ok &= out.status.success();
        eprintln!(
            "benchmark: {w}: {} in {:.1} s",
            if out.status.success() { "ok" } else { "FAILED" },
            started.elapsed().as_secs_f64()
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(base: &str, new: &str) -> ExitCode {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
    let result = read("BENCHMARK.json")
        .and_then(|b| compare::bounds(&b))
        .and_then(|bounds| {
            let base = compare::load_runs(&read(base)?)?;
            let new = compare::load_runs(&read(new)?)?;
            compare::compare(&bounds, &base, &new)
        });
    match result {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            usage();
            return ExitCode::from(2);
        }
    };
    if let Some((base, new)) = &a.compare {
        return run_compare(base, new);
    }
    match &a.workload {
        Some(w) => run_workload(w, &a),
        None => run_all(&argv),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn trace_takes_an_optional_zero_or_one() {
        assert!(args("--trace").unwrap().trace);
        assert!(args("--trace 1 --seed 3").unwrap().trace);
        assert!(!args("--trace 0").unwrap().trace);
        let a = args("--trace --smoke").unwrap();
        assert!(a.trace && a.smoke);
    }

    #[test]
    fn run_flags_parse() {
        let a = args("--workload serve-crash --seed 7 --seconds 12 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve-crash"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, false));
        assert!(args("--workload nope").is_err());
        assert!(args("--seconds -1").is_err());
        assert!(args("--bogus").is_err());
    }
}
