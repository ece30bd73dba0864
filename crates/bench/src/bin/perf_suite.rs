//! `perf_suite` — the repo's performance-trajectory harness.
//!
//! Times the BO/GP hot path (GP hyperparameter training, batch prediction,
//! acquisition proposal) plus one full `Methodology::run` on a synthetic
//! 20-dimensional objective, and writes the results to `BENCH_bo.json` at
//! the repo root so every PR has a perf trajectory to compare against.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p cets-bench --bin perf_suite                     # measure, merge into BENCH_bo.json
//! cargo run --release -p cets-bench --bin perf_suite -- --record-baseline # (re)record the baseline section
//! cargo run --release -p cets-bench --bin perf_suite -- --smoke          # tiny sizes, separate output, CI gate
//! cargo run --release -p cets-bench --bin perf_suite -- --out path.json  # custom output path
//! ```
//!
//! Normal runs load the existing file (if any), keep its `baseline`
//! section, fill `current` and recompute the `speedup` ratios
//! (`baseline.median_ms / current.median_ms` per benchmark). `--smoke`
//! runs reduced sizes and, unless `--out` is given, writes to
//! `target/bench_smoke.json` so it never perturbs the real trajectory;
//! every mode re-reads and validates the JSON it wrote before exiting 0.

// Platform-stable FNV-1a (std's `DefaultHasher` is not guaranteed stable
// across releases, and the hash lands in committed JSON).
use cets_core::framelog::fnv1a;
use cets_core::{BoConfig, BoSearch, Methodology, MethodologyConfig, Objective, VariationPolicy};
use cets_gp::{select_inducing, Gp, GpConfig, Kernel, KernelKind, SparseGp, Surrogate, TierPolicy};
use cets_linalg::ParConfig;
use cets_space::{SearchSpace, Subspace};
use cets_synthetic::{SyntheticCase, SyntheticFunction};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde_json::Value;
use std::time::Instant;

/// Build a JSON object from `(key, value)` pairs (the vendored serde facade
/// represents objects as ordered `Vec<(String, Value)>`).
fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Harness-level result: every failure is a message plus exit code 1.
type BenchResult<T> = std::result::Result<T, String>;

/// Schema identifier written into (and checked back out of) the JSON.
const SCHEMA: &str = "cets-perf-trajectory/1";
/// Input dimensionality of every GP benchmark (the paper's 20 parameters).
const DIM: usize = 20;

struct Args {
    smoke: bool,
    record_baseline: bool,
    out: Option<String>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let mut a = Args {
        smoke: false,
        record_baseline: false,
        out: None,
    };
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--smoke" => a.smoke = true,
            "--record-baseline" => a.record_baseline = true,
            "--out" => {
                a.out = argv.get(i + 1).cloned();
                i += 1;
            }
            other => {
                eprintln!("perf_suite: unknown argument `{other}`");
                eprintln!("usage: perf_suite [--smoke] [--record-baseline] [--out PATH]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    a
}

/// One benchmark measurement.
struct Measure {
    id: &'static str,
    median_ms: f64,
    evals_per_sec: f64,
    /// What one "eval" means for this benchmark.
    eval_unit: &'static str,
    reps: usize,
    /// Worker-thread budget the benchmark was pinned to (`ParConfig::fixed`);
    /// results are bit-identical across values, only the timing changes.
    threads_used: usize,
    /// Benchmark-specific extra fields merged into the JSON entry (e.g. the
    /// sparse-tier benches record the exact-GP cost extrapolation they beat).
    extra: Vec<(&'static str, Value)>,
}

fn median_ms(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Deterministic pseudo-random regression data set on the unit cube: a
/// smooth anisotropic test function with a mild pairwise interaction, so GP
/// training has real structure to fit (not pure noise).
fn dataset(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..DIM).map(|_| rng.random::<f64>()).collect())
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| {
            let smooth: f64 = x
                .iter()
                .enumerate()
                .map(|(i, &v)| ((i + 1) as f64 * v).sin() / (i + 1) as f64)
                .sum();
            smooth + 0.5 * x[0] * x[1]
        })
        .collect();
    (xs, ys)
}

/// Time `Gp::train` (multi-start L-BFGS over the LML) at size `n`,
/// pinned to a `threads`-worker budget.
fn bench_gp_train(id: &'static str, n: usize, reps: usize, threads: usize) -> BenchResult<Measure> {
    let (xs, ys) = dataset(n, 0xC0FFEE ^ n as u64);
    let cfg = GpConfig {
        par: ParConfig::fixed(threads),
        ..GpConfig::default()
    };
    let mut samples = Vec::with_capacity(reps);
    let mut lml_evals = 0;
    for _ in 0..reps {
        let t = Instant::now();
        let gp = Gp::train(&xs, &ys, &cfg).map_err(|e| format!("{id}: gp train: {e}"))?;
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        assert!(gp.lml().is_finite());
        // Training is deterministic, so every repetition runs the same
        // number of likelihood evaluations.
        lml_evals = gp.train_evals();
    }
    let med = median_ms(&mut samples);
    Ok(Measure {
        id,
        median_ms: med,
        evals_per_sec: lml_evals as f64 / (med / 1e3),
        eval_unit: "lml_evals",
        reps,
        threads_used: threads,
        extra: Vec::new(),
    })
}

/// Time WAL recovery — frame decode, checksum verification, and service
/// state replay — over a synthesized `n`-record campaign log. This is the
/// cost a restarted `cets serve` pays before its first new evaluation, so
/// it bounds the service's recovery latency per logged attempt.
fn bench_wal_replay(id: &'static str, n: usize, reps: usize) -> BenchResult<Measure> {
    use cets_serve::recovery::ServiceState;
    use cets_serve::spec::CampaignSpec;
    use cets_serve::wal::{encode_frame, read_frames, WalRecord, WAL_MAGIC};
    let spec = CampaignSpec {
        max_evals: n.max(1),
        ..CampaignSpec::new("bench", "sphere", 1)
    };
    let mut bytes = WAL_MAGIC.to_vec();
    let frame = |r: &WalRecord| encode_frame(r).map_err(|e| format!("{id}: encode: {e}"));
    bytes.extend_from_slice(&frame(&WalRecord::CampaignSubmitted { spec })?);
    let mut rng = StdRng::seed_from_u64(0x57A1);
    for idx in 0..n {
        let u: Vec<f64> = (0..3).map(|_| rng.random::<f64>()).collect();
        let y = u.iter().map(|v| v * v).sum();
        let rec = if idx % 16 == 7 {
            WalRecord::EvalFailed {
                id: "bench".into(),
                stage: 0,
                idx,
                u,
                kind: "crashed".into(),
                message: "injected".into(),
            }
        } else {
            WalRecord::EvalCompleted {
                id: "bench".into(),
                stage: 0,
                idx,
                u,
                y,
            }
        };
        bytes.extend_from_slice(&frame(&rec)?);
    }
    let mut samples = Vec::with_capacity(reps);
    let mut checksum = 0usize;
    for _ in 0..reps {
        let t = Instant::now();
        let (records, report) =
            read_frames(&bytes).map_err(|e| format!("{id}: read_frames: {e}"))?;
        let state = ServiceState::replay(&records).map_err(|e| format!("{id}: replay: {e}"))?;
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        if report.truncated.is_some() {
            return Err(format!("{id}: clean log reported truncation"));
        }
        checksum += state.campaigns[0].total_attempts();
    }
    assert_eq!(checksum, n * reps);
    let med = median_ms(&mut samples);
    Ok(Measure {
        id,
        median_ms: med,
        evals_per_sec: (n + 1) as f64 / (med / 1e3),
        eval_unit: "wal_records",
        reps,
        threads_used: 1,
        extra: vec![("log_bytes", Value::UInt(bytes.len() as u64))],
    })
}

/// Time predicting `m` held-out points from a fixed-kernel GP of size `n`.
fn bench_gp_predict(id: &'static str, n: usize, m: usize, reps: usize) -> BenchResult<Measure> {
    let (xs, ys) = dataset(n, 0xBEEF ^ n as u64);
    let kernel = Kernel::with_params(KernelKind::Matern52, 1.0, vec![0.3; DIM]);
    let gp = Gp::fit(&xs, &ys, kernel, 1e-6).map_err(|e| format!("{id}: gp fit: {e}"))?;
    let (queries, _) = dataset(m, 0xD15C ^ m as u64);
    let mut samples = Vec::with_capacity(reps);
    let mut sink = 0.0;
    for _ in 0..reps {
        let t = Instant::now();
        for q in &queries {
            let (mu, var) = gp.predict(q);
            sink += mu + var;
        }
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    assert!(sink.is_finite());
    let med = median_ms(&mut samples);
    Ok(Measure {
        id,
        median_ms: med,
        evals_per_sec: m as f64 / (med / 1e3),
        eval_unit: "predictions",
        reps,
        threads_used: 1,
        extra: Vec::new(),
    })
}

/// A 20-dim unconstrained unit-cube subspace for the proposal benchmark.
fn unit_subspace() -> BenchResult<(SearchSpace, Subspace)> {
    let mut b = SearchSpace::builder();
    for i in 0..DIM {
        b = b.real(format!("x{i}"), 0.0, 1.0);
    }
    let space = b.build();
    let defaults = space
        .decode(&[0.5; DIM])
        .map_err(|e| format!("defaults: {e}"))?;
    let sub = Subspace::full(&space, defaults).map_err(|e| format!("subspace: {e}"))?;
    Ok((space, sub))
}

/// Time one acquisition-optimization step (`BoSearch::propose`: score the
/// candidate pool + local refinement) against a GP with `n` observations.
fn bench_propose(id: &'static str, n: usize, reps: usize) -> BenchResult<Measure> {
    let (_space, sub) = unit_subspace()?;
    let (xs, ys) = dataset(n, 0xACE ^ n as u64);
    let kernel = Kernel::with_params(KernelKind::Matern52, 1.0, vec![0.3; DIM]);
    let gp = Surrogate::Exact(
        Gp::fit(&xs, &ys, kernel, 1e-6).map_err(|e| format!("{id}: gp fit: {e}"))?,
    );
    let best = ys.iter().copied().fold(f64::INFINITY, f64::min);
    let bo = BoSearch::new(BoConfig::default());
    let pool = (bo.config.n_candidates + bo.config.n_local) as f64;
    let mut samples = Vec::with_capacity(reps);
    for rep in 0..reps {
        let mut rng = StdRng::seed_from_u64(rep as u64);
        let t = Instant::now();
        let u = bo
            .propose(&sub, &gp, best, None, &mut rng)
            .map_err(|e| format!("{id}: propose: {e}"))?;
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(u.len(), DIM);
    }
    let med = median_ms(&mut samples);
    Ok(Measure {
        id,
        median_ms: med,
        evals_per_sec: pool / (med / 1e3),
        eval_unit: "candidates scored",
        reps,
        threads_used: 1,
        extra: Vec::new(),
    })
}

/// Time sparse-tier (SGPR) training at size `n` — the work
/// `Surrogate::train` runs with the tier forced to sparse, called through
/// `SparseGp::train_traced`, whose trace has one entry per ELBO
/// evaluation.
///
/// When `exact_ref = Some((n0, ms0))` — the measured `Gp::train` cost at a
/// size the exact tier can still afford — the entry also records
/// `exact_extrapolated_ms = ms0 * (n / n0)^3` (the O(N^3) cost the exact
/// tier would pay at this `n`) and `speedup_vs_exact_extrapolation`, the
/// ratio the issue's acceptance bar is judged against.
fn bench_sparse_train(
    id: &'static str,
    n: usize,
    reps: usize,
    exact_ref: Option<(usize, f64)>,
    threads: usize,
) -> BenchResult<Measure> {
    let (xs, ys) = dataset(n, 0xC0FFEE ^ n as u64);
    let cfg = GpConfig {
        tier: TierPolicy::Sparse,
        par: ParConfig::fixed(threads),
        ..GpConfig::default()
    };
    let mut samples = Vec::with_capacity(reps);
    let mut elbo_evals = 0;
    for _ in 0..reps {
        let t = Instant::now();
        let (s, trace) = SparseGp::train_traced(&xs, &ys, &cfg)
            .map_err(|e| format!("{id}: sparse train: {e}"))?;
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        assert!(s.elbo().is_finite());
        elbo_evals = trace.len();
    }
    let med = median_ms(&mut samples);
    let mut extra = vec![(
        "m_inducing",
        Value::Int(cfg.sparse.m_inducing.min(n) as i64),
    )];
    if let Some((n0, ms0)) = exact_ref {
        let extrapolated = ms0 * (n as f64 / n0 as f64).powi(3);
        extra.push(("exact_extrapolated_ms", Value::Float(extrapolated)));
        extra.push((
            "speedup_vs_exact_extrapolation",
            Value::Float(extrapolated / med),
        ));
    }
    Ok(Measure {
        id,
        median_ms: med,
        evals_per_sec: elbo_evals as f64 / (med / 1e3),
        eval_unit: "elbo_evals",
        reps,
        threads_used: threads,
        extra,
    })
}

/// Time one acquisition-optimization step against a sparse-tier surrogate
/// with `n` observations (fixed kernel, so only the proposal is timed).
fn bench_propose_sparse(id: &'static str, n: usize, m: usize, reps: usize) -> BenchResult<Measure> {
    let (_space, sub) = unit_subspace()?;
    let (xs, ys) = dataset(n, 0xACE ^ n as u64);
    let kernel = Kernel::with_params(KernelKind::Matern52, 1.0, vec![0.3; DIM]);
    let z: Vec<Vec<f64>> = select_inducing(&xs, m)
        .into_iter()
        .map(|i| xs[i].clone())
        .collect();
    let gp = Surrogate::Sparse(
        SparseGp::fit(&xs, &ys, z, kernel, 1e-6).map_err(|e| format!("{id}: sparse fit: {e}"))?,
    );
    let best = ys.iter().copied().fold(f64::INFINITY, f64::min);
    let bo = BoSearch::new(BoConfig::default());
    let pool = (bo.config.n_candidates + bo.config.n_local) as f64;
    let mut samples = Vec::with_capacity(reps);
    for rep in 0..reps {
        let mut rng = StdRng::seed_from_u64(rep as u64);
        let t = Instant::now();
        let u = bo
            .propose(&sub, &gp, best, None, &mut rng)
            .map_err(|e| format!("{id}: propose: {e}"))?;
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(u.len(), DIM);
    }
    let med = median_ms(&mut samples);
    Ok(Measure {
        id,
        median_ms: med,
        evals_per_sec: pool / (med / 1e3),
        eval_unit: "candidates scored",
        reps,
        threads_used: 1,
        extra: Vec::new(),
    })
}

/// Time one full `Methodology::run` (analysis + lint + planned searches)
/// on a synthetic 20-dim objective, pinned to a `threads`-worker budget.
///
/// The entry records `final_config_hash`, a fingerprint of the winning
/// configuration and its exact objective bits — [`run_benches`] asserts the
/// hash matches across thread counts, which is the tentpole determinism
/// guarantee (and the CI bench-smoke gate's pass/fail condition).
fn bench_methodology(
    id: &'static str,
    evals_per_dim: usize,
    max_dims: usize,
    threads: usize,
) -> BenchResult<Measure> {
    let obj = SyntheticFunction::new(SyntheticCase::Case3);
    let owners = SyntheticFunction::owners();
    let pairs = SyntheticFunction::owner_pairs(&owners);
    let m = Methodology::new(MethodologyConfig {
        cutoff: 0.25,
        max_dims,
        variation_policy: VariationPolicy::Spread { count: 5 },
        bo: BoConfig {
            seed: 42,
            ..Default::default()
        },
        evals_per_dim,
        par: ParConfig::fixed(threads),
        ..Default::default()
    });
    let t = Instant::now();
    let (_report, exec) = m
        .run(&obj, &pairs, &obj.default_config())
        .map_err(|e| format!("{id}: methodology run: {e}"))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let hash = fnv1a(
        format!(
            "{:?}|{:016x}",
            exec.final_config,
            exec.final_value.to_bits()
        )
        .as_bytes(),
    );
    Ok(Measure {
        id,
        median_ms: ms,
        evals_per_sec: exec.total_evals as f64 / (ms / 1e3),
        eval_unit: "objective evals",
        reps: 1,
        threads_used: threads,
        extra: vec![
            ("final_value", Value::Float(exec.final_value)),
            ("final_config_hash", Value::String(format!("{hash:016x}"))),
        ],
    })
}

/// Attach `single_thread_ms` and `speedup_vs_single_thread` to a multi-thread
/// variant, referencing its single-thread twin's median.
fn with_speedup(mut m: Measure, single_thread_ms: Option<f64>) -> Measure {
    if let Some(ms1) = single_thread_ms {
        m.extra.push(("single_thread_ms", Value::Float(ms1)));
        m.extra
            .push(("speedup_vs_single_thread", Value::Float(ms1 / m.median_ms)));
    }
    m
}

/// Fail the whole suite if two methodology runs at different thread counts
/// reached different final configurations — the compute layer promises
/// bit-identical results at any worker budget, so a mismatch is a bug, not
/// a perf regression.
fn check_deterministic(a: &Measure, b: &Measure) -> BenchResult<()> {
    let hash = |m: &Measure| {
        m.extra
            .iter()
            .find(|(k, _)| *k == "final_config_hash")
            .map(|(_, v)| v.clone())
    };
    if hash(a) != hash(b) {
        return Err(format!(
            "determinism violation: {} (threads={}) and {} (threads={}) \
             reached different final configurations",
            a.id, a.threads_used, b.id, b.threads_used
        ));
    }
    Ok(())
}

fn run_benches(smoke: bool) -> BenchResult<Vec<Measure>> {
    let mut out = Vec::new();
    if smoke {
        out.push(bench_gp_train("gp_train_n16", 16, 1, 1)?);
        out.push(bench_gp_train("gp_train_n32", 32, 1, 1)?);
        let exact32 = out.last().map(|m| (32usize, m.median_ms));
        out.push(bench_sparse_train(
            "gp_train_sparse_n256",
            256,
            1,
            exact32,
            1,
        )?);
        out.push(bench_gp_predict("gp_predict_n32_m64", 32, 64, 2)?);
        out.push(bench_propose("propose_n32", 32, 2)?);
        out.push(bench_wal_replay("wal_replay_n200", 200, 3)?);
        out.push(bench_methodology("methodology_run_smoke", 2, 5, 1)?);
        let t1_ms = out.last().map(|m| m.median_ms);
        out.push(with_speedup(
            bench_methodology("methodology_run_smoke_t2", 2, 5, 2)?,
            t1_ms,
        ));
        check_deterministic(&out[out.len() - 2], &out[out.len() - 1])?;
    } else {
        out.push(bench_gp_train("gp_train_n50", 50, 5, 1)?);
        out.push(bench_gp_train("gp_train_n200", 200, 3, 1)?);
        out.push(bench_gp_train("gp_train_n500", 500, 1, 1)?);
        let exact500 = out.last().map(|m| (500usize, m.median_ms));
        let t1_ms = out.last().map(|m| m.median_ms);
        out.push(with_speedup(
            bench_gp_train("gp_train_n500_t4", 500, 1, 4)?,
            t1_ms,
        ));
        out.push(bench_sparse_train(
            "gp_train_sparse_n2000",
            2000,
            1,
            exact500,
            1,
        )?);
        out.push(bench_sparse_train(
            "gp_train_sparse_n10000",
            10_000,
            1,
            exact500,
            1,
        )?);
        let t1_ms = out.last().map(|m| m.median_ms);
        out.push(with_speedup(
            bench_sparse_train("gp_train_sparse_n10000_t4", 10_000, 1, exact500, 4)?,
            t1_ms,
        ));
        out.push(bench_gp_predict("gp_predict_n200_m512", 200, 512, 5)?);
        out.push(bench_propose("propose_n50", 50, 7)?);
        out.push(bench_propose("propose_n200", 200, 5)?);
        out.push(bench_propose("propose_n500", 500, 3)?);
        out.push(bench_propose_sparse("propose_sparse_n2000", 2000, 48, 3)?);
        out.push(bench_wal_replay("wal_replay_n5000", 5000, 5)?);
        out.push(bench_methodology("methodology_run", 10, 10, 1)?);
        let t1_ms = out.last().map(|m| m.median_ms);
        out.push(with_speedup(
            bench_methodology("methodology_run_t4", 10, 10, 4)?,
            t1_ms,
        ));
        check_deterministic(&out[out.len() - 2], &out[out.len() - 1])?;
    }
    Ok(out)
}

fn measures_to_json(ms: &[Measure]) -> Value {
    Value::Object(
        ms.iter()
            .map(|m| {
                let mut fields = vec![
                    ("median_ms", Value::Float(m.median_ms)),
                    ("evals_per_sec", Value::Float(m.evals_per_sec)),
                    ("eval_unit", Value::String(m.eval_unit.to_string())),
                    ("reps", Value::Int(m.reps as i64)),
                    ("threads_used", Value::Int(m.threads_used as i64)),
                ];
                fields.extend(m.extra.iter().cloned());
                (m.id.to_string(), obj(fields))
            })
            .collect(),
    )
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// `baseline.median_ms / current.median_ms` per benchmark present in both.
fn speedups(baseline: &Value, current: &Value) -> Value {
    let mut out: Vec<(String, Value)> = Vec::new();
    if let Value::Object(cur_fields) = current {
        for (id, cur) in cur_fields {
            let bm = baseline.get_field(id).get_field("median_ms").as_f64();
            let cm = cur.get_field("median_ms").as_f64();
            if let (Ok(bm), Ok(cm)) = (bm, cm) {
                if bm.is_finite() && cm > 0.0 {
                    out.push((id.clone(), Value::Float(bm / cm)));
                }
            }
        }
    }
    Value::Object(out)
}

/// Check the invariants every consumer of `BENCH_bo.json` relies on.
fn validate(doc: &Value) -> std::result::Result<(), String> {
    match doc.get_field("schema") {
        Value::String(s) if s == SCHEMA => {}
        other => return Err(format!("schema {other:?} != {SCHEMA}")),
    }
    let mut any = false;
    for section in ["baseline", "current"] {
        let Value::Object(benches) = doc.get_field(section).get_field("benches") else {
            continue;
        };
        any = true;
        for (id, b) in benches {
            for key in ["median_ms", "evals_per_sec"] {
                let v = b.get_field(key).as_f64().unwrap_or(f64::NAN);
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!(
                        "{section}.benches.{id}.{key} = {v} is not positive"
                    ));
                }
            }
        }
    }
    if !any {
        return Err("neither baseline nor current section present".into());
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perf_suite: {e}");
        std::process::exit(1);
    }
}

fn run() -> BenchResult<()> {
    let args = parse_args();
    let out_path = args.out.clone().unwrap_or_else(|| {
        if args.smoke {
            "target/bench_smoke.json".to_string()
        } else {
            "BENCH_bo.json".to_string()
        }
    });

    let mode = if args.smoke { "smoke" } else { "full" };
    eprintln!("perf_suite: mode={mode} out={out_path}");
    let measures = run_benches(args.smoke)?;
    for m in &measures {
        eprintln!(
            "  {:<24} median {:>10.3} ms   {:>12.1} {}/s  (reps {}, threads {})",
            m.id,
            m.median_ms,
            m.evals_per_sec,
            m.eval_unit.split(' ').next().unwrap_or("evals"),
            m.reps,
            m.threads_used
        );
    }
    let benches = measures_to_json(&measures);
    let results = obj(vec![
        ("recorded_unix", Value::UInt(unix_now())),
        ("benches", benches.clone()),
    ]);

    // Merge with the existing trajectory (normal runs keep the recorded
    // baseline; `--record-baseline` replaces it and clears stale sections).
    let existing: Option<Value> = std::fs::read_to_string(&out_path)
        .ok()
        .and_then(|s| serde_json::parse_value(&s).ok());
    // Fail-soft hardware probe (records 1 when the platform can't say).
    let threads = cets_linalg::par::available_threads();
    let mut fields: Vec<(&str, Value)> = vec![
        ("schema", Value::String(SCHEMA.to_string())),
        ("mode", Value::String(mode.to_string())),
        ("generated_unix", Value::UInt(unix_now())),
        (
            "harness",
            Value::String("cargo run --release -p cets-bench --bin perf_suite".to_string()),
        ),
        ("threads_available", Value::Int(threads as i64)),
    ];
    if args.record_baseline {
        fields.push(("baseline", results));
    } else {
        let baseline = existing
            .as_ref()
            .map(|e| e.get_field("baseline").clone())
            .unwrap_or(Value::Null);
        let ratio = speedups(baseline.get_field("benches"), &benches);
        if !matches!(baseline, Value::Null) {
            fields.push(("baseline", baseline));
        }
        fields.push(("current", results));
        fields.push(("speedup", ratio));
    }
    let doc = obj(fields);

    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    let rendered = serde_json::to_string_pretty(&doc).map_err(|e| format!("serialize: {e}"))?;
    std::fs::write(&out_path, rendered + "\n").map_err(|e| format!("write {out_path}: {e}"))?;

    // Self-validate: re-read what we wrote and check the schema invariants
    // (this is the `--smoke` CI gate's pass/fail condition).
    let reread =
        std::fs::read_to_string(&out_path).map_err(|e| format!("reread {out_path}: {e}"))?;
    let back =
        serde_json::parse_value(&reread).map_err(|e| format!("output is not valid JSON: {e}"))?;
    validate(&back).map_err(|e| format!("output validation failed: {e}"))?;
    if let Value::Object(sp) = back.get_field("speedup") {
        for (id, v) in sp {
            eprintln!("  speedup {:<24} {:>6.2}x", id, v.as_f64().unwrap_or(0.0));
        }
    }
    eprintln!("perf_suite: wrote {out_path} (valid {SCHEMA})");
    Ok(())
}
