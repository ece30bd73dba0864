//! `serve-crash`: the durable campaign service. Batches of three campaigns
//! drain through a write-ahead log synced on every record, then the first
//! batch survives a crash schedule, served concurrently, and must recover
//! to the identical summary.

use crate::replay::{replay_objective, replay_resilient, Ledger};
use crate::report::RunResult;
use crate::{finish_traced, set_speedup_t2, stats, timed, RunCtx};
use cets_core::{BoConfig, BoSearch, FailurePolicy, Objective};
use cets_serve::recovery::ServiceState;
use cets_serve::wal::{read_frames, FsyncPolicy, KillSpec, Wal, WalRecord, WAL_FILE_NAME};
use cets_serve::{build_objective, CampaignSpec, ServeConfig, ServeError, Service, ServiceSummary};
use cets_space::Subspace;
use serde_json::Value;
use std::path::Path;
use std::time::Instant;

/// Campaign workers of the timed drains. One: on a two-vCPU shared host a
/// drain with a worker per vCPU times the host's scheduling as much as the
/// service, and its run-to-run spread was twice the single worker's.
const TIMED_WORKERS: usize = 1;

/// Campaign workers of the crash schedule and of the traced pass's
/// reference drains, which must render the timed drains' summaries: the
/// check that concurrent campaigns change nothing.
const CONCURRENT_WORKERS: usize = 2;

/// `Service::open` calls timed on every drained log for `setup_s`.
const REOPENS: usize = 5;

/// Same seed stride per stage as the supervisor, so replayed searches use
/// the seeds the served ones did.
const STAGE_SEED_STRIDE: u64 = 1 << 32;

/// Campaigns per batch. Small batches give a run more drains, and so more
/// moments of the shared host's drifting speed in its medians: with six,
/// the run-to-run spread of `run_s` was half again as wide.
const CAMPAIGNS: u64 = 3;

/// Drains every run completes (24 campaigns), over which the counts and
/// the tuning quality are taken.
const MIN_DRAINS: usize = 8;

/// Batch `unit` of a run: campaigns on `synthetic:3`, four stages of five
/// parameters, one injected fault per ten evaluations with one retry.
/// Campaign seeds are `seed + 3·unit + (0..3)`, so every drain serves new
/// campaigns.
fn specs(seed: u64, unit: usize, smoke: bool) -> Vec<CampaignSpec> {
    let (n, max_evals, n_init) = if smoke { (2, 8, 3) } else { (CAMPAIGNS, 40, 5) };
    let base = seed.wrapping_add(CAMPAIGNS.wrapping_mul(unit as u64));
    (0..n)
        .map(|i| CampaignSpec {
            max_evals,
            n_init,
            stages: (0..4)
                .map(|s| (0..5).map(|k| format!("x{}", 5 * s + k)).collect())
                .collect(),
            flaky_rate: 0.1,
            max_retries: 1,
            ..CampaignSpec::new(format!("c{i}"), "synthetic:3", base.wrapping_add(i))
        })
        .collect()
}

fn config(dir: &Path, workers: usize, kill: Option<KillSpec>) -> ServeConfig {
    ServeConfig {
        fsync: FsyncPolicy::Always,
        workers,
        kill,
        ..ServeConfig::new(dir)
    }
}

fn serve_err(what: &str) -> impl Fn(ServeError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// One uninterrupted drain of the batch over a fresh directory.
struct Drain {
    wall_s: f64,
    summary: ServiceSummary,
    /// Records in the drained log.
    records: usize,
    attempts: usize,
    failed: usize,
}

fn drain(dir: &Path, specs: &[CampaignSpec], workers: usize) -> Result<Drain, String> {
    let start = Instant::now();
    let mut svc = Service::open(config(dir, workers, None)).map_err(serve_err("open"))?;
    for spec in specs {
        svc.submit(spec.clone()).map_err(serve_err("submit"))?;
    }
    let summary = svc.run_until_drained().map_err(serve_err("drain"))?;
    let wall_s = start.elapsed().as_secs_f64();
    drop(svc);
    let bytes = std::fs::read(dir.join(WAL_FILE_NAME)).map_err(|e| format!("read WAL: {e}"))?;
    let (records, _) = read_frames(&bytes).map_err(serve_err("read_frames"))?;
    let failed = records
        .iter()
        .filter(|r| matches!(r, WalRecord::EvalFailed { .. }))
        .count();
    let ok = records
        .iter()
        .filter(|r| matches!(r, WalRecord::EvalCompleted { .. }))
        .count();
    Ok(Drain {
        wall_s,
        summary,
        records: records.len(),
        attempts: ok + failed,
        failed,
    })
}

/// What the crash schedule observed.
struct Crashes {
    summary: ServiceSummary,
    crashes: usize,
    /// `Service::open` times of the incarnations that recovered records.
    recovering_opens_s: Vec<f64>,
    truncated_bytes: u64,
}

/// Kill the service at a third of the uninterrupted record count with a
/// torn five-byte write, then at two thirds with a clean kill, and let the
/// third incarnation finish. Each incarnation opens (recovers) the same
/// directory, as a restarted process would.
fn crash_schedule(dir: &Path, specs: &[CampaignSpec], records: usize) -> Result<Crashes, String> {
    let kills = [
        Some(KillSpec {
            after_records: records / 3,
            torn_bytes: 5,
        }),
        Some(KillSpec {
            after_records: 2 * records / 3,
            torn_bytes: 0,
        }),
        None,
    ];
    let mut out = Crashes {
        summary: ServiceSummary { campaigns: vec![] },
        crashes: 0,
        recovering_opens_s: vec![],
        truncated_bytes: 0,
    };
    let wal = dir.join(WAL_FILE_NAME);
    for kill in kills {
        let before = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
        let (svc, open_s) = timed(|| Service::open(config(dir, CONCURRENT_WORKERS, kill)));
        let mut svc = svc.map_err(serve_err("recovering open"))?;
        if svc.recovery.records > 0 {
            out.recovering_opens_s.push(open_s);
            out.truncated_bytes += before.saturating_sub(svc.recovery.valid_bytes);
        }
        let mut crashed = false;
        for spec in specs {
            if svc.state().campaign(&spec.id).is_none() {
                match svc.submit(spec.clone()) {
                    Ok(()) => {}
                    Err(ServeError::SimulatedCrash { .. }) => crashed = true,
                    Err(e) => return Err(format!("submit: {e}")),
                }
            }
        }
        if !crashed {
            match svc.run_until_drained() {
                Ok(summary) => {
                    out.summary = summary;
                    return Ok(out);
                }
                Err(ServeError::SimulatedCrash { .. }) => crashed = true,
                Err(e) => return Err(format!("drain: {e}")),
            }
        }
        out.crashes += usize::from(crashed);
    }
    Err("the final incarnation did not finish".into())
}

/// Default objective / best found, per campaign.
fn speedups(specs: &[CampaignSpec], summary: &ServiceSummary) -> Result<Vec<f64>, String> {
    let mut ratios = Vec::new();
    for spec in specs {
        let objective = build_objective(spec).map_err(serve_err("objective"))?;
        let default = objective.evaluate(&objective.default_config()).total;
        let best = summary
            .campaigns
            .iter()
            .find(|c| c.id == spec.id)
            .and_then(|c| c.best_value)
            .ok_or_else(|| format!("campaign {} has no best value", spec.id))?;
        ratios.push(default / best);
    }
    Ok(ratios)
}

fn check_drain(d: &Drain, out: &mut RunResult, what: &str) {
    let counted: usize = d
        .summary
        .campaigns
        .iter()
        .map(|c| c.n_ok + c.n_failed)
        .sum();
    out.check(
        format!("{what}: summary attempts match the log, no campaign failed"),
        counted == d.attempts && !d.summary.any_failed(),
        format!("summary {counted}, log {}", d.attempts),
    );
}

pub fn run(ctx: &RunCtx, out: &mut RunResult) -> Result<(), String> {
    // Injected faults panic by design and the resilience layer contains
    // them; keep the default hook from printing a backtrace for each.
    std::panic::set_hook(Box::new(|_| {}));
    drain(
        &ctx.dir("warm-up")?,
        &specs(ctx.seed, 0, true),
        TIMED_WORKERS,
    )?;
    if ctx.trace {
        return run_traced(ctx, out);
    }
    let min = if ctx.smoke { 1 } else { MIN_DRAINS };
    let mut reopen_s = Vec::new();
    let drains = ctx.repeat(min, |i| {
        let batch = specs(ctx.seed, i, ctx.smoke);
        let dir = ctx.dir(&format!("drain-{i}"))?;
        let d = drain(&dir, &batch, TIMED_WORKERS)?;
        // The recovery latency of a finished service: reopen the full log.
        let mut reopened = String::new();
        for _ in 0..REOPENS {
            let (svc, s) = timed(|| Service::open(config(&dir, TIMED_WORKERS, None)));
            reopened = svc.map_err(serve_err("reopen"))?.summary().render();
            reopen_s.push(s);
        }
        Ok((batch, d, reopened))
    })?;
    for (i, (_, d, reopened)) in drains.iter().enumerate() {
        check_drain(d, out, &format!("drain {i}"));
        out.check(
            format!("drain {i}: reopened service recovers the summary"),
            *reopened == d.summary.render(),
            reopened.clone(),
        );
    }
    let (batch, first, _) = &drains[0];
    let reference = first.summary.render();
    let crashes = crash_schedule(&ctx.dir("crash")?, batch, first.records)?;
    out.check(
        "crash schedule recovers the uninterrupted summary",
        crashes.summary.render() == reference && crashes.crashes == 2,
        format!("{} crashes", crashes.crashes),
    );

    let counted = &drains[..min];
    let walls: Vec<f64> = drains.iter().map(|(_, d, _)| d.wall_s).collect();
    // The service's evaluations cannot be observed from outside, so each
    // drain gives one decision-gap sample: the mean time between attempts
    // on a worker, with the microsecond objective included.
    let gaps: Vec<f64> = drains
        .iter()
        .map(|(b, d, _)| d.wall_s * 1e3 * TIMED_WORKERS.min(b.len()) as f64 / d.attempts as f64)
        .collect();
    let (tail_p, tail) = stats::tail(&gaps).ok_or("no drains")?;
    let mut setups = reopen_s.clone();
    setups.extend(&crashes.recovering_opens_s);
    let mut ratios = Vec::new();
    for (b, d, _) in counted {
        ratios.extend(speedups(b, &d.summary)?);
    }
    let attempts: usize = counted.iter().map(|(_, d, _)| d.attempts).sum();
    let failed: usize = counted.iter().map(|(_, d, _)| d.failed).sum();
    out.set("run_s", stats::median(&walls).unwrap_or(f64::NAN));
    out.set(
        "evals_per_s",
        drains
            .iter()
            .map(|(_, d, _)| d.attempts as f64)
            .sum::<f64>()
            / walls.iter().sum::<f64>(),
    );
    out.set("decide_ms_p50", stats::median(&gaps).unwrap_or(f64::NAN));
    out.set("decide_ms_tail", tail);
    out.set("setup_s", stats::median(&setups).unwrap_or(f64::NAN));
    out.set(
        "tuned_speedup",
        stats::geomean(&ratios).ok_or("tuned speedup is not positive")?,
    );
    out.set("evals_total", attempts as f64 / counted.len() as f64);
    out.set(
        "ok_ratio",
        (attempts - failed) as f64 / attempts.max(1) as f64,
    );
    out.detail("decide_tail_percentile", Value::Float(tail_p));
    out.detail("decide_samples", Value::UInt(gaps.len() as u64));
    out.detail("setup_samples", Value::UInt(setups.len() as u64));
    out.detail("drains_counted", Value::UInt(counted.len() as u64));
    out.detail("wal_records", Value::UInt(first.records as u64));
    out.detail(
        "unit_walls_s",
        Value::Array(walls.iter().map(|&w| Value::Float(w)).collect()),
    );
    out.detail("summary", Value::String(reference));
    Ok(())
}

/// Replay what one drain logged: decode and replay the log, re-append
/// every record to a scratch log synced like the service's, and replay
/// each campaign stage's searches.
fn replay_drain(dir: &Path, scratch: &Path, ledger: &mut Ledger) -> Result<(), String> {
    let bytes = std::fs::read(dir.join(WAL_FILE_NAME)).map_err(|e| format!("read WAL: {e}"))?;
    let (decoded, replay_s) = timed(|| {
        read_frames(&bytes).and_then(|(records, _)| {
            let state = ServiceState::replay(&records)?;
            Ok((records, state))
        })
    });
    let (records, state) = decoded.map_err(serve_err("replay"))?;
    ledger.add("wal.replay_s", replay_s);
    ledger.add("wal.records", records.len() as f64);
    ledger.add("wal.bytes", bytes.len() as f64);

    std::fs::create_dir_all(scratch).map_err(|e| format!("create scratch: {e}"))?;
    let (mut wal, _, _) = Wal::open(&scratch.join(WAL_FILE_NAME), FsyncPolicy::Always)
        .map_err(serve_err("scratch WAL"))?;
    for rec in &records {
        let t = Instant::now();
        wal.append(rec).map_err(serve_err("append"))?;
        let s = t.elapsed().as_secs_f64();
        ledger.add("wal.append_s", s);
        ledger.sample("wal.append_us", s * 1e6);
    }

    let policy = FailurePolicy::default();
    for campaign in &state.campaigns {
        let spec = &campaign.spec;
        let objective = build_objective(spec).map_err(serve_err("objective"))?;
        let space = objective.space();
        let mut defaults = objective.default_config();
        for (s, (params, stage)) in spec
            .stage_params(space)
            .iter()
            .zip(&campaign.stages)
            .enumerate()
        {
            let names: Vec<&str> = params.iter().map(String::as_str).collect();
            let sub = Subspace::new(space, &names, defaults.clone())
                .map_err(|e| format!("{}: subspace: {e}", spec.id))?;
            let bo = BoConfig {
                n_init: spec.n_init,
                max_evals: spec.max_evals,
                seed: spec
                    .seed
                    .wrapping_add((s as u64).wrapping_mul(STAGE_SEED_STRIDE)),
                ..BoConfig::default()
            };
            replay_resilient(&sub, &bo, &policy, stage, ledger)
                .map_err(|e| format!("{} stage {s}: {e}", spec.id))?;
            let points: Vec<Vec<f64>> = stage.iter().map(|r| r.u.clone()).collect();
            replay_objective(&objective, &sub, &points, ledger)?;
            defaults = BoSearch::replay_outcome(&sub, stage)
                .map_err(|e| format!("{} stage {s}: {e}", spec.id))?
                .best_config;
        }
    }
    Ok(())
}

/// The traced pass: each unit drains its batch once with two workers (the
/// reference) and once with one, timed, then replays the single-worker
/// drain's log. Both drains must render the same summary.
fn run_traced(ctx: &RunCtx, out: &mut RunResult) -> Result<(), String> {
    let mut ledger = Ledger::default();
    let mut reference_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let units = ctx.repeat(1, |i| {
        let batch = specs(ctx.seed, i, ctx.smoke);
        let reference = drain(
            &ctx.dir(&format!("reference-{i}"))?,
            &batch,
            CONCURRENT_WORKERS,
        )?;
        let dir = ctx.dir(&format!("traced-{i}"))?;
        let traced = drain(&dir, &batch, 1)?;
        replay_drain(&dir, &ctx.dir(&format!("append-{i}"))?, &mut ledger)?;
        ledger.add("trace.unit_s", traced.wall_s);
        ledger.add("serve.attempts", traced.attempts as f64);
        ledger.add("serve.failed", traced.failed as f64);
        let restarts: usize = traced.summary.campaigns.iter().map(|c| c.restarts).sum();
        ledger.add("serve.restarts", restarts as f64);
        reference_walls.push(reference.wall_s);
        traced_walls.push(traced.wall_s);
        Ok((batch, reference, traced))
    })?;
    for (i, (_, reference, traced)) in units.iter().enumerate() {
        check_drain(reference, out, &format!("reference drain {i}"));
        check_drain(traced, out, &format!("traced drain {i}"));
        let (r, t) = (reference.summary.render(), traced.summary.render());
        out.check(
            format!("drain {i}: one worker and two workers render the same summary"),
            r == t,
            t.clone(),
        );
    }
    let (batch, first, _) = &units[0];
    let crashes = crash_schedule(&ctx.dir("crash")?, batch, first.records)?;
    out.check(
        "crash schedule recovers the uninterrupted summary",
        crashes.summary.render() == first.summary.render() && crashes.crashes == 2,
        format!("{} crashes", crashes.crashes),
    );
    out.set(
        "recovery.open_s",
        stats::mean(&crashes.recovering_opens_s).unwrap_or(0.0),
    );
    out.set("recovery.crashes", crashes.crashes as f64);
    out.set("recovery.truncated_bytes", crashes.truncated_bytes as f64);
    set_speedup_t2(&traced_walls, &reference_walls, out);
    let inside = ledger.sum("objective.s")
        + ledger.sum("gp.train_s")
        + ledger.sum("gp.append_s")
        + ledger.sum("gp.sparse_train_s")
        + ledger.sum("propose.s")
        + ledger.sum("wal.append_s");
    out.set(
        "bo.replay_coverage",
        inside / ledger.sum("trace.unit_s").max(f64::MIN_POSITIVE),
    );
    finish_traced(&ledger, units.len(), out);
    Ok(())
}
