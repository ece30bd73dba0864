//! `joint20-long`: the paper's fully-joint baseline, one long BO search
//! over all twenty Case 3 parameters. The only workload where the sparse
//! GP tier and the per-evaluation checkpoint rewrite do real work.

use crate::probe::Probe;
use crate::replay::{replay_checkpoints, replay_plain, Ledger};
use crate::report::RunResult;
use crate::{final_hash, finish_traced, set_speedup_t2, stats, timed, RunCtx};
use cets_core::{BoCheckpoint, BoConfig, BoSearch, Objective, SearchOutcome};
use cets_gp::{GpConfig, TierPolicy};
use cets_space::Subspace;
use cets_synthetic::{SyntheticCase, SyntheticFunction};
use serde_json::Value;
use std::path::Path;

/// Checkpoint loads per search; their median is the search's recovery
/// latency sample.
const LOADS: usize = 5;

struct Sizes {
    max_evals: usize,
    /// Training-set size at which the sparse tier takes over. Well below
    /// the library default of 512, whose exact retrains near n = 511 cost
    /// seconds each on the reference machine.
    threshold: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            max_evals: 40,
            threshold: 16,
        }
    } else {
        Sizes {
            max_evals: 450,
            threshold: 128,
        }
    }
}

fn bo_config(seed: u64, sizes: &Sizes, checkpoint: &Path) -> BoConfig {
    BoConfig {
        max_evals: sizes.max_evals,
        seed,
        gp: GpConfig {
            tier: TierPolicy::Auto {
                threshold: sizes.threshold,
            },
            ..GpConfig::default()
        },
        checkpoint_path: Some(checkpoint.to_path_buf()),
        ..BoConfig::default()
    }
}

/// One checkpointed search.
struct Unit {
    seed: u64,
    wall_s: f64,
    outcome: SearchOutcome,
    evals: usize,
    non_finite: usize,
    objective_s: f64,
    gaps_ms: Vec<f64>,
    default_value: f64,
    /// Median time to load and validate the final checkpoint.
    load_s: f64,
    hash: String,
}

fn run_unit(
    seed: u64,
    sizes: &Sizes,
    checkpoint: &Path,
    out: &mut RunResult,
) -> Result<Unit, String> {
    let f = SyntheticFunction::new(SyntheticCase::Case3).with_seed(seed);
    let sub =
        Subspace::full(f.space(), f.default_config()).map_err(|e| format!("subspace: {e}"))?;
    let probe = Probe::new(&f);
    let search = BoSearch::new(bo_config(seed, sizes, checkpoint));
    probe.arm();
    let (outcome, wall_s) = timed(|| search.run(&sub, |c| probe.evaluate(c).total));
    probe.disarm();
    let outcome = outcome.map_err(|e| format!("search: {e}"))?;

    let mut loads = Vec::with_capacity(LOADS);
    let mut loaded = None;
    for _ in 0..LOADS {
        let (cp, s) = timed(|| BoCheckpoint::load(checkpoint));
        loads.push(s);
        loaded = Some(cp.map_err(|e| format!("checkpoint load: {e}"))?);
    }
    let same = loaded.is_some_and(|cp| {
        let h = cp.history();
        h.len() == outcome.history.len()
            && h.iter().zip(&outcome.history).all(|((a, y), (b, z))| {
                y.to_bits() == z.to_bits()
                    && a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
            })
    });
    out.check(
        format!("search {seed}: checkpoint holds the search history"),
        same,
        format!("{} evaluations", outcome.history.len()),
    );
    out.check(
        format!("search {seed}: spent its budget"),
        outcome.n_evals == sizes.max_evals && probe.evals() == sizes.max_evals,
        format!(
            "outcome {} evaluations, probe {}, budget {}",
            outcome.n_evals,
            probe.evals(),
            sizes.max_evals
        ),
    );
    let again = f.evaluate(&outcome.best_config).total;
    out.check(
        format!("search {seed}: best value reproduces"),
        again.to_bits() == outcome.best_value.to_bits(),
        format!("reported {} re-evaluated {again}", outcome.best_value),
    );
    Ok(Unit {
        seed,
        wall_s,
        evals: probe.evals(),
        non_finite: probe.non_finite(),
        objective_s: probe.busy_s(),
        gaps_ms: probe.take_gaps(),
        default_value: f.evaluate(&f.default_config()).total,
        load_s: stats::median(&loads).unwrap_or(f64::NAN),
        hash: final_hash(&outcome.best_config, outcome.best_value),
        outcome,
    })
}

pub fn run(ctx: &RunCtx, out: &mut RunResult) -> Result<(), String> {
    let sizes = sizes(ctx.smoke);
    let checkpoint = |name: &str| -> Result<std::path::PathBuf, String> {
        Ok(ctx.dir("checkpoints")?.join(format!("{name}.json")))
    };
    run_unit(
        ctx.seed,
        &self::sizes(true),
        &checkpoint("warm-up")?,
        &mut RunResult::default(),
    )?;
    if ctx.trace {
        return run_traced(ctx, &sizes, out);
    }
    let min = if ctx.smoke { 1 } else { 2 };
    let units = ctx.repeat(min, |i| {
        let seed = ctx.seed.wrapping_add(i as u64);
        run_unit(seed, &sizes, &checkpoint(&format!("search-{i}"))?, out)
    })?;
    let walls: Vec<f64> = units.iter().map(|u| u.wall_s).collect();
    let first = &units[..min];
    let gaps: Vec<f64> = first.iter().flat_map(|u| u.gaps_ms.clone()).collect();
    let evals: usize = first.iter().map(|u| u.evals).sum();
    let non_finite: usize = first.iter().map(|u| u.non_finite).sum();
    let speedups: Vec<f64> = first
        .iter()
        .map(|u| u.default_value / u.outcome.best_value)
        .collect();
    let (tail_p, tail) = stats::tail(&gaps).ok_or("no decision gaps were recorded")?;
    out.set("run_s", stats::median(&walls).unwrap_or(f64::NAN));
    out.set(
        "evals_per_s",
        units.iter().map(|u| u.evals as f64).sum::<f64>() / walls.iter().sum::<f64>(),
    );
    out.set("decide_ms_p50", stats::median(&gaps).unwrap_or(f64::NAN));
    out.set("decide_ms_tail", tail);
    out.set(
        "setup_s",
        stats::median(&units.iter().map(|u| u.load_s).collect::<Vec<_>>()).unwrap_or(f64::NAN),
    );
    out.set(
        "tuned_speedup",
        stats::geomean(&speedups).unwrap_or(f64::NAN),
    );
    out.set("evals_total", evals as f64 / first.len() as f64);
    out.set(
        "ok_ratio",
        (evals - non_finite) as f64 / evals.max(1) as f64,
    );
    out.detail("decide_tail_percentile", Value::Float(tail_p));
    out.detail("decide_gaps", Value::UInt(gaps.len() as u64));
    out.detail(
        "unit_walls_s",
        Value::Array(walls.iter().map(|&w| Value::Float(w)).collect()),
    );
    out.detail(
        "final_hashes",
        Value::Array(
            units
                .iter()
                .map(|u| Value::String(format!("{}:{}", u.seed, u.hash)))
                .collect(),
        ),
    );
    Ok(())
}

/// The traced pass: each search runs twice (reference and traced) and
/// must reach the same result; the traced one's history is replayed for
/// the GP, proposal and checkpoint layers.
fn run_traced(ctx: &RunCtx, sizes: &Sizes, out: &mut RunResult) -> Result<(), String> {
    let mut ledger = Ledger::default();
    let units = ctx.repeat(1, |i| {
        let seed = ctx.seed.wrapping_add(i as u64);
        let dir = ctx.dir("checkpoints")?;
        let reference = run_unit(seed, sizes, &dir.join(format!("reference-{i}.json")), out)?;
        let traced = run_unit(seed, sizes, &dir.join(format!("traced-{i}.json")), out)?;
        let replay_path = dir.join(format!("replay-{i}.json"));
        let bo = bo_config(seed, sizes, &replay_path);
        let f = SyntheticFunction::new(SyntheticCase::Case3).with_seed(seed);
        let sub =
            Subspace::full(f.space(), f.default_config()).map_err(|e| format!("subspace: {e}"))?;
        replay_plain(&sub, &bo, &traced.outcome.history, 0, &mut ledger)?;
        replay_checkpoints(
            seed,
            &bo.gp.tier.tag(),
            &traced.outcome.history,
            &replay_path,
            &mut ledger,
        )?;
        ledger.add("trace.unit_s", traced.wall_s);
        ledger.add("objective.s", traced.objective_s);
        ledger.add("objective.evals", traced.evals as f64);
        ledger.add("search_s", traced.outcome.wall_time.as_secs_f64());
        Ok((reference, traced))
    })?;
    for (reference, traced) in &units {
        out.check(
            format!("search {}: traced and untraced runs agree", traced.seed),
            reference.hash == traced.hash,
            format!("untraced {}, traced {}", reference.hash, traced.hash),
        );
    }
    let walls: Vec<f64> = units.iter().map(|(_, t)| t.wall_s).collect();
    set_speedup_t2(&walls, &[], out);
    let inside = ledger.sum("objective.s")
        + ledger.sum("gp.train_s")
        + ledger.sum("gp.append_s")
        + ledger.sum("gp.sparse_train_s")
        + ledger.sum("propose.s")
        + ledger.sum("checkpoint.save_s");
    out.set(
        "bo.replay_coverage",
        inside / ledger.sum("search_s").max(f64::MIN_POSITIVE),
    );
    finish_traced(&ledger, units.len(), out);
    Ok(())
}
