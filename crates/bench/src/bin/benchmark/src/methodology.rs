//! `synthetic-case3` and `tddft-cs1`: the methodology pipeline end to end
//! (sensitivity analysis → DAG → plan → lint gate → optional contraction →
//! staged BO), one campaign per unit of work.

use crate::probe::Probe;
use crate::replay::{replay_plain, Ledger};
use crate::report::RunResult;
use crate::{final_hash, finish_traced, set_speedup_t2, stats, timed, RunCtx};
use cets_core::{
    BoConfig, ContractedObjective, Methodology, MethodologyConfig, MethodologyReport, Objective,
    PlanExecution, VariationPolicy,
};
use cets_linalg::ParConfig;
use cets_space::{Config, SearchSpace, Subspace};
use cets_synthetic::{SyntheticCase, SyntheticFunction};
use cets_tddft::{CaseStudy, TddftSimulator};
use serde_json::Value;

/// Noise seed of the tuned application instance. Every campaign tunes the
/// same instance and differs only in its search seed: the instance fixes
/// the sensitivity scores and with them the plan, and on RT-TDDFT the plan
/// alone moves a campaign's cost threefold (how many occupancy-constrained
/// kernels the merged search holds), which would make run-to-run numbers
/// depend on which plans a seed happens to draw.
const INSTANCE_SEED: u64 = 0;

/// Which of the paper's two methodology pipelines a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// `cets synthetic --case 3 --evals-per-dim 10`: raw-scale analysis,
    /// `Multiplicative{30, 0.1}`, cut-off 0.25, two threads.
    SyntheticCase3,
    /// `cets tddft --case 1`: precedence Slater/MPI, shared cuZcopy,
    /// cut-off 0.10, with static bound contraction, single-threaded.
    TddftCase1,
}

impl Pipeline {
    fn threads(self) -> usize {
        match self {
            Pipeline::SyntheticCase3 => 2,
            Pipeline::TddftCase1 => 1,
        }
    }

    /// Campaigns every run completes, whatever `--seconds` says: counts
    /// and tuning quality are taken over exactly these, so they are a
    /// function of the seed alone.
    fn min_campaigns(self, smoke: bool) -> usize {
        match (self, smoke) {
            (_, true) => 1,
            (Pipeline::SyntheticCase3, false) => 10,
            (Pipeline::TddftCase1, false) => 3,
        }
    }

    fn campaign(self, seed: u64, smoke: bool) -> Result<Campaign, String> {
        let evals_per_dim = if smoke { 2 } else { 10 };
        let bo = BoConfig {
            seed,
            ..Default::default()
        };
        match self {
            Pipeline::SyntheticCase3 => {
                let analysis = SyntheticFunction::new(SyntheticCase::Case3)
                    .with_seed(INSTANCE_SEED)
                    .as_raw();
                let baseline = analysis
                    .space()
                    .decode(&[0.6; 20])
                    .map_err(|e| format!("analysis baseline: {e}"))?;
                Ok(Campaign {
                    seed,
                    exec: Box::new(
                        SyntheticFunction::new(SyntheticCase::Case3).with_seed(INSTANCE_SEED),
                    ),
                    analysis: Some(Box::new(analysis)),
                    owners: SyntheticFunction::owners(),
                    baseline,
                    config: MethodologyConfig {
                        cutoff: 0.25,
                        variation_policy: VariationPolicy::Multiplicative {
                            count: if smoke { 2 } else { 30 },
                            factor: 0.1,
                        },
                        bo,
                        evals_per_dim,
                        ..Default::default()
                    },
                })
            }
            Pipeline::TddftCase1 => {
                let sim = TddftSimulator::new(CaseStudy::case1())
                    .with_seed(INSTANCE_SEED)
                    .with_expert_constraints();
                Ok(Campaign {
                    seed,
                    baseline: sim.default_config(),
                    analysis: None,
                    exec: Box::new(sim),
                    owners: TddftSimulator::owners(),
                    config: MethodologyConfig {
                        cutoff: 0.10,
                        variation_policy: VariationPolicy::Spread {
                            count: if smoke { 2 } else { 5 },
                        },
                        precedence: vec!["Slater".into(), "MPI".into()],
                        shared_params: TddftSimulator::shared_params(),
                        bo,
                        evals_per_dim,
                        contract_bounds: true,
                        ..Default::default()
                    },
                })
            }
        }
    }
}

/// One campaign's inputs, all derived from its seed.
struct Campaign {
    seed: u64,
    /// A separate objective for the sensitivity analysis, when there is
    /// one: the synthetic pipeline analyses the raw routine scale and
    /// tunes the log scale. `None` analyses the tuned objective, exactly
    /// as `Methodology::run` does.
    analysis: Option<Box<dyn Objective>>,
    exec: Box<dyn Objective>,
    owners: Vec<(String, String)>,
    baseline: Config,
    config: MethodologyConfig,
}

impl Campaign {
    fn methodology(&self, threads: usize) -> Methodology {
        Methodology::new(MethodologyConfig {
            par: ParConfig::fixed(threads),
            ..self.config.clone()
        })
    }

    fn pairs(&self) -> Vec<(&str, &str)> {
        self.owners
            .iter()
            .map(|(p, r)| (p.as_str(), r.as_str()))
            .collect()
    }
}

/// Wall times of the pipeline's phases, each timed around its public call.
#[derive(Debug, Default)]
struct Phases {
    analyze_s: f64,
    analysis_objective_s: f64,
    analysis_evals: usize,
    lint_s: f64,
    diagnostics: usize,
    absint_s: f64,
    narrowed: usize,
    execute_s: f64,
    execution_objective_s: f64,
    execution_evals: usize,
}

/// One campaign run through the phases of `Methodology::run`.
struct Unit {
    wall_s: f64,
    /// Analysis, lint gate and contraction: the time before the first
    /// search evaluation can be issued.
    setup_s: f64,
    evals: usize,
    non_finite: usize,
    gaps_ms: Vec<f64>,
    default_value: f64,
    final_value: f64,
    hash: String,
    phases: Phases,
    report: MethodologyReport,
    exec: PlanExecution,
    exec_space: SearchSpace,
}

/// The phases `Methodology::run` performs, called one by one so each can
/// be timed and the decision gaps recorded during plan execution only.
fn run_unit(c: &Campaign, threads: usize) -> Result<Unit, String> {
    let m = c.methodology(threads);
    let pairs = c.pairs();
    let analysis = Probe::new(c.analysis.as_deref().unwrap_or(&*c.exec));
    let exec = Probe::new(&*c.exec);
    let mut ph = Phases::default();
    let start = std::time::Instant::now();
    let (report, ph_analyze) = timed(|| m.analyze(&analysis, &pairs, &c.baseline));
    let report = report.map_err(|e| format!("analyze: {e}"))?;
    ph.analyze_s = ph_analyze;
    let (lint, lint_s) = timed(|| {
        let lint = m.lint_report(&exec, &report, &c.baseline);
        let ok = m.config.lint.accepts(&lint);
        (lint.diagnostics.len(), ok)
    });
    ph.lint_s = lint_s;
    ph.diagnostics = lint.0;
    if !lint.1 {
        return Err("the plan linter rejected the plan".into());
    }
    let (contracted, absint_s) = timed(|| {
        m.config
            .contract_bounds
            .then(|| m.contracted_space(&exec, &report, &c.baseline))
            .transpose()
    });
    let contracted = contracted
        .map_err(|e| format!("contracted_space: {e}"))?
        .flatten();
    ph.absint_s = absint_s;
    let setup_s = start.elapsed().as_secs_f64();
    exec.arm();
    let (plan, execute_s) = timed(|| match &contracted {
        Some(space) => m.execute(&ContractedObjective::new(&exec, space.clone()), &report),
        None => m.execute(&exec, &report),
    });
    exec.disarm();
    let wall_s = start.elapsed().as_secs_f64();
    let plan = plan.map_err(|e| format!("execute: {e}"))?;
    ph.execute_s = execute_s;
    ph.analysis_objective_s = analysis.busy_s();
    ph.analysis_evals = analysis.evals();
    ph.execution_objective_s = exec.busy_s();
    ph.execution_evals = exec.evals();

    let exec_space = contracted.unwrap_or_else(|| c.exec.space().clone());
    let space = c.exec.space();
    ph.narrowed = exec_space
        .defs()
        .iter()
        .zip(space.defs())
        .filter(|(a, b)| a != b)
        .count();
    Ok(Unit {
        wall_s,
        setup_s,
        evals: analysis.evals() + exec.evals(),
        non_finite: analysis.non_finite() + exec.non_finite(),
        gaps_ms: exec.take_gaps(),
        default_value: c.exec.evaluate(&c.exec.default_config()).total,
        final_value: plan.final_value,
        hash: final_hash(&plan.final_config, plan.final_value),
        phases: ph,
        report,
        exec: plan,
        exec_space,
    })
}

/// Output checks that need no second run: the final configuration is
/// valid, re-evaluates to the reported value, and every evaluation the
/// executor reports was seen by the probe.
fn check_unit(c: &Campaign, u: &Unit, out: &mut RunResult) {
    let valid = u.exec_space.check_valid(&u.exec.final_config);
    out.check(
        format!("campaign {} final configuration is valid", c.seed),
        valid.is_ok() && u.final_value.is_finite(),
        format!("{valid:?}, value {}", u.final_value),
    );
    let again = c.exec.evaluate(&u.exec.final_config).total;
    out.check(
        format!("campaign {} final value reproduces", c.seed),
        again.to_bits() == u.final_value.to_bits(),
        format!("reported {} re-evaluated {again}", u.final_value),
    );
    // One incumbent evaluation per search is counted in its history, plus
    // the closing evaluation of the folded configuration.
    out.check(
        format!("campaign {} evaluation count", c.seed),
        u.phases.execution_evals == u.exec.total_evals + 1,
        format!(
            "probe saw {} execution evaluations, executor reports {} + 1",
            u.phases.execution_evals, u.exec.total_evals
        ),
    );
}

/// Replay every search of a traced unit, at the single-thread split the
/// traced unit ran with.
fn replay_unit(c: &Campaign, u: &Unit, ledger: &mut Ledger) -> Result<(), String> {
    let template = &c.config.bo;
    let mut current = c.exec.default_config();
    let mut searches = u.exec.searches.iter();
    for (stage_idx, stage) in u.report.plan.stages.iter().enumerate() {
        let mut next = current.clone();
        for (i, planned) in stage.iter().enumerate() {
            let (name, outcome) = searches
                .next()
                .filter(|(name, _)| *name == planned.name)
                .ok_or_else(|| format!("search {} missing from the execution", planned.name))?;
            let names: Vec<&str> = planned.params.iter().map(String::as_str).collect();
            let sub = Subspace::new(&u.exec_space, &names, current.clone())
                .map_err(|e| format!("{name}: subspace: {e}"))?;
            let mut bo = template.clone();
            bo.max_evals = planned.budget;
            bo.seed = template
                .seed
                .wrapping_add((stage_idx as u64) << 32)
                .wrapping_add(i as u64 + 1);
            bo.n_workers = 1;
            bo.gp.par = ParConfig::fixed(1);
            // The executor hands each search its incumbent as history.
            replay_plain(&sub, &bo, &outcome.history, 1, ledger)
                .map_err(|e| format!("{name}: {e}"))?;
            ledger.add("search_s", outcome.wall_time.as_secs_f64());
            for p in &planned.params {
                let idx = u
                    .exec_space
                    .index_of(p)
                    .map_err(|e| format!("{name}: {e}"))?;
                next[idx] = outcome.best_config[idx].clone();
            }
        }
        current = next;
    }
    Ok(())
}

fn book_unit(u: &Unit, ledger: &mut Ledger) {
    let ph = &u.phases;
    ledger.add("trace.unit_s", u.wall_s);
    ledger.add("analyze.s", ph.analyze_s - ph.analysis_objective_s);
    ledger.add("analyze.evals", ph.analysis_evals as f64);
    ledger.add("lint.s", ph.lint_s);
    ledger.add("lint.diagnostics", ph.diagnostics as f64);
    ledger.add("absint.s", ph.absint_s);
    ledger.add("absint.params_narrowed", ph.narrowed as f64);
    ledger.add("execute.s", ph.execute_s);
    ledger.add(
        "objective.s",
        ph.analysis_objective_s + ph.execution_objective_s,
    );
    ledger.add(
        "objective.evals",
        (ph.analysis_evals + ph.execution_evals) as f64,
    );
    ledger.add("search_objective_s", ph.execution_objective_s);
}

pub fn run(p: Pipeline, ctx: &RunCtx, out: &mut RunResult) -> Result<(), String> {
    let threads = p.threads();
    let campaign = |i: usize| p.campaign(ctx.seed.wrapping_add(i as u64), ctx.smoke);
    // Warm-up at smoke size: caches, allocator and lazy statics settle
    // before anything is timed.
    run_unit(&p.campaign(ctx.seed, true)?, threads)?;
    if ctx.trace {
        return run_traced(p, ctx, out, &campaign);
    }
    let min = p.min_campaigns(ctx.smoke);
    let units = ctx.repeat(min, |i| {
        let c = campaign(i)?;
        let u = run_unit(&c, threads)?;
        Ok((c, u))
    })?;
    for (c, u) in &units {
        check_unit(c, u, out);
    }
    let all: Vec<&Unit> = units.iter().map(|(_, u)| u).collect();
    let first = &all[..min.min(all.len())];
    let walls: Vec<f64> = all.iter().map(|u| u.wall_s).collect();
    let gaps: Vec<f64> = first.iter().flat_map(|u| u.gaps_ms.clone()).collect();
    let attempts: usize = first.iter().map(|u| u.evals).sum();
    let non_finite: usize = first.iter().map(|u| u.non_finite).sum();
    let speedups: Vec<f64> = first
        .iter()
        .map(|u| u.default_value / u.final_value)
        .collect();
    let (tail_p, tail) = stats::tail(&gaps).ok_or("no decision gaps were recorded")?;
    out.set("run_s", stats::median(&walls).unwrap_or(f64::NAN));
    out.set(
        "evals_per_s",
        all.iter().map(|u| u.evals as f64).sum::<f64>() / walls.iter().sum::<f64>(),
    );
    out.set("decide_ms_p50", stats::median(&gaps).unwrap_or(f64::NAN));
    out.set("decide_ms_tail", tail);
    out.set(
        "setup_s",
        stats::median(&all.iter().map(|u| u.setup_s).collect::<Vec<_>>()).unwrap_or(f64::NAN),
    );
    out.set(
        "tuned_speedup",
        stats::geomean(&speedups).unwrap_or(f64::NAN),
    );
    out.set("evals_total", attempts as f64 / first.len() as f64);
    out.set(
        "ok_ratio",
        (attempts - non_finite) as f64 / attempts.max(1) as f64,
    );
    out.detail("decide_tail_percentile", Value::Float(tail_p));
    out.detail("decide_gaps", Value::UInt(gaps.len() as u64));
    out.detail("campaigns_counted", Value::UInt(first.len() as u64));
    out.detail(
        "unit_walls_s",
        Value::Array(walls.iter().map(|&w| Value::Float(w)).collect()),
    );
    out.detail(
        "final_hashes",
        Value::Array(
            units
                .iter()
                .map(|(c, u)| Value::String(format!("{}:{}", c.seed, u.hash)))
                .collect(),
        ),
    );
    Ok(())
}

/// The traced pass: each campaign runs once as the plain pipeline (the
/// reference) and once single-threaded with every phase timed, and its
/// searches are replayed for the GP and proposal layers. Both runs must
/// reach the same final configuration.
fn run_traced(
    p: Pipeline,
    ctx: &RunCtx,
    out: &mut RunResult,
    campaign: &dyn Fn(usize) -> Result<Campaign, String>,
) -> Result<(), String> {
    let mut ledger = Ledger::default();
    let mut reference_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let units = ctx.repeat(1, |i| {
        let c = campaign(i)?;
        let (reference_hash, reference_s) = if c.analysis.is_none() {
            // One objective for analysis and execution: the reference is
            // `Methodology::run` itself.
            let m = c.methodology(p.threads());
            let (r, s) = timed(|| m.run(&*c.exec, &c.pairs(), &c.baseline));
            let (_, plan) = r.map_err(|e| format!("Methodology::run: {e}"))?;
            (final_hash(&plan.final_config, plan.final_value), s)
        } else {
            let u = run_unit(&c, p.threads())?;
            (u.hash, u.wall_s)
        };
        let u = run_unit(&c, 1)?;
        replay_unit(&c, &u, &mut ledger)?;
        book_unit(&u, &mut ledger);
        if p.threads() > 1 {
            reference_walls.push(reference_s);
        }
        traced_walls.push(u.wall_s);
        Ok((c, u, reference_hash))
    })?;
    for (c, u, reference_hash) in &units {
        check_unit(c, u, out);
        out.check(
            format!(
                "campaign {} traced and untraced runs agree (1 vs {} threads)",
                c.seed,
                p.threads()
            ),
            *reference_hash == u.hash,
            format!("untraced {reference_hash}, traced {}", u.hash),
        );
    }
    set_speedup_t2(&traced_walls, &reference_walls, out);
    let coverage_num = ledger.sum("search_objective_s")
        + ledger.sum("gp.train_s")
        + ledger.sum("gp.append_s")
        + ledger.sum("gp.sparse_train_s")
        + ledger.sum("propose.s");
    out.set(
        "bo.replay_coverage",
        coverage_num / ledger.sum("search_s").max(f64::MIN_POSITIVE),
    );
    finish_traced(&ledger, units.len(), out);
    Ok(())
}
