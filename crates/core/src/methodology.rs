//! The five-step CETS methodology (paper Section IV) end to end:
//! sensitivity → influence DAG → partition → capped search plan → staged,
//! parallel BO execution.

use crate::bo::{BoConfig, BoSearch, ResilientOutcome, SearchOutcome};
use crate::db::Database;
use crate::objective::Objective;
use crate::resilience::{EvalOutcome, EvalRecord, ResilienceConfig, ResilientObjective};
use crate::sensitivity::{sensitivity_pass, VariationPolicy};
use crate::{CoreError, Result};
use cets_graph::{InfluenceGraph, Partition};
use cets_linalg::{par, ParConfig};
use cets_space::{Config, Subspace};
use cets_stats::SensitivityScores;
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How strictly the built-in plan linter gates [`Methodology::run`].
///
/// Before any objective evaluation is spent on *execution*, the analysis
/// result is checked by `cets-lint` (search space, influence DAG, staged
/// plan, kernel configuration). This policy decides what happens with the
/// findings. The linter itself always runs — even under [`LintPolicy::Off`]
/// the report is computable via [`Methodology::lint_report`]; the policy
/// only controls whether findings *block* execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintPolicy {
    /// Never block. For experiments that deliberately stress broken plans.
    Off,
    /// Block on `Error`-level diagnostics; warnings are reported but pass.
    /// This is the default: an Error means execution would be wrong or
    /// wasted, never merely suspicious.
    #[default]
    DenyErrors,
    /// Block on warnings too. For CI-grade strictness.
    DenyWarnings,
}

impl LintPolicy {
    /// Does `report` pass under this policy?
    pub fn accepts(&self, report: &cets_lint::Report) -> bool {
        match self {
            LintPolicy::Off => true,
            LintPolicy::DenyErrors => report.errors() == 0,
            LintPolicy::DenyWarnings => report.errors() == 0 && report.warnings() == 0,
        }
    }
}

/// What a planned search minimizes.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchTarget {
    /// The application's total objective (used for upstream/precedence
    /// searches like the paper's batch-size tuning against the whole
    /// Slater-determinant region).
    Total,
    /// The sum of the named routines' runtimes (merged groups minimize
    /// their joint runtime; singleton groups their own).
    Routines(Vec<String>),
}

/// One search in the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedSearch {
    /// Human-readable name (e.g. `"G3+G4"`).
    pub name: String,
    /// Parameters this search tunes.
    pub params: Vec<String>,
    /// Parameters excluded by the 10-dim cap (kept at defaults).
    pub dropped: Vec<String>,
    /// Objective of the search.
    pub target: SearchTarget,
    /// Evaluation budget (paper: `10 × dims`).
    pub budget: usize,
}

impl PlannedSearch {
    /// Search dimensionality.
    pub fn dim(&self) -> usize {
        self.params.len()
    }
}

/// The ordered plan: stage `k+1` starts only after stage `k` finished and
/// its best values were frozen into the defaults. Searches *within* a stage
/// are independent and run in parallel (the paper runs its split searches
/// concurrently and reports the slowest as the search time).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchPlan {
    /// Stages, each a set of mutually independent searches.
    pub stages: Vec<Vec<PlannedSearch>>,
}

impl SearchPlan {
    /// Sum of all searches' budgets (total observations).
    pub fn total_budget(&self) -> usize {
        self.stages
            .iter()
            .flat_map(|st| st.iter().map(|s| s.budget))
            .sum()
    }

    /// All searches flattened in execution order.
    pub fn searches(&self) -> impl Iterator<Item = &PlannedSearch> {
        self.stages.iter().flatten()
    }

    /// A table like the paper's Table VII.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<16} {:>5} {:>7}  Parameters",
            "Search", "Dims", "Budget"
        );
        for (k, stage) in self.stages.iter().enumerate() {
            for p in stage {
                let _ = writeln!(
                    s,
                    "{:<16} {:>5} {:>7}  {}{}",
                    format!("[stage {k}] {}", p.name),
                    p.dim(),
                    p.budget,
                    p.params.join(", "),
                    if p.dropped.is_empty() {
                        String::new()
                    } else {
                        format!("  (dropped: {})", p.dropped.join(", "))
                    }
                );
            }
        }
        s
    }
}

/// Everything the analysis phase produced.
#[derive(Debug, Clone)]
pub struct MethodologyReport {
    /// Raw per-routine sensitivity scores (+ `"total"` pseudo-routine).
    pub scores: SensitivityScores,
    /// The influence DAG built from the scores.
    pub graph: InfluenceGraph,
    /// Its partition at the configured cut-off.
    pub partition: Partition,
    /// The final staged search plan.
    pub plan: SearchPlan,
    /// Sensitivity variations whose evaluation failed under the run's
    /// guard; each one contributed the baseline row (zero variability).
    pub failed_variations: usize,
}

/// How one planned search ended.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchDisposition {
    /// The search produced a usable outcome (possibly with failed
    /// evaluations along the way).
    Completed,
    /// The search produced no usable outcome — every attempt failed, it
    /// hit its failure cap, or its infrastructure errored. Its parameters
    /// stay at the defaults in force when its stage started; the payload
    /// says why.
    Degraded(String),
}

/// Per-search failure accounting for one plan execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchLedgerEntry {
    /// Search name (matches [`PlannedSearch::name`]; `"final"` for the
    /// closing verification evaluation).
    pub search: String,
    /// Stage index the search ran in.
    pub stage: usize,
    /// Successful evaluations.
    pub n_ok: usize,
    /// Failed evaluations. For [`SearchDisposition::Degraded`] searches
    /// this counts *attempts* (retries included), since no record history
    /// survives a fully failed search.
    pub n_failed: usize,
    /// Budget consumed (`n_ok + budget_fraction × n_failed`).
    pub budget_spent: f64,
    /// How the search ended.
    pub disposition: SearchDisposition,
}

/// The failure ledger of a plan execution: one entry per search, in
/// execution order, then one for the closing verification evaluation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionLedger {
    /// Per-search entries, in execution order.
    pub entries: Vec<SearchLedgerEntry>,
}

impl ExecutionLedger {
    /// Searches that completed no usable outcome.
    pub fn n_degraded(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.disposition, SearchDisposition::Degraded(_)))
            .count()
    }

    /// Total failed evaluations across all searches.
    pub fn total_failures(&self) -> usize {
        self.entries.iter().map(|e| e.n_failed).sum()
    }

    /// No failures anywhere and every search completed.
    pub fn is_clean(&self) -> bool {
        self.total_failures() == 0 && self.n_degraded() == 0
    }
}

/// Result of executing a [`SearchPlan`].
#[derive(Debug, Clone)]
pub struct PlanExecution {
    /// Each search's outcome, in execution order, tagged by name.
    /// Degraded searches are absent here and present in
    /// [`PlanExecution::ledger`].
    pub searches: Vec<(String, SearchOutcome)>,
    /// All searches' best values folded into one configuration.
    pub final_config: Config,
    /// Total objective at [`PlanExecution::final_config`].
    pub final_value: f64,
    /// Total objective evaluations spent by all searches.
    pub total_evals: usize,
    /// Wall-clock time of the whole execution (stages sequential, searches
    /// within a stage parallel).
    pub wall_time: Duration,
    /// Every evaluation performed, tagged by search name — the task's
    /// configuration database (persist with [`Database::save`], reuse for
    /// transfer learning via [`Database::to_transfer_seed`]) — when the run
    /// asked to keep it ([`MethodologyConfig::record_database`]). Record
    /// order within a parallel stage is nondeterministic; contents are not.
    pub database: Option<Database>,
    /// Per-search failure accounting: one entry per search plus the
    /// closing verification evaluation.
    pub ledger: ExecutionLedger,
}

/// Configuration of the methodology pipeline.
#[derive(Debug, Clone)]
pub struct MethodologyConfig {
    /// Influence cut-off for DAG pruning (paper: 25% synthetic, 10% TDDFT).
    pub cutoff: f64,
    /// Per-search dimensionality cap (paper: 10).
    pub max_dims: usize,
    /// How sensitivity variations are generated.
    pub variation_policy: VariationPolicy,
    /// Routine names tuned *first* (order preserved), then frozen — e.g.
    /// the paper's Iterations (nbatches/nstreams) and MPI-grid routines.
    pub precedence: Vec<String>,
    /// Groups of parameters that must keep one value application-wide
    /// (typically all parameters of one kernel that is called from several
    /// routines — the paper's cuZcopy). Each group is reassigned **as a
    /// unit** to the routine it influences most (methodology step 5:
    /// "prioritize the kernel with highest impact").
    pub shared_params: Vec<Vec<String>>,
    /// Template BO configuration (budget and seed are overridden per
    /// search).
    pub bo: BoConfig,
    /// Budget rule: `evals_per_dim × dims` per search (paper: 10).
    pub evals_per_dim: usize,
    /// Worker budget for the whole execution (`ParConfig::fixed(1)` runs
    /// fully sequentially): stage searches share it, and each search's
    /// leftover goes to GP training and candidate scoring (unless the
    /// [`Self::bo`] template pins its own counts). Results are
    /// bit-identical at any budget.
    pub par: ParConfig,
    /// How strictly the pre-execution linter gates [`Methodology::run`].
    pub lint: LintPolicy,
    /// Fault tolerance of the run. Every run guards its evaluations —
    /// the sensitivity pre-pass of [`Methodology::analyze`] as well as
    /// [`execute_plan`] — with panic containment and non-finite
    /// screening. The pre-pass substitutes a failed variation with the
    /// baseline row and counts it in
    /// [`MethodologyReport::failed_variations`]; execution imputes
    /// failures into the BO loop, isolates a search that produces nothing
    /// instead of aborting the plan, and reports the damage in
    /// [`PlanExecution::ledger`]. `None` (default) retries nothing and
    /// runs no watchdog, under the default [`crate::FailurePolicy`];
    /// `Some(..)` sets the guard, failure accounting and clock.
    pub resilience: Option<ResilienceConfig>,
    /// Statically contract the search box before execution.
    ///
    /// When on, [`Methodology::run`] feeds the analysis result through
    /// `cets-lint`'s abstract-interpretation engine and replaces every
    /// parameter domain that the constraints *provably* narrow with its
    /// contracted version (see [`Methodology::contracted_space`]). The
    /// contraction is sound — no constraint-satisfying configuration is
    /// excluded — so the only effect on the search is a denser supply of
    /// valid candidates for the BO rejection sampler. A box proved empty
    /// is rejected with [`CoreError::Lint`] before any budget is spent.
    pub contract_bounds: bool,
    /// Keep every evaluation in [`PlanExecution::database`]. Off by
    /// default: the records repeat each search's history with full
    /// configurations and per-routine values, which is most of a finished
    /// execution's memory, and only a caller that persists or transfers
    /// them reads them.
    pub record_database: bool,
}

impl Default for MethodologyConfig {
    fn default() -> Self {
        MethodologyConfig {
            cutoff: 0.25,
            max_dims: 10,
            variation_policy: VariationPolicy::Spread { count: 5 },
            precedence: vec![],
            shared_params: vec![],
            bo: BoConfig::default(),
            evals_per_dim: 10,
            par: ParConfig::default(),
            lint: LintPolicy::default(),
            resilience: None,
            contract_bounds: false,
            record_database: false,
        }
    }
}

/// The methodology driver. See the crate docs for the phase structure.
#[derive(Debug, Clone, Default)]
pub struct Methodology {
    /// Pipeline configuration.
    pub config: MethodologyConfig,
}

impl Methodology {
    /// Create a driver.
    pub fn new(config: MethodologyConfig) -> Self {
        Methodology { config }
    }

    /// Phase 1+2 analysis: sensitivity scores → influence DAG → partition →
    /// capped plan.
    ///
    /// `owners` assigns each parameter to its owning routine (`(param,
    /// routine)` pairs); unlisted parameters are global (ownerless) and are
    /// only tuned through precedence searches.
    ///
    /// The sensitivity pre-pass evaluates through a [`ResilientObjective`]
    /// under [`MethodologyConfig::resilience`]: a failed variation takes
    /// the baseline row and is counted in
    /// [`MethodologyReport::failed_variations`]; a failed baseline is an
    /// error.
    pub fn analyze<O: Objective + ?Sized>(
        &self,
        objective: &O,
        owners: &[(&str, &str)],
        baseline: &Config,
    ) -> Result<MethodologyReport> {
        let cfg = &self.config;
        let unguarded = ResilienceConfig::unguarded();
        let resilience = cfg.resilience.as_ref().unwrap_or(&unguarded);
        let guarded = ResilientObjective::new(
            objective,
            resilience.guard.clone(),
            Arc::clone(&resilience.clock),
        );
        // Evaluation ordinal within the pre-pass, keying retry backoff.
        let ordinal = Cell::new(0);
        let (scores, failed_variations) =
            sensitivity_pass(objective, baseline, &cfg.variation_policy, |c| {
                let idx = ordinal.replace(ordinal.get() + 1);
                match guarded.evaluate_outcome(c, idx) {
                    EvalOutcome::Ok(obs) => Some(obs),
                    EvalOutcome::Failed(_) => None,
                }
            })?;
        let graph = build_graph(objective, owners, &scores)?;

        let precedence: Vec<&str> = cfg.precedence.iter().map(|s| s.as_str()).collect();
        let shared_flat: Vec<&str> = cfg
            .shared_params
            .iter()
            .flatten()
            .map(|s| s.as_str())
            .collect();
        let mut partition = graph.partition_with(cfg.cutoff, &precedence, &shared_flat)?;

        // Step 5: each shared kernel's parameters move as a unit to the
        // routine the kernel impacts most (argmax of the group's summed
        // influence).
        for group in &cfg.shared_params {
            if group.is_empty() {
                continue;
            }
            let n_routines = graph.routines().len();
            let mut sums = vec![0.0; n_routines];
            for name in group {
                let p = graph.param_index(name)?;
                for (r, s) in sums.iter_mut().enumerate() {
                    *s += graph.score_at(p, r);
                }
            }
            let Some(routine) = sums
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(r, _)| r)
            else {
                return Err(CoreError::BadConfig(
                    "shared parameter group declared but the objective has no routines".into(),
                ));
            };
            for name in group {
                let p = graph.param_index(name)?;
                partition.assign_param_to(p, routine);
            }
        }

        // Importance = influence on the total runtime (the paper picks the
        // "ten most influential variables based on the data insights").
        let space = objective.space();
        let total_col = scores.routine_names().len() - 1;
        let importance: Vec<f64> = (0..space.dim())
            .map(|p| scores.score(p, total_col))
            .collect();
        partition.cap_dimensions(cfg.max_dims, &importance);

        let plan = self.build_plan(&graph, &partition)?;
        Ok(MethodologyReport {
            scores,
            graph,
            partition,
            plan,
            failed_variations,
        })
    }

    fn build_plan(&self, graph: &InfluenceGraph, partition: &Partition) -> Result<SearchPlan> {
        let cfg = &self.config;
        let mut stages: Vec<Vec<PlannedSearch>> = Vec::new();

        // Stage 0..k: precedence routines in the configured order, each a
        // sequential stage (later precedence searches see earlier results).
        for routine in &cfg.precedence {
            let r = graph.routine_index(routine)?;
            let params: Vec<String> = graph
                .params_of(r)
                .into_iter()
                .map(|p| graph.params()[p].clone())
                .collect();
            if params.is_empty() {
                continue;
            }
            let budget = cfg.evals_per_dim * params.len();
            stages.push(vec![PlannedSearch {
                name: routine.clone(),
                params,
                dropped: vec![],
                target: SearchTarget::Total,
                budget,
            }]);
        }

        // Final stage: the partitioned groups, in parallel.
        let mut group_stage = Vec::new();
        for grp in partition.groups() {
            let params: Vec<String> = grp
                .params
                .iter()
                .map(|&p| graph.params()[p].clone())
                .collect();
            if params.is_empty() {
                continue;
            }
            let routines: Vec<String> = grp
                .routines
                .iter()
                .map(|&r| graph.routines()[r].clone())
                .collect();
            let dropped: Vec<String> = grp
                .dropped
                .iter()
                .map(|&p| graph.params()[p].clone())
                .collect();
            group_stage.push(PlannedSearch {
                name: routines.join("+"),
                budget: cfg.evals_per_dim * params.len(),
                target: SearchTarget::Routines(routines),
                params,
                dropped,
            });
        }
        if !group_stage.is_empty() {
            stages.push(group_stage);
        }
        Ok(SearchPlan { stages })
    }

    /// Assemble the `cets-lint` bundle describing this configuration's
    /// analysis result: search space + baseline defaults, the influence
    /// graph, the staged plan, the shared/precedence declarations, and the
    /// GP kernel's noise floor.
    pub fn lint_bundle<O: Objective + ?Sized>(
        &self,
        objective: &O,
        report: &MethodologyReport,
        baseline: &Config,
    ) -> cets_lint::PlanBundle {
        let cfg = &self.config;
        let space = objective.space();
        let params = space
            .names()
            .iter()
            .zip(space.defs())
            .enumerate()
            .map(|(i, (name, def))| cets_lint::ParamSpec {
                name: name.clone(),
                def: def.clone(),
                default: baseline.get(i).map(|v| v.as_f64()),
            })
            .collect();
        let constraints = space
            .constraints()
            .iter()
            .map(|c| cets_lint::ConstraintSpec {
                name: c.name().to_string(),
                expr: c.description().to_string(),
            })
            .collect();
        let plan = cets_lint::PlanSpec {
            stages: report
                .plan
                .stages
                .iter()
                .map(|stage| {
                    stage
                        .iter()
                        .map(|s| cets_lint::SearchSpec {
                            name: s.name.clone(),
                            params: s.params.clone(),
                            routines: match &s.target {
                                SearchTarget::Total => vec![],
                                SearchTarget::Routines(r) => r.clone(),
                            },
                        })
                        .collect()
                })
                .collect(),
        };
        cets_lint::PlanBundle {
            params,
            constraints,
            graph: Some(report.graph.clone()),
            cutoff: cfg.cutoff,
            max_dims: cfg.max_dims,
            precedence: cfg.precedence.clone(),
            shared_params: cfg.shared_params.clone(),
            kernel: Some(cets_lint::KernelSpec {
                noise_floor: cfg.bo.gp.noise_floor,
                length_scales: vec![],
                signal_variance: None,
            }),
            plan: Some(plan),
            unresolved: vec![],
            spans: Default::default(),
        }
    }

    /// Run the static linter over the analysis result without executing
    /// anything. [`Methodology::run`] calls this internally and gates on
    /// [`MethodologyConfig::lint`]; call it directly to inspect findings.
    pub fn lint_report<O: Objective + ?Sized>(
        &self,
        objective: &O,
        report: &MethodologyReport,
        baseline: &Config,
    ) -> cets_lint::Report {
        cets_lint::lint(&self.lint_bundle(objective, report, baseline))
    }

    fn enforce_lint<O: Objective + ?Sized>(
        &self,
        objective: &O,
        report: &MethodologyReport,
        baseline: &Config,
    ) -> Result<()> {
        if self.config.lint == LintPolicy::Off {
            return Ok(());
        }
        let lint = self.lint_report(objective, report, baseline);
        if self.config.lint.accepts(&lint) {
            Ok(())
        } else {
            Err(CoreError::Lint(cets_lint::render_human(&lint)))
        }
    }

    /// The statically contracted search space for this analysis result,
    /// when the abstract-interpretation engine narrows anything.
    ///
    /// Runs `cets-lint`'s interval analysis over the same bundle the lint
    /// gate sees and rebuilds the objective's [`cets_space::SearchSpace`]
    /// (same parameters, same constraint predicates) with every provably
    /// tightened domain applied. Returns:
    ///
    /// * `Ok(None)` — nothing narrowed (or the bundle was not analyzable):
    ///   execute against the original space;
    /// * `Ok(Some(space))` — at least one domain tightened;
    /// * `Err(CoreError::Lint)` — the constraint conjunction is proved
    ///   unsatisfiable: no configuration can be valid, searching is
    ///   pointless.
    ///
    /// A tightened domain that would evict the analysis baseline or the
    /// objective's default value for that parameter is skipped (the
    /// default must stay encodable — dropped parameters freeze to it), so
    /// the contracted space always accepts both reference configurations.
    pub fn contracted_space<O: Objective + ?Sized>(
        &self,
        objective: &O,
        report: &MethodologyReport,
        baseline: &Config,
    ) -> Result<Option<cets_space::SearchSpace>> {
        use cets_space::{ParamValue, SearchSpace};
        let bundle = self.lint_bundle(objective, report, baseline);
        let analysis = cets_lint::analyze_space(&bundle);
        if !analysis.analyzed {
            return Ok(None);
        }
        if analysis.proved_empty {
            return Err(CoreError::Lint(
                "the constraint conjunction is proved unsatisfiable over the declared \
                 domains (A001): no configuration can be valid"
                    .into(),
            ));
        }
        if !analysis.any_narrowed() {
            return Ok(None);
        }

        let space = objective.space();
        let defaults = objective.default_config();
        let mut changed = false;
        let mut builder = SearchSpace::builder();
        for (i, (name, def)) in space.names().iter().zip(space.defs()).enumerate() {
            let fits = |t: &cets_space::ParamDef| {
                let ok = |v: &ParamValue| t.contains(v);
                baseline.get(i).is_none_or(ok) && defaults.get(i).is_none_or(ok)
            };
            match analysis.tightened_def(name).filter(|t| fits(t)) {
                Some(t) => {
                    changed = true;
                    builder = builder.param(name.clone(), t.clone());
                }
                None => builder = builder.param(name.clone(), def.clone()),
            }
        }
        if !changed {
            return Ok(None);
        }
        for c in space.constraints() {
            builder = builder.constraint(c.clone());
        }
        Ok(Some(builder.try_build()?))
    }

    /// Execute a previously computed report's plan under
    /// [`MethodologyConfig::par`] and [`MethodologyConfig::resilience`].
    pub fn execute<O: Objective + ?Sized>(
        &self,
        objective: &O,
        report: &MethodologyReport,
    ) -> Result<PlanExecution> {
        execute_plan(
            objective,
            &report.plan,
            &self.config.bo,
            self.config.par.resolve(),
            self.config.resilience.as_ref(),
            self.config.record_database,
        )
    }

    /// Full pipeline: analyze, **lint** (see [`MethodologyConfig::lint`]),
    /// optionally **contract** the box
    /// (see [`MethodologyConfig::contract_bounds`]), then execute. A plan
    /// that fails the lint gate — or whose constraint conjunction is
    /// proved unsatisfiable by the contraction — is rejected with
    /// [`CoreError::Lint`] *before* any execution budget is spent.
    pub fn run<O: Objective + ?Sized>(
        &self,
        objective: &O,
        owners: &[(&str, &str)],
        baseline: &Config,
    ) -> Result<(MethodologyReport, PlanExecution)> {
        let report = self.analyze(objective, owners, baseline)?;
        self.enforce_lint(objective, &report, baseline)?;
        if self.config.contract_bounds {
            if let Some(space) = self.contracted_space(objective, &report, baseline)? {
                let contracted = crate::objective::ContractedObjective::new(objective, space);
                let exec = self.execute(&contracted, &report)?;
                return Ok((report, exec));
            }
        }
        let exec = self.execute(objective, &report)?;
        Ok((report, exec))
    }
}

/// Build the influence graph from sensitivity scores (the `"total"`
/// pseudo-routine column is excluded — it feeds importance, not edges).
pub fn build_graph<O: Objective + ?Sized>(
    objective: &O,
    owners: &[(&str, &str)],
    scores: &SensitivityScores,
) -> Result<InfluenceGraph> {
    let routines = objective.routine_names();
    let params = objective.space().names().to_vec();
    let mut graph = InfluenceGraph::new(routines.clone(), params.clone());
    for (p, r) in owners {
        graph.set_owner(p, r)?;
    }
    for (p, pname) in params.iter().enumerate() {
        for (r, rname) in routines.iter().enumerate() {
            debug_assert_eq!(scores.routine_names()[r], *rname);
            graph.set_score(pname, rname, scores.score(p, r))?;
        }
    }
    Ok(graph)
}

/// Split a stage's worker budget: up to `workers` concurrent searches,
/// with each search's BO loop (GP training, candidate scoring) given the
/// leftover `workers / used` — unless the template already pins explicit
/// counts. Every split yields bit-identical trajectories; only wall-clock
/// time changes.
fn stage_budget(bo_template: &BoConfig, workers: usize, n_searches: usize) -> (usize, BoConfig) {
    let used = workers.max(1).min(n_searches.max(1));
    let inner = (workers.max(1) / used).max(1);
    let mut bo = bo_template.clone();
    if bo.n_workers == 0 {
        bo.n_workers = inner;
    }
    if bo.gp.par == ParConfig::default() {
        bo.gp.par = ParConfig::fixed(inner);
    }
    (used, bo)
}

/// Execute an arbitrary [`SearchPlan`] against an objective: stages
/// sequentially; within a stage, searches share a budget of `workers`
/// threads (`1` = fully sequential; results are bit-identical at any
/// budget). After each stage, every search's best values are frozen into
/// the shared defaults used by later stages, and all searches' best values
/// are folded into the final configuration.
///
/// Every evaluation runs through a per-search [`ResilientObjective`]
/// (panic containment, non-finite screening, and — when `resilience`
/// asks for them — watchdog and retries; `None` asks for neither). The BO
/// loops record failures and
/// impute them ([`BoSearch::run_resilient_observed`]), and a search
/// that produces **no** usable outcome — all attempts failed, failure cap
/// hit, or its infrastructure errored — is *isolated*: its parameters stay
/// at the stage's entry defaults, the remaining searches proceed, and the
/// [`ExecutionLedger`] records what happened. The run aborts only when
/// every search degraded — with the first one's error, since there is no
/// configuration to report — or when the folded configuration violates a
/// cross-search constraint (the result would be wrong, not merely
/// partial).
///
/// Every evaluation is recorded in a [`Database`]: a failed final
/// verification falls back to its best entry. The result keeps it in
/// [`PlanExecution::database`] only with `record_database`.
///
/// A template [`BoConfig::checkpoint_path`] is rejected with
/// [`CoreError::BadConfig`]: every search is cloned from the template, so
/// all would log into that one file.
pub fn execute_plan<O: Objective + ?Sized>(
    objective: &O,
    plan: &SearchPlan,
    bo_template: &BoConfig,
    workers: usize,
    resilience: Option<&ResilienceConfig>,
    record_database: bool,
) -> Result<PlanExecution> {
    if let Some(path) = &bo_template.checkpoint_path {
        return Err(CoreError::BadConfig(format!(
            "checkpoint_path {} set on the plan's BO template: every search of the plan \
             would log into that one file",
            path.display()
        )));
    }
    let unguarded = ResilienceConfig::unguarded();
    let resilience = resilience.unwrap_or(&unguarded);
    let start = Instant::now();
    let space = objective.space();
    let routine_names = objective.routine_names();
    let mut current = objective.default_config();
    let mut all: Vec<(String, SearchOutcome)> = Vec::new();
    let mut ledger = ExecutionLedger::default();
    let mut first_error: Option<CoreError> = None;
    let db = Mutex::new(Database::for_objective("plan-execution", objective));

    for (stage_idx, stage) in plan.stages.iter().enumerate() {
        // Resolve targets to routine indices once.
        let prepared: Vec<(usize, &PlannedSearch, Vec<usize>)> = stage
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let idxs = match &s.target {
                    SearchTarget::Total => vec![],
                    SearchTarget::Routines(names) => names
                        .iter()
                        .map(|n| {
                            routine_names.iter().position(|r| r == n).ok_or_else(|| {
                                CoreError::BadConfig(format!("unknown routine {n} in plan"))
                            })
                        })
                        .collect::<Result<Vec<usize>>>()?,
                };
                Ok((i, s, idxs))
            })
            .collect::<Result<Vec<_>>>()?;

        // One search under full protection. Returns the outcome (or the
        // degradation reason) with the guard's attempt counts.
        let (used, bo_stage) = stage_budget(bo_template, workers, prepared.len());
        let run_one = |(i, s, idxs): &(usize, &PlannedSearch, Vec<usize>)| -> OneResult {
            let guarded = ResilientObjective::new(
                objective,
                resilience.guard.clone(),
                Arc::clone(&resilience.clock),
            );
            let attempt = |sub: &Subspace| -> Result<ResilientOutcome> {
                let mut bo_cfg = bo_stage.clone();
                bo_cfg.max_evals = s.budget;
                bo_cfg.seed = bo_template
                    .seed
                    .wrapping_add((stage_idx as u64) << 32)
                    .wrapping_add(*i as u64 + 1);
                let f = |cfg: &Config, eval_idx: usize| -> EvalOutcome {
                    match guarded.evaluate_outcome(cfg, eval_idx) {
                        EvalOutcome::Ok(mut obs) => {
                            db.lock().push(cfg.clone(), &obs, s.name.clone());
                            // The BO loop minimizes `total`; for a
                            // routine-targeted search that must be the sum of
                            // the targeted routines (already screened finite).
                            if !idxs.is_empty() {
                                obs.total = idxs.iter().map(|&r| obs.routines[r]).sum();
                            }
                            EvalOutcome::Ok(obs)
                        }
                        failed => failed,
                    }
                };
                // Seed with the incumbent defaults: the tuner always knows
                // the current configuration's cost, so the search can never
                // report a best worse than what it started from (costs 1
                // evaluation of the budget, like any other observation). A
                // failing incumbent evaluation is a recorded failure, not an
                // abort.
                let u0 = sub.project(&current)?;
                let rec0 = EvalRecord::from_outcome(u0.clone(), f(&sub.lift(&u0)?, 0));
                BoSearch::new(bo_cfg).run_resilient_observed(
                    sub,
                    f,
                    &resilience.failure,
                    vec![rec0],
                    &mut |_| Ok(()),
                )
            };
            let names: Vec<&str> = s.params.iter().map(|p| p.as_str()).collect();
            let result = Subspace::new(space, &names, current.clone())
                .map_err(CoreError::from)
                .and_then(|sub| attempt(&sub));
            (result, guarded.attempts(), guarded.failed_attempts())
        };

        // Fixed chunks + index-ordered results: the ledger fold below
        // visits searches in plan order regardless of the worker count.
        let outcomes: Vec<OneResult> =
            par::map_indexed(used, prepared.len(), |idx| run_one(&prepared[idx]));

        for ((_, s, _), (result, attempts, failed_attempts)) in prepared.iter().zip(outcomes) {
            match result {
                Ok(r) => {
                    // Freeze this search's best values into the running
                    // defaults.
                    for p in &s.params {
                        let idx = space.index_of(p)?;
                        current[idx] = r.outcome.best_config[idx].clone();
                    }
                    ledger.entries.push(SearchLedgerEntry {
                        search: s.name.clone(),
                        stage: stage_idx,
                        n_ok: r.records.len() - r.n_failed,
                        n_failed: r.n_failed,
                        budget_spent: r.budget_spent,
                        disposition: SearchDisposition::Completed,
                    });
                    all.push((s.name.clone(), r.outcome));
                }
                Err(e) => {
                    // Isolate: this search contributes nothing; its
                    // parameters stay at the stage's entry defaults.
                    ledger.entries.push(SearchLedgerEntry {
                        search: s.name.clone(),
                        stage: stage_idx,
                        n_ok: attempts - failed_attempts,
                        n_failed: failed_attempts,
                        budget_spent: resilience.failure.budget_fraction * failed_attempts as f64
                            + (attempts - failed_attempts) as f64,
                        disposition: SearchDisposition::Degraded(e.to_string()),
                    });
                    first_error.get_or_insert(e);
                }
            }
        }
        // A folded configuration that violates a cross-search constraint is
        // wrong, not partial: a hard error.
        space.check_valid(&current).map_err(|e| {
            CoreError::SearchStalled(format!(
                "folded configuration invalid after stage {stage_idx}: {e}"
            ))
        })?;
    }

    if let (true, Some(e)) = (all.is_empty(), first_error) {
        return Err(e);
    }

    // Final verification evaluation, itself guarded: if it fails, fall back
    // to the database's best recorded configuration and note it in the
    // ledger instead of aborting a whole completed run at the last step.
    let guarded = ResilientObjective::new(
        objective,
        resilience.guard.clone(),
        Arc::clone(&resilience.clock),
    );
    let n_stages = plan.stages.len();
    let mut database = db.into_inner();
    let (final_config, final_value) = match guarded.evaluate_outcome(&current, 0) {
        EvalOutcome::Ok(obs) => {
            let v = obs.total;
            database.push(current.clone(), &obs, "final");
            ledger.entries.push(SearchLedgerEntry {
                search: "final".into(),
                stage: n_stages,
                n_ok: 1,
                n_failed: guarded.failed_attempts(),
                budget_spent: 1.0,
                disposition: SearchDisposition::Completed,
            });
            (current, v)
        }
        EvalOutcome::Failed(e) => {
            let best = database.best().ok_or_else(|| {
                CoreError::SearchStalled(
                    "final evaluation failed and the database holds no successful \
                     evaluation to fall back to"
                        .into(),
                )
            })?;
            let (cfg, v) = (best.config.clone(), best.total);
            ledger.entries.push(SearchLedgerEntry {
                search: "final".into(),
                stage: n_stages,
                n_ok: 0,
                n_failed: guarded.failed_attempts(),
                budget_spent: resilience.failure.budget_fraction,
                disposition: SearchDisposition::Degraded(format!(
                    "final evaluation failed ({e}); reporting the database's best \
                     recorded configuration instead"
                )),
            });
            (cfg, v)
        }
    };
    Ok(PlanExecution {
        total_evals: all.iter().map(|(_, o)| o.n_evals).sum(),
        searches: all,
        final_config,
        final_value,
        wall_time: start.elapsed(),
        database: record_database.then_some(database),
        ledger,
    })
}

/// One search's result in [`execute_plan`]: the outcome or the error it
/// degraded with, and the guard's attempt and failed-attempt counts (read
/// only on the degraded side, where no record history survives).
type OneResult = (Result<ResilientOutcome>, usize, usize);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::test_objectives::{CoupledSphere, SplitSphere};

    fn quick_bo() -> BoConfig {
        BoConfig {
            n_init: 4,
            n_candidates: 48,
            n_local: 8,
            seed: 3,
            ..Default::default()
        }
    }

    fn owners3() -> Vec<(&'static str, &'static str)> {
        vec![("x0", "r0"), ("x1", "r0"), ("x2", "r1")]
    }

    #[test]
    fn analyze_split_sphere_keeps_routines_independent() {
        let obj = SplitSphere::new();
        let m = Methodology::new(MethodologyConfig {
            bo: quick_bo(),
            evals_per_dim: 5,
            ..Default::default()
        });
        let report = m.analyze(&obj, &owners3(), &obj.default_config()).unwrap();
        // No cross-influence: two independent searches.
        assert_eq!(report.partition.groups().len(), 2);
        assert_eq!(report.plan.stages.len(), 1);
        assert_eq!(report.plan.stages[0].len(), 2);
        let names: Vec<&str> = report.plan.stages[0]
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(names, vec!["r0", "r1"]);
        // Budgets follow 10×dims (here 5×dims).
        assert_eq!(report.plan.stages[0][0].budget, 10);
        assert_eq!(report.plan.stages[0][1].budget, 5);
    }

    #[test]
    fn analyze_coupled_sphere_merges_routines() {
        let obj = CoupledSphere::new();
        let m = Methodology::new(MethodologyConfig {
            cutoff: 0.10,
            bo: quick_bo(),
            ..Default::default()
        });
        let report = m.analyze(&obj, &owners3(), &obj.default_config()).unwrap();
        // x1 (owned by r0) cross-influences r1 -> merged search.
        assert_eq!(report.partition.groups().len(), 1);
        let s = &report.plan.stages[0][0];
        assert_eq!(s.name, "r0+r1");
        assert_eq!(s.params, vec!["x0", "x1", "x2"]);
        assert_eq!(
            s.target,
            SearchTarget::Routines(vec!["r0".into(), "r1".into()])
        );
    }

    #[test]
    fn high_cutoff_splits_coupled_sphere() {
        let obj = CoupledSphere::new();
        let m = Methodology::new(MethodologyConfig {
            cutoff: 10.0, // absurdly high: nothing merges
            bo: quick_bo(),
            ..Default::default()
        });
        let report = m.analyze(&obj, &owners3(), &obj.default_config()).unwrap();
        assert_eq!(report.partition.groups().len(), 2);
    }

    #[test]
    fn dimension_cap_drops_params() {
        let obj = CoupledSphere::new();
        let m = Methodology::new(MethodologyConfig {
            cutoff: 0.10,
            max_dims: 2,
            bo: quick_bo(),
            ..Default::default()
        });
        let report = m.analyze(&obj, &owners3(), &obj.default_config()).unwrap();
        let s = &report.plan.stages[0][0];
        assert_eq!(s.dim(), 2);
        assert_eq!(s.dropped.len(), 1);
    }

    #[test]
    fn full_run_improves_on_defaults() {
        let obj = SplitSphere::new();
        let m = Methodology::new(MethodologyConfig {
            bo: quick_bo(),
            evals_per_dim: 10,
            ..Default::default()
        });
        let (report, exec) = m.run(&obj, &owners3(), &obj.default_config()).unwrap();
        let default_value = obj.evaluate(&obj.default_config()).total;
        assert!(
            exec.final_value < default_value,
            "final {} !< default {default_value}",
            exec.final_value
        );
        assert_eq!(exec.total_evals, report.plan.total_budget());
        assert_eq!(exec.searches.len(), 2);
        // Final config must be valid.
        assert!(obj.space().is_valid(&exec.final_config));
    }

    #[test]
    fn precedence_routine_tuned_first_on_total() {
        let obj = SplitSphere::new();
        let m = Methodology::new(MethodologyConfig {
            precedence: vec!["r1".into()],
            bo: quick_bo(),
            evals_per_dim: 8,
            ..Default::default()
        });
        let report = m.analyze(&obj, &owners3(), &obj.default_config()).unwrap();
        assert_eq!(report.plan.stages.len(), 2);
        let first = &report.plan.stages[0][0];
        assert_eq!(first.name, "r1");
        assert_eq!(first.target, SearchTarget::Total);
        assert_eq!(first.params, vec!["x2"]);
        // r1 is excluded from the group stage.
        assert_eq!(report.plan.stages[1].len(), 1);
        assert_eq!(report.plan.stages[1][0].name, "r0");
        let exec = m.execute(&obj, &report).unwrap();
        assert!(exec.final_value < 3.0);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let obj = SplitSphere::new();
        let mk = |threads| {
            let m = Methodology::new(MethodologyConfig {
                bo: quick_bo(),
                evals_per_dim: 6,
                par: ParConfig::fixed(threads),
                ..Default::default()
            });
            m.run(&obj, &owners3(), &obj.default_config()).unwrap().1
        };
        let seq = mk(1);
        let par = mk(4);
        assert_eq!(seq.final_value, par.final_value);
        assert_eq!(seq.final_config, par.final_config);
    }

    #[test]
    fn execution_database_records_everything() {
        let obj = SplitSphere::new();
        let m = Methodology::new(MethodologyConfig {
            bo: quick_bo(),
            evals_per_dim: 5,
            record_database: true,
            ..Default::default()
        });
        let (report, exec) = m.run(&obj, &owners3(), &obj.default_config()).unwrap();
        let database = exec.database.as_ref().unwrap();
        // One record per search evaluation plus the final verification.
        assert_eq!(database.len(), exec.total_evals + 1);
        // Tags cover every search name plus "final".
        for s in report.plan.searches() {
            assert!(
                database.with_tag(&s.name).count() > 0,
                "no records tagged {}",
                s.name
            );
        }
        assert_eq!(database.with_tag("final").count(), 1);
        // The database's best total is <= the final value (the final fold
        // can combine searches but each search's best was recorded).
        assert!(database.best().unwrap().total <= exec.final_value + 1e-9);
        // Without the flag the execution keeps no records.
        let m = Methodology::new(MethodologyConfig {
            record_database: false,
            ..m.config
        });
        assert!(m.execute(&obj, &report).unwrap().database.is_none());
    }

    #[test]
    fn plan_describe_is_table_like() {
        let obj = SplitSphere::new();
        let m = Methodology::new(MethodologyConfig {
            bo: quick_bo(),
            ..Default::default()
        });
        let report = m.analyze(&obj, &owners3(), &obj.default_config()).unwrap();
        let txt = report.plan.describe();
        assert!(txt.contains("r0"));
        assert!(txt.contains("x2"));
        assert!(txt.contains("Budget"));
    }

    /// Known limitation, made explicit: folding independently-optimal
    /// values can violate a *cross-search* constraint; execute_plan
    /// detects this and reports SearchStalled instead of silently
    /// returning an invalid configuration. (The methodology avoids this in
    /// practice by merging routines whose parameters interact — a shared
    /// constraint is exactly such an interaction.)
    #[test]
    fn fold_violating_cross_constraint_is_reported() {
        use cets_space::{Constraint, SearchSpace};
        struct Greedy(SearchSpace);
        impl Objective for Greedy {
            fn space(&self) -> &SearchSpace {
                &self.0
            }
            fn routine_names(&self) -> Vec<String> {
                vec!["rA".into(), "rB".into()]
            }
            fn evaluate(&self, cfg: &Config) -> crate::Observation {
                let a = cfg[0].as_f64();
                let b = cfg[1].as_f64();
                // Each routine wants its own parameter as large as possible.
                crate::Observation {
                    total: (10.0 - a) + (10.0 - b),
                    routines: vec![10.0 - a + 0.1, 10.0 - b + 0.1],
                }
            }
            fn default_config(&self) -> Config {
                self.0.config_from_pairs(&[("a", 0.0), ("b", 0.0)]).unwrap()
            }
        }
        let space = SearchSpace::builder()
            .real("a", 0.0, 10.0)
            .real("b", 0.0, 10.0)
            .constraint(Constraint::new("budget", "a + b <= 10", |s, c| {
                s.get_f64(c, "a").unwrap() + s.get_f64(c, "b").unwrap() <= 10.0 + 1e-9
            }))
            .build();
        let obj = Greedy(space);
        let plan = SearchPlan {
            stages: vec![vec![
                PlannedSearch {
                    name: "rA".into(),
                    params: vec!["a".into()],
                    dropped: vec![],
                    target: SearchTarget::Routines(vec!["rA".into()]),
                    budget: 15,
                },
                PlannedSearch {
                    name: "rB".into(),
                    params: vec!["b".into()],
                    dropped: vec![],
                    target: SearchTarget::Routines(vec!["rB".into()]),
                    budget: 15,
                },
            ]],
        };
        let err = execute_plan(&obj, &plan, &quick_bo(), 2, None, false).unwrap_err();
        assert!(
            matches!(err, CoreError::SearchStalled(_)),
            "expected SearchStalled, got {err}"
        );
    }

    mod resilient {
        use super::*;
        use crate::resilience::{GuardPolicy, ResilienceConfig, RetryPolicy, VirtualClock};
        use cets_space::SearchSpace;

        fn quiet_panics() {
            // Silence the default hook's backtrace spam for intentional panics.
            std::panic::set_hook(Box::new(|_| {}));
        }

        /// No retries (each injected panic counts once) and a virtual clock
        /// (backoff sleeps, if any, are instant).
        fn quick_resilience() -> ResilienceConfig {
            ResilienceConfig {
                guard: GuardPolicy {
                    retry: RetryPolicy {
                        max_retries: 0,
                        ..Default::default()
                    },
                    ..Default::default()
                },
                clock: Arc::new(VirtualClock::new()),
                ..Default::default()
            }
        }

        /// Sphere on three axes that panics on configurations selected by a
        /// caller-supplied predicate.
        struct PanicOn<F: Fn(f64, f64, f64) -> bool + Sync>(SearchSpace, F);

        impl<F: Fn(f64, f64, f64) -> bool + Sync> PanicOn<F> {
            fn new(trap: F) -> Self {
                PanicOn(
                    SearchSpace::builder()
                        .real("x0", 0.0, 4.0)
                        .real("x1", 0.0, 4.0)
                        .real("x2", 0.0, 4.0)
                        .build(),
                    trap,
                )
            }
        }

        impl<F: Fn(f64, f64, f64) -> bool + Sync> Objective for PanicOn<F> {
            fn space(&self) -> &SearchSpace {
                &self.0
            }
            fn routine_names(&self) -> Vec<String> {
                vec!["r0".into(), "r1".into()]
            }
            fn evaluate(&self, cfg: &Config) -> crate::Observation {
                let (a, b, c) = (cfg[0].as_f64(), cfg[1].as_f64(), cfg[2].as_f64());
                if (self.1)(a, b, c) {
                    panic!("injected crash at ({a}, {b}, {c})");
                }
                let (ra, rb) = (a * a + b * b, c * c);
                crate::Observation {
                    total: ra + rb,
                    routines: vec![ra, rb],
                }
            }
            fn default_config(&self) -> Config {
                self.0
                    .config_from_pairs(&[("x0", 1.0), ("x1", 1.0), ("x2", 1.0)])
                    .unwrap()
            }
        }

        fn two_search_plan() -> SearchPlan {
            SearchPlan {
                stages: vec![vec![
                    PlannedSearch {
                        name: "r0".into(),
                        params: vec!["x0".into(), "x1".into()],
                        dropped: vec![],
                        target: SearchTarget::Routines(vec!["r0".into()]),
                        budget: 12,
                    },
                    PlannedSearch {
                        name: "r1".into(),
                        params: vec!["x2".into()],
                        dropped: vec![],
                        target: SearchTarget::Routines(vec!["r1".into()]),
                        budget: 10,
                    },
                ]],
            }
        }

        #[test]
        fn fault_free_run_completes_with_clean_ledger() {
            let obj = SplitSphere::new();
            let m = Methodology::new(MethodologyConfig {
                bo: quick_bo(),
                evals_per_dim: 8,
                resilience: Some(quick_resilience()),
                ..Default::default()
            });
            let (_, exec) = m.run(&obj, &owners3(), &obj.default_config()).unwrap();
            let default_value = obj.evaluate(&obj.default_config()).total;
            assert!(
                exec.final_value < default_value,
                "final {} !< default {default_value}",
                exec.final_value
            );
            assert!(exec.ledger.is_clean(), "ledger: {:?}", exec.ledger);
            assert_eq!(exec.ledger.total_failures(), 0);
            // One entry per search plus the final verification.
            assert_eq!(exec.ledger.entries.len(), exec.searches.len() + 1);
            assert!(obj.space().is_valid(&exec.final_config));
        }

        /// One search whose every evaluation crashes (its fixed coordinates
        /// hit the trap) is isolated: it degrades, the other search — whose
        /// *incumbent* evaluation also crashes, but whose proposals recover —
        /// completes, and the run finishes with the degraded search's
        /// parameters held at their defaults.
        #[test]
        fn search_with_no_successes_degrades_while_others_complete() {
            quiet_panics();
            // The r1 search varies only x2, pinning x0 = x1 = 1.0 — every one
            // of its evaluations crashes. The r0 search trips the trap only
            // on its incumbent seed (all defaults).
            let obj = PanicOn::new(|a, b, _| a == 1.0 && b == 1.0);
            for workers in [1, 2] {
                let exec = execute_plan(
                    &obj,
                    &two_search_plan(),
                    &quick_bo(),
                    workers,
                    Some(&quick_resilience()),
                    false,
                )
                .unwrap();
                assert_eq!(exec.ledger.n_degraded(), 1, "ledger: {:?}", exec.ledger);
                let by_name = |n: &str| {
                    exec.ledger
                        .entries
                        .iter()
                        .find(|e| e.search == n)
                        .unwrap_or_else(|| panic!("no ledger entry for {n}"))
                };
                assert!(matches!(
                    by_name("r0").disposition,
                    SearchDisposition::Completed
                ));
                assert!(by_name("r0").n_failed >= 1, "incumbent crash recorded");
                assert!(matches!(
                    by_name("r1").disposition,
                    SearchDisposition::Degraded(_)
                ));
                assert_eq!(by_name("r1").n_ok, 0);
                // The degraded search's parameter stays at its default.
                assert_eq!(exec.final_config[2].as_f64(), 1.0);
                assert_eq!(exec.searches.len(), 1);
            }
            // The completed search still does useful work: it takes
            // r0 = x0² + x1² below the default's 2.0. Twelve evaluations
            // around a crashing incumbent leave any single seed to chance,
            // so the claim is a rate over seeds 0–39, held to the 28 of 40
            // the search reached when the exact GP trained by Nelder–Mead.
            let improved = (0..40u64)
                .filter(|&seed| {
                    let bo = BoConfig { seed, ..quick_bo() };
                    let exec = execute_plan(
                        &obj,
                        &two_search_plan(),
                        &bo,
                        1,
                        Some(&quick_resilience()),
                        false,
                    )
                    .unwrap();
                    let (x0, x1) = (exec.final_config[0].as_f64(), exec.final_config[1].as_f64());
                    x0 * x0 + x1 * x1 < 2.0
                })
                .count();
            assert!(
                improved >= 28,
                "r0 improved over the default on {improved} of 40 seeds"
            );
        }

        /// The folded configuration moves both axes at once, which the
        /// objective cannot evaluate: the final verification fails, and the
        /// executor reports the database's best recorded evaluation instead
        /// of aborting the whole run.
        #[test]
        fn final_eval_failure_falls_back_to_database_best() {
            quiet_panics();
            let obj = PanicOn::new(|a, _, c| a != 1.0 && c != 1.0);
            let plan = SearchPlan {
                stages: vec![vec![
                    PlannedSearch {
                        name: "r0".into(),
                        params: vec!["x0".into()],
                        dropped: vec![],
                        target: SearchTarget::Routines(vec!["r0".into()]),
                        budget: 10,
                    },
                    PlannedSearch {
                        name: "r1".into(),
                        params: vec!["x2".into()],
                        dropped: vec![],
                        target: SearchTarget::Routines(vec!["r1".into()]),
                        budget: 10,
                    },
                ]],
            };
            let exec =
                execute_plan(&obj, &plan, &quick_bo(), 1, Some(&quick_resilience()), true).unwrap();
            let last = exec.ledger.entries.last().unwrap();
            assert_eq!(last.search, "final");
            assert!(matches!(last.disposition, SearchDisposition::Degraded(_)));
            let best = exec.database.as_ref().unwrap().best().unwrap();
            assert_eq!(exec.final_value, best.total);
            assert_eq!(exec.final_config, best.config);
        }

        /// Every search crashing on every evaluation leaves nothing to
        /// report: the run fails loudly instead of returning defaults as if
        /// they had been tuned.
        #[test]
        fn all_searches_failing_is_a_hard_error() {
            quiet_panics();
            let obj = PanicOn::new(|_, _, _| true);
            let err = execute_plan(
                &obj,
                &two_search_plan(),
                &quick_bo(),
                1,
                Some(&quick_resilience()),
                false,
            )
            .unwrap_err();
            assert!(
                matches!(err, CoreError::SearchStalled(_)),
                "expected SearchStalled, got {err}"
            );
        }
    }

    /// Two real parameters on [0, 100] whose constraints provably confine
    /// them to [0, 50]: the contraction pre-pass halves each axis.
    mod boxed {
        use super::*;
        use cets_space::{Constraint, SearchSpace};

        pub struct Boxed(pub SearchSpace);

        impl Boxed {
            pub fn new() -> Self {
                Boxed(
                    SearchSpace::builder()
                        .real("a", 0.0, 100.0)
                        .real("b", 0.0, 100.0)
                        .constraint(Constraint::new("cap-a", "a <= 50", |s, c| {
                            s.get_f64(c, "a").unwrap_or(f64::NAN) <= 50.0
                        }))
                        .constraint(Constraint::new("cap-b", "b <= 50", |s, c| {
                            s.get_f64(c, "b").unwrap_or(f64::NAN) <= 50.0
                        }))
                        .build(),
                )
            }
        }

        impl Objective for Boxed {
            fn space(&self) -> &SearchSpace {
                &self.0
            }
            fn routine_names(&self) -> Vec<String> {
                vec!["r0".into()]
            }
            fn evaluate(&self, cfg: &Config) -> crate::Observation {
                let a = cfg[0].as_f64();
                let b = cfg[1].as_f64();
                let v = (a - 1.0).powi(2) + (b - 1.0).powi(2);
                crate::Observation {
                    total: v,
                    routines: vec![v],
                }
            }
            fn default_config(&self) -> Config {
                self.0.config_from_pairs(&[("a", 8.0), ("b", 8.0)]).unwrap()
            }
        }
    }

    #[test]
    fn contracted_space_narrows_to_the_provable_box() {
        use cets_space::ParamDef;
        let obj = boxed::Boxed::new();
        let m = Methodology::new(MethodologyConfig {
            bo: quick_bo(),
            ..Default::default()
        });
        let baseline = obj.default_config();
        let report = m
            .analyze(&obj, &[("a", "r0"), ("b", "r0")], &baseline)
            .unwrap();
        let narrowed = m
            .contracted_space(&obj, &report, &baseline)
            .unwrap()
            .expect("constraints provably narrow both axes");
        assert_eq!(narrowed.defs()[0], ParamDef::Real { lo: 0.0, hi: 50.0 });
        assert_eq!(narrowed.defs()[1], ParamDef::Real { lo: 0.0, hi: 50.0 });
        // Names and constraints are carried over unchanged.
        assert_eq!(narrowed.names(), obj.space().names());
        assert_eq!(narrowed.constraints().len(), 2);
        // The baseline stays valid in the narrowed space.
        assert!(narrowed.is_valid(&baseline));
    }

    #[test]
    fn contract_bounds_run_is_no_worse_at_equal_budget() {
        // Contraction changes candidate density, not the number of
        // objective evaluations. Whether the denser supply wins on one
        // seed is chance, so the quality claim is over a fixed set of
        // seeds: the contracted median final value is no worse than the
        // plain one. Neighbouring seeds share most of their proposal
        // streams (search seed `s` at attempt `k + 1` draws what seed
        // `s + 1` draws at attempt `k`), so a short run of consecutive
        // seeds holds few independent samples; hence forty of them.
        let obj = boxed::Boxed::new();
        let owners = [("a", "r0"), ("b", "r0")];
        let mut plain_values = Vec::new();
        let mut contracted_values = Vec::new();
        for seed in 0..40 {
            let base = MethodologyConfig {
                bo: BoConfig { seed, ..quick_bo() },
                evals_per_dim: 8,
                ..Default::default()
            };
            let plain = Methodology::new(base.clone())
                .run(&obj, &owners, &obj.default_config())
                .unwrap()
                .1;
            let contracted = Methodology::new(MethodologyConfig {
                contract_bounds: true,
                ..base
            })
            .run(&obj, &owners, &obj.default_config())
            .unwrap()
            .1;
            assert_eq!(contracted.total_evals, plain.total_evals, "seed {seed}");
            // The result is still a valid configuration of the *original*
            // space.
            assert!(obj.space().is_valid(&contracted.final_config));
            plain_values.push(plain.final_value);
            contracted_values.push(contracted.final_value);
        }
        let median = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0
        };
        let (plain, contracted) = (median(plain_values), median(contracted_values));
        assert!(
            contracted <= plain,
            "contracted median {contracted} !<= plain median {plain}"
        );
    }

    #[test]
    fn contracted_space_rejects_proved_empty_box() {
        use cets_space::{Constraint, SearchSpace};
        struct Dead(SearchSpace);
        impl Objective for Dead {
            fn space(&self) -> &SearchSpace {
                &self.0
            }
            fn routine_names(&self) -> Vec<String> {
                vec!["r0".into()]
            }
            fn evaluate(&self, cfg: &Config) -> crate::Observation {
                crate::Observation::scalar(cfg[0].as_f64())
            }
            fn default_config(&self) -> Config {
                self.0.config_from_pairs(&[("a", 1.0)]).unwrap()
            }
        }
        let obj = Dead(
            SearchSpace::builder()
                .real("a", 0.0, 10.0)
                .constraint(Constraint::new("dead", "a > 100", |s, c| {
                    s.get_f64(c, "a").unwrap_or(f64::NAN) > 100.0
                }))
                .build(),
        );
        let m = Methodology::new(MethodologyConfig {
            bo: quick_bo(),
            lint: LintPolicy::Off, // get past the gate to the pre-pass
            contract_bounds: true,
            ..Default::default()
        });
        let baseline = obj.default_config();
        let report = m.analyze(&obj, &[("a", "r0")], &baseline).unwrap();
        let err = m.contracted_space(&obj, &report, &baseline).unwrap_err();
        assert!(
            matches!(&err, CoreError::Lint(m) if m.contains("A001")),
            "expected A001 Lint error, got {err}"
        );
    }

    #[test]
    fn contracted_space_keeps_domains_that_would_evict_the_default() {
        use cets_space::{Constraint, SearchSpace};
        // The default (a = 80) violates the constraint; the tightened
        // domain [0, 50] would evict it, so the pre-pass must keep the
        // declared domain for `a`.
        struct BadDefault(SearchSpace);
        impl Objective for BadDefault {
            fn space(&self) -> &SearchSpace {
                &self.0
            }
            fn routine_names(&self) -> Vec<String> {
                vec!["r0".into()]
            }
            fn evaluate(&self, cfg: &Config) -> crate::Observation {
                crate::Observation::scalar(cfg[0].as_f64() + cfg[1].as_f64())
            }
            fn default_config(&self) -> Config {
                self.0
                    .config_from_pairs(&[("a", 80.0), ("b", 8.0)])
                    .unwrap()
            }
        }
        let obj = BadDefault(
            SearchSpace::builder()
                .real("a", 0.0, 100.0)
                .real("b", 0.0, 100.0)
                .constraint(Constraint::new("cap-a", "a <= 50", |s, c| {
                    s.get_f64(c, "a").unwrap_or(f64::NAN) <= 50.0
                }))
                .constraint(Constraint::new("cap-b", "b <= 50", |s, c| {
                    s.get_f64(c, "b").unwrap_or(f64::NAN) <= 50.0
                }))
                .build(),
        );
        let m = Methodology::new(MethodologyConfig {
            bo: quick_bo(),
            contract_bounds: true,
            ..Default::default()
        });
        let baseline = obj.default_config();
        let report = m
            .analyze(&obj, &[("a", "r0"), ("b", "r0")], &baseline)
            .unwrap();
        let narrowed = m
            .contracted_space(&obj, &report, &baseline)
            .unwrap()
            .expect("b still narrows");
        use cets_space::ParamDef;
        assert_eq!(
            narrowed.defs()[0],
            ParamDef::Real { lo: 0.0, hi: 100.0 },
            "a keeps its declared domain: the tightened one evicts the default"
        );
        assert_eq!(narrowed.defs()[1], ParamDef::Real { lo: 0.0, hi: 50.0 });
        // The default stays *encodable*: every value inside its domain.
        // (It still violates the constraint — that is exactly why its
        // parameter kept the loose bounds.)
        for (def, v) in narrowed.defs().iter().zip(&baseline) {
            assert!(def.contains(v), "{def:?} lost {v:?}");
        }
    }

    #[test]
    fn lint_gate_rejects_error_plan() {
        // max_dims = 0 is a degenerate cap: G003 fires at Error level and
        // run() must refuse before spending any execution budget.
        let obj = SplitSphere::new();
        let m = Methodology::new(MethodologyConfig {
            max_dims: 0,
            bo: quick_bo(),
            ..Default::default()
        });
        let err = m.run(&obj, &owners3(), &obj.default_config()).unwrap_err();
        match err {
            CoreError::Lint(msg) => assert!(msg.contains("G003"), "missing G003 in:\n{msg}"),
            other => panic!("expected CoreError::Lint, got {other}"),
        }
    }

    #[test]
    fn lint_gate_off_allows_error_plan() {
        let obj = SplitSphere::new();
        let m = Methodology::new(MethodologyConfig {
            max_dims: 0,
            lint: LintPolicy::Off,
            bo: quick_bo(),
            ..Default::default()
        });
        assert!(m.run(&obj, &owners3(), &obj.default_config()).is_ok());
    }

    #[test]
    fn lint_gate_deny_warnings_rejects_warning_plan() {
        // A zero GP noise floor is N001 at Warning level: passes the
        // default policy, blocks under DenyWarnings.
        let obj = SplitSphere::new();
        let mut bo = quick_bo();
        bo.gp.noise_floor = 0.0;
        let base = MethodologyConfig {
            bo,
            evals_per_dim: 5,
            ..Default::default()
        };
        let strict = Methodology::new(MethodologyConfig {
            lint: LintPolicy::DenyWarnings,
            ..base.clone()
        });
        let err = strict
            .run(&obj, &owners3(), &obj.default_config())
            .unwrap_err();
        match err {
            CoreError::Lint(msg) => assert!(msg.contains("N001"), "missing N001 in:\n{msg}"),
            other => panic!("expected CoreError::Lint, got {other}"),
        }
        // Default policy (DenyErrors) lets warnings through.
        let lax = Methodology::new(base);
        assert!(lax.run(&obj, &owners3(), &obj.default_config()).is_ok());
    }

    #[test]
    fn lint_report_is_inspectable_without_execution() {
        let obj = SplitSphere::new();
        let m = Methodology::new(MethodologyConfig {
            bo: quick_bo(),
            ..Default::default()
        });
        let baseline = obj.default_config();
        let report = m.analyze(&obj, &owners3(), &baseline).unwrap();
        let lint = m.lint_report(&obj, &report, &baseline);
        assert!(
            lint.is_clean(),
            "unexpected findings:\n{:?}",
            lint.diagnostics
        );
    }

    #[test]
    fn unknown_owner_routine_rejected() {
        let obj = SplitSphere::new();
        let m = Methodology::default();
        assert!(m
            .analyze(&obj, &[("x0", "nope")], &obj.default_config())
            .is_err());
    }

    #[test]
    fn unknown_routine_in_plan_rejected() {
        let obj = SplitSphere::new();
        let plan = SearchPlan {
            stages: vec![vec![PlannedSearch {
                name: "bad".into(),
                params: vec!["x0".into()],
                dropped: vec![],
                target: SearchTarget::Routines(vec!["missing".into()]),
                budget: 5,
            }]],
        };
        assert!(execute_plan(&obj, &plan, &quick_bo(), 1, None, false).is_err());
    }

    #[test]
    fn template_checkpoint_path_rejected_before_any_evaluation() {
        let inner = SplitSphere::new();
        let obj = crate::CountingObjective::new(&inner);
        let plan = SearchPlan {
            stages: vec![vec![PlannedSearch {
                name: "x0".into(),
                params: vec!["x0".into()],
                dropped: vec![],
                target: SearchTarget::Total,
                budget: 5,
            }]],
        };
        let path = std::env::temp_dir().join(format!("cets_plan_ckpt_{}", std::process::id()));
        let bo = BoConfig {
            checkpoint_path: Some(path.clone()),
            ..quick_bo()
        };
        let err = execute_plan(&obj, &plan, &bo, 2, None, false).unwrap_err();
        assert!(matches!(err, CoreError::BadConfig(_)), "{err}");
        assert_eq!((obj.count(), path.exists()), (0, false));
    }
}
