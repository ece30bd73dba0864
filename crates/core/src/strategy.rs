//! The comparison strategies of the paper's Table III: random search,
//! fully-joint BO, fully-independent BO, and explicit merged/split plans.

use crate::bo::BoConfig;
use crate::methodology::{execute_plan, PlanExecution, PlannedSearch, SearchPlan, SearchTarget};
use crate::objective::{CountingObjective, Objective};
use crate::random_search::{random_search, RandomSearchConfig};
use crate::{CoreError, Result};
use std::collections::BTreeMap;
use std::time::Instant;

/// A search strategy over a multi-routine objective.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// Uniform random sampling of the full space (`n_evals` draws).
    RandomSearch {
        /// Number of evaluations.
        n_evals: usize,
    },
    /// One joint BO search over all parameters, minimizing the total
    /// (paper: `G1+G2+G3+G4`, budget `10 × D`).
    FullyJoint,
    /// One BO search per routine over its own parameters, each minimizing
    /// its routine's runtime, run in parallel (paper: `G1,G2,G3,G4`).
    FullyIndependent,
    /// Explicit groups of routines: each group searches the union of its
    /// routines' parameters and minimizes their joint runtime (paper:
    /// `G1,G2,G3+G4` — the methodology's suggestion for Cases 3-5).
    Groups(Vec<Vec<String>>),
}

impl Strategy {
    /// Short display name matching the paper's column headers.
    pub fn name(&self, routine_names: &[String]) -> String {
        match self {
            Strategy::RandomSearch { .. } => "Random Search".to_string(),
            Strategy::FullyJoint => routine_names.join("+"),
            Strategy::FullyIndependent => routine_names.join(","),
            Strategy::Groups(groups) => groups
                .iter()
                .map(|g| g.join("+"))
                .collect::<Vec<_>>()
                .join(","),
        }
    }
}

/// Outcome of running one strategy, comparable across strategies (the two
/// axes of Table III: minimum found and search time).
#[derive(Debug, Clone)]
pub struct StrategyResult {
    /// Strategy display name.
    pub name: String,
    /// The combined best configuration.
    pub final_config: cets_space::Config,
    /// Total objective at the combined best configuration (the paper's
    /// "Minima Found").
    pub final_value: f64,
    /// Objective evaluations consumed.
    pub n_evals: usize,
    /// Wall-clock search time in seconds (the paper's "Time"). For split
    /// strategies this is the parallel makespan, not the sum.
    pub time_s: f64,
}

/// Run a strategy.
///
/// `owners` maps each parameter to its routine (same convention as
/// [`crate::Methodology::analyze`]); it is required by the independent and
/// grouped strategies to know which parameters belong to which routines.
pub fn run_strategy<O: Objective + ?Sized>(
    objective: &O,
    owners: &[(&str, &str)],
    strategy: &Strategy,
    bo_template: &BoConfig,
    evals_per_dim: usize,
) -> Result<StrategyResult> {
    let routine_names = objective.routine_names();
    let name = strategy.name(&routine_names);
    let counted = CountingObjective::new(objective);
    let start = Instant::now();

    let (final_config, final_value) = match strategy {
        Strategy::RandomSearch { n_evals } => {
            let out = random_search(
                &counted,
                &RandomSearchConfig {
                    n_evals: *n_evals,
                    seed: bo_template.seed,
                },
            )?;
            (out.best_config, out.best_value)
        }
        Strategy::FullyJoint => {
            let all: Vec<String> = objective.space().names().to_vec();
            let plan = SearchPlan {
                stages: vec![vec![PlannedSearch {
                    name: name.clone(),
                    budget: evals_per_dim * all.len(),
                    params: all,
                    dropped: vec![],
                    target: SearchTarget::Total,
                }]],
            };
            let exec = execute_plan(&counted, &plan, bo_template, 1, None, false)?;
            (exec.final_config, exec.final_value)
        }
        Strategy::FullyIndependent => {
            let groups: Vec<Vec<String>> = routine_names.iter().map(|r| vec![r.clone()]).collect();
            let exec = run_grouped(&counted, owners, &groups, bo_template, evals_per_dim)?;
            (exec.final_config, exec.final_value)
        }
        Strategy::Groups(groups) => {
            let exec = run_grouped(&counted, owners, groups, bo_template, evals_per_dim)?;
            (exec.final_config, exec.final_value)
        }
    };

    Ok(StrategyResult {
        name,
        final_config,
        final_value,
        n_evals: counted.count(),
        time_s: start.elapsed().as_secs_f64(),
    })
}

/// Build and execute a one-stage plan from explicit routine groups.
fn run_grouped<O: Objective + ?Sized>(
    objective: &O,
    owners: &[(&str, &str)],
    groups: &[Vec<String>],
    bo_template: &BoConfig,
    evals_per_dim: usize,
) -> Result<PlanExecution> {
    let mut by_routine: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (p, r) in owners {
        by_routine.entry(r).or_default().push(p);
    }
    let space = objective.space();
    let mut stage = Vec::with_capacity(groups.len());
    for group in groups {
        let mut params: Vec<String> = Vec::new();
        for routine in group {
            let owned = by_routine.get(routine.as_str()).ok_or_else(|| {
                CoreError::BadConfig(format!("routine {routine} owns no parameters"))
            })?;
            params.extend(owned.iter().map(|p| p.to_string()));
        }
        // Keep parameters in space order for reproducible subspaces.
        params.sort_by_key(|p| space.index_of(p).unwrap_or(usize::MAX));
        stage.push(PlannedSearch {
            name: group.join("+"),
            budget: evals_per_dim * params.len(),
            params,
            dropped: vec![],
            target: SearchTarget::Routines(group.clone()),
        });
    }
    execute_plan(
        objective,
        &SearchPlan {
            stages: vec![stage],
        },
        bo_template,
        cets_linalg::par::global_threads(),
        None,
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::test_objectives::{CoupledSphere, SplitSphere};

    fn quick_bo(seed: u64) -> BoConfig {
        BoConfig {
            n_init: 4,
            n_candidates: 48,
            n_local: 8,
            seed,
            ..Default::default()
        }
    }

    fn owners3() -> Vec<(&'static str, &'static str)> {
        vec![("x0", "r0"), ("x1", "r0"), ("x2", "r1")]
    }

    #[test]
    fn names_match_paper_style() {
        let names = vec!["G1".to_string(), "G2".to_string()];
        assert_eq!(Strategy::FullyJoint.name(&names), "G1+G2");
        assert_eq!(Strategy::FullyIndependent.name(&names), "G1,G2");
        assert_eq!(
            Strategy::Groups(vec![vec!["G1".into()], vec!["G2".into(), "G3".into()]]).name(&names),
            "G1,G2+G3"
        );
        assert_eq!(
            Strategy::RandomSearch { n_evals: 10 }.name(&names),
            "Random Search"
        );
    }

    #[test]
    fn random_strategy_counts_evals() {
        let obj = SplitSphere::new();
        let r = run_strategy(
            &obj,
            &owners3(),
            &Strategy::RandomSearch { n_evals: 60 },
            &quick_bo(2),
            10,
        )
        .unwrap();
        assert_eq!(r.n_evals, 60);
        assert!(r.final_value.is_finite());
    }

    #[test]
    fn joint_strategy_budget() {
        let obj = SplitSphere::new();
        let r = run_strategy(&obj, &owners3(), &Strategy::FullyJoint, &quick_bo(2), 5).unwrap();
        // 3 dims × 5 = 15 search evals + 1 final evaluation of the config.
        assert_eq!(r.n_evals, 16);
    }

    #[test]
    fn independent_beats_random_on_separable() {
        let obj = SplitSphere::new();
        let rand = run_strategy(
            &obj,
            &owners3(),
            &Strategy::RandomSearch { n_evals: 30 },
            &quick_bo(4),
            10,
        )
        .unwrap();
        let indep = run_strategy(
            &obj,
            &owners3(),
            &Strategy::FullyIndependent,
            &quick_bo(4),
            10,
        )
        .unwrap();
        assert!(
            indep.final_value <= rand.final_value,
            "independent {} !<= random {}",
            indep.final_value,
            rand.final_value
        );
    }

    #[test]
    fn grouped_strategy_merges_params() {
        let obj = CoupledSphere::new();
        let r = run_strategy(
            &obj,
            &owners3(),
            &Strategy::Groups(vec![vec!["r0".into(), "r1".into()]]),
            &quick_bo(6),
            8,
        )
        .unwrap();
        // Single merged 3-dim search: 24 evals + 1 final.
        assert_eq!(r.n_evals, 25);
        assert!(obj.space().is_valid(&r.final_config));
    }

    #[test]
    fn unknown_group_routine_rejected() {
        let obj = SplitSphere::new();
        assert!(run_strategy(
            &obj,
            &owners3(),
            &Strategy::Groups(vec![vec!["nope".into()]]),
            &quick_bo(1),
            5,
        )
        .is_err());
    }
}
