//! `G002`: tuned parameters orphaned by the cut-off.
//!
//! A parameter whose influence on *every* routine falls below the pruning
//! cut-off contributes no edge to the DAG — the methodology's own logic
//! would drop it — yet the plan still spends budget tuning it. That is
//! not wrong, just wasteful (each extra dimension costs
//! `evals_per_dim` observations), so this is a warning.

use crate::bundle::PlanBundle;
use crate::diag::{Diagnostic, Location};
use crate::registry::Lint;
use std::collections::BTreeSet;

/// See the module docs.
pub struct OrphanedParams;

impl Lint for OrphanedParams {
    fn codes(&self) -> &'static [&'static str] {
        &["G002"]
    }

    fn check(&self, bundle: &PlanBundle, out: &mut Vec<Diagnostic>) {
        let (Some(graph), Some(plan)) = (&bundle.graph, &bundle.plan) else {
            return;
        };
        if !(bundle.cutoff.is_finite() && bundle.cutoff >= 0.0) {
            return; // N002 territory
        }
        let tuned: BTreeSet<&str> = plan
            .searches()
            .flat_map(|s| s.params.iter().map(|p| p.as_str()))
            .collect();
        for (p, name) in graph.params().iter().enumerate() {
            if !tuned.contains(name.as_str()) {
                continue;
            }
            let max_score = (0..graph.routines().len())
                .map(|r| graph.score_at(p, r))
                .fold(f64::NEG_INFINITY, f64::max);
            if max_score.is_finite() && max_score < bundle.cutoff {
                out.push(
                    Diagnostic::warning(
                        "G002",
                        Location::Param(name.clone()),
                        format!(
                            "`{name}` is tuned but its strongest influence ({max_score:.3}) is \
                             below the cut-off ({}) — every edge of this parameter was pruned",
                            bundle.cutoff
                        ),
                    )
                    .with_help(
                        "drop the parameter to its default, or lower the cut-off if the \
                         influence is real",
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{PlanSpec, SearchSpec};
    use cets_graph::InfluenceGraph;

    fn bundle(scores_pa: &[f64], tuned: &[&str]) -> PlanBundle {
        let mut g = InfluenceGraph::new(vec!["A".into(), "B".into()], vec!["pa".into()]);
        g.set_owner("pa", "A").unwrap();
        g.set_scores("pa", scores_pa).unwrap();
        PlanBundle {
            graph: Some(g),
            plan: Some(PlanSpec {
                stages: vec![vec![SearchSpec {
                    name: "A".into(),
                    params: tuned.iter().map(|s| s.to_string()).collect(),
                    routines: vec!["A".into()],
                }]],
            }),
            cutoff: 0.25,
            ..Default::default()
        }
    }

    fn run(b: &PlanBundle) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        OrphanedParams.check(b, &mut out);
        out
    }

    #[test]
    fn orphaned_tuned_param_flagged() {
        let out = run(&bundle(&[0.01, 0.02], &["pa"]));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, "G002");
        assert_eq!(out[0].severity, crate::Severity::Warning);
    }

    #[test]
    fn influential_param_clean() {
        assert!(run(&bundle(&[0.9, 0.0], &["pa"])).is_empty());
    }

    #[test]
    fn untuned_orphan_clean() {
        assert!(run(&bundle(&[0.01, 0.0], &[])).is_empty());
    }

    #[test]
    fn no_plan_no_check() {
        let mut b = bundle(&[0.01, 0.0], &["pa"]);
        b.plan = None;
        assert!(run(&b).is_empty());
    }
}
