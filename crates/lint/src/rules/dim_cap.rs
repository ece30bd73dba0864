//! `G003`: searches exceeding the dimension cap.
//!
//! The methodology caps every search at `max_dims` dimensions (paper: 10,
//! "grounded in the feasibility of conducting outstanding BO searches
//! within a manageable number of iterations"). A planned search above the
//! cap means the cap step was skipped or bypassed — BO quality degrades
//! sharply there, so the plan is rejected.
//!
//! Note the cap applies to the *methodology's* staged plan; deliberately
//! uncapped baselines (the paper's fully-joint 20-dim BO) are built via
//! `execute_plan` directly and are not linted.

use crate::bundle::PlanBundle;
use crate::diag::{Diagnostic, Location};
use crate::registry::Lint;

/// See the module docs.
pub struct DimensionCap;

impl Lint for DimensionCap {
    fn codes(&self) -> &'static [&'static str] {
        &["G003"]
    }

    fn check(&self, bundle: &PlanBundle, out: &mut Vec<Diagnostic>) {
        let Some(plan) = &bundle.plan else { return };
        if bundle.max_dims == 0 {
            out.push(
                Diagnostic::error(
                    "G003",
                    Location::Plan,
                    "dimension cap is 0 — no search could tune anything",
                )
                .with_help("set max_dims to a positive value (the paper uses 10)"),
            );
            return;
        }
        for s in plan.searches() {
            if s.params.len() > bundle.max_dims {
                out.push(
                    Diagnostic::error(
                        "G003",
                        Location::Search(s.name.clone()),
                        format!(
                            "search `{}` tunes {} parameters, exceeding the {}-dimension cap",
                            s.name,
                            s.params.len(),
                            bundle.max_dims
                        ),
                    )
                    .with_help(
                        "apply the dimension cap (drop the least influential parameters to \
                         defaults) or split the merged group",
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

    fn bundle(n_params: usize, max_dims: usize) -> PlanBundle {
        PlanBundle {
            max_dims,
            plan: Some(PlanSpec {
                stages: vec![vec![SearchSpec {
                    name: "merged".into(),
                    params: (0..n_params).map(|i| format!("p{i}")).collect(),
                    routines: vec![],
                }]],
            }),
            ..Default::default()
        }
    }

    fn run(b: &PlanBundle) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        DimensionCap.check(b, &mut out);
        out
    }

    #[test]
    fn over_cap_search_flagged() {
        let out = run(&bundle(11, 10));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, "G003");
        assert!(out[0].message.contains("11 parameters"));
    }

    #[test]
    fn at_cap_clean() {
        assert!(run(&bundle(10, 10)).is_empty());
    }

    #[test]
    fn zero_cap_flagged() {
        let out = run(&bundle(1, 0));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn no_plan_no_check() {
        let b = PlanBundle {
            max_dims: 10,
            ..Default::default()
        };
        assert!(run(&b).is_empty());
    }
}
