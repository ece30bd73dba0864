//! `G004`: shared-kernel parameters tuned in more than one search.
//!
//! A shared-parameter group models one kernel called from several routines
//! (the paper's cuZcopy): its parameters must keep a single value
//! application-wide, so methodology step 5 assigns the whole group to the
//! highest-impact routine's search. If a shared parameter still appears
//! in two searches, each search would freeze its *own* best value and the
//! later one silently overwrites the earlier — the kernel ends up tuned
//! for whichever search ran last. Always an error.
//!
//! The same failure mode applies to *any* parameter tuned by two searches
//! of the same parallel stage (their results race), which this rule also
//! reports.

use crate::bundle::PlanBundle;
use crate::diag::{Diagnostic, Location};
use crate::registry::Lint;
use std::collections::HashSet;

/// See the module docs.
pub struct SharedParamOwnership;

impl Lint for SharedParamOwnership {
    fn codes(&self) -> &'static [&'static str] {
        &["G004"]
    }

    fn check(&self, bundle: &PlanBundle, out: &mut Vec<Diagnostic>) {
        let Some(plan) = &bundle.plan else { return };

        // Shared parameters: at most one search anywhere in the plan.
        // (Membership checks use the set; *iteration* follows declaration
        // order so the report is deterministic.)
        let mut shared: HashSet<&str> = HashSet::new();
        let mut shared_ordered: Vec<&str> = Vec::new();
        for s in bundle.shared_params.iter().flatten() {
            if shared.insert(s.as_str()) {
                shared_ordered.push(s.as_str());
            }
        }
        for p in &shared_ordered {
            let holders: Vec<&str> = plan
                .searches()
                .filter(|s| s.params.iter().any(|q| q == p))
                .map(|s| s.name.as_str())
                .collect();
            if holders.len() > 1 {
                out.push(
                    Diagnostic::error(
                        "G004",
                        Location::Param((*p).to_string()),
                        format!(
                            "shared-kernel parameter `{p}` is tuned in {} searches ({}) — it must \
                             keep one value application-wide",
                            holders.len(),
                            holders.join(", ")
                        ),
                    )
                    .with_help(
                        "assign the shared group to the routine it influences most (methodology \
                         step 5) so exactly one search tunes it",
                    ),
                );
            }
        }

        // Any parameter: at most one search per parallel stage.
        for (k, stage) in plan.stages.iter().enumerate() {
            let mut seen: HashSet<&str> = HashSet::new();
            let mut reported: HashSet<&str> = HashSet::new();
            for s in stage {
                for p in &s.params {
                    if shared.contains(p.as_str()) {
                        continue; // already covered above
                    }
                    if !seen.insert(p.as_str()) && reported.insert(p.as_str()) {
                        out.push(
                            Diagnostic::error(
                                "G004",
                                Location::Param(p.clone()),
                                format!(
                                    "parameter `{p}` is tuned by two searches of parallel stage \
                                     {k} — their results race"
                                ),
                            )
                            .with_help("move one search to a later stage or drop the duplicate"),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{PlanSpec, SearchSpec};

    fn search(name: &str, params: &[&str]) -> SearchSpec {
        SearchSpec {
            name: name.into(),
            params: params.iter().map(|s| s.to_string()).collect(),
            routines: vec![],
        }
    }

    fn run(b: &PlanBundle) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        SharedParamOwnership.check(b, &mut out);
        out
    }

    #[test]
    fn shared_param_in_two_searches_flagged() {
        let b = PlanBundle {
            shared_params: vec![vec!["zc_tb".into()]],
            plan: Some(PlanSpec {
                stages: vec![
                    vec![search("G1", &["zc_tb", "a"])],
                    vec![search("G3", &["zc_tb", "b"])],
                ],
            }),
            ..Default::default()
        };
        let out = run(&b);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, "G004");
        assert!(out[0].message.contains("zc_tb"));
    }

    #[test]
    fn shared_param_in_one_search_clean() {
        let b = PlanBundle {
            shared_params: vec![vec!["zc_tb".into()]],
            plan: Some(PlanSpec {
                stages: vec![vec![search("G1", &["zc_tb"]), search("G3", &["b"])]],
            }),
            ..Default::default()
        };
        assert!(run(&b).is_empty());
    }

    #[test]
    fn same_stage_duplicate_flagged() {
        let b = PlanBundle {
            plan: Some(PlanSpec {
                stages: vec![vec![search("s1", &["x"]), search("s2", &["x"])]],
            }),
            ..Default::default()
        };
        let out = run(&b);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("race"));
    }

    #[test]
    fn cross_stage_duplicate_of_unshared_param_allowed() {
        // Re-tuning a (non-shared) parameter in a later stage is a valid
        // refinement pattern: the later search starts from the frozen value.
        let b = PlanBundle {
            plan: Some(PlanSpec {
                stages: vec![vec![search("s1", &["x"])], vec![search("s2", &["x"])]],
            }),
            ..Default::default()
        };
        assert!(run(&b).is_empty());
    }
}
