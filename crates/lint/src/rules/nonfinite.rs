//! `N002`: NaN/Inf inputs to the numerics.
//!
//! Non-finite values poison everything downstream: a NaN influence score
//! makes every cut-off comparison false (silently dropping edges), a NaN
//! cut-off disables pruning entirely, and a non-finite default breaks the
//! sensitivity baseline. All are errors — unlike genuinely numerical
//! instabilities, these are input bugs.

use crate::bundle::PlanBundle;
use crate::diag::{Diagnostic, Location};
use crate::registry::Lint;

/// See the module docs.
pub struct NonFiniteInputs;

impl Lint for NonFiniteInputs {
    fn codes(&self) -> &'static [&'static str] {
        &["N002"]
    }

    fn check(&self, bundle: &PlanBundle, out: &mut Vec<Diagnostic>) {
        if !bundle.cutoff.is_finite() || bundle.cutoff < 0.0 {
            out.push(
                Diagnostic::error(
                    "N002",
                    Location::Plan,
                    format!(
                        "influence cut-off {} is not a finite non-negative value",
                        bundle.cutoff
                    ),
                )
                .with_help("the paper uses 0.25 (synthetic) and 0.10 (TDDFT)"),
            );
        }
        for p in &bundle.params {
            if let Some(d) = p.default {
                if !d.is_finite() {
                    out.push(Diagnostic::error(
                        "N002",
                        Location::Param(p.name.clone()),
                        format!("default of `{}` is {d}", p.name),
                    ));
                }
            }
        }
        if let Some(g) = &bundle.graph {
            for (p, name) in g.params().iter().enumerate() {
                for r in 0..g.routines().len() {
                    let s = g.score_at(p, r);
                    if !s.is_finite() {
                        out.push(
                            Diagnostic::error(
                                "N002",
                                Location::Param(name.clone()),
                                format!(
                                    "influence score of `{name}` on `{}` is {s}",
                                    g.routines()[r]
                                ),
                            )
                            .with_help(
                                "non-finite sensitivity scores usually mean the objective \
                                 returned NaN/Inf for a variation — check the baseline",
                            ),
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
    use crate::bundle::ParamSpec;
    use cets_graph::InfluenceGraph;
    use cets_space::ParamDef;

    fn run(b: &PlanBundle) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        NonFiniteInputs.check(b, &mut out);
        out
    }

    #[test]
    fn nan_cutoff_flagged() {
        let b = PlanBundle {
            cutoff: f64::NAN,
            ..Default::default()
        };
        let out = run(&b);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, "N002");
    }

    #[test]
    fn negative_cutoff_flagged() {
        let b = PlanBundle {
            cutoff: -0.5,
            ..Default::default()
        };
        assert_eq!(run(&b).len(), 1);
    }

    #[test]
    fn nan_score_flagged() {
        let mut g = InfluenceGraph::new(vec!["A".into()], vec!["p".into()]);
        g.set_scores("p", &[f64::NAN]).unwrap();
        let b = PlanBundle {
            graph: Some(g),
            ..Default::default()
        };
        let out = run(&b);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("NaN"));
    }

    #[test]
    fn infinite_default_flagged() {
        let b = PlanBundle {
            params: vec![ParamSpec {
                name: "p".into(),
                def: ParamDef::Real { lo: 0.0, hi: 1.0 },
                default: Some(f64::INFINITY),
            }],
            ..Default::default()
        };
        assert_eq!(run(&b).len(), 1);
    }

    #[test]
    fn finite_bundle_clean() {
        let mut g = InfluenceGraph::new(vec!["A".into()], vec!["p".into()]);
        g.set_scores("p", &[0.5]).unwrap();
        let b = PlanBundle {
            graph: Some(g),
            cutoff: 0.25,
            ..Default::default()
        };
        assert!(run(&b).is_empty());
    }
}
