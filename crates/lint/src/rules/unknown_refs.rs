//! `S005`: references to undeclared parameters or routines.
//!
//! The bundle cross-references names in five places — constraint
//! expressions, graph owners/scores (carried as
//! [`crate::bundle::UnresolvedRef`]s by the loader), the staged plan,
//! shared-parameter groups, and the precedence list. A dangling name in
//! any of them means the plan was assembled against a different space
//! than it will execute in, which is always an error.

use crate::bundle::PlanBundle;
use crate::diag::{Diagnostic, Location};
use crate::expr;
use crate::registry::Lint;

/// See the module docs.
pub struct UnknownRefs;

impl Lint for UnknownRefs {
    fn codes(&self) -> &'static [&'static str] {
        &["S005"]
    }

    fn check(&self, bundle: &PlanBundle, out: &mut Vec<Diagnostic>) {
        // Loader-detected dangling names.
        for u in &bundle.unresolved {
            out.push(
                Diagnostic::error(
                    "S005",
                    Location::Plan,
                    format!("{} references unknown name `{}`", u.context, u.name),
                )
                .with_help("declare the name in the space/graph or remove the reference"),
            );
        }
        // Constraint expressions.
        for c in &bundle.constraints {
            if let Ok(e) = expr::parse(&c.expr) {
                for v in e.vars() {
                    if !bundle.has_param(&v) {
                        out.push(
                            Diagnostic::error(
                                "S005",
                                Location::Constraint(c.name.clone()),
                                format!(
                                    "constraint `{}` references unknown parameter `{v}`",
                                    c.name
                                ),
                            )
                            .with_help(
                                "every variable in a constraint must be a declared parameter",
                            ),
                        );
                    }
                }
            }
        }
        // Graph parameters not present in the space (when both exist).
        if let Some(g) = &bundle.graph {
            if !bundle.params.is_empty() {
                for p in g.params() {
                    if !bundle.has_param(p) {
                        out.push(Diagnostic::error(
                            "S005",
                            Location::Param(p.clone()),
                            format!("influence graph scores parameter `{p}`, which the space does not declare"),
                        ));
                    }
                }
            }
        }
        // Plan searches.
        if let Some(plan) = &bundle.plan {
            for s in plan.searches() {
                for p in &s.params {
                    if !bundle.has_param(p) {
                        out.push(Diagnostic::error(
                            "S005",
                            Location::Search(s.name.clone()),
                            format!("search `{}` tunes unknown parameter `{p}`", s.name),
                        ));
                    }
                }
                if bundle.graph.is_some() {
                    for r in &s.routines {
                        if !bundle.has_routine(r) {
                            out.push(Diagnostic::error(
                                "S005",
                                Location::Search(s.name.clone()),
                                format!("search `{}` targets unknown routine `{r}`", s.name),
                            ));
                        }
                    }
                }
            }
        }
        // Shared groups and precedence.
        for group in &bundle.shared_params {
            for p in group {
                if !bundle.has_param(p) {
                    out.push(Diagnostic::error(
                        "S005",
                        Location::Param(p.clone()),
                        format!("shared-parameter group references unknown parameter `{p}`"),
                    ));
                }
            }
        }
        if bundle.graph.is_some() {
            for r in &bundle.precedence {
                if !bundle.has_routine(r) {
                    out.push(Diagnostic::error(
                        "S005",
                        Location::Routine(r.clone()),
                        format!("precedence list references unknown routine `{r}`"),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{ConstraintSpec, ParamSpec, PlanSpec, SearchSpec, UnresolvedRef};
    use cets_space::ParamDef;

    fn param(name: &str) -> ParamSpec {
        ParamSpec {
            name: name.into(),
            def: ParamDef::Real { lo: 0.0, hi: 1.0 },
            default: None,
        }
    }

    fn run(b: &PlanBundle) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        UnknownRefs.check(b, &mut out);
        out
    }

    #[test]
    fn constraint_with_unknown_param_flagged() {
        let b = PlanBundle {
            params: vec![param("a")],
            constraints: vec![ConstraintSpec {
                name: "c".into(),
                expr: "a + zz <= 1".into(),
            }],
            ..Default::default()
        };
        let out = run(&b);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("zz"));
    }

    #[test]
    fn plan_with_unknown_param_and_routine_flagged() {
        let b = PlanBundle {
            params: vec![param("a")],
            graph: Some(cets_graph::InfluenceGraph::new(
                vec!["G1".into()],
                vec!["a".into()],
            )),
            plan: Some(PlanSpec {
                stages: vec![vec![SearchSpec {
                    name: "s".into(),
                    params: vec!["a".into(), "ghost".into()],
                    routines: vec!["G9".into()],
                }]],
            }),
            ..Default::default()
        };
        let out = run(&b);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn unresolved_loader_refs_surface() {
        let b = PlanBundle {
            params: vec![param("a")],
            unresolved: vec![UnresolvedRef {
                context: "owners".into(),
                name: "nope".into(),
            }],
            ..Default::default()
        };
        let out = run(&b);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("owners"));
    }

    #[test]
    fn shared_and_precedence_checked() {
        let b = PlanBundle {
            params: vec![param("a")],
            graph: Some(cets_graph::InfluenceGraph::new(
                vec!["G1".into()],
                vec!["a".into()],
            )),
            shared_params: vec![vec!["ghost".into()]],
            precedence: vec!["Iter".into()],
            ..Default::default()
        };
        let out = run(&b);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn consistent_bundle_clean() {
        let b = PlanBundle {
            params: vec![param("a")],
            graph: Some(cets_graph::InfluenceGraph::new(
                vec!["G1".into()],
                vec!["a".into()],
            )),
            constraints: vec![ConstraintSpec {
                name: "c".into(),
                expr: "a <= 1".into(),
            }],
            ..Default::default()
        };
        assert!(run(&b).is_empty());
    }
}
