//! `S001`: duplicate / shadowed names.
//!
//! Duplicate parameter names make every by-name lookup ambiguous — the
//! second definition silently shadows the first in `index_of`-style
//! searches — so they are always errors. Duplicate routine names in the
//! influence graph are reported under the same code.

use crate::bundle::PlanBundle;
use crate::diag::{Diagnostic, Location};
use crate::registry::Lint;
use std::collections::HashSet;

/// See the module docs.
pub struct DuplicateParams;

impl Lint for DuplicateParams {
    fn codes(&self) -> &'static [&'static str] {
        &["S001"]
    }

    fn check(&self, bundle: &PlanBundle, out: &mut Vec<Diagnostic>) {
        let mut seen = HashSet::new();
        for p in &bundle.params {
            if !seen.insert(p.name.as_str()) {
                out.push(
                    Diagnostic::error(
                        "S001",
                        Location::Param(p.name.clone()),
                        format!("duplicate parameter `{}`", p.name),
                    )
                    .with_help("parameter names must be unique; rename or remove one definition"),
                );
            }
        }
        if let Some(g) = &bundle.graph {
            let mut seen_r = HashSet::new();
            for r in g.routines() {
                if !seen_r.insert(r.as_str()) {
                    out.push(
                        Diagnostic::error(
                            "S001",
                            Location::Routine(r.clone()),
                            format!("duplicate routine `{r}` in the influence graph"),
                        )
                        .with_help("routine names must be unique"),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::ParamSpec;
    use cets_space::ParamDef;

    fn param(name: &str) -> ParamSpec {
        ParamSpec {
            name: name.into(),
            def: ParamDef::Real { lo: 0.0, hi: 1.0 },
            default: None,
        }
    }

    #[test]
    fn duplicate_param_reported_once_per_extra() {
        let b = PlanBundle {
            params: vec![param("tb"), param("u"), param("tb")],
            ..Default::default()
        };
        let mut out = Vec::new();
        DuplicateParams.check(&b, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, "S001");
        assert_eq!(out[0].location, Location::Param("tb".into()));
    }

    #[test]
    fn unique_names_clean() {
        let b = PlanBundle {
            params: vec![param("a"), param("b")],
            ..Default::default()
        };
        let mut out = Vec::new();
        DuplicateParams.check(&b, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn duplicate_routines_reported() {
        let b = PlanBundle {
            graph: Some(cets_graph::InfluenceGraph::new(
                vec!["G1".into(), "G1".into()],
                vec![],
            )),
            ..Default::default()
        };
        let mut out = Vec::new();
        DuplicateParams.check(&b, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].location, Location::Routine("G1".into()));
    }
}
