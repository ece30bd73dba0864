//! `S002`: empty, inverted or non-finite parameter domains.
//!
//! Delegates to `cets_space::ParamDef::validate`, so the linter and the
//! space builder agree exactly on what a malformed domain is (inverted
//! `lo > hi`, empty option lists, non-finite real bounds, NaN ordinals).

use crate::bundle::PlanBundle;
use crate::diag::{Diagnostic, Location};
use crate::registry::Lint;

/// See the module docs.
pub struct Bounds;

impl Lint for Bounds {
    fn codes(&self) -> &'static [&'static str] {
        &["S002"]
    }

    fn check(&self, bundle: &PlanBundle, out: &mut Vec<Diagnostic>) {
        for p in &bundle.params {
            if let Err(reason) = p.def.validate() {
                out.push(
                    Diagnostic::error(
                        "S002",
                        Location::Param(p.name.clone()),
                        format!("invalid domain for `{}`: {reason}", p.name),
                    )
                    .with_help("fix the bounds so that lo < hi (reals) / lo <= hi (integers) and all values are finite"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::ParamSpec;
    use cets_space::ParamDef;

    fn bundle_with(def: ParamDef) -> PlanBundle {
        PlanBundle {
            params: vec![ParamSpec {
                name: "p".into(),
                def,
                default: None,
            }],
            ..Default::default()
        }
    }

    #[test]
    fn inverted_real_bounds_flagged() {
        let mut out = Vec::new();
        Bounds.check(&bundle_with(ParamDef::Real { lo: 1.0, hi: 0.0 }), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, "S002");
    }

    #[test]
    fn inverted_integer_bounds_flagged() {
        let mut out = Vec::new();
        Bounds.check(&bundle_with(ParamDef::Integer { lo: 5, hi: 4 }), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn non_finite_bound_flagged() {
        let mut out = Vec::new();
        Bounds.check(
            &bundle_with(ParamDef::Real {
                lo: 0.0,
                hi: f64::INFINITY,
            }),
            &mut out,
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn empty_ordinal_flagged() {
        let mut out = Vec::new();
        Bounds.check(&bundle_with(ParamDef::Ordinal { values: vec![] }), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn valid_domain_clean() {
        let mut out = Vec::new();
        Bounds.check(&bundle_with(ParamDef::Integer { lo: 1, hi: 32 }), &mut out);
        assert!(out.is_empty());
    }
}
