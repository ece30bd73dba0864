//! `S003`: defaults outside their parameter's domain.
//!
//! The sensitivity analysis varies each parameter *around the baseline*,
//! and the dimension cap freezes dropped parameters *at their defaults* —
//! an out-of-domain default therefore poisons both phases before any
//! search starts. Parameters whose domain is itself invalid are skipped
//! here (rule `S002` already reports them).

use crate::bundle::PlanBundle;
use crate::diag::{Diagnostic, Location};
use crate::registry::Lint;
use cets_space::{ParamDef, ParamValue};

/// See the module docs.
pub struct DefaultsInBounds;

impl Lint for DefaultsInBounds {
    fn codes(&self) -> &'static [&'static str] {
        &["S003"]
    }

    fn check(&self, bundle: &PlanBundle, out: &mut Vec<Diagnostic>) {
        for p in &bundle.params {
            let Some(d) = p.default else { continue };
            if p.def.validate().is_err() {
                continue; // S002 territory
            }
            if !d.is_finite() {
                continue; // N002 territory
            }
            let value = match &p.def {
                ParamDef::Real { .. } | ParamDef::Ordinal { .. } => ParamValue::Real(d),
                ParamDef::Integer { .. } => ParamValue::Int(d.round() as i64),
                ParamDef::Categorical { .. } => ParamValue::Index(d.round().max(0.0) as usize),
            };
            if !p.def.contains(&value) {
                out.push(
                    Diagnostic::error(
                        "S003",
                        Location::Param(p.name.clone()),
                        format!("default {d} of `{}` is outside its domain", p.name),
                    )
                    .with_help(
                        "the baseline must be a valid configuration: move the default inside the \
                         domain or widen the domain",
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::ParamSpec;

    fn bundle(def: ParamDef, default: f64) -> PlanBundle {
        PlanBundle {
            params: vec![ParamSpec {
                name: "p".into(),
                def,
                default: Some(default),
            }],
            ..Default::default()
        }
    }

    #[test]
    fn out_of_range_default_flagged() {
        let mut out = Vec::new();
        DefaultsInBounds.check(
            &bundle(ParamDef::Integer { lo: 32, hi: 1024 }, 7.0),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, "S003");
    }

    #[test]
    fn ordinal_default_must_match_a_value() {
        let mut out = Vec::new();
        DefaultsInBounds.check(
            &bundle(
                ParamDef::Ordinal {
                    values: vec![1.0, 2.0, 4.0, 8.0],
                },
                3.0,
            ),
            &mut out,
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn in_range_default_clean() {
        let mut out = Vec::new();
        DefaultsInBounds.check(
            &bundle(
                ParamDef::Real {
                    lo: -50.0,
                    hi: 50.0,
                },
                0.0,
            ),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn invalid_domain_skipped_here() {
        let mut out = Vec::new();
        DefaultsInBounds.check(&bundle(ParamDef::Real { lo: 1.0, hi: 0.0 }, 9.0), &mut out);
        assert!(out.is_empty(), "S002 reports the domain, not S003");
    }

    #[test]
    fn missing_default_clean() {
        let b = PlanBundle {
            params: vec![ParamSpec {
                name: "p".into(),
                def: ParamDef::Real { lo: 0.0, hi: 1.0 },
                default: None,
            }],
            ..Default::default()
        };
        let mut out = Vec::new();
        DefaultsInBounds.check(&b, &mut out);
        assert!(out.is_empty());
    }
}
