//! `N003`: zero-variance dimensions fed to the statistics layer.
//!
//! A parameter with a single possible value cannot vary, so Pearson
//! correlation against it divides by a zero standard deviation (NaN) and
//! random-forest importance never splits on it. Tuning it is also a
//! wasted dimension. Domains that are *invalid* are `S002`'s business;
//! this rule flags domains that are valid but degenerate — an integer
//! range `[k, k]`, an ordinal list whose values are all equal, or a
//! single-option categorical.

use crate::bundle::PlanBundle;
use crate::diag::{Diagnostic, Location};
use crate::registry::Lint;
use cets_space::ParamDef;

/// See the module docs.
pub struct ZeroVariance;

impl Lint for ZeroVariance {
    fn codes(&self) -> &'static [&'static str] {
        &["N003"]
    }

    fn check(&self, bundle: &PlanBundle, out: &mut Vec<Diagnostic>) {
        for p in &bundle.params {
            if p.def.validate().is_err() {
                continue; // S002 territory
            }
            let distinct = match &p.def {
                ParamDef::Real { .. } => continue, // lo < hi guaranteed by validate
                ParamDef::Integer { lo, hi } => (hi - lo + 1).max(0) as usize,
                ParamDef::Ordinal { values } => {
                    let mut sorted: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
                    sorted.sort_unstable();
                    sorted.dedup();
                    sorted.len()
                }
                ParamDef::Categorical { options } => options.len(),
            };
            if distinct <= 1 {
                out.push(
                    Diagnostic::warning(
                        "N003",
                        Location::Param(p.name.clone()),
                        format!(
                            "`{}` has a single possible value — Pearson correlation and forest \
                             importance on this dimension are undefined (zero variance)",
                            p.name
                        ),
                    )
                    .with_help("hard-code the value and remove the parameter from the space"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::ParamSpec;

    fn bundle(def: ParamDef) -> PlanBundle {
        PlanBundle {
            params: vec![ParamSpec {
                name: "p".into(),
                def,
                default: None,
            }],
            ..Default::default()
        }
    }

    fn run(b: &PlanBundle) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        ZeroVariance.check(b, &mut out);
        out
    }

    #[test]
    fn single_value_integer_flagged() {
        let out = run(&bundle(ParamDef::Integer { lo: 4, hi: 4 }));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, "N003");
    }

    #[test]
    fn all_equal_ordinal_flagged() {
        let out = run(&bundle(ParamDef::Ordinal {
            values: vec![2.0, 2.0, 2.0],
        }));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn single_option_categorical_flagged() {
        let out = run(&bundle(ParamDef::Categorical {
            options: vec!["only".into()],
        }));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn varied_domains_clean() {
        assert!(run(&bundle(ParamDef::Integer { lo: 1, hi: 32 })).is_empty());
        assert!(run(&bundle(ParamDef::Ordinal {
            values: vec![1.0, 2.0, 4.0]
        }))
        .is_empty());
        assert!(run(&bundle(ParamDef::Real { lo: 0.0, hi: 1.0 })).is_empty());
    }

    #[test]
    fn invalid_domain_skipped() {
        assert!(run(&bundle(ParamDef::Ordinal { values: vec![] })).is_empty());
    }
}
