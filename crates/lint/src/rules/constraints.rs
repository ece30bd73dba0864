//! `S004`: constraints that no probe sample satisfies.
//!
//! Each parseable constraint (see [`crate::expr`]) is evaluated on a
//! deterministic set of probe configurations sampled from the declared
//! domains. A constraint no probe satisfies is *probably* unsatisfiable —
//! sampling cannot prove it, so this is a warning, not an error. The
//! conjunction of all constraints is probed too: individually satisfiable
//! constraints can still be jointly empty (`a >= 8` ∧ `a <= 2`-style
//! conflicts split across two expressions).
//!
//! Constraints that reference unknown parameters are left to rule `S005`;
//! constraints that do not parse are skipped (the linter only reasons
//! about what it understands).

use crate::absint::SplitMix64;
use crate::bundle::PlanBundle;
use crate::diag::{Diagnostic, Location};
use crate::expr;
use crate::registry::Lint;
use cets_space::ParamDef;
use std::collections::HashMap;

/// Number of probe configurations sampled per bundle.
const PROBES: usize = 256;

/// Sample one numeric value from a domain (numeric view: categorical as
/// option index). Returns `None` for invalid domains (S002 territory).
fn sample(def: &ParamDef, rng: &mut SplitMix64) -> Option<f64> {
    match def {
        ParamDef::Real { lo, hi } => {
            if !(lo.is_finite() && hi.is_finite() && lo < hi) {
                return None;
            }
            Some(lo + rng.next_f64() * (hi - lo))
        }
        ParamDef::Integer { lo, hi } => {
            if lo > hi {
                return None;
            }
            let span = (hi - lo) as u64 + 1;
            Some((lo + (rng.next_u64() % span) as i64) as f64)
        }
        ParamDef::Ordinal { values } => {
            if values.is_empty() {
                return None;
            }
            Some(values[(rng.next_u64() % values.len() as u64) as usize])
        }
        ParamDef::Categorical { options } => {
            if options.is_empty() {
                return None;
            }
            Some((rng.next_u64() % options.len() as u64) as f64)
        }
    }
}

/// See the module docs.
pub struct ConstraintSatisfiability;

impl Lint for ConstraintSatisfiability {
    fn codes(&self) -> &'static [&'static str] {
        &["S004"]
    }

    fn check(&self, bundle: &PlanBundle, out: &mut Vec<Diagnostic>) {
        // Parse what we can; require every referenced variable to be a
        // declared parameter (S005 handles the rest).
        let parsed: Vec<(&str, expr::Expr)> = bundle
            .constraints
            .iter()
            .filter_map(|c| {
                let e = expr::parse(&c.expr).ok()?;
                if e.vars().iter().all(|v| bundle.has_param(v)) {
                    Some((c.name.as_str(), e))
                } else {
                    None
                }
            })
            .collect();
        if parsed.is_empty() || bundle.params.is_empty() {
            return;
        }
        // Domains must all be sampleable; otherwise S002 is the real story.
        // Deterministic — the linter must not depend on global RNG state,
        // so two runs over the same bundle always agree.
        let mut rng = SplitMix64(0x5EED_CE75);
        let mut sat = vec![0usize; parsed.len()];
        let mut joint = 0usize;
        let mut probes_run = 0usize;
        'probe: for _ in 0..PROBES {
            let mut env: HashMap<&str, f64> = HashMap::with_capacity(bundle.params.len());
            for p in &bundle.params {
                match sample(&p.def, &mut rng) {
                    Some(v) => {
                        env.insert(p.name.as_str(), v);
                    }
                    None => break 'probe, // invalid domain: bail out entirely
                }
            }
            probes_run += 1;
            let lookup = |n: &str| env.get(n).copied();
            let mut all = true;
            for (i, (_, e)) in parsed.iter().enumerate() {
                let ok = e.satisfied(&lookup).unwrap_or(false);
                if ok {
                    sat[i] += 1;
                } else {
                    all = false;
                }
            }
            if all {
                joint += 1;
            }
        }
        if probes_run < PROBES {
            return; // some domain was unsampleable; S002 reports it
        }
        for ((name, e), &n) in parsed.iter().zip(&sat) {
            if n == 0 {
                out.push(
                    Diagnostic::warning(
                        "S004",
                        Location::Constraint(name.to_string()),
                        format!(
                            "constraint `{name}` was satisfied by 0 of {PROBES} probe \
                             configurations — it looks unsatisfiable over the declared domains"
                        ),
                    )
                    .with_help(format!(
                        "check the expression `{}` against the parameter bounds",
                        render_vars(e)
                    )),
                );
            }
        }
        if joint == 0 && parsed.len() > 1 && sat.iter().all(|&n| n > 0) {
            out.push(
                Diagnostic::warning(
                    "S004",
                    Location::Plan,
                    format!(
                        "no probe configuration (0 of {PROBES}) satisfies all {} constraints \
                         simultaneously — the feasible region looks empty",
                        parsed.len()
                    ),
                )
                .with_help("the constraints are individually satisfiable but jointly conflicting"),
            );
        }
    }
}

fn render_vars(e: &expr::Expr) -> String {
    e.vars().into_iter().collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{ConstraintSpec, ParamSpec};

    fn param(name: &str, lo: f64, hi: f64) -> ParamSpec {
        ParamSpec {
            name: name.into(),
            def: ParamDef::Real { lo, hi },
            default: None,
        }
    }

    fn constraint(name: &str, expr: &str) -> ConstraintSpec {
        ConstraintSpec {
            name: name.into(),
            expr: expr.into(),
        }
    }

    fn run(b: &PlanBundle) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        ConstraintSatisfiability.check(b, &mut out);
        out
    }

    #[test]
    fn unsatisfiable_constraint_flagged() {
        let b = PlanBundle {
            params: vec![param("a", 0.0, 10.0)],
            constraints: vec![constraint("neg", "a <= -1")],
            ..Default::default()
        };
        let out = run(&b);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, "S004");
    }

    #[test]
    fn satisfiable_constraint_clean() {
        let b = PlanBundle {
            params: vec![param("a", 0.0, 10.0), param("b", 0.0, 10.0)],
            constraints: vec![constraint("sum", "a + b <= 10")],
            ..Default::default()
        };
        assert!(run(&b).is_empty());
    }

    #[test]
    fn jointly_empty_conjunction_flagged() {
        let b = PlanBundle {
            params: vec![param("a", 0.0, 10.0)],
            constraints: vec![constraint("hi", "a >= 9"), constraint("lo", "a <= 1")],
            ..Default::default()
        };
        let out = run(&b);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].location, Location::Plan);
    }

    #[test]
    fn unparseable_and_unknown_ref_skipped() {
        let b = PlanBundle {
            params: vec![param("a", 0.0, 1.0)],
            constraints: vec![
                constraint("garbage", "?!? not an expr"),
                constraint("foreign", "zz <= 1"),
            ],
            ..Default::default()
        };
        assert!(
            run(&b).is_empty(),
            "S005 owns unknown refs; parse failures are skipped"
        );
    }

    #[test]
    fn invalid_domain_bails_without_panic() {
        let b = PlanBundle {
            params: vec![ParamSpec {
                name: "a".into(),
                def: ParamDef::Real { lo: 1.0, hi: 0.0 },
                default: None,
            }],
            constraints: vec![constraint("c", "a <= -1")],
            ..Default::default()
        };
        assert!(run(&b).is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let b = PlanBundle {
            params: vec![param("a", 0.0, 10.0)],
            constraints: vec![constraint("edge", "a <= 0.01")],
            ..Default::default()
        };
        assert_eq!(run(&b).len(), run(&b).len());
    }
}
