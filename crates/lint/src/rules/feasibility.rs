//! `A001`–`A011`: abstract-interpretation feasibility findings.
//!
//! This rule runs the relational analysis of [`crate::absint`] over the
//! bundle and reports what it proves:
//!
//! * `A001` (error) — a constraint is *proved unsatisfiable* over the
//!   declared domains, or the conjunction of all constraints empties the
//!   box: the plan is dead on arrival. Unlike the sampling-based `S004`
//!   warning, this is a proof, so it is an error.
//! * `A002` (warning) — a constraint is *tautological*: every point of
//!   the box satisfies it, so it only costs evaluation time in the
//!   rejection sampler.
//! * `A003` (warning) — the statically feasible fraction of the box is
//!   tiny: rejection sampling will thrash discarding candidates.
//! * `A004` (warning) — backward contraction tightened a parameter's
//!   bounds: the declared domain is provably larger than the feasible
//!   region, and `cets analyze --contract` can rewrite it.
//! * `A005` (info) — the contraction fixpoint hit its iteration cap
//!   before converging; the reported intervals are sound but may be
//!   looser than the true fixpoint.
//! * `A006` (info) — the octagon closure *inferred* a two-parameter
//!   relational bound (`x + y <= c` or `x - y <= c`) that is strictly
//!   tighter than anything the contracted per-parameter boxes imply and
//!   is not a restatement of a constraint already in the plan. Samplers
//!   that only respect per-parameter bounds will overdraw this region.
//! * `A007` (info) — disjunctive branch-and-prune recovered a *union of
//!   disjoint slabs* for a parameter: the feasible set is not an
//!   interval, and the hull reported by `A004` overstates it.
//! * `A008` (info) — the disjunctive expansion hit the branch cap; some
//!   `Or` constraints were kept un-split, so slab unions may be coarser
//!   (hull-shaped) than the true feasible set. Sound, like `A005`.
//! * `A009` (info) — the congruence domain proved an integer parameter
//!   lives on a residue grid (`n ≡ r mod m`): its bounds snap to the
//!   outermost grid members, and only one point in `m` is feasible.
//!   Samplers unaware of the stride reject the rest.
//! * `A010` (warning) — the finite-set pass proved some declared ordinal
//!   values / categorical options *dead*: no feasible point selects
//!   them, yet the sampler keeps drawing them.
//! * `A011` (warning) — a parameter is statically *forced* to a single
//!   value: it is not a search dimension at all, only a constant the
//!   constraints already determine.
//!
//! The rule is **not** part of the default `cets lint` registry: `A004`
//! fires on any plan whose bounds are not already statically minimal,
//! which is advice rather than a defect. `cets analyze` (and
//! [`crate::registry::Registry::with_analysis_rules`]) opt in.
//!
//! Bundles in `S001`/`S002` error territory (duplicate parameters,
//! invalid domains) are skipped entirely — interval analysis over a
//! malformed box proves nothing.

use crate::absint::{analyze_space_with, mc_feasibility, AnalysisOptions, ConstraintClass};
use crate::bundle::PlanBundle;
use crate::diag::{Diagnostic, Location};
use crate::registry::Lint;
use cets_space::ParamDef;

/// Feasible-fraction threshold below which `A003` fires.
pub const THRASH_THRESHOLD: f64 = 1e-3;

/// See the module docs.
#[derive(Default)]
pub struct Feasibility {
    options: AnalysisOptions,
}

impl Feasibility {
    /// The rule under the default (octagon, relational) analysis.
    pub fn new() -> Self {
        Feasibility::default()
    }

    /// The rule under explicit [`AnalysisOptions`] — e.g. the plain
    /// interval domain for `cets analyze --domain interval`.
    pub fn with_options(options: AnalysisOptions) -> Self {
        Feasibility { options }
    }
}

impl Lint for Feasibility {
    fn codes(&self) -> &'static [&'static str] {
        &[
            "A001", "A002", "A003", "A004", "A005", "A006", "A007", "A008", "A009", "A010", "A011",
        ]
    }

    fn check(&self, bundle: &PlanBundle, out: &mut Vec<Diagnostic>) {
        let analysis = analyze_space_with(bundle, &self.options);
        if !analysis.analyzed {
            return;
        }

        let mut single_unsat = false;
        for c in &analysis.constraints {
            match c.class {
                ConstraintClass::ProvedUnsat => {
                    single_unsat = true;
                    out.push(
                        Diagnostic::error(
                            "A001",
                            Location::Constraint(c.name.clone()),
                            format!(
                                "constraint `{}` is proved unsatisfiable over the declared \
                                 domains: its value interval is {}",
                                c.name, c.value
                            ),
                        )
                        .with_help(
                            "no point of the search space can satisfy this constraint; \
                             widen the parameter bounds or fix the expression",
                        ),
                    );
                }
                ConstraintClass::Tautology => {
                    out.push(
                        Diagnostic::warning(
                            "A002",
                            Location::Constraint(c.name.clone()),
                            format!(
                                "constraint `{}` is tautological over the declared domains \
                                 (value interval {}): it never rejects a candidate",
                                c.name, c.value
                            ),
                        )
                        .with_help(
                            "drop the constraint, or tighten the bounds it was meant to guard",
                        ),
                    );
                }
                ConstraintClass::Contingent => {}
            }
        }

        if analysis.proved_empty && !single_unsat {
            out.push(
                Diagnostic::error(
                    "A001",
                    Location::Plan,
                    "the conjunction of all constraints is proved unsatisfiable: backward \
                     contraction emptied the parameter box",
                )
                .with_help("the constraints are individually satisfiable but jointly conflicting"),
            );
        }

        if !analysis.proved_empty && analysis.feasible_fraction < THRASH_THRESHOLD {
            // The fixed-seed Monte-Carlo cross-check quantifies how precise
            // the point estimate is: a gate sitting near the threshold can
            // read the Wilson bounds instead of flapping on a bare number.
            let mc_note = mc_feasibility(bundle)
                .map(|m| {
                    format!(
                        "; Monte-Carlo cross-check: {}/{} probes feasible, \
                         95% Wilson interval [{:.1e}, {:.1e}]",
                        m.hits, m.probes, m.ci_lo, m.ci_hi
                    )
                })
                .unwrap_or_default();
            out.push(
                Diagnostic::warning(
                    "A003",
                    Location::Plan,
                    format!(
                        "the statically feasible fraction of the search box is at most {:e}{}: \
                         rejection sampling will thrash discarding candidates",
                        analysis.feasible_fraction, mc_note
                    ),
                )
                .with_help(
                    "apply `cets analyze --contract` to tighten the bounds before searching",
                ),
            );
        }

        if !analysis.proved_empty {
            for p in &analysis.params {
                if p.narrowed() {
                    let mut d = Diagnostic::warning(
                        "A004",
                        Location::Param(p.name.clone()),
                        format!(
                            "bounds of `{}` contract from {} to {}: the declared domain is \
                             provably larger than the feasible region",
                            p.name, p.original, p.contracted
                        ),
                    );
                    d = if p.tightened.is_some() {
                        d.with_help(
                            "run `cets analyze --contract` to rewrite the plan with the \
                             tightened bounds",
                        )
                    } else {
                        d.with_help(
                            "the narrowing is not expressible in this domain kind; tighten \
                             the bounds manually if the constraint is intentional",
                        )
                    };
                    out.push(d);
                }
            }
        }

        if !analysis.converged && !analysis.proved_empty {
            out.push(Diagnostic::info(
                "A005",
                Location::Plan,
                format!(
                    "bound contraction hit the iteration cap ({} passes) before converging; \
                     the reported intervals are sound but may be looser than the fixpoint",
                    analysis.iterations
                ),
            ));
        }

        if !analysis.proved_empty {
            for rel in analysis.relations.iter().filter(|r| r.inferred) {
                out.push(
                    Diagnostic::info(
                        "A006",
                        Location::Plan,
                        format!(
                            "octagon closure infers the relational bound `{rel}`, strictly \
                             tighter than the per-parameter boxes imply",
                        ),
                    )
                    .with_help(
                        "per-parameter bounds cannot express this; samplers that ignore the \
                         constraints will overdraw the excluded corner",
                    ),
                );
            }

            for p in analysis.params.iter().filter(|p| p.slabs.len() > 1) {
                let slabs = p
                    .slabs
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join(" ∪ ");
                out.push(
                    Diagnostic::info(
                        "A007",
                        Location::Param(p.name.clone()),
                        format!(
                            "the feasible set of `{}` is a union of {} disjoint slabs: {}; \
                             the interval hull {} overstates it",
                            p.name,
                            p.slabs.len(),
                            slabs,
                            p.contracted
                        ),
                    )
                    .with_help(
                        "constructive samplers draw from the slab union directly; plain \
                         rejection over the hull discards the gap",
                    ),
                );
            }

            if analysis.split_capped {
                out.push(Diagnostic::info(
                    "A008",
                    Location::Plan,
                    format!(
                        "disjunctive expansion hit the branch cap ({} branches explored); \
                         un-split `or` constraints fall back to the sound interval hull",
                        analysis.split_branches
                    ),
                ));
            }

            for p in &analysis.params {
                if let Some((m, r)) = p.stride {
                    out.push(
                        Diagnostic::info(
                            "A009",
                            Location::Param(p.name.clone()),
                            format!(
                                "`{}` is congruence-constrained to the grid {}ℤ+{} \
                                 (stride {}): bounds snap to {}, and only one value in {} \
                                 is feasible",
                                p.name, m, r, m, p.contracted, m
                            ),
                        )
                        .with_help(
                            "plain rejection discards (m-1)/m of its draws; an application \
                             sampler (`Objective::sample_valid`) can walk the grid directly",
                        ),
                    );
                }

                let Some(kept) = &p.kept else { continue };
                let def = bundle.params.iter().find(|sp| sp.name == p.name);
                let names: Vec<String> = match def.map(|sp| &sp.def) {
                    Some(ParamDef::Categorical { options }) => options.clone(),
                    Some(ParamDef::Ordinal { values }) => {
                        values.iter().map(|v| v.to_string()).collect()
                    }
                    _ => continue,
                };
                if names.len() < 2 {
                    continue; // a one-option parameter is declared, not forced
                }
                if kept.len() == 1 {
                    let forced = names
                        .get(kept[0])
                        .cloned()
                        .unwrap_or_else(|| kept[0].to_string());
                    out.push(
                        Diagnostic::warning(
                            "A011",
                            Location::Param(p.name.clone()),
                            format!(
                                "`{}` is statically forced to the single value `{}`: \
                                 {} of its {} declared options are dead and it is not a \
                                 search dimension",
                                p.name,
                                forced,
                                names.len() - 1,
                                names.len()
                            ),
                        )
                        .with_help(
                            "pin the parameter to this value and drop it from the search, \
                             or relax the constraint that forces it",
                        ),
                    );
                } else if kept.len() < names.len() {
                    let dead: Vec<String> = (0..names.len())
                        .filter(|k| !kept.contains(k))
                        .map(|k| format!("`{}`", names[k]))
                        .collect();
                    let mut d = Diagnostic::warning(
                        "A010",
                        Location::Param(p.name.clone()),
                        format!(
                            "{} of the {} declared options of `{}` are statically dead: \
                             {} can never be selected by a feasible point",
                            dead.len(),
                            names.len(),
                            p.name,
                            dead.join(", ")
                        ),
                    );
                    d = if p.tightened.is_some() {
                        d.with_help(
                            "run `cets analyze --contract` to drop the dead options from \
                             the plan",
                        )
                    } else {
                        d.with_help(
                            "dropping them would renumber surviving options referenced by \
                             constraints; prune them manually",
                        )
                    };
                    out.push(d);
                }
            }

            // An unbounded-kind parameter contracted to one point is
            // forced just the same (e.g. `n == 57600` via equality).
            for p in &analysis.params {
                let def = bundle.params.iter().find(|sp| sp.name == p.name);
                let numeric = matches!(
                    def.map(|sp| &sp.def),
                    Some(ParamDef::Integer { .. } | ParamDef::Real { .. })
                );
                if numeric
                    && p.narrowed()
                    && p.contracted.lo == p.contracted.hi
                    && p.contracted.lo.is_finite()
                {
                    out.push(
                        Diagnostic::warning(
                            "A011",
                            Location::Param(p.name.clone()),
                            format!(
                                "`{}` is statically forced to the single value `{}`: \
                                 it is not a search dimension",
                                p.name, p.contracted.lo
                            ),
                        )
                        .with_help(
                            "pin the parameter to this value and drop it from the search, \
                             or relax the constraint that forces it",
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{ConstraintSpec, ParamSpec};
    use crate::diag::Severity;
    use cets_space::ParamDef;

    fn param(name: &str, lo: i64, hi: i64) -> ParamSpec {
        ParamSpec {
            name: name.into(),
            def: ParamDef::Integer { lo, hi },
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
        Feasibility::new().check(b, &mut out);
        out
    }

    #[test]
    fn unsat_constraint_is_a001_error() {
        let b = PlanBundle {
            params: vec![param("a", 1, 8)],
            constraints: vec![constraint("dead", "a > 100")],
            ..Default::default()
        };
        let out = run(&b);
        let d = out.iter().find(|d| d.code == "A001").expect("A001");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.location, Location::Constraint("dead".into()));
    }

    #[test]
    fn jointly_empty_is_a001_at_plan() {
        let b = PlanBundle {
            params: vec![param("a", 0, 10)],
            constraints: vec![constraint("hi", "a >= 9"), constraint("lo", "a <= 1")],
            ..Default::default()
        };
        let out = run(&b);
        let d = out.iter().find(|d| d.code == "A001").expect("A001");
        assert_eq!(d.location, Location::Plan);
    }

    #[test]
    fn tautology_is_a002_warning() {
        let b = PlanBundle {
            params: vec![param("a", 1, 8)],
            constraints: vec![constraint("trivial", "a >= 0")],
            ..Default::default()
        };
        let out = run(&b);
        let d = out.iter().find(|d| d.code == "A002").expect("A002");
        assert_eq!(d.severity, Severity::Warning);
    }

    #[test]
    fn thrash_risk_is_a003() {
        let b = PlanBundle {
            params: vec![param("a", 0, 99_999)],
            constraints: vec![constraint("pin", "a <= 0")],
            ..Default::default()
        };
        let out = run(&b);
        assert!(out.iter().any(|d| d.code == "A003"), "{out:?}");
    }

    #[test]
    fn a003_reports_wilson_interval() {
        let b = PlanBundle {
            params: vec![param("a", 0, 99_999)],
            constraints: vec![constraint("pin", "a <= 0")],
            ..Default::default()
        };
        let out = run(&b);
        let d = out.iter().find(|d| d.code == "A003").expect("A003");
        assert!(
            d.message.contains("Wilson interval"),
            "missing uncertainty: {}",
            d.message
        );
        assert!(d.message.contains("probes feasible"), "{}", d.message);
    }

    #[test]
    fn contraction_is_a004_with_intervals_in_message() {
        let b = PlanBundle {
            params: vec![param("a", 32, 1024)],
            constraints: vec![constraint("smem", "a * 64 <= 49152")],
            ..Default::default()
        };
        let out = run(&b);
        let d = out.iter().find(|d| d.code == "A004").expect("A004");
        assert_eq!(d.location, Location::Param("a".into()));
        assert!(d.message.contains("[32, 1024]"), "{}", d.message);
        assert!(d.message.contains("[32, 768]"), "{}", d.message);
    }

    #[test]
    fn clean_contingent_plan_is_quiet() {
        let b = PlanBundle {
            params: vec![param("a", 0, 10), param("b", 0, 10)],
            constraints: vec![constraint("sum", "a + b <= 20")],
            ..Default::default()
        };
        // a + b <= 20 is tautological here; make it contingent but
        // non-contracting: a + b <= 10 narrows nothing (each var alone
        // already fits) — contraction derives a <= 10 which is the bound.
        let out = run(&b);
        assert!(out.iter().all(|d| d.code == "A002"), "{out:?}");
        let b2 = PlanBundle {
            constraints: vec![constraint("sum", "a + b <= 10")],
            ..b
        };
        let out = run(&b2);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn inferred_relation_is_a006_info() {
        // McCormick relaxation of the product constraint infers
        // g1 + zc <= 544, which no per-parameter box expresses.
        let b = PlanBundle {
            params: vec![param("g1", 32, 1024), param("zc", 32, 1024)],
            constraints: vec![constraint("residency", "g1 * zc <= 16384")],
            ..Default::default()
        };
        let out = run(&b);
        let d = out.iter().find(|d| d.code == "A006").expect("A006");
        assert_eq!(d.severity, Severity::Info);
        assert!(d.message.contains("g1 + zc <= 544"), "{}", d.message);
        // Under the interval domain there is no relational machinery.
        let mut out = Vec::new();
        Feasibility::with_options(AnalysisOptions {
            domain: crate::absint::Domain::Interval,
            ..Default::default()
        })
        .check(&b, &mut out);
        assert!(out.iter().all(|d| d.code != "A006"), "{out:?}");
    }

    #[test]
    fn restated_linear_bound_stays_quiet() {
        // `a + b <= 10` is octagonal already: reporting it back as an
        // "inferred" relation would be noise.
        let b = PlanBundle {
            params: vec![param("a", 0, 10), param("b", 0, 10)],
            constraints: vec![constraint("budget", "a + b <= 10")],
            ..Default::default()
        };
        let out = run(&b);
        assert!(out.iter().all(|d| d.code != "A006"), "{out:?}");
    }

    #[test]
    fn disjoint_slabs_are_a007_info() {
        let b = PlanBundle {
            params: vec![param("a", 0, 10)],
            constraints: vec![constraint("gap", "a <= 1 || a >= 9")],
            ..Default::default()
        };
        let out = run(&b);
        let d = out.iter().find(|d| d.code == "A007").expect("A007");
        assert_eq!(d.severity, Severity::Info);
        assert_eq!(d.location, Location::Param("a".into()));
        assert!(d.message.contains("2 disjoint slabs"), "{}", d.message);
    }

    #[test]
    fn split_cap_is_a008_info() {
        // Five two-way disjunctions want 32 branches; the cap is 16.
        let params: Vec<ParamSpec> = (0..5).map(|i| param(&format!("p{i}"), 0, 10)).collect();
        let constraints: Vec<ConstraintSpec> = (0..5)
            .map(|i| constraint(&format!("c{i}"), &format!("p{i} <= 1 || p{i} >= 9")))
            .collect();
        let b = PlanBundle {
            params,
            constraints,
            ..Default::default()
        };
        let out = run(&b);
        let d = out.iter().find(|d| d.code == "A008").expect("A008");
        assert_eq!(d.severity, Severity::Info);
    }

    #[test]
    fn stride_is_a009_info() {
        let b = PlanBundle {
            params: vec![param("n", 1, 100_000)],
            constraints: vec![constraint("blk", "n % 256 == 0")],
            ..Default::default()
        };
        let out = run(&b);
        let d = out.iter().find(|d| d.code == "A009").expect("A009");
        assert_eq!(d.severity, Severity::Info);
        assert_eq!(d.location, Location::Param("n".into()));
        assert!(d.message.contains("stride 256"), "{}", d.message);
        assert!(d.message.contains("[256, 99840]"), "{}", d.message);
        // No congruence machinery under the plain interval domain.
        let mut out = Vec::new();
        Feasibility::with_options(AnalysisOptions {
            domain: crate::absint::Domain::Interval,
            ..Default::default()
        })
        .check(&b, &mut out);
        assert!(out.iter().all(|d| d.code != "A009"), "{out:?}");
    }

    #[test]
    fn dead_options_are_a010_warning() {
        let b = PlanBundle {
            params: vec![ParamSpec {
                name: "bcast".into(),
                def: ParamDef::Categorical {
                    options: vec!["1rg".into(), "1rM".into(), "2rg".into(), "Lng".into()],
                },
                default: None,
            }],
            constraints: vec![constraint("topo", "bcast <= 1")],
            ..Default::default()
        };
        let out = run(&b);
        let d = out.iter().find(|d| d.code == "A010").expect("A010");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("`2rg`"), "{}", d.message);
        assert!(d.message.contains("`Lng`"), "{}", d.message);
        assert!(
            d.help.as_deref().unwrap_or_default().contains("--contract"),
            "prefix survivors are rewritable: {:?}",
            d.help
        );
    }

    #[test]
    fn forced_single_value_is_a011_warning() {
        let b = PlanBundle {
            params: vec![ParamSpec {
                name: "mode".into(),
                def: ParamDef::Categorical {
                    options: vec!["left".into(), "crout".into(), "right".into()],
                },
                default: None,
            }],
            constraints: vec![constraint("pin", "mode == 2")],
            ..Default::default()
        };
        let out = run(&b);
        let d = out.iter().find(|d| d.code == "A011").expect("A011");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("`right`"), "{}", d.message);
        assert!(out.iter().all(|d| d.code != "A010"), "A011 subsumes A010");

        // An integer squeezed to a point by an equality is forced too.
        let b = PlanBundle {
            params: vec![param("n", 0, 100_000)],
            constraints: vec![constraint("pin", "n == 57600")],
            ..Default::default()
        };
        let out = run(&b);
        let d = out.iter().find(|d| d.code == "A011").expect("A011");
        assert!(d.message.contains("57600"), "{}", d.message);
    }

    #[test]
    fn malformed_bundle_is_skipped() {
        let b = PlanBundle {
            params: vec![param("a", 9, 1)],
            constraints: vec![constraint("c", "a > 100")],
            ..Default::default()
        };
        assert!(run(&b).is_empty(), "S002 territory is not re-reported");
    }
}
