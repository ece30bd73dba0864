//! Sensitivity-analysis driver: varies each parameter individually on a
//! live [`Objective`] and distills [`SensitivityScores`].
//!
//! Two variation policies cover the paper's two settings:
//!
//! * [`VariationPolicy::Multiplicative`] — "100 individual variations ...
//!   each variation involved increasing the variable value by 10% relative
//!   to the preceding iteration" (synthetic functions, Section IV-B);
//! * [`VariationPolicy::Spread`] — a handful of values spread across the
//!   parameter's domain, standing in for the expert-suggested variations
//!   used on RT-TDDFT ("we set a random baseline and incorporate five
//!   individual variations per parameter").
//!
//! Observation cost is exactly `1 + D × V` objective evaluations — the
//! quantity the methodology minimizes relative to full orthogonality
//! analyses.

use crate::objective::{Objective, Observation};
use crate::{CoreError, Result};
use cets_space::{Config, ParamDef, ParamValue, SearchSpace};
use cets_stats::SensitivityScores;

/// How variation values are chosen for each parameter.
#[derive(Debug, Clone)]
pub enum VariationPolicy {
    /// Geometric ramp: `value_k = baseline · (1 + factor)^k`, snapped into
    /// the parameter's domain. `count` variations per parameter.
    Multiplicative {
        /// Number of variations per parameter (the paper's `V`, 100 for the
        /// synthetic study).
        count: usize,
        /// Relative step (0.10 = +10% per variation).
        factor: f64,
    },
    /// `count` values spread evenly across the parameter's domain,
    /// preferring values different from the baseline.
    Spread {
        /// Number of variations per parameter (5 in the paper's RT-TDDFT
        /// study).
        count: usize,
    },
}

impl VariationPolicy {
    fn count(&self) -> usize {
        match self {
            VariationPolicy::Multiplicative { count, .. } => *count,
            VariationPolicy::Spread { count } => *count,
        }
    }

    /// Candidate values for one parameter, in preference order. May return
    /// more candidates than `count`; the driver keeps the first `count`
    /// that produce *valid* configurations.
    fn candidates(&self, def: &ParamDef, baseline: &ParamValue) -> Vec<ParamValue> {
        match self {
            VariationPolicy::Multiplicative { count, factor } => {
                let base = baseline.as_f64();
                // A zero baseline would never move; nudge it onto the
                // domain's scale first.
                let start = if base.abs() < 1e-12 {
                    domain_scale(def) * 0.01
                } else {
                    base
                };
                (1..=*count)
                    .map(|k| snap(def, start * (1.0 + factor).powi(k as i32)))
                    .collect()
            }
            VariationPolicy::Spread { count } => {
                // Bin centers across the unit interval, then a second pass
                // offset by half a bin as spares for validity rejections.
                let n = *count;
                let mut cands: Vec<ParamValue> = (0..n)
                    .map(|k| def.decode((k as f64 + 0.5) / n as f64))
                    .collect();
                cands.extend((0..n).map(|k| def.decode(k as f64 / n as f64)));
                // Prefer values that actually differ from the baseline.
                cands.sort_by_key(|v| v == baseline);
                cands
            }
        }
    }
}

/// Typical magnitude of a parameter's domain, for zero-baseline nudges.
fn domain_scale(def: &ParamDef) -> f64 {
    match def {
        ParamDef::Real { lo, hi } => (hi - lo).abs(),
        ParamDef::Integer { lo, hi } => (hi - lo) as f64,
        ParamDef::Ordinal { values } => values
            .iter()
            .cloned()
            .fold(0.0_f64, |m, v| m.max(v.abs()))
            .max(1.0),
        ParamDef::Categorical { options } => options.len() as f64,
    }
}

/// Snap a raw numeric target into the parameter's domain.
fn snap(def: &ParamDef, target: f64) -> ParamValue {
    match def {
        ParamDef::Real { lo, hi } => ParamValue::Real(target.clamp(*lo, *hi)),
        ParamDef::Integer { lo, hi } => ParamValue::Int((target.round() as i64).clamp(*lo, *hi)),
        ParamDef::Ordinal { values } => {
            let nearest = values
                .iter()
                .cloned()
                .min_by(|a, b| {
                    (a - target)
                        .abs()
                        .partial_cmp(&(b - target).abs())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                // An empty ordinal domain has nothing to snap to; keep the
                // raw target and let validity checks reject it downstream.
                .unwrap_or(target);
            ParamValue::Real(nearest)
        }
        ParamDef::Categorical { options } => {
            ParamValue::Index((target.round().max(0.0) as usize).min(options.len() - 1))
        }
    }
}

/// Generate up to `count` *valid* single-parameter variations of
/// `baseline`, padding with the last valid one (or the baseline itself)
/// when constraints reject too many candidates — a padded variation
/// changes nothing and so contributes zero variability, which conservatively
/// under-reports rather than inventing influence.
fn valid_variations(
    space: &SearchSpace,
    baseline: &Config,
    param_idx: usize,
    policy: &VariationPolicy,
) -> Vec<Config> {
    let count = policy.count();
    let def = &space.defs()[param_idx];
    let mut out: Vec<Config> = Vec::with_capacity(count);
    for v in policy.candidates(def, &baseline[param_idx]) {
        if out.len() >= count {
            break;
        }
        let mut cfg = baseline.clone();
        cfg[param_idx] = v;
        if space.is_valid(&cfg) {
            out.push(cfg);
        }
    }
    let pad = out.last().cloned().unwrap_or_else(|| baseline.clone());
    while out.len() < count {
        out.push(pad.clone());
    }
    out
}

/// Run the full per-routine sensitivity analysis.
///
/// The returned scores cover every routine of `objective` **plus a final
/// pseudo-routine `"total"`** scoring influence on the overall objective —
/// so one pass serves both the paper's "insights about parameters"
/// (overall-runtime sensitivity) and "inferring independent routines"
/// (per-routine sensitivity).
pub fn routine_sensitivity<O: Objective + ?Sized>(
    objective: &O,
    baseline: &Config,
    policy: &VariationPolicy,
) -> Result<SensitivityScores> {
    let (scores, _) = sensitivity_pass(objective, baseline, policy, |cfg| {
        Some(objective.evaluate(cfg))
    })?;
    Ok(scores)
}

/// [`routine_sensitivity`] over an evaluator that may fail: `observe`
/// returns `None` for a failed evaluation. Returns the scores and the
/// number of failed variations.
///
/// A failed or non-finite variation is substituted with the baseline row:
/// it contributes zero variability, conservatively under-reporting
/// influence instead of letting a NaN poison every downstream score. A
/// failed baseline is an error — there is nothing to vary around.
pub(crate) fn sensitivity_pass<O: Objective + ?Sized>(
    objective: &O,
    baseline: &Config,
    policy: &VariationPolicy,
    observe: impl Fn(&Config) -> Option<Observation>,
) -> Result<(SensitivityScores, usize)> {
    let space = objective.space();
    let param_names = space.names().to_vec();
    let mut routine_names = objective.routine_names();
    routine_names.push("total".to_string());

    let row = |cfg: &Config| -> Option<Vec<f64>> {
        let obs = observe(cfg)?;
        let mut row = obs.routines;
        row.push(obs.total);
        row.iter().all(|v| v.is_finite()).then_some(row)
    };

    let Some(base_out) = row(baseline) else {
        return Err(CoreError::SearchStalled(
            "baseline evaluation failed or produced a non-finite value; \
             sensitivity analysis needs a runnable baseline"
                .into(),
        ));
    };
    let mut failed = 0;
    let mut varied: Vec<Vec<Vec<f64>>> = Vec::with_capacity(param_names.len());
    for p in 0..param_names.len() {
        let rows: Vec<Vec<f64>> = valid_variations(space, baseline, p, policy)
            .iter()
            .map(|cfg| {
                row(cfg).unwrap_or_else(|| {
                    failed += 1;
                    base_out.clone()
                })
            })
            .collect();
        varied.push(rows);
    }
    let scores =
        SensitivityScores::from_observations(&param_names, &routine_names, &base_out, &varied)?;
    Ok((scores, failed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::test_objectives::{CoupledSphere, SplitSphere};
    use crate::objective::CountingObjective;

    fn baseline3() -> Config {
        vec![
            ParamValue::Real(1.0),
            ParamValue::Real(1.0),
            ParamValue::Real(1.0),
        ]
    }

    #[test]
    fn detects_ownership_structure() {
        let obj = SplitSphere::new();
        let s =
            routine_sensitivity(&obj, &baseline3(), &VariationPolicy::Spread { count: 5 }).unwrap();
        // x0 influences r0, not r1.
        assert!(s.score_by_name("x0", "r0").unwrap() > 0.5);
        assert_eq!(s.score_by_name("x0", "r1").unwrap(), 0.0);
        // x2 influences r1, not r0.
        assert!(s.score_by_name("x2", "r1").unwrap() > 0.5);
        assert_eq!(s.score_by_name("x2", "r0").unwrap(), 0.0);
        // Everything influences the total.
        assert!(s.score_by_name("x1", "total").unwrap() > 0.0);
    }

    #[test]
    fn detects_cross_influence() {
        let obj = CoupledSphere::new();
        let s =
            routine_sensitivity(&obj, &baseline3(), &VariationPolicy::Spread { count: 5 }).unwrap();
        // x1 cross-influences r1 (the (x1·x2)² term).
        assert!(
            s.score_by_name("x1", "r1").unwrap() > 0.1,
            "cross influence missed: {:?}",
            s.score_by_name("x1", "r1")
        );
        // x0 still doesn't touch r1.
        assert_eq!(s.score_by_name("x0", "r1").unwrap(), 0.0);
    }

    #[test]
    fn observation_cost_is_one_plus_dv() {
        let obj = SplitSphere::new();
        let counted = CountingObjective::new(&obj);
        let s = routine_sensitivity(
            &counted,
            &baseline3(),
            &VariationPolicy::Spread { count: 4 },
        )
        .unwrap();
        assert_eq!(counted.count(), 1 + 3 * 4);
        assert_eq!(s.observation_cost(), 1 + 3 * 4);
    }

    #[test]
    fn multiplicative_policy_moves_values() {
        let obj = SplitSphere::new();
        let s = routine_sensitivity(
            &obj,
            &baseline3(),
            &VariationPolicy::Multiplicative {
                count: 10,
                factor: 0.1,
            },
        )
        .unwrap();
        // x0 at 1.0 ramped by 10% steps: clearly influences r0.
        assert!(s.score_by_name("x0", "r0").unwrap() > 0.2);
        assert_eq!(s.variations(), 10);
    }

    #[test]
    fn multiplicative_zero_baseline_nudges() {
        let obj = SplitSphere::new();
        let zero = vec![
            ParamValue::Real(0.0),
            ParamValue::Real(0.0),
            ParamValue::Real(1.0),
        ];
        // Baseline r0 = 0 would be degenerate; use a baseline where totals
        // are nonzero but x0 itself is zero.
        let s = routine_sensitivity(
            &obj,
            &zero,
            &VariationPolicy::Multiplicative {
                count: 20,
                factor: 0.1,
            },
        );
        // r0 is 0 at baseline -> degenerate zero-baseline error is the
        // correct, explicit outcome.
        assert!(s.is_err());
    }

    #[test]
    fn failed_variations_take_the_baseline_row_and_are_counted() {
        let obj = SplitSphere::new();
        let policy = VariationPolicy::Spread { count: 5 };
        // Every variation that moves x0 fails; the rest evaluate.
        let (s, failed) = sensitivity_pass(&obj, &baseline3(), &policy, |cfg| {
            (cfg[0] == baseline3()[0]).then(|| obj.evaluate(cfg))
        })
        .unwrap();
        assert_eq!(failed, 5);
        for r in ["r0", "r1", "total"] {
            assert_eq!(s.score_by_name("x0", r).unwrap(), 0.0, "x0 → {r}");
        }
        let clean = routine_sensitivity(&obj, &baseline3(), &policy).unwrap();
        assert_eq!(s.score_by_name("x2", "r1"), clean.score_by_name("x2", "r1"));
        // A failed baseline is an error, not a substitution.
        assert!(sensitivity_pass(&obj, &baseline3(), &policy, |_| None).is_err());
    }

    #[test]
    fn non_finite_variation_rows_fall_back_to_baseline() {
        use crate::objective::Observation;
        use cets_space::SearchSpace;
        // r0 blows up (NaN) whenever x0 leaves [0, 2]; the spread variations
        // for x0 land mostly outside that band.
        struct Spiky(SearchSpace);
        impl Objective for Spiky {
            fn space(&self) -> &SearchSpace {
                &self.0
            }
            fn routine_names(&self) -> Vec<String> {
                vec!["r0".into(), "r1".into()]
            }
            fn evaluate(&self, cfg: &Config) -> Observation {
                let (a, b) = (cfg[0].as_f64(), cfg[1].as_f64());
                let r0 = if (0.0..=2.0).contains(&a) {
                    a * a
                } else {
                    f64::NAN
                };
                Observation {
                    total: r0 + b * b,
                    routines: vec![r0, b * b],
                }
            }
            fn default_config(&self) -> Config {
                vec![ParamValue::Real(1.0), ParamValue::Real(1.0)]
            }
        }
        let obj = Spiky(
            SearchSpace::builder()
                .real("x0", 0.0, 10.0)
                .real("x1", 0.0, 10.0)
                .build(),
        );
        let s = routine_sensitivity(
            &obj,
            &obj.default_config(),
            &VariationPolicy::Spread { count: 5 },
        )
        .unwrap();
        // Every score stays finite despite the NaN region...
        for p in ["x0", "x1"] {
            for r in ["r0", "r1", "total"] {
                let v = s.score_by_name(p, r).unwrap();
                assert!(v.is_finite(), "score({p}, {r}) = {v}");
            }
        }
        // ...and the clean parameter's influence is still detected.
        assert!(s.score_by_name("x1", "r1").unwrap() > 0.5);
    }

    #[test]
    fn non_finite_baseline_is_an_error() {
        use crate::objective::Observation;
        use cets_space::SearchSpace;
        struct NanAtBaseline(SearchSpace);
        impl Objective for NanAtBaseline {
            fn space(&self) -> &SearchSpace {
                &self.0
            }
            fn routine_names(&self) -> Vec<String> {
                vec!["r".into()]
            }
            fn evaluate(&self, cfg: &Config) -> Observation {
                let x = cfg[0].as_f64();
                if x == 1.0 {
                    Observation::scalar(f64::NAN)
                } else {
                    Observation::scalar(x)
                }
            }
            fn default_config(&self) -> Config {
                vec![ParamValue::Real(1.0)]
            }
        }
        let obj = NanAtBaseline(SearchSpace::builder().real("x", 0.0, 10.0).build());
        let err = routine_sensitivity(
            &obj,
            &obj.default_config(),
            &VariationPolicy::Spread { count: 3 },
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::SearchStalled(_)), "{err}");
    }

    #[test]
    fn spread_candidates_cover_domain() {
        let def = ParamDef::Integer { lo: 0, hi: 9 };
        let pol = VariationPolicy::Spread { count: 5 };
        let cands = pol.candidates(&def, &ParamValue::Int(3));
        // First 5 candidates (bin centers) span the range.
        let vals: Vec<i64> = cands.iter().take(5).map(|v| v.as_i64()).collect();
        assert!(vals.iter().max().unwrap() - vals.iter().min().unwrap() >= 6);
    }

    #[test]
    fn snap_respects_domains() {
        assert_eq!(
            snap(&ParamDef::Real { lo: 0.0, hi: 1.0 }, 5.0),
            ParamValue::Real(1.0)
        );
        assert_eq!(
            snap(&ParamDef::Integer { lo: 1, hi: 8 }, 3.4),
            ParamValue::Int(3)
        );
        assert_eq!(
            snap(
                &ParamDef::Ordinal {
                    values: vec![1.0, 2.0, 4.0, 8.0]
                },
                5.5
            ),
            ParamValue::Real(4.0)
        );
    }
}
