//! Classical pairwise interaction analysis — the *expensive* alternative
//! the methodology's sensitivity analysis replaces.
//!
//! The paper (Sections II/IV-C) argues that decomposition approaches in the
//! literature "lead to a substantial number of observations" because they
//! probe orthogonality directly. This module implements that baseline: a
//! two-level factorial interaction screen. For every parameter pair
//! `(p, q)` it evaluates the four corners
//!
//! ```text
//! f(base), f(p→p'), f(q→q'), f(p→p', q→q')
//! ```
//!
//! and scores the (normalized) interaction effect
//! `|f(pq) − f(p) − f(q) + f(base)| / |f(base)|`: zero for additively
//! separable (orthogonal) pairs, positive when the parameters interact.
//!
//! Observation cost is `1 + D + D(D−1)/2` per probe level — **quadratic in
//! D** versus the sensitivity analysis's linear `1 + D×V`. For the paper's
//! `D = 20` that is 211 evaluations per level against 101 for `V = 5`, and
//! the gap widens with more levels or more parameters; this is the
//! concrete cost the methodology avoids. Run `cargo run --release -p
//! cets-bench --bin exp_ablation_analysis_cost` for the measured
//! comparison.

use crate::objective::Objective;
use crate::Result;
use cets_space::{Config, ParamDef, ParamValue};

/// Result of a pairwise interaction screen.
#[derive(Debug, Clone)]
pub struct InteractionAnalysis {
    param_names: Vec<String>,
    /// `effects[p][q]` = normalized interaction magnitude (symmetric,
    /// zero diagonal).
    effects: Vec<Vec<f64>>,
    /// Objective evaluations consumed.
    pub observations: usize,
}

impl InteractionAnalysis {
    /// Interaction magnitude between two parameters (by index).
    pub fn effect(&self, p: usize, q: usize) -> f64 {
        self.effects[p][q]
    }

    /// Interaction magnitude by names.
    pub fn effect_by_name(&self, p: &str, q: &str) -> Option<f64> {
        let pi = self.param_names.iter().position(|n| n == p)?;
        let qi = self.param_names.iter().position(|n| n == q)?;
        Some(self.effects[pi][qi])
    }

    /// The theoretical observation count for `d` parameters:
    /// `1 + d + d(d−1)/2`.
    pub fn expected_cost(d: usize) -> usize {
        1 + d + d * (d - 1) / 2
    }
}

/// A "high" probe value for each parameter: the domain value farthest from
/// the baseline in unit space (guaranteed distinct for non-degenerate
/// domains).
fn probe_value(def: &ParamDef, baseline: &ParamValue) -> ParamValue {
    let u = def.encode(baseline).unwrap_or(0.5);
    def.decode(if u < 0.5 { 0.95 } else { 0.05 })
}

/// Run the two-level pairwise interaction screen on a scalar view of the
/// observation (`|obs| obs.total` for the whole objective, or one
/// routine's raw runtime). Note that the screen is *scale-sensitive*: a
/// multiplicative coupling is invisible through a logarithmic observable
/// (`ln(x·y) = ln x + ln y` is additive), which is one more reason the
/// methodology screens each routine's own runtime rather than a
/// transformed total.
///
/// Pairs whose combined configuration violates a constraint are recorded
/// as zero interaction (they cannot co-occur, so no joint search is
/// needed); the conservative alternative of marking them interacting would
/// merge everything in heavily constrained spaces.
pub fn pairwise_interactions_on<O: Objective + ?Sized>(
    objective: &O,
    baseline: &Config,
    extract: impl Fn(&crate::objective::Observation) -> f64,
) -> Result<InteractionAnalysis> {
    let space = objective.space();
    let d = space.dim();
    let mut observations = 0usize;
    let mut eval = |cfg: &Config| -> f64 {
        observations += 1;
        extract(&objective.evaluate(cfg))
    };

    let f_base = eval(baseline);
    // Single-parameter probes.
    let mut probes: Vec<Option<(Config, f64)>> = Vec::with_capacity(d);
    for p in 0..d {
        let mut cfg = baseline.clone();
        cfg[p] = probe_value(&space.defs()[p], &baseline[p]);
        if space.is_valid(&cfg) {
            let v = eval(&cfg);
            probes.push(Some((cfg, v)));
        } else {
            probes.push(None);
        }
    }

    let mut effects = vec![vec![0.0; d]; d];
    let denom = f_base.abs().max(1e-12);
    for p in 0..d {
        let Some((cfg_p, f_p)) = &probes[p] else {
            continue;
        };
        for q in (p + 1)..d {
            let Some((_, f_q)) = &probes[q] else { continue };
            let mut cfg_pq = cfg_p.clone();
            cfg_pq[q] = probe_value(&space.defs()[q], &baseline[q]);
            if !space.is_valid(&cfg_pq) {
                continue;
            }
            let f_pq = eval(&cfg_pq);
            let inter = (f_pq - f_p - f_q + f_base).abs() / denom;
            effects[p][q] = inter;
            effects[q][p] = inter;
        }
    }

    Ok(InteractionAnalysis {
        param_names: space.names().to_vec(),
        effects,
        observations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::test_objectives::{CoupledSphere, SplitSphere};
    use crate::objective::CountingObjective;

    #[test]
    fn separable_function_has_no_interactions() {
        let obj = SplitSphere::new(); // x0² + x1² + x2²: fully additive
        let a = pairwise_interactions_on(&obj, &obj.default_config(), |o| o.total).unwrap();
        for p in 0..3 {
            for q in 0..3 {
                assert!(a.effect(p, q) < 1e-9, "unexpected interaction {p}-{q}");
            }
        }
    }

    #[test]
    fn coupled_function_flags_the_right_pair() {
        let obj = CoupledSphere::new(); // contains (x1·x2)²
        let a = pairwise_interactions_on(&obj, &obj.default_config(), |o| o.total).unwrap();
        let x1x2 = a.effect_by_name("x1", "x2").unwrap();
        let x0x1 = a.effect_by_name("x0", "x1").unwrap();
        let x0x2 = a.effect_by_name("x0", "x2").unwrap();
        assert!(x1x2 > 1.0, "x1-x2 interaction missed: {x1x2}");
        assert!(x0x1 < 1e-9, "spurious x0-x1 interaction: {x0x1}");
        assert!(x0x2 < 1e-9, "spurious x0-x2 interaction: {x0x2}");
    }

    #[test]
    fn observation_cost_is_quadratic() {
        let obj = SplitSphere::new();
        let counted = CountingObjective::new(&obj);
        let a = pairwise_interactions_on(&counted, &obj.default_config(), |o| o.total).unwrap();
        // d = 3: 1 + 3 + 3 = 7.
        assert_eq!(a.observations, 7);
        assert_eq!(counted.count(), 7);
        assert_eq!(InteractionAnalysis::expected_cost(3), 7);
        // The paper's D = 20: 211 observations per level — more than a
        // whole V=5 sensitivity pass (101) and growing quadratically.
        assert_eq!(InteractionAnalysis::expected_cost(20), 211);
    }

    #[test]
    fn effect_symmetric_zero_diagonal() {
        let obj = CoupledSphere::new();
        let a = pairwise_interactions_on(&obj, &obj.default_config(), |o| o.total).unwrap();
        for p in 0..3 {
            assert_eq!(a.effect(p, p), 0.0);
            for q in 0..3 {
                assert_eq!(a.effect(p, q), a.effect(q, p));
            }
        }
    }
}
