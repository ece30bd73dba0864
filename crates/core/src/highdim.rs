//! High-dimensional BO strategies from the paper's Related Work —
//! implemented as comparison baselines on the one BO engine.
//!
//! Section II surveys three families the methodology competes with:
//!
//! * **Random embeddings** (Wang et al. IJCAI'13 "REMBO"; Letham et al.
//!   NeurIPS'20): optimize a random `d`-dimensional linear subspace of the
//!   `D`-dimensional space — "these projections can create distortions
//!   when evaluating the objective function";
//! * **Dropout BO** (Li et al. IJCAI'17): per iteration, optimize only
//!   `d` randomly chosen of the `D` dimensions, filling the rest from the
//!   incumbent — "which leads, in general, to slower convergence rate";
//! * **Additive decompositions** (Kandasamy et al. ICML'15) — the
//!   expensive orthogonality analysis the methodology's sensitivity pass
//!   replaces (see [`crate::interaction`] for the cost comparison).
//!
//! [`rembo`] and [`dropout_bo`] implement the first two for shape
//! comparisons (`exp_related_work`) on [`BoSearch`]: they share the
//! engine's initial design, candidate pool, local refinement, acquisition
//! and failure imputation with the methodology's searches, so differences
//! in outcome reflect the *strategy*, not the implementation.

use crate::bo::{BoConfig, BoSearch, FailurePolicy, SearchOutcome};
use crate::normal;
use crate::objective::Objective;
use crate::resilience::{EvalOutcome, EvalRecord};
use crate::{CoreError, Result};
use cets_gp::Surrogate;
use cets_space::{Config, ParamValue, SearchSpace, Subspace};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// REMBO-style random-embedding BO: minimize over `y ∈ [-√d, √d]^d`
/// mapped into the full unit cube by `u = clamp(0.5 + A·y, 0, 1)` with a
/// random Gaussian `D×d` matrix `A`.
///
/// The clamping is exactly the distortion the paper's related-work section
/// warns about: large regions of the embedding map onto the cube's faces,
/// so the effective objective has flat plateaus and duplicated optima.
///
/// One [`BoSearch::run`] over the embedding box: a lift that breaks a
/// constraint is a failed evaluation, imputed like any other. The history
/// holds embedding unit points; the best configuration is lifted.
pub fn rembo<O: Objective + ?Sized>(
    objective: &O,
    embed_dim: usize,
    bo: &BoConfig,
) -> Result<SearchOutcome> {
    let space = objective.space();
    let d = embed_dim.clamp(1, space.dim());
    let mut rng = StdRng::seed_from_u64(bo.seed ^ 0xE3B0_C442_98FC_1C14);

    // Random embedding matrix A (D x d), entries ~ N(0, 1/d) so the image
    // roughly covers the cube.
    let a: Vec<Vec<f64>> = (0..space.dim())
        .map(|_| {
            (0..d)
                .map(|_| normal::sample(&mut rng, 0.0, 1.0 / (d as f64).sqrt()))
                .collect()
        })
        .collect();
    let full = Subspace::full(space, objective.default_config())?;
    let lift = |y: &Config| -> Result<Config> {
        let u: Vec<f64> = a
            .iter()
            .map(|row| {
                let dot: f64 = row.iter().zip(y).map(|(&w, v)| w * v.as_f64()).sum();
                (0.5 + dot).clamp(0.0, 1.0)
            })
            .collect();
        Ok(full.lift(&u)?)
    };

    let half_width = (d as f64).sqrt();
    let embedding = (0..d)
        .fold(SearchSpace::builder(), |b, k| {
            b.real(format!("y{k}"), -half_width, half_width)
        })
        .try_build()?;
    let box_y = Subspace::full(&embedding, vec![ParamValue::Real(0.0); d])?;
    let out = BoSearch::new(bo.clone()).run(&box_y, |y| match lift(y) {
        Ok(cfg) if space.is_valid(&cfg) => objective.evaluate(&cfg).total,
        _ => f64::NAN,
    })?;
    Ok(SearchOutcome {
        best_config: lift(&out.best_config)?,
        ..out
    })
}

/// Dropout BO: after the engine's initial design, each iteration trains
/// one single-restart surrogate on `d` randomly selected dimensions of
/// every record and proposes with [`BoSearch::propose`] in those
/// dimensions only, filling the remaining `D − d` from the incumbent
/// configuration (the "fill-in with best value" variant of Li et al.).
/// The subset changes every iteration, so the retrain is the strategy's
/// own cost.
pub fn dropout_bo<O: Objective + ?Sized>(
    objective: &O,
    active_dims: usize,
    bo: &BoConfig,
) -> Result<SearchOutcome> {
    if bo.max_evals == 0 {
        return Err(CoreError::BadConfig("max_evals must be > 0".into()));
    }
    let start = Instant::now();
    let space = objective.space();
    let d = active_dims.clamp(1, space.dim());
    let full = Subspace::full(space, objective.default_config())?;
    let evaluate = |cfg: &Config, _: usize| EvalOutcome::Ok(objective.evaluate(cfg));
    let policy = FailurePolicy::default();

    // The design run writes no checkpoint: the whole search cannot resume.
    let design = BoConfig {
        max_evals: bo.n_init.clamp(1, bo.max_evals),
        checkpoint_path: None,
        ..bo.clone()
    };
    let mut records = BoSearch::new(design)
        .run_resilient(&full, evaluate, &policy)?
        .records;

    let engine = BoSearch::new(bo.clone());
    let mut rng = StdRng::seed_from_u64(bo.seed ^ 0x9B05_688C_2B3E_6C1F);
    while records.len() < bo.max_evals {
        let Some((incumbent, best)) = records
            .iter()
            .filter_map(|r| r.y().map(|y| (r, y)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
        else {
            return Err(CoreError::SearchStalled("no evaluations recorded".into()));
        };
        // Random dimension subset.
        let mut dims: Vec<usize> = (0..space.dim()).collect();
        for k in 0..d {
            let j = rng.random_range(k..space.dim());
            dims.swap(k, j);
        }
        let dims = &dims[..d];
        let names: Vec<&str> = dims.iter().map(|&j| space.names()[j].as_str()).collect();
        let sub = Subspace::new(space, &names, full.lift(&incumbent.u)?)?;

        let projected: Vec<EvalRecord> = records
            .iter()
            .map(|r| EvalRecord {
                u: dims.iter().map(|&j| r.u[j]).collect(),
                value: r.value.clone(),
            })
            .collect();
        let (xs, ys) = policy.training_data(&projected);
        let mut gp_cfg = bo.gp.clone();
        gp_cfg.seed = bo.seed.wrapping_add(records.len() as u64);
        gp_cfg.n_restarts = 1;
        let model = Surrogate::train(&xs, &ys, &gp_cfg)?;
        let u = engine.propose(&sub, &model, best, None, &mut rng)?;

        let mut u_full = incumbent.u.clone();
        for (&j, &v) in dims.iter().zip(&u) {
            u_full[j] = v;
        }
        let outcome = evaluate(&sub.lift(&u)?, records.len());
        records.push(EvalRecord::from_outcome(u_full, outcome));
    }

    Ok(SearchOutcome {
        wall_time: start.elapsed(),
        ..BoSearch::replay_outcome(&full, &records)?
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::test_objectives::SplitSphere;

    fn quick(seed: u64, max_evals: usize) -> BoConfig {
        BoConfig {
            n_init: 5,
            max_evals,
            n_candidates: 48,
            n_local: 8,
            retrain_every: 10,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn rembo_improves_and_respects_budget() {
        let obj = SplitSphere::new();
        let out = rembo(&obj, 2, &quick(3, 30)).unwrap();
        assert_eq!(out.n_evals, 30);
        assert!(obj.space().is_valid(&out.best_config));
        // Should beat the mean random value (~25) easily even embedded.
        assert!(out.best_value < 15.0, "rembo best {}", out.best_value);
        for w in out.incumbent_trace.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn dropout_improves_and_respects_budget() {
        let obj = SplitSphere::new();
        let out = dropout_bo(&obj, 2, &quick(4, 30)).unwrap();
        assert_eq!(out.n_evals, 30);
        assert!(obj.space().is_valid(&out.best_config));
        assert!(out.best_value < 10.0, "dropout best {}", out.best_value);
    }

    #[test]
    fn degenerate_dims_clamped() {
        let obj = SplitSphere::new();
        // embed_dim / active_dims larger than D are clamped, zero raised to 1.
        assert!(rembo(&obj, 99, &quick(5, 10)).is_ok());
        assert!(dropout_bo(&obj, 0, &quick(5, 10)).is_ok());
    }

    #[test]
    fn zero_budget_rejected() {
        let obj = SplitSphere::new();
        let mut cfg = quick(1, 10);
        cfg.max_evals = 0;
        assert!(rembo(&obj, 2, &cfg).is_err());
        assert!(dropout_bo(&obj, 2, &cfg).is_err());
    }
}
