//! High-dimensional BO strategies from the paper's Related Work —
//! implemented as comparison baselines.
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
//! [`rembo`] and [`dropout_bo`] implement the first two faithfully enough
//! for shape comparisons (`exp_related_work`): both reuse the same GP,
//! acquisition and budget machinery as the main engine, so differences in
//! outcome reflect the *strategy*, not the implementation.

use crate::bo::{BoConfig, BoSearch, SearchOutcome};
use crate::contraction::{contracted_unit_slabs, draw_config};
use crate::normal;
use crate::objective::Objective;
use crate::{CoreError, Result};
use cets_gp::Gp;
use cets_space::Subspace;
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
pub fn rembo<O: Objective + ?Sized>(
    objective: &O,
    embed_dim: usize,
    bo: &BoConfig,
) -> Result<SearchOutcome> {
    let space = objective.space();
    let d_full = space.dim();
    let d = embed_dim.clamp(1, d_full);
    if bo.max_evals == 0 {
        return Err(CoreError::BadConfig("max_evals must be > 0".into()));
    }
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(bo.seed ^ 0xE3B0_C442_98FC_1C14);

    // Random embedding matrix A (D x d), entries ~ N(0, 1/d) so the image
    // roughly covers the cube.
    let a: Vec<Vec<f64>> = (0..d_full)
        .map(|_| {
            (0..d)
                .map(|_| normal::sample(&mut rng, 0.0, 1.0 / (d as f64).sqrt()))
                .collect()
        })
        .collect();
    let y_half_width = (d as f64).sqrt();
    let lift = |y: &[f64]| -> Vec<f64> {
        a.iter()
            .map(|row| {
                let dot: f64 = row.iter().zip(y).map(|(&w, &v)| w * v).sum();
                (0.5 + dot).clamp(0.0, 1.0)
            })
            .collect()
    };

    // The embedded objective: decode y -> full config; invalid configs get
    // a death penalty (the standard REMBO treatment of constraints).
    let subspace = Subspace::full(space, objective.default_config())?;
    let worst_guess = objective.evaluate(&objective.default_config()).total;
    let penalty = worst_guess.abs() * 100.0 + 1e6;
    let eval_y = |y: &[f64]| -> f64 {
        let u = lift(y);
        match subspace.lift(&u) {
            Ok(cfg) if space.is_valid(&cfg) => objective.evaluate(&cfg).total,
            _ => penalty,
        }
    };

    // Plain BO loop in y-space (box [-√d, √d]^d scaled to the unit cube).
    let y_of_unit =
        |uy: &[f64]| -> Vec<f64> { uy.iter().map(|&v| (v * 2.0 - 1.0) * y_half_width).collect() };
    let mut history: Vec<(Vec<f64>, f64)> = Vec::new();
    for _ in 0..bo.n_init.min(bo.max_evals) {
        let uy: Vec<f64> = (0..d).map(|_| rng.random::<f64>()).collect();
        let v = eval_y(&y_of_unit(&uy));
        history.push((uy, v));
    }
    let mut kernel_cache: Option<(cets_gp::Kernel, f64)> = None;
    while history.len() < bo.max_evals {
        let xs: Vec<Vec<f64>> = history.iter().map(|(u, _)| u.clone()).collect();
        let ys: Vec<f64> = history.iter().map(|(_, y)| *y).collect();
        // Same economy as the main loop: full hyperparameter retraining
        // every `retrain_every` evaluations, cheap refit otherwise.
        let retrain = history.len().is_multiple_of(bo.retrain_every.max(1));
        let gp = match kernel_cache.clone() {
            Some((k, n)) if !retrain => Gp::fit(&xs, &ys, k, n)?,
            _ => {
                let mut gp_cfg = bo.gp.clone();
                gp_cfg.seed = bo.seed.wrapping_add(history.len() as u64);
                let g = Gp::train(&xs, &ys, &gp_cfg)?;
                kernel_cache = Some((g.kernel().clone(), g.noise()));
                g
            }
        };
        let best = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        // Candidate scoring with the configured acquisition.
        let mut best_u: Option<(Vec<f64>, f64)> = None;
        for _ in 0..bo.n_candidates {
            let uy: Vec<f64> = (0..d).map(|_| rng.random::<f64>()).collect();
            let (m, v) = gp.predict(&uy);
            let s = bo.acquisition.score_public(m, v, best);
            if best_u.as_ref().is_none_or(|(_, bs)| s > *bs) {
                best_u = Some((uy, s));
            }
        }
        let Some((uy, _)) = best_u else {
            return Err(CoreError::SearchStalled("no candidates".into()));
        };
        let v = eval_y(&y_of_unit(&uy));
        history.push((uy, v));
    }

    // Report in full space: re-lift the best y.
    let Some((best_uy, best_val)) = history
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .cloned()
    else {
        return Err(CoreError::SearchStalled("no evaluations recorded".into()));
    };
    let mut trace = Vec::with_capacity(history.len());
    let mut inc = f64::INFINITY;
    for (_, v) in &history {
        inc = inc.min(*v);
        trace.push(inc);
    }
    let best_config = subspace.lift(&lift(&y_of_unit(&best_uy)))?;
    Ok(SearchOutcome {
        best_config,
        best_value: best_val,
        n_evals: history.len(),
        history,
        incumbent_trace: trace,
        wall_time: start.elapsed(),
    })
}

/// Dropout BO: each iteration trains the GP on `d` randomly selected
/// dimensions of the full history and proposes moves in those dimensions
/// only, filling the remaining `D − d` from the incumbent configuration
/// (the "fill-in with best value" variant of Li et al.).
pub fn dropout_bo<O: Objective + ?Sized>(
    objective: &O,
    active_dims: usize,
    bo: &BoConfig,
) -> Result<SearchOutcome> {
    let space = objective.space();
    let d_full = space.dim();
    let d = active_dims.clamp(1, d_full);
    if bo.max_evals == 0 {
        return Err(CoreError::BadConfig("max_evals must be > 0".into()));
    }
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(bo.seed ^ 0x9B05_688C_2B3E_6C1F);
    let subspace = Subspace::full(space, objective.default_config())?;

    // Initial design: constructive sampler if present, else rejection.
    let mut history: Vec<(Vec<f64>, f64)> = Vec::new();
    let slabs = contracted_unit_slabs(space);
    for _ in 0..bo.n_init.min(bo.max_evals) {
        let cfg = draw_config(objective, &slabs, &mut rng)?;
        let y = objective.evaluate(&cfg).total;
        history.push((subspace.project(&cfg)?, y));
    }

    while history.len() < bo.max_evals {
        // Incumbent.
        let Some((inc_u, _)) = history
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .cloned()
        else {
            return Err(CoreError::SearchStalled("no evaluations recorded".into()));
        };
        // Random dimension subset.
        let mut dims: Vec<usize> = (0..d_full).collect();
        for k in 0..d {
            let j = rng.random_range(k..d_full);
            dims.swap(k, j);
        }
        let dims = &dims[..d];

        // GP over the selected coordinates of the full history. The
        // dimension subset changes every iteration, so hyperparameters
        // cannot be cached across iterations (an inherent cost of the
        // dropout strategy); a single restart keeps the comparison
        // tractable.
        let xs: Vec<Vec<f64>> = history
            .iter()
            .map(|(u, _)| dims.iter().map(|&j| u[j]).collect())
            .collect();
        let ys: Vec<f64> = history.iter().map(|(_, y)| *y).collect();
        let mut gp_cfg = bo.gp.clone();
        gp_cfg.seed = bo.seed.wrapping_add(history.len() as u64);
        gp_cfg.n_restarts = 1;
        let gp = Gp::train(&xs, &ys, &gp_cfg)?;
        let best = ys.iter().cloned().fold(f64::INFINITY, f64::min);

        // Propose in the subset; fill the rest from the incumbent.
        let mut best_cand: Option<(Vec<f64>, f64)> = None;
        for _ in 0..bo.n_candidates {
            let mut u = inc_u.clone();
            for &j in dims {
                u[j] = rng.random::<f64>();
            }
            if !subspace.is_valid_active(&u) {
                continue;
            }
            let proj: Vec<f64> = dims.iter().map(|&j| u[j]).collect();
            let (m, v) = gp.predict(&proj);
            let s = bo.acquisition.score_public(m, v, best);
            if best_cand.as_ref().is_none_or(|(_, bs)| s > *bs) {
                best_cand = Some((u, s));
            }
        }
        let Some((u_next, _)) = best_cand else {
            // All candidates invalid this round: re-draw a fresh point.
            let cfg = draw_config(objective, &slabs, &mut rng)?;
            let y = objective.evaluate(&cfg).total;
            history.push((subspace.project(&cfg)?, y));
            continue;
        };
        let cfg = subspace.lift(&u_next)?;
        let y = objective.evaluate(&cfg).total;
        history.push((u_next, y));
    }

    let mut trace = Vec::with_capacity(history.len());
    let mut inc = f64::INFINITY;
    let mut best_idx = 0;
    for (i, (_, v)) in history.iter().enumerate() {
        if *v < inc {
            inc = *v;
            best_idx = i;
        }
        trace.push(inc);
    }
    Ok(SearchOutcome {
        best_config: subspace.lift(&history[best_idx].0)?,
        best_value: trace[trace.len() - 1],
        n_evals: history.len(),
        incumbent_trace: trace,
        history,
        wall_time: start.elapsed(),
    })
}

/// A convenience wrapper so related-work baselines can reuse the main
/// engine's `BoSearch` for a *plain* full-space search when needed.
pub fn full_space_bo<O: Objective + ?Sized>(objective: &O, bo: &BoConfig) -> Result<SearchOutcome> {
    let subspace = Subspace::full(objective.space(), objective.default_config())?;
    BoSearch::new(bo.clone()).run(&subspace, |cfg| objective.evaluate(cfg).total)
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
