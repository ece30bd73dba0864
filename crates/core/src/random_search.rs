//! Random-search baseline (paper Table III's first column).

use crate::bo::SearchOutcome;
use crate::contraction::{contracted_unit_slabs, draw_config};
use crate::objective::Objective;
use crate::{CoreError, Result};
use cets_linalg::par;
use cets_space::Subspace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Configuration for [`random_search`].
#[derive(Debug, Clone)]
pub struct RandomSearchConfig {
    /// Number of evaluations.
    pub n_evals: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomSearchConfig {
    fn default() -> Self {
        RandomSearchConfig {
            n_evals: 50,
            seed: 0,
        }
    }
}

/// Uniform random search over the full space of `objective`, minimizing the
/// total observation.
///
/// Random search parallelizes trivially — the paper notes its wall-time
/// advantage over inherently sequential BO comes exactly from this — so
/// the evaluations run across the process worker budget
/// ([`par::global_threads`]: `cets --threads`, then `CETS_THREADS`).
/// Deterministic for a fixed seed at any worker count: evaluation `i`
/// draws its configuration from `seed + i`, the history is kept in index
/// order, and the first error in index order is the one reported.
pub fn random_search<O: Objective + ?Sized>(
    objective: &O,
    cfg: &RandomSearchConfig,
) -> Result<SearchOutcome> {
    search_with(objective, cfg, par::global_threads())
}

fn search_with<O: Objective + ?Sized>(
    objective: &O,
    cfg: &RandomSearchConfig,
    workers: usize,
) -> Result<SearchOutcome> {
    if cfg.n_evals == 0 {
        return Err(CoreError::BadConfig("n_evals must be > 0".into()));
    }
    let start = Instant::now();
    let space = objective.space();
    let subspace = Subspace::full(space, objective.default_config())?;
    // Rejection draws come from the statically contracted slabs (the
    // full cube when the constraint analysis narrows nothing).
    let slabs = contracted_unit_slabs(space);
    let history = par::map_indexed(workers, cfg.n_evals, |i| {
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(i as u64));
        let config = draw_config(objective, &slabs, &mut rng)?;
        let y = objective.evaluate(&config).total;
        Ok((subspace.project(&config)?, y))
    })
    .into_iter()
    .collect::<Result<Vec<_>>>()?;
    SearchOutcome::from_history(&subspace, history, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::test_objectives::SplitSphere;

    #[test]
    fn finds_reasonable_minimum() {
        let obj = SplitSphere::new();
        let out = random_search(
            &obj,
            &RandomSearchConfig {
                n_evals: 200,
                seed: 5,
            },
        )
        .unwrap();
        assert_eq!(out.n_evals, 200);
        // Sphere on [-5,5]^3: 200 random draws should get well below the
        // mean value (~25).
        assert!(out.best_value < 8.0, "best {}", out.best_value);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let obj = SplitSphere::new();
        let cfg = RandomSearchConfig {
            n_evals: 50,
            seed: 9,
        };
        // The reference: draw i from `seed + i`, evaluated in index order.
        let sub = Subspace::full(obj.space(), obj.default_config()).unwrap();
        let slabs = contracted_unit_slabs(obj.space());
        let reference: Vec<(Vec<f64>, f64)> = (0..cfg.n_evals)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(cfg.seed + i as u64);
                let config = draw_config(&obj, &slabs, &mut rng).unwrap();
                (sub.project(&config).unwrap(), obj.evaluate(&config).total)
            })
            .collect();
        for workers in [1, 3, 8] {
            let out = search_with(&obj, &cfg, workers).unwrap();
            assert_eq!(out.history, reference, "workers={workers}");
        }
        assert_eq!(random_search(&obj, &cfg).unwrap().history, reference);
    }

    #[test]
    fn zero_evals_rejected() {
        let obj = SplitSphere::new();
        assert!(matches!(
            random_search(
                &obj,
                &RandomSearchConfig {
                    n_evals: 0,
                    ..Default::default()
                }
            ),
            Err(CoreError::BadConfig(_))
        ));
    }

    #[test]
    fn trace_monotone() {
        let obj = SplitSphere::new();
        let out = random_search(
            &obj,
            &RandomSearchConfig {
                n_evals: 30,
                seed: 1,
            },
        )
        .unwrap();
        for w in out.incumbent_trace.windows(2) {
            assert!(w[1] <= w[0]);
        }
        assert_eq!(out.incumbent_trace.last().copied(), Some(out.best_value));
    }
}
