//! Random-search baseline (paper Table III's first column).

use crate::bo::SearchOutcome;
use crate::contraction::{contracted_unit_slabs, draw_config};
use crate::objective::Objective;
use crate::{CoreError, Result};
use cets_space::Subspace;
use parking_lot::Mutex;
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
    /// Number of worker threads. Random search parallelizes trivially —
    /// the paper notes its wall-time advantage over inherently sequential
    /// BO comes exactly from this.
    pub threads: usize,
}

impl Default for RandomSearchConfig {
    fn default() -> Self {
        RandomSearchConfig {
            n_evals: 50,
            seed: 0,
            threads: 4,
        }
    }
}

/// Uniform random search over the full space of `objective`, minimizing the
/// total observation. Deterministic for a fixed seed regardless of the
/// thread count (each evaluation's configuration is derived from
/// `seed + index`).
pub fn random_search<O: Objective + ?Sized>(
    objective: &O,
    cfg: &RandomSearchConfig,
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

    let threads = cfg.threads.max(1).min(cfg.n_evals);
    let mut results: Vec<Option<(Vec<f64>, f64)>> = vec![None; cfg.n_evals];
    let chunk = cfg.n_evals.div_ceil(threads);
    let errors: Mutex<Vec<CoreError>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        for (ci, slot_chunk) in results.chunks_mut(chunk).enumerate() {
            let base = ci * chunk;
            let slabs = &slabs;
            let subspace = &subspace;
            let errors = &errors;
            s.spawn(move || {
                for (off, slot) in slot_chunk.iter_mut().enumerate() {
                    let i = base + off;
                    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(i as u64));
                    let drawn = draw_config(objective, slabs, &mut rng);
                    let projected = drawn.and_then(|config| {
                        let y = objective.evaluate(&config).total;
                        let u = subspace.project(&config)?;
                        Ok((u, y))
                    });
                    match projected {
                        Ok(pair) => *slot = Some(pair),
                        Err(e) => errors.lock().push(e),
                    }
                }
            });
        }
    });

    if let Some(e) = errors.into_inner().into_iter().next() {
        return Err(e);
    }
    let history: Vec<(Vec<f64>, f64)> = results.into_iter().flatten().collect();
    if history.len() != cfg.n_evals {
        return Err(CoreError::SearchStalled(
            "random search lost evaluations".into(),
        ));
    }

    let mut best = f64::INFINITY;
    let mut best_idx = 0;
    let mut trace = Vec::with_capacity(history.len());
    for (i, (_, y)) in history.iter().enumerate() {
        if *y < best {
            best = *y;
            best_idx = i;
        }
        trace.push(best);
    }
    Ok(SearchOutcome {
        best_config: subspace.lift(&history[best_idx].0)?,
        best_value: best,
        n_evals: history.len(),
        incumbent_trace: trace,
        history,
        wall_time: start.elapsed(),
    })
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
                threads: 4,
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
        let mk = |threads| {
            random_search(
                &obj,
                &RandomSearchConfig {
                    n_evals: 50,
                    seed: 9,
                    threads,
                },
            )
            .unwrap()
        };
        let a = mk(1);
        let b = mk(8);
        assert_eq!(a.best_value, b.best_value);
        assert_eq!(a.history, b.history);
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
                threads: 2,
            },
        )
        .unwrap();
        for w in out.incumbent_trace.windows(2) {
            assert!(w[1] <= w[0]);
        }
        assert_eq!(out.incumbent_trace.last().copied(), Some(out.best_value));
    }
}
