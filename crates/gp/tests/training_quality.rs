//! Quality of exact-GP hyperparameter training against a derivative-free
//! reference.
//!
//! On fixed datasets spanning `d ∈ {2, 5, 10}` and `n ∈ {20, 50, 90}`,
//! [`Gp::train`] (multi-start L-BFGS on the analytic gradient) must reach
//! a median log marginal likelihood no lower than multi-start Nelder–Mead
//! on the same negative LML from the same start points with its default
//! 400-evaluation budget per start, while spending at most 240 likelihood
//! evaluations per train.

use cets_gp::{nelder_mead, Gp, GpConfig, Kernel, NelderMeadOptions};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Most likelihood evaluations one exact train may spend.
const MAX_EVALS_PER_TRAIN: usize = 240;

/// A smooth anisotropic function of the first half of the inputs (the
/// rest are irrelevant, as in a tuning space with unimportant knobs),
/// with one pairwise interaction and observation noise.
fn dataset(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let active = d.div_ceil(2);
    let freq: Vec<f64> = (0..active).map(|_| rng.random_range(1.0..6.0)).collect();
    let phase: Vec<f64> = (0..active).map(|_| rng.random_range(0.0..3.0)).collect();
    let noise = [0.0, 0.02, 0.1][(seed % 3) as usize];
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.random::<f64>()).collect())
        .collect();
    let y = x
        .iter()
        .map(|v| {
            let smooth: f64 = (0..active)
                .map(|k| (freq[k] * v[k] + phase[k]).sin() / (k + 1) as f64)
                .sum();
            smooth + v[0] * v[active - 1] + noise * (rng.random::<f64>() - 0.5)
        })
        .collect();
    (x, y)
}

/// The training Nelder–Mead ran before L-BFGS replaced it: the same three
/// start points drawn from the same stream, each minimized with the
/// default options, the strictly lowest kept. Returns the best LML.
fn nelder_mead_reference(x: &[Vec<f64>], y: &[f64], cfg: &GpConfig) -> f64 {
    let d = x[0].len();
    let floor = cfg.noise_floor.max(1e-12);
    let neg_lml = |p: &[f64]| {
        let (kp, np_) = p.split_at(d + 1);
        let noise = np_[0].clamp(-27.0, 3.0).exp().max(floor);
        let kernel = Kernel::from_log_params(cfg.kernel, kp);
        Gp::fit(x, y, kernel, noise).map_or(f64::INFINITY, |gp| -gp.lml())
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut best = f64::INFINITY;
    for s in 0..cfg.n_restarts {
        let mut p0 = Kernel::new(cfg.kernel, d).to_log_params();
        p0.push((1e-3_f64).ln());
        if s > 0 {
            for v in &mut p0 {
                *v += rng.random_range(-1.5..1.5);
            }
        }
        let (_, f) = nelder_mead(neg_lml, &p0, &NelderMeadOptions::default());
        if f < best {
            best = f;
        }
    }
    -best
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

#[test]
fn lbfgs_training_matches_nelder_mead_at_a_fifth_of_the_evaluations() {
    // Every (d, n) cell once, plus two more seeds of each d at n = 20 and
    // n = 50 so that 21 datasets carry the median.
    let mut cells = Vec::new();
    for (i, &d) in [2usize, 5, 10].iter().enumerate() {
        for &n in &[20usize, 50, 90] {
            cells.push((n, d, 100 + i as u64 * 10 + n as u64));
        }
        for s in 0..2 {
            cells.push((20, d, 500 + i as u64 * 10 + s));
            cells.push((50, d, 700 + i as u64 * 10 + s));
        }
    }
    assert!(cells.len() >= 20);
    let mut trained = Vec::new();
    let mut reference = Vec::new();
    for &(n, d, seed) in &cells {
        let (x, y) = dataset(n, d, seed);
        let cfg = GpConfig {
            seed,
            ..GpConfig::default()
        };
        let gp = Gp::train(&x, &y, &cfg).unwrap();
        assert!(
            gp.train_evals() <= MAX_EVALS_PER_TRAIN,
            "n={n} d={d}: {} likelihood evaluations",
            gp.train_evals()
        );
        trained.push(gp.lml());
        reference.push(nelder_mead_reference(&x, &y, &cfg));
    }
    let (m_new, m_ref) = (median(trained.clone()), median(reference.clone()));
    let wins = trained
        .iter()
        .zip(&reference)
        .filter(|(a, b)| a >= b)
        .count();
    assert!(
        m_new >= m_ref,
        "median LML {m_new} (L-BFGS) < {m_ref} (Nelder–Mead); L-BFGS at least as high on {wins} of {}",
        cells.len()
    );
}
