//! Property-based tests for the stencil mini-app simulator.

use cets_core::Objective;
use cets_space::{draw_feasible, Config, SearchSpace};
use cets_stencil::{StencilApp, StencilProblem};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One valid configuration, rejection-drawn from the full unit cube.
fn draw(space: &SearchSpace, rng: &mut StdRng) -> Config {
    let cube = vec![vec![(0.0, 1.0)]; space.dim()];
    draw_feasible(&cube, rng, |u| {
        space.decode(&u).ok().filter(|c| space.is_valid(c))
    })
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn valid_configs_simulate_finite(seed in 0u64..2000) {
        let app = StencilApp::new(StencilProblem::benchmark()).with_noise(0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = draw(app.space(), &mut rng);
        let (c, h, r, t) = app.simulate(&cfg);
        prop_assert!(c > 0.0 && h > 0.0 && r > 0.0);
        prop_assert!((t - (c + h + r)).abs() < 1e-12);
        let obs = app.evaluate(&cfg);
        prop_assert_eq!(obs.routines.len(), 4);
        prop_assert_eq!(obs.total, t);
    }

    #[test]
    fn deeper_halo_never_more_exchange_time(seed in 0u64..500) {
        let app = StencilApp::new(StencilProblem::benchmark()).with_noise(0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let base = draw(app.space(), &mut rng);
        let sp = app.space();
        let h1 = sp.with_value(&base, "halo_depth", cets_space::ParamValue::Int(1)).unwrap();
        let h4 = sp.with_value(&base, "halo_depth", cets_space::ParamValue::Int(4)).unwrap();
        let (c1, t1, _, _) = app.simulate(&h1);
        let (c4, t4, _, _) = app.simulate(&h4);
        prop_assert!(t4 <= t1 + 1e-12, "halo {t4} > {t1}");
        prop_assert!(c4 >= c1 - 1e-12, "compute {c4} < {c1}");
    }

    #[test]
    fn more_ranks_not_slower_compute(seed in 0u64..500) {
        // Growing the rank grid (same shape family) cannot increase the
        // critical rank's compute time.
        let app = StencilApp::new(StencilProblem::benchmark()).with_noise(0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let base = draw(app.space(), &mut rng);
        let sp = app.space();
        let small = sp
            .with_value(&base, "px", cets_space::ParamValue::Int(2))
            .and_then(|c| sp.with_value(&c, "py", cets_space::ParamValue::Int(2)))
            .unwrap();
        let big = sp
            .with_value(&base, "px", cets_space::ParamValue::Int(4))
            .and_then(|c| sp.with_value(&c, "py", cets_space::ParamValue::Int(4)))
            .unwrap();
        let (c_small, ..) = app.simulate(&small);
        let (c_big, ..) = app.simulate(&big);
        prop_assert!(c_big <= c_small + 1e-12);
    }

    #[test]
    fn reduce_interval_only_moves_reduce(seed in 0u64..500, interval in 2i64..50) {
        let app = StencilApp::new(StencilProblem::benchmark()).with_noise(0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let base = draw(app.space(), &mut rng);
        let sp = app.space();
        let changed = sp
            .with_value(&base, "reduce_every", cets_space::ParamValue::Int(interval))
            .unwrap();
        let (c1, h1, _, _) = app.simulate(&base);
        let (c2, h2, _, _) = app.simulate(&changed);
        prop_assert_eq!(c1, c2);
        prop_assert_eq!(h1, h2);
    }

    #[test]
    fn noise_bounded(seed in 0u64..300) {
        let noisy = StencilApp::new(StencilProblem::benchmark()).with_seed(seed);
        let clean = StencilApp::new(StencilProblem::benchmark()).with_noise(0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = draw(noisy.space(), &mut rng);
        let a = noisy.evaluate(&cfg).total;
        let b = clean.evaluate(&cfg).total;
        prop_assert!((a / b - 1.0).abs() < 0.2, "{a} vs {b}");
    }
}
