//! Cross-crate integration: crash recovery (checkpoint + resume) and
//! transfer learning between the two TDDFT case studies.

use cets_core::{BoCheckpoint, BoConfig, BoSearch, Objective, TransferSeed};
use cets_space::Subspace;
use cets_synthetic::{SyntheticCase, SyntheticFunction};
use cets_tddft::{CaseStudy, TddftSimulator};

fn quick_bo(seed: u64, max_evals: usize) -> BoConfig {
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

/// An interrupted search resumed from its checkpoint continues the
/// interrupted trajectory bit for bit: the resumed 30-evaluation history
/// is exactly the history of an uninterrupted 30-evaluation run.
#[test]
fn checkpoint_resume_continues_search() {
    let f = SyntheticFunction::new(SyntheticCase::Case2).with_noise(0.0);
    let sub = Subspace::full(f.space(), f.default_config()).unwrap();
    let path = std::env::temp_dir().join(format!("cets_it_resume_{}.json", std::process::id()));

    // Phase 1: run 12 evaluations with checkpointing ("crash" after).
    let mut cfg = quick_bo(21, 12);
    cfg.checkpoint_path = Some(path.clone());
    let partial = BoSearch::new(cfg)
        .run(&sub, |c| f.evaluate(c).total)
        .unwrap();
    let ckpt = BoCheckpoint::load(&path).unwrap();
    assert_eq!(ckpt.n_evals(), 12);
    assert_eq!(ckpt.history(), partial.history);

    // Phase 2: resume to 30 total.
    let resumed = BoSearch::new(quick_bo(21, 30))
        .resume(&sub, |c| f.evaluate(c).total, &ckpt)
        .unwrap();
    assert_eq!(resumed.n_evals, 30);
    assert!(resumed.best_value <= partial.best_value);

    // The reference: the same search, never interrupted.
    let uninterrupted = BoSearch::new(quick_bo(21, 30))
        .run(&sub, |c| f.evaluate(c).total)
        .unwrap();
    let bits = |h: &[(Vec<f64>, f64)]| -> Vec<(Vec<u64>, u64)> {
        h.iter()
            .map(|(u, y)| (u.iter().map(|v| v.to_bits()).collect(), y.to_bits()))
            .collect()
    };
    assert_eq!(bits(&resumed.history), bits(&uninterrupted.history));
    assert_eq!(resumed.best_config, uninterrupted.best_config);
    std::fs::remove_file(&path).ok();
}

/// Transfer learning CS1 → CS2 on the TDDFT simulator: seeding the Case
/// Study 2 search with Case Study 1's best GPU-kernel configurations gives
/// a warm start whose best initial value is no worse than a cold random
/// design of the same size.
#[test]
fn transfer_cs1_to_cs2() {
    let kernel_params = [
        "u_pair",
        "tb_pair",
        "tb_sm_pair",
        "u_dscal",
        "tb_dscal",
        "tb_sm_dscal",
    ];

    // Tune a small kernel subspace on CS1.
    let cs1 = TddftSimulator::new(CaseStudy::case1()).with_noise(0.0);
    let sub1 = Subspace::new(cs1.space(), &kernel_params, cs1.default_config()).unwrap();
    let prior = BoSearch::new(quick_bo(31, 25))
        .run(&sub1, |c| {
            let o = cs1.evaluate(c);
            o.routines[1] + o.routines[2] // G2 + G3
        })
        .unwrap();
    let seed = TransferSeed::from_outcome(&sub1, &prior).unwrap();

    // CS2 task: same parameter names, different FFT size / k-points.
    let cs2 = TddftSimulator::new(CaseStudy::case2()).with_noise(0.0);
    let sub2 = Subspace::new(cs2.space(), &kernel_params, cs2.default_config()).unwrap();
    let f2 = |c: &cets_space::Config| {
        let o = cs2.evaluate(c);
        o.routines[1] + o.routines[2]
    };

    let warm_history = seed.seed_history(&sub2, f2, 5);
    assert_eq!(warm_history.len(), 5, "all seeds should project");
    let warm_best_start = warm_history
        .iter()
        .map(|(_, y)| *y)
        .fold(f64::INFINITY, f64::min);

    // Cold 5-point start for comparison.
    let cold = BoSearch::new(quick_bo(32, 5)).run(&sub2, f2).unwrap();
    // Stochastic comparison: the warm start should be in the same
    // ballpark as (typically better than) a cold start of equal size —
    // allow modest slack since neither dominates on every seed.
    assert!(
        warm_best_start <= cold.best_value * 1.2,
        "warm {warm_best_start} much worse than cold {}",
        cold.best_value
    );

    // Full warm search improves monotonically from the seeds.
    let warm = BoSearch::new(quick_bo(33, 20))
        .run_with_history(&sub2, f2, warm_history)
        .unwrap();
    assert_eq!(warm.n_evals, 20);
    assert!(warm.best_value <= warm_best_start);
}

/// The paper's infeasibility observation: a joint high-dimensional search
/// under tight constraints fails candidate generation, while the
/// methodology's lower-dimensional searches proceed. Blind draws over the
/// full space are valid far less often than over a 3-dim subspace.
#[test]
fn highdim_constrained_sampling_fails_gracefully() {
    use rand::SeedableRng;

    let sim = TddftSimulator::new(CaseStudy::case2());
    // The 20-dim space with MPI + 5 occupancy constraints: count raw
    // unit-cube draws that are valid, as `exp_highdim_infeasible` does.
    let full = Subspace::full(sim.space(), sim.default_config()).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let trials = 2_000;
    let mut full_ok = 0;
    for _ in 0..trials {
        let u: Vec<f64> = (0..full.dim())
            .map(|_| rand::RngExt::random::<f64>(&mut rng))
            .collect();
        if full.is_valid_active(&u) {
            full_ok += 1;
        }
    }
    let full_rate = full_ok as f64 / trials as f64;
    assert!(
        full_rate < 0.01,
        "joint 20-dim blind draws should be almost never valid: {full_ok}/{trials}"
    );

    // A 3-dim subspace of the same space has a far higher valid density
    // (one occupancy rule instead of five plus the MPI rule): random
    // tb×tb_sm pairs are valid ~22% of the time, so the subspace search
    // proceeds where the joint one starves.
    let sub = Subspace::new(
        sim.space(),
        &["u_vec", "tb_vec", "tb_sm_vec"],
        sim.default_config(),
    )
    .unwrap();
    let mut ok = 0;
    for i in 0..100 {
        let mut r = rand::rngs::StdRng::seed_from_u64(i);
        let u: Vec<f64> = (0..3)
            .map(|_| rand::RngExt::random::<f64>(&mut r))
            .collect();
        if sub.is_valid_active(&u) {
            ok += 1;
        }
    }
    assert!(ok > 10, "low-dim subspace should be often valid: {ok}/100");
    let sub_rate = ok as f64 / 100.0;
    assert!(
        sub_rate > 10.0 * full_rate,
        "subspace rate {sub_rate} should dwarf the joint rate {full_rate}"
    );
}
