//! Cross-crate integration: the full CETS methodology against the paper's
//! synthetic functions (small budgets — the full-budget reproduction lives
//! in `cets-bench`).

use cets_core::framelog::fnv1a;
use cets_core::{
    render_markdown, run_strategy, BoConfig, FaultPlan, FaultyObjective, Methodology,
    MethodologyConfig, Objective, ResilienceConfig, Strategy, VariationPolicy, VirtualClock,
};
use cets_linalg::ParConfig;
use cets_synthetic::{SyntheticCase, SyntheticFunction};
use std::sync::Arc;

fn quick_bo(seed: u64) -> BoConfig {
    BoConfig {
        n_init: 5,
        n_candidates: 48,
        n_local: 8,
        retrain_every: 10,
        seed,
        ..Default::default()
    }
}

fn methodology(cutoff: f64, seed: u64) -> Methodology {
    Methodology::new(MethodologyConfig {
        cutoff,
        max_dims: 10,
        variation_policy: VariationPolicy::Multiplicative {
            count: 15,
            factor: 0.1,
        },
        bo: quick_bo(seed),
        evals_per_dim: 4,
        ..Default::default()
    })
}

/// The paper's synthetic decision at the 25% cut-off (on the raw routine
/// scale): Cases 1-2 stay fully independent, Cases 3-5 merge G3+G4.
#[test]
fn partition_matches_paper_per_case() {
    for case in SyntheticCase::all() {
        let f = SyntheticFunction::new(case).with_noise(0.0).as_raw();
        let owners = SyntheticFunction::owners();
        let pairs = SyntheticFunction::owner_pairs(&owners);
        let baseline = f.space().decode(&[0.6; 20]).unwrap();
        let report = methodology(0.25, 1).analyze(&f, &pairs, &baseline).unwrap();
        let groups = report.partition.groups();
        if case.expect_merge() {
            assert_eq!(
                groups.len(),
                3,
                "{case:?}: expected G1, G2, G3+G4, got {groups:?}"
            );
            let merged = groups.iter().find(|g| g.routines.len() == 2).unwrap();
            assert_eq!(merged.routines, vec![2, 3], "{case:?}");
        } else {
            assert_eq!(groups.len(), 4, "{case:?}: expected 4 singletons");
        }
    }
}

/// End-to-end on Case 4 (high interdependence): the methodology's merged
/// plan finds a configuration at least as good as the same budget spent on
/// fully-independent searches, and both beat the default configuration.
#[test]
fn methodology_beats_defaults_and_handles_case4() {
    let case = SyntheticCase::Case4;
    let analysis_f = SyntheticFunction::new(case).with_noise(0.0).as_raw();
    let exec_f = SyntheticFunction::new(case).with_noise(0.0);
    let owners = SyntheticFunction::owners();
    let pairs = SyntheticFunction::owner_pairs(&owners);
    let baseline = analysis_f.space().decode(&[0.6; 20]).unwrap();

    let m = methodology(0.25, 7);
    let report = m.analyze(&analysis_f, &pairs, &baseline).unwrap();
    // Execute against the log-scale objective (the paper's F).
    let exec = m.execute(&exec_f, &report).unwrap();

    let default_value = exec_f.evaluate(&exec_f.default_config()).total;
    assert!(
        exec.final_value < default_value,
        "methodology {} !< default {default_value}",
        exec.final_value
    );
    // Budget bookkeeping: 5+5 dims independent + 10 merged, 4 evals/dim.
    assert_eq!(exec.total_evals, 4 * 20);
}

/// Trajectory pin: a full `Methodology::run` on Case 3 reaches the same
/// winning configuration, to the objective's last bit, at one and two
/// workers, and that result is the recorded one. A mismatch between the
/// worker counts breaks the compute layer's bit-identity promise; a
/// mismatch with the recorded hash means a search trajectory moved.
#[test]
fn final_config_hash_is_pinned_at_any_worker_count() {
    let obj = SyntheticFunction::new(SyntheticCase::Case3);
    let owners = SyntheticFunction::owners();
    let pairs = SyntheticFunction::owner_pairs(&owners);
    for threads in [1, 2] {
        let m = Methodology::new(MethodologyConfig {
            cutoff: 0.25,
            max_dims: 5,
            variation_policy: VariationPolicy::Spread { count: 5 },
            bo: BoConfig {
                seed: 42,
                ..Default::default()
            },
            evals_per_dim: 2,
            par: ParConfig::fixed(threads),
            ..Default::default()
        });
        let (_report, exec) = m.run(&obj, &pairs, &obj.default_config()).unwrap();
        let hash = fnv1a(
            format!(
                "{:?}|{:016x}",
                exec.final_config,
                exec.final_value.to_bits()
            )
            .as_bytes(),
        );
        assert_eq!(
            format!("{hash:016x}"),
            "7911f619034c9021",
            "final configuration moved at {threads} worker(s)"
        );
    }
}

/// A fault during the sensitivity pre-pass no longer aborts the run: Case 3
/// behind a seeded flaky injector (5 % panic/NaN/stall) completes under
/// the run's guard, and the report counts the variations that failed.
/// Injector and guard share one virtual clock, so retry backoff and stalls
/// cost no wall time.
#[test]
fn prepass_faults_are_contained_and_counted() {
    let obj = SyntheticFunction::new(SyntheticCase::Case3);
    let owners = SyntheticFunction::owners();
    let pairs = SyntheticFunction::owner_pairs(&owners);
    let clock = Arc::new(VirtualClock::new());
    let faulty = FaultyObjective::new(&obj, FaultPlan::flaky(0.05, 7), clock.clone());
    let m = Methodology::new(MethodologyConfig {
        cutoff: 0.25,
        max_dims: 5,
        variation_policy: VariationPolicy::Spread { count: 5 },
        bo: BoConfig {
            seed: 42,
            ..Default::default()
        },
        evals_per_dim: 2,
        resilience: Some(ResilienceConfig {
            clock,
            ..Default::default()
        }),
        ..Default::default()
    });
    let (report, exec) = m.run(&faulty, &pairs, &obj.default_config()).unwrap();
    assert!(report.failed_variations > 0, "no pre-pass failure counted");
    assert!(exec.final_value.is_finite());
    let md = render_markdown(&obj, "probe", &report, Some(&exec));
    let counted = format!("{} failed)", report.failed_variations);
    assert!(
        md.contains(&counted),
        "sensitivity cost line lacks {counted}"
    );
}

/// Strategy comparison smoke test (Table III in miniature): all four
/// strategies produce finite minima; BO-based strategies use their exact
/// budgets.
#[test]
fn table3_strategies_smoke() {
    let f = SyntheticFunction::new(SyntheticCase::Case3).with_seed(11);
    let owners = SyntheticFunction::owners();
    let pairs = SyntheticFunction::owner_pairs(&owners);
    let groups_strategy = Strategy::Groups(vec![
        vec!["G1".into()],
        vec!["G2".into()],
        vec!["G3".into(), "G4".into()],
    ]);
    let strategies: Vec<(Strategy, &str)> = vec![
        (Strategy::RandomSearch { n_evals: 40 }, "random"),
        (Strategy::FullyIndependent, "independent"),
        (groups_strategy, "methodology split"),
    ];
    for (s, label) in strategies {
        let r = run_strategy(&f, &pairs, &s, &quick_bo(3), 2).unwrap();
        assert!(r.final_value.is_finite(), "{label}: non-finite minimum");
        assert!(r.n_evals > 0, "{label}: no evaluations");
        assert!(f.space().is_valid(&r.final_config), "{label}: invalid best");
    }
}

/// The 20-dim joint search is far more expensive per evaluation than the
/// split searches at equal budget-per-dim (the paper's O(N³) argument): we
/// check evaluation accounting rather than wall time to stay robust on CI.
#[test]
fn joint_uses_more_evals_than_split_groups() {
    let f = SyntheticFunction::new(SyntheticCase::Case3);
    let owners = SyntheticFunction::owners();
    let pairs = SyntheticFunction::owner_pairs(&owners);
    let joint = run_strategy(&f, &pairs, &Strategy::FullyJoint, &quick_bo(5), 2).unwrap();
    let split = run_strategy(
        &f,
        &pairs,
        &Strategy::Groups(vec![
            vec!["G1".into()],
            vec!["G2".into()],
            vec!["G3".into(), "G4".into()],
        ]),
        &quick_bo(5),
        2,
    )
    .unwrap();
    // Joint: 20 dims × 2 + 1; split: (5+5+10) × 2 + 1 — equal here, but the
    // joint one is a single 40-eval GP while the split's largest GP sees
    // only 20 points. Verify the budget split.
    assert_eq!(joint.n_evals, 41);
    assert_eq!(split.n_evals, 41);
}
