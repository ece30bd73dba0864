//! Cross-crate integration: the methodology against the RT-TDDFT simulator
//! — precedence routines, shared-kernel reassignment, the 10-dim cap, and
//! a small end-to-end execution (full budgets live in `cets-bench`).

use cets_core::{BoConfig, Methodology, MethodologyConfig, Objective, SearchTarget};
use cets_tddft::{CaseStudy, TddftSimulator};

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

fn tddft_methodology(seed: u64, evals_per_dim: usize) -> Methodology {
    Methodology::new(MethodologyConfig {
        bo: quick_bo(seed),
        evals_per_dim,
        ..TddftSimulator::methodology_config()
    })
}

/// The analysis reproduces the structure of the paper's Table VII /
/// Figure 5: Iterations (nbatches, nstreams) and the MPI grid are
/// precedence searches; Group 1 keeps only the cuVec2Zvec parameters;
/// Groups 2+3 merge with the shared cuZcopy parameters reassigned to them.
#[test]
fn tddft_plan_matches_table7_structure() {
    let sim = TddftSimulator::new(CaseStudy::case1())
        .with_noise(0.0)
        .with_expert_constraints();
    let owners = TddftSimulator::owners();
    let pairs = TddftSimulator::owner_pairs(&owners);
    let m = tddft_methodology(1, 3);
    let report = m.analyze(&sim, &pairs, &sim.default_config()).unwrap();

    // Stage 0: Slater (Iterations) search over nbatches + nstreams.
    let s0 = &report.plan.stages[0][0];
    assert_eq!(s0.name, "Slater");
    assert_eq!(s0.target, SearchTarget::Total);
    let mut p0 = s0.params.clone();
    p0.sort();
    assert_eq!(p0, vec!["nbatches", "nstreams"]);

    // Stage 1: MPI grid search.
    let s1 = &report.plan.stages[1][0];
    assert_eq!(s1.name, "MPI");
    let mut p1 = s1.params.clone();
    p1.sort();
    assert_eq!(p1, vec!["nkpb", "nspb", "nstb"]);

    // Final stage: G1 alone and G2+G3 merged.
    let last = report.plan.stages.last().unwrap();
    assert_eq!(last.len(), 2, "{:?}", report.plan.describe());
    let g1 = last.iter().find(|s| s.name == "G1").expect("G1 search");
    let merged = last
        .iter()
        .find(|s| s.name.contains('+'))
        .expect("merged G2/G3 search");
    assert!(
        merged.name == "G2+G3" || merged.name == "G3+G2",
        "{}",
        merged.name
    );

    // Shared cuZcopy parameters moved out of G1 into the merged search.
    for p in ["u_zcopy", "tb_zcopy", "tb_sm_zcopy"] {
        assert!(
            !g1.params.contains(&p.to_string()),
            "G1 still tunes shared {p}"
        );
        assert!(
            merged.params.contains(&p.to_string()) || merged.dropped.contains(&p.to_string()),
            "{p} missing from merged search"
        );
    }
    // G1 keeps exactly the cuVec2Zvec parameters (paper: "Group 1's
    // optimization only includes cuVec2Zvec parameters").
    let mut g1_params = g1.params.clone();
    g1_params.sort();
    assert_eq!(g1_params, vec!["tb_sm_vec", "tb_vec", "u_vec"]);

    // The merged search respects the 10-dim cap: pair(3) + zcopy(3) +
    // dscal(3) + zvec(3) = 12 -> 10 kept, 2 dropped.
    assert!(merged.dim() <= 10);
    assert_eq!(merged.dim() + merged.dropped.len(), 12);
}

/// Small end-to-end execution on Case Study 1: the tuned configuration
/// beats the default configuration.
#[test]
fn tddft_execution_improves_over_default() {
    let sim = TddftSimulator::new(CaseStudy::case1())
        .with_noise(0.0)
        .with_expert_constraints();
    let owners = TddftSimulator::owners();
    let pairs = TddftSimulator::owner_pairs(&owners);
    let m = tddft_methodology(5, 3);
    let (report, exec) = m.run(&sim, &pairs, &sim.default_config()).unwrap();

    let default_total = sim.evaluate(&sim.default_config()).total;
    assert!(
        exec.final_value < default_total,
        "tuned {} !< default {default_total}",
        exec.final_value
    );
    assert!(sim.space().is_valid(&exec.final_config));
    // All stages executed.
    assert_eq!(exec.searches.len(), report.plan.searches().count());
}

/// Case Study 2 produces the same plan structure (the paper: "results for
/// Case Study 1 and Case Study 2 yielded similar conclusions; therefore,
/// the same search strategy is executed for both").
#[test]
fn tddft_case2_same_plan_shape() {
    let sim = TddftSimulator::new(CaseStudy::case2())
        .with_noise(0.0)
        .with_expert_constraints();
    let owners = TddftSimulator::owners();
    let pairs = TddftSimulator::owner_pairs(&owners);
    let report = tddft_methodology(2, 3)
        .analyze(&sim, &pairs, &sim.default_config())
        .unwrap();
    assert_eq!(report.plan.stages.len(), 3);
    let last = report.plan.stages.last().unwrap();
    assert_eq!(last.len(), 2);
    assert!(last.iter().any(|s| s.name.contains('+')));
}

/// The paper's headline failure, at the strategy level: a fully-joint BO
/// search over the constrained 20-dim TDDFT space cannot even generate
/// candidates (GPTune "proved unfeasible to suggest candidates"); the
/// engine surfaces this as a sampling-exhausted error instead of hanging.
#[test]
fn joint_tddft_strategy_fails_candidate_generation() {
    use cets_core::{run_strategy, CoreError, Strategy};
    let sim = TddftSimulator::new(CaseStudy::case2());
    let owners = TddftSimulator::owners();
    let pairs = TddftSimulator::owner_pairs(&owners);
    let err = run_strategy(&sim, &pairs, &Strategy::FullyJoint, &quick_bo(1), 2).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Space(cets_space::SpaceError::SamplingExhausted { .. })
        ),
        "expected SamplingExhausted, got {err}"
    );
}

/// The DOT exports for Figures 2/5 render without panicking and contain
/// the cross-edges.
#[test]
fn dag_dot_exports() {
    let sim = TddftSimulator::new(CaseStudy::case1()).with_noise(0.0);
    let owners = TddftSimulator::owners();
    let pairs = TddftSimulator::owner_pairs(&owners);
    let report = tddft_methodology(3, 3)
        .analyze(&sim, &pairs, &sim.default_config())
        .unwrap();
    let dot = report.graph.to_dot(0.10).unwrap();
    assert!(dot.contains("digraph"));
    assert!(dot.contains("color=red"), "no cross-edges rendered");
    let pdot = report.partition.to_dot(&report.graph);
    assert!(pdot.contains("cluster_prec"));
}
