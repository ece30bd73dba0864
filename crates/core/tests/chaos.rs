//! Chaos tests: the full staged methodology under deterministic fault
//! injection. A seeded [`FaultPlan`] sabotages a fraction of evaluations
//! with a mix of panics, NaN results and stalls; the fault-tolerant
//! execution layer must contain every one of them, finish the campaign,
//! and report what happened in the failure ledger.
//!
//! Everything here is deterministic: faults are seeded, stalls advance a
//! shared [`VirtualClock`] instead of wall time, and execution is
//! sequential so the clock observations attribute to the right evaluation.

use cets_core::{
    execute_plan, BoConfig, EvalError, FailurePolicy, FaultKind, FaultPlan, FaultyObjective,
    GuardPolicy, Methodology, MethodologyConfig, Objective, PlannedSearch, ResilienceConfig,
    ResilientObjective, RetryPolicy, SearchDisposition, SearchPlan, SearchTarget, VirtualClock,
};
use cets_linalg::ParConfig;
use cets_space::{Config, ParamValue, SearchSpace};
use std::sync::Arc;
use std::time::Duration;

fn quiet_panics() {
    // The injected crashes are intentional; keep the default hook from
    // printing a backtrace for each one.
    std::panic::set_hook(Box::new(|_| {}));
}

/// Separable sphere with two routines: r0 = x0² + x1², r1 = x2².
struct Sphere(SearchSpace);

impl Sphere {
    fn new() -> Self {
        Sphere(
            SearchSpace::builder()
                .real("x0", 0.0, 4.0)
                .real("x1", 0.0, 4.0)
                .real("x2", 0.0, 4.0)
                .build(),
        )
    }
}

impl Objective for Sphere {
    fn space(&self) -> &SearchSpace {
        &self.0
    }
    fn routine_names(&self) -> Vec<String> {
        vec!["r0".into(), "r1".into()]
    }
    fn evaluate(&self, cfg: &Config) -> cets_core::Observation {
        let (a, b, c) = (cfg[0].as_f64(), cfg[1].as_f64(), cfg[2].as_f64());
        let (r0, r1) = (a * a + b * b, c * c);
        cets_core::Observation {
            total: r0 + r1,
            routines: vec![r0, r1],
        }
    }
    fn default_config(&self) -> Config {
        vec![
            ParamValue::Real(1.0),
            ParamValue::Real(1.0),
            ParamValue::Real(1.0),
        ]
    }
}

fn owners() -> [(&'static str, &'static str); 3] {
    [("x0", "r0"), ("x1", "r0"), ("x2", "r1")]
}

fn quick_bo(seed: u64) -> BoConfig {
    BoConfig {
        n_init: 4,
        n_candidates: 48,
        n_local: 8,
        seed,
        ..Default::default()
    }
}

/// Resilience tuned for chaos: a watchdog that catches the injected
/// stalls, instant virtual-clock backoff, and no retries (a flaky fault
/// here is keyed on the configuration, so retrying is futile by design).
fn chaos_resilience(clock: Arc<VirtualClock>) -> ResilienceConfig {
    ResilienceConfig {
        guard: GuardPolicy {
            retry: RetryPolicy {
                max_retries: 0,
                ..Default::default()
            },
            watchdog: Some(Duration::from_secs(60)),
            ..Default::default()
        },
        failure: FailurePolicy::default(),
        clock,
    }
}

/// The headline acceptance test: 20% of evaluations sabotaged with a
/// seeded mix of panics, NaNs and hour-long stalls — the methodology still
/// completes the whole pipeline, reports a populated failure ledger, and
/// lands within tolerance of the fault-free run.
#[test]
fn methodology_completes_under_twenty_percent_mixed_faults() {
    quiet_panics();
    let obj = Sphere::new();
    let m = |resilience| {
        Methodology::new(MethodologyConfig {
            bo: quick_bo(7),
            evals_per_dim: 10,
            par: ParConfig::fixed(1),
            resilience,
            record_database: true,
            ..Default::default()
        })
    };
    // Analysis on the clean objective (the plan must exist either way),
    // then execution once clean and once under chaos.
    let clean_m = m(Some(ResilienceConfig::default()));
    let report = clean_m
        .analyze(&obj, &owners(), &obj.default_config())
        .unwrap();
    let fault_free = clean_m.execute(&obj, &report).unwrap();

    let clock = Arc::new(VirtualClock::new());
    let faulty = FaultyObjective::new(&obj, FaultPlan::flaky(0.2, 99), clock.clone());
    let chaotic = m(Some(chaos_resilience(clock.clone())))
        .execute(&faulty, &report)
        .unwrap();

    // Faults really were injected and really were contained.
    assert!(faulty.injected() > 0, "fault plan injected nothing");
    assert!(
        chaotic.ledger.total_failures() > 0,
        "ledger recorded no failures despite {} injections",
        faulty.injected()
    );
    assert!(!chaotic.ledger.entries.is_empty());
    // The run finished with a usable result: better than the untuned
    // default and in the same ballpark as the undisturbed run.
    let default_value = obj.evaluate(&obj.default_config()).total;
    assert!(
        chaotic.final_value < default_value,
        "chaotic {} !< default {default_value}",
        chaotic.final_value
    );
    assert!(
        (chaotic.final_value - fault_free.final_value).abs() < 2.0,
        "chaotic {} vs fault-free {}",
        chaotic.final_value,
        fault_free.final_value
    );
    assert!(obj.space().is_valid(&chaotic.final_config));
    // Every database record survived the screening: all finite.
    assert!(chaotic
        .database
        .as_ref()
        .unwrap()
        .training_data(&obj)
        .1
        .iter()
        .all(|y| y.is_finite()));
}

/// Region faults confined to one search's slice of the space degrade that
/// search only; the others complete and the run survives.
#[test]
fn region_fault_degrades_only_the_searches_inside_it() {
    quiet_panics();
    let obj = Sphere::new();
    // The r1 search varies x2 with x0 = x1 pinned at the 1.0 incumbent
    // (unit 0.25): a region fault over that line crashes every r1
    // evaluation but only the all-defaults incumbent of r0.
    let region = vec![(0.24, 0.26), (0.24, 0.26), (0.0, 1.0)];
    let plan = FaultPlan {
        region: Some((region, FaultKind::Panic)),
        ..Default::default()
    };
    let search_plan = SearchPlan {
        stages: vec![vec![
            PlannedSearch {
                name: "r0".into(),
                params: vec!["x0".into(), "x1".into()],
                dropped: vec![],
                target: SearchTarget::Routines(vec!["r0".into()]),
                budget: 12,
            },
            PlannedSearch {
                name: "r1".into(),
                params: vec!["x2".into()],
                dropped: vec![],
                target: SearchTarget::Routines(vec!["r1".into()]),
                budget: 10,
            },
        ]],
    };
    let run = |seed: u64| {
        let clock = Arc::new(VirtualClock::new());
        let faulty = FaultyObjective::new(&obj, plan.clone(), clock.clone());
        execute_plan(
            &faulty,
            &search_plan,
            &quick_bo(seed),
            1,
            Some(&chaos_resilience(clock)),
            false,
        )
        .unwrap()
    };
    let exec = run(3);
    let entry = |n: &str| exec.ledger.entries.iter().find(|e| e.search == n).unwrap();
    assert!(matches!(
        entry("r0").disposition,
        SearchDisposition::Completed
    ));
    assert!(matches!(
        entry("r1").disposition,
        SearchDisposition::Degraded(_)
    ));
    // The degraded parameter is untouched.
    assert_eq!(exec.final_config[2].as_f64(), 1.0);
    // The completed search tuned: r0 = x0² + x1² ends below the default's
    // 2.0. Twelve evaluations around a crashing incumbent leave any single
    // seed to chance, so the claim is a rate over seeds 0–39, held to the
    // 28 of 40 the search reached when the exact GP trained by
    // Nelder–Mead.
    let improved = (0..40u64)
        .filter(|&seed| {
            let c = run(seed).final_config;
            c[0].as_f64().powi(2) + c[1].as_f64().powi(2) < 2.0
        })
        .count();
    assert!(
        improved >= 28,
        "r0 improved over the default on {improved} of 40 seeds"
    );
}

/// An injected stall trips the watchdog and is classified as a timeout —
/// instantly, because the stall advances a virtual clock, not wall time.
#[test]
fn stalls_trip_the_watchdog_as_timeouts() {
    let obj = Sphere::new();
    let clock = Arc::new(VirtualClock::new());
    let plan = FaultPlan {
        every_kth: Some((2, FaultKind::Stall)),
        stall: Duration::from_secs(3600),
        ..Default::default()
    };
    let faulty = FaultyObjective::new(&obj, plan, clock.clone());
    let guard = GuardPolicy {
        retry: RetryPolicy {
            max_retries: 0,
            ..Default::default()
        },
        watchdog: Some(Duration::from_secs(60)),
        ..Default::default()
    };
    let clock_dyn: Arc<dyn cets_core::Clock> = clock;
    let res = ResilientObjective::new(&faulty, guard, clock_dyn);
    let cfg = obj.default_config();
    // Evaluation 1 is clean, evaluation 2 stalls.
    assert!(res.evaluate_outcome(&cfg, 0).is_ok());
    match res.evaluate_outcome(&cfg, 1) {
        cets_core::EvalOutcome::Failed(EvalError::Timeout { limit, observed }) => {
            assert_eq!(limit, Duration::from_secs(60));
            assert!(observed >= Duration::from_secs(3600));
        }
        other => panic!("expected a timeout, got {other:?}"),
    }
}

/// Identical seeds, identical chaos: the whole campaign under fault
/// injection is reproducible run-to-run, down to the ledger.
#[test]
fn chaotic_execution_is_deterministic() {
    quiet_panics();
    let obj = Sphere::new();
    let search_plan = SearchPlan {
        stages: vec![vec![PlannedSearch {
            name: "all".into(),
            params: vec!["x0".into(), "x1".into(), "x2".into()],
            dropped: vec![],
            target: SearchTarget::Total,
            budget: 18,
        }]],
    };
    let run = || {
        let clock = Arc::new(VirtualClock::new());
        let faulty = FaultyObjective::new(&obj, FaultPlan::flaky(0.25, 11), clock.clone());
        execute_plan(
            &faulty,
            &search_plan,
            &quick_bo(5),
            1,
            Some(&chaos_resilience(clock)),
            false,
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.final_value, b.final_value);
    assert_eq!(a.final_config, b.final_config);
    assert_eq!(a.ledger.total_failures(), b.ledger.total_failures());
    assert_eq!(a.ledger.n_degraded(), b.ledger.n_degraded());
}

/// Retry-backoff determinism: jitter draws are keyed by
/// `(retry-seed, eval_idx, retry)` — never a shared stream — so retries
/// that fired before a crash cannot perturb the trajectory of a resumed
/// run. Resuming from every prefix of a retry-heavy record stream must
/// reproduce the uninterrupted run bit-for-bit.
#[test]
fn crash_at_k_resume_is_bit_identical_with_retries_in_the_stream() {
    quiet_panics();
    let obj = Sphere::new();
    let sub = cets_space::Subspace::full(obj.space(), obj.default_config()).unwrap();
    let policy = FailurePolicy {
        max_failures: 40,
        ..Default::default()
    };
    let bo = cets_core::BoSearch::new(BoConfig {
        max_evals: 14,
        ..quick_bo(21)
    });
    let run_from = |records: Vec<cets_core::EvalRecord>| {
        let clock = Arc::new(VirtualClock::new());
        let faulty = FaultyObjective::new(&obj, FaultPlan::flaky(0.3, 4), clock.clone());
        let guard = GuardPolicy {
            retry: RetryPolicy {
                max_retries: 2,
                seed: 17,
                ..Default::default()
            },
            watchdog: Some(Duration::from_secs(60)),
            ..Default::default()
        };
        let clock_dyn: Arc<dyn cets_core::Clock> = clock;
        let res = ResilientObjective::new(&faulty, guard, clock_dyn);
        let out = bo
            .run_resilient_observed(
                &sub,
                |c, i| res.evaluate_outcome(c, i),
                &policy,
                records,
                &mut |_| Ok(()),
            )
            .unwrap();
        (out, faulty.injected())
    };
    // Failure messages from the injector embed its process-local attempt
    // counter (which legitimately differs across a resumed process); the
    // determinism contract covers points, values and failure kinds.
    let key = |rs: &[cets_core::EvalRecord]| -> Vec<(Vec<u64>, Result<u64, String>)> {
        rs.iter()
            .map(|r| {
                (
                    r.u.iter().map(|v| v.to_bits()).collect(),
                    r.value
                        .as_ref()
                        .map(|y| y.to_bits())
                        .map_err(|f| f.kind.to_string()),
                )
            })
            .collect()
    };
    let (full, injected) = run_from(Vec::new());
    // Retries really happened: the fault plan injected more faults than
    // the record stream shows failures (each transient failure was
    // re-attempted and, being config-keyed, failed again).
    assert!(
        injected > full.n_failed,
        "{injected} injections vs {} recorded failures — no retries fired",
        full.n_failed
    );
    assert!(full.n_failed > 0, "chaos injected nothing");
    for k in 0..full.records.len() {
        let (resumed, _) = run_from(full.records[..k].to_vec());
        assert_eq!(
            key(&resumed.records),
            key(&full.records),
            "resume from prefix {k} diverged"
        );
        assert_eq!(resumed.outcome.best_value, full.outcome.best_value);
        assert_eq!(resumed.outcome.best_config, full.outcome.best_config);
    }
}
