//! Property-based tests for the tuning engine: normal helpers,
//! checkpoints, acquisition behaviour and sensitivity-driver invariants.

use cets_core::checkpoint::CHECKPOINT_MAGIC;
use cets_core::normal;
use cets_core::{
    routine_sensitivity, BoCheckpoint, BoConfig, BoSearch, EvalRecord, FailedEval, FailureKind,
    FailurePolicy, Objective, Observation, VariationPolicy,
};
use cets_space::{Config, SearchSpace, Subspace};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn erf_odd_and_bounded(x in -6.0..6.0f64) {
        prop_assert!((normal::erf(x) + normal::erf(-x)).abs() < 1e-12);
        prop_assert!(normal::erf(x).abs() <= 1.0);
    }

    #[test]
    fn cdf_monotone(a in -5.0..5.0f64, d in 0.0..5.0f64) {
        prop_assert!(normal::cdf(a + d) >= normal::cdf(a) - 1e-12);
        prop_assert!((0.0..=1.0).contains(&normal::cdf(a)));
    }

    #[test]
    fn cdf_complement(x in -5.0..5.0f64) {
        prop_assert!((normal::cdf(x) + normal::cdf(-x) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pdf_positive_and_symmetric(x in -6.0..6.0f64) {
        prop_assert!(normal::pdf(x) > 0.0);
        prop_assert!((normal::pdf(x) - normal::pdf(-x)).abs() < 1e-15);
    }

    #[test]
    fn checkpoint_roundtrip(
        seed in 0u64..u64::MAX,
        points in proptest::collection::vec(
            (proptest::collection::vec(0.0..1.0f64, 3), -1e6..1e6f64),
            0..20,
        ),
    ) {
        let cp = BoCheckpoint::from_history(seed, &points);
        let path = std::env::temp_dir().join(format!(
            "cets_prop_ckpt_{}_{}.json",
            std::process::id(),
            seed % 1000 // avoid collisions across cases without huge names
        ));
        cp.save(&path).unwrap();
        let loaded = BoCheckpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(loaded.history(), points);
        prop_assert_eq!(loaded.seed, seed);
    }

    /// Arbitrary bytes on disk: [`BoCheckpoint::load`] must return a clean
    /// error (or a valid checkpoint), never panic — checkpoints exist to
    /// recover from crashes, so a corrupt one must not cause another. The
    /// bytes are also decoded behind the checkpoint magic, so the frame
    /// reader sees them too.
    #[test]
    fn corrupt_checkpoint_bytes_never_panic(
        bytes in proptest::collection::vec(0u8..=255, 0..300),
    ) {
        use std::hash::{Hash, Hasher};
        let mut h = std::hash::DefaultHasher::new();
        bytes.hash(&mut h);
        let path = std::env::temp_dir().join(format!(
            "cets_prop_corrupt_{}_{:016x}.ckpt",
            std::process::id(),
            h.finish()
        ));
        std::fs::write(&path, &bytes).unwrap();
        let bare = BoCheckpoint::load(&path);
        std::fs::remove_file(&path).ok();
        let framed = BoCheckpoint::decode(&[CHECKPOINT_MAGIC.as_slice(), &bytes].concat());
        // If garbage happens to decode, the invariants still hold.
        for cp in bare.into_iter().chain(framed.map(|(cp, _)| cp)) {
            let dim = cp.records.first().map_or(0, |r| r.u.len());
            for r in &cp.records {
                prop_assert_eq!(r.u.len(), dim);
                prop_assert!(r.u.iter().all(|v| v.is_finite()));
                prop_assert!(r.y().is_none_or(f64::is_finite));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every byte prefix of a saved checkpoint (a torn write), and copies
    /// with one flipped bit, fail to load only when the damage falls inside
    /// the magic or the header frame; otherwise they load, unaltered, the
    /// attempts whose frames end before the damage.
    #[test]
    fn torn_or_flipped_checkpoint_loads_a_record_prefix(
        seed in 0u64..1000,
        n in 1usize..12,
        flips in proptest::collection::vec((0.0..1.0f64, 0u8..8), 16),
    ) {
        let records: Vec<EvalRecord> = (0..n)
            .map(|i| {
                let u = vec![i as f64 / n as f64, 0.5];
                if i % 3 == 0 {
                    EvalRecord::failed(u, FailedEval {
                        kind: FailureKind::Crashed,
                        message: format!("boom {i}"),
                    })
                } else {
                    EvalRecord::ok(u, i as f64)
                }
            })
            .collect();
        let path = std::env::temp_dir().join(format!("cets_prop_torn_{}_{seed}_{n}.ckpt", std::process::id()));
        BoCheckpoint::from_records(seed, &records).save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // Frame ends off the length prefixes: the magic's, the header's,
        // then each attempt's.
        let mut ends = vec![CHECKPOINT_MAGIC.len()];
        while let Some(&at) = ends.last().filter(|&&at| at < bytes.len()) {
            ends.push(at + 12 + u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize);
        }
        prop_assert_eq!(ends.len(), n + 2);
        let cuts = (0..=bytes.len()).map(|cut| (bytes[..cut].to_vec(), cut));
        let flipped = flips.iter().map(|&(at, bit)| {
            let pos = ((bytes.len() as f64) * at) as usize;
            let mut b = bytes.clone();
            b[pos] ^= 1 << bit;
            (b, pos)
        });
        for (damaged, at) in cuts.chain(flipped) {
            match BoCheckpoint::decode(&damaged) {
                Err(_) => prop_assert!(at < ends[1], "damage at byte {} after the header refused", at),
                Ok((cp, _)) => {
                    prop_assert!(at >= ends[1], "damage at byte {} inside the header loaded", at);
                    let whole = ends[2..].iter().filter(|&&end| end <= at).count();
                    prop_assert_eq!(&cp.records[..], &records[..whole], "damage at byte {}", at);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The failure policy's core guarantee: whatever mix of successes,
    /// failures, non-finite observations and poisoned coordinates the
    /// history holds, the training set handed to the GP is entirely finite.
    #[test]
    fn training_data_is_always_finite(
        raw in proptest::collection::vec(
            (
                proptest::collection::vec(
                    prop_oneof![
                        (0.0..1.0f64).boxed(),
                        Just(f64::NAN).boxed(),
                        Just(f64::INFINITY).boxed(),
                        Just(f64::NEG_INFINITY).boxed(),
                    ],
                    2,
                ),
                prop_oneof![
                    (-1e12..1e12f64).boxed(),
                    Just(f64::NAN).boxed(),
                    Just(f64::INFINITY).boxed(),
                    Just(f64::NEG_INFINITY).boxed(),
                ],
                0u8..4,
            ),
            0..40,
        ),
    ) {
        let records: Vec<EvalRecord> = raw
            .into_iter()
            .map(|(u, y, sel)| match sel {
                0 => EvalRecord::ok(u, y),
                1 => EvalRecord::failed(u, FailedEval {
                    kind: FailureKind::Crashed,
                    message: "injected".into(),
                }),
                2 => EvalRecord::failed(u, FailedEval {
                    kind: FailureKind::Timeout,
                    message: "slow".into(),
                }),
                _ => EvalRecord::failed(u, FailedEval {
                    kind: FailureKind::NonFinite,
                    message: "nan".into(),
                }),
            })
            .collect();
        let policy = FailurePolicy::default();
        let (xs, ys) = policy.training_data(&records);
        prop_assert_eq!(xs.len(), ys.len());
        for (x, y) in xs.iter().zip(&ys) {
            prop_assert!(y.is_finite(), "non-finite target {y} reached training");
            prop_assert!(
                x.iter().all(|v| v.is_finite()),
                "non-finite input {x:?} reached training"
            );
        }
        // And the GP itself accepts the screened set (non-empty case):
        // nothing non-finite can reach Gp::train through this path.
        if xs.len() >= 2 {
            let gp = cets_gp::Gp::fit(
                &xs,
                &ys,
                cets_gp::Kernel::new(cets_gp::KernelKind::Matern52, 2),
                1e-4,
            );
            prop_assert!(
                !matches!(gp, Err(cets_gp::GpError::NonFinite(_))),
                "screened data rejected as non-finite"
            );
        }
        // The budget figure derived from the same records is finite too.
        prop_assert!(policy.budget_spent(&records).is_finite());
    }
}

/// A linear objective whose per-routine structure is fully known, for
/// sensitivity-driver invariants.
struct Linear {
    space: SearchSpace,
    w: Vec<f64>,
}

impl Linear {
    fn new(w: Vec<f64>) -> Self {
        let mut b = SearchSpace::builder();
        for i in 0..w.len() {
            b = b.real(format!("x{i}"), 1.0, 10.0);
        }
        Linear {
            space: b.build(),
            w,
        }
    }
}

impl Objective for Linear {
    fn space(&self) -> &SearchSpace {
        &self.space
    }
    fn routine_names(&self) -> Vec<String> {
        vec!["r".into()]
    }
    fn evaluate(&self, cfg: &Config) -> Observation {
        let v: f64 = cfg
            .iter()
            .zip(&self.w)
            .map(|(x, &wi)| wi * x.as_f64())
            .sum::<f64>()
            + 100.0;
        Observation::scalar(v)
    }
    fn default_config(&self) -> Config {
        self.space.decode(&vec![0.5; self.w.len()]).unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn zero_weight_parameters_have_zero_score(
        w0 in 0.5..5.0f64,
    ) {
        // Two params: one carries weight, one is dead.
        let obj = Linear::new(vec![w0, 0.0]);
        let s = routine_sensitivity(
            &obj,
            &obj.default_config(),
            &VariationPolicy::Spread { count: 5 },
        )
        .unwrap();
        prop_assert!(s.score_by_name("x0", "r").unwrap() > 0.0);
        prop_assert_eq!(s.score_by_name("x1", "r").unwrap(), 0.0);
    }

    #[test]
    fn heavier_weight_scores_higher(
        light in 0.1..1.0f64,
        ratio in 2.0..10.0f64,
    ) {
        let obj = Linear::new(vec![light * ratio, light]);
        let s = routine_sensitivity(
            &obj,
            &obj.default_config(),
            &VariationPolicy::Spread { count: 5 },
        )
        .unwrap();
        let heavy_score = s.score_by_name("x0", "r").unwrap();
        let light_score = s.score_by_name("x1", "r").unwrap();
        prop_assert!(heavy_score > light_score, "{heavy_score} !> {light_score}");
    }

    #[test]
    fn propose_parallel_matches_sequential(
        seed in 0u64..100,
        n_candidates in 8usize..64,
        workers in 2usize..6,
    ) {
        // The acquisition step's determinism contract, property-tested:
        // for any seed, pool size and worker count, the parallel
        // chunk-scored proposal is BIT-identical to the sequential one.
        use rand::{rngs::StdRng, RngExt, SeedableRng};

        let obj = Linear::new(vec![1.0, -2.0]);
        let sub = Subspace::full(obj.space(), obj.default_config()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Vec<f64>> = (0..12)
            .map(|_| vec![rng.random::<f64>(), rng.random::<f64>()])
            .collect();
        let y: Vec<f64> = x.iter().map(|u| u[0] - 2.0 * u[1]).collect();
        let best = y.iter().cloned().fold(f64::INFINITY, f64::min);
        let gp = cets_gp::Surrogate::Exact(
            cets_gp::Gp::fit(
                &x,
                &y,
                cets_gp::Kernel::new(cets_gp::KernelKind::Matern52, 2),
                1e-6,
            )
            .unwrap(),
        );

        let run = |n_workers: usize| {
            let search = BoSearch::new(BoConfig {
                n_workers,
                n_candidates,
                n_local: 4,
                ..Default::default()
            });
            let mut prng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(7));
            search.propose(&sub, &gp, best, None, &mut prng).unwrap()
        };
        let sequential = run(1);
        let parallel = run(workers);
        prop_assert_eq!(sequential, parallel);
    }

    #[test]
    fn observation_cost_formula(v in 1usize..8, d in 1usize..5) {
        let obj = Linear::new(vec![1.0; d]);
        let counted = cets_core::CountingObjective::new(&obj);
        let s = routine_sensitivity(
            &counted,
            &obj.default_config(),
            &VariationPolicy::Spread { count: v },
        )
        .unwrap();
        prop_assert_eq!(counted.count(), 1 + d * v);
        prop_assert_eq!(s.observation_cost(), 1 + d * v);
    }
}

proptest! {
    // Full double-BO-runs per case: keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn tier_selection_deterministic_under_checkpoint_resume(
        seed in 0u64..20,
        threshold in 6usize..12,
        k in 5usize..12,
    ) {
        // The surrogate tier is re-derived at every retraining from the
        // policy and the training-set size. With an Auto threshold inside
        // the run's budget the search *switches tiers mid-run*; a resume
        // interrupted at any attempt k must re-derive the exact same
        // decisions and continue bit-for-bit through the switch — for a
        // failure-aware search and for a plain one alike.
        use cets_core::EvalOutcome;

        let obj = Linear::new(vec![1.0, -2.0]);
        let sub = Subspace::full(obj.space(), obj.default_config()).unwrap();
        let mut gp = cets_gp::GpConfig {
            tier: cets_gp::TierPolicy::Auto { threshold },
            ..Default::default()
        };
        gp.sparse.m_inducing = 8;
        let cfg = BoConfig {
            n_init: 4,
            max_evals: 14,
            n_candidates: 24,
            n_local: 4,
            retrain_every: 3,
            seed,
            gp,
            ..Default::default()
        };
        let policy = FailurePolicy::default();
        let search = BoSearch::new(cfg);
        let full = search
            .run_resilient(&sub, |c, _| EvalOutcome::Ok(obj.evaluate(c)), &policy)
            .unwrap();
        prop_assert!(full.records.len() >= threshold, "run never crossed the threshold");

        let k = k.min(full.records.len() - 1).max(1);
        let cp = BoCheckpoint::from_records(seed, &full.records[..k])
            .with_tier(search.config.gp.tier.tag());
        let resumed = search
            .resume_resilient(&sub, |c, _| EvalOutcome::Ok(obj.evaluate(c)), &policy, &cp)
            .unwrap();
        prop_assert_eq!(resumed.records, full.records);

        let f = |c: &Config| obj.evaluate(c).total;
        let plain = search.run(&sub, f).unwrap();
        // A plain search is the same loop over an evaluator that never fails.
        prop_assert_eq!(&plain.history, &full.outcome.history);
        let cp_plain = BoCheckpoint::from_history(seed, &plain.history[..k])
            .with_tier(search.config.gp.tier.tag());
        let resumed_plain = search.resume(&sub, f, &cp_plain).unwrap();
        prop_assert_eq!(resumed_plain.history, plain.history);

        // A different tier policy must be rejected, not silently diverged.
        let mut other = search.clone();
        other.config.gp.tier = cets_gp::TierPolicy::Exact;
        prop_assert!(other
            .resume_resilient(&sub, |c, _| EvalOutcome::Ok(obj.evaluate(c)), &policy, &cp)
            .is_err());
        prop_assert!(other.resume(&sub, f, &cp_plain).is_err());
    }

    #[test]
    fn bo_run_is_bit_identical_at_any_thread_count(seed in 0u64..30) {
        // End-to-end determinism: a full BO search — GP training (both
        // tiers, via an Auto threshold inside the budget), acquisition
        // scoring, and proposal — produces a BIT-identical trajectory at
        // every thread count.
        let obj = Linear::new(vec![1.0, -2.0]);
        let sub = Subspace::full(obj.space(), obj.default_config()).unwrap();
        let run = |threads: usize| {
            let mut gp = cets_gp::GpConfig {
                tier: cets_gp::TierPolicy::Auto { threshold: 10 },
                par: cets_gp::ParConfig::fixed(threads),
                ..Default::default()
            };
            gp.sparse.m_inducing = 8;
            let cfg = BoConfig {
                n_init: 4,
                max_evals: 14,
                n_candidates: 24,
                n_local: 4,
                retrain_every: 3,
                seed,
                gp,
                n_workers: threads,
                ..Default::default()
            };
            BoSearch::new(cfg).run(&sub, |c| obj.evaluate(c).total).unwrap()
        };
        let base = run(1);
        for t in [2usize, 4] {
            let out = run(t);
            prop_assert_eq!(&out.history, &base.history, "history diverged at t={}", t);
            prop_assert_eq!(&out.incumbent_trace, &base.incumbent_trace);
            prop_assert_eq!(&out.best_config, &base.best_config);
            prop_assert_eq!(out.best_value, base.best_value);
        }
    }
}
