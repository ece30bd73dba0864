//! The "insights about parameters" phase (paper Section IV-B): sample the
//! objective, then run feature importance, Pearson correlation and
//! distribution summaries over the data.

use crate::contraction::{contracted_unit_slabs, draw_config};
use crate::objective::Objective;
use crate::Result;
use cets_space::Config;
use cets_stats::{
    one_in_ten_ok, pearson::correlated_pairs, RandomForest, RandomForestConfig, Summary,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration for [`gather_insights`].
#[derive(Debug, Clone)]
pub struct InsightsConfig {
    /// Number of sampled application evaluations (the paper uses 100 per
    /// case study, then 100 more for the modelling analyses).
    pub n_samples: usize,
    /// RNG seed.
    pub seed: u64,
    /// Random-forest configuration for feature importance.
    pub forest: RandomForestConfig,
    /// Report parameter pairs with `|pearson| >=` this threshold (the paper
    /// flags the tb/tb_sm pair at ~0.6).
    pub correlation_threshold: f64,
}

impl Default for InsightsConfig {
    fn default() -> Self {
        InsightsConfig {
            n_samples: 100,
            seed: 0,
            forest: RandomForestConfig::default(),
            correlation_threshold: 0.5,
        }
    }
}

/// Data-driven insights about the tuning problem.
#[derive(Debug, Clone)]
pub struct FeatureInsights {
    /// Parameter names, fixing the order of [`FeatureInsights::importance`].
    pub param_names: Vec<String>,
    /// Normalized random-forest feature importances for the total runtime.
    pub importance: Vec<f64>,
    /// Correlated parameter pairs `(a, b, r)` above the threshold, by |r|
    /// descending. Correlation here is measured across *valid* sampled
    /// configurations, so constraint-induced couplings (like the paper's
    /// occupancy rule tying threadblock size to blocks-per-SM) show up even
    /// though sampling is otherwise independent.
    pub correlated: Vec<(String, String, f64)>,
    /// Whether the sample satisfies the one-in-ten rule for this
    /// dimensionality.
    pub one_in_ten: bool,
    /// Distribution of the sampled total runtimes.
    pub runtime_summary: Summary,
    /// Out-of-bag R² of the importance model (`None` if unavailable);
    /// gauge of how much to trust the importances.
    pub model_r2: Option<f64>,
    /// The raw sample, reusable by later phases. Contains only finite
    /// observations; crashed or non-finite evaluations are counted in
    /// [`FeatureInsights::n_non_finite`] instead.
    pub samples: Vec<(Config, f64)>,
    /// Sampled evaluations discarded because the objective returned a NaN
    /// or infinite total. A non-zero count is itself an insight: part of
    /// the space fails to run.
    pub n_non_finite: usize,
}

impl FeatureInsights {
    /// Parameters ranked by importance (descending), as `(name, score)`.
    pub fn ranked_importance(&self) -> Vec<(String, f64)> {
        let mut v: Vec<(String, f64)> = self
            .param_names
            .iter()
            .cloned()
            .zip(self.importance.iter().cloned())
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        v
    }
}

/// Sample `objective` and compute the insight battery.
pub fn gather_insights<O: Objective + ?Sized>(
    objective: &O,
    cfg: &InsightsConfig,
) -> Result<FeatureInsights> {
    let space = objective.space();
    // Contraction-aware fallback draws (see [`crate::contraction`]).
    let slabs = contracted_unit_slabs(space);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut samples: Vec<(Config, f64)> = Vec::with_capacity(cfg.n_samples);
    let mut features: Vec<Vec<f64>> = Vec::with_capacity(cfg.n_samples);
    let mut targets: Vec<f64> = Vec::with_capacity(cfg.n_samples);
    let mut n_non_finite = 0usize;
    for _ in 0..cfg.n_samples {
        let config = draw_config(objective, &slabs, &mut rng)?;
        let y = objective.evaluate(&config).total;
        // A NaN total would propagate silently through both the Pearson
        // sums and the forest's variance splits; screen it out and count it.
        if !y.is_finite() {
            n_non_finite += 1;
            continue;
        }
        features.push(space.encode(&config)?);
        targets.push(y);
        samples.push((config, y));
    }
    if samples.is_empty() {
        return Err(crate::CoreError::SearchStalled(format!(
            "all {} sampled evaluations were non-finite; nothing to analyze",
            cfg.n_samples
        )));
    }

    let forest = RandomForest::fit(&features, &targets, &cfg.forest)?;
    let importance = forest.feature_importances().to_vec();
    let model_r2 = forest.oob_r2(&features, &targets);

    // Column-wise features for correlation.
    let d = space.dim();
    let columns: Vec<Vec<f64>> = (0..d)
        .map(|j| features.iter().map(|row| row[j]).collect())
        .collect();
    let correlated = correlated_pairs(&columns, cfg.correlation_threshold)?
        .into_iter()
        .map(|(i, j, r)| (space.names()[i].clone(), space.names()[j].clone(), r))
        .collect();

    Ok(FeatureInsights {
        param_names: space.names().to_vec(),
        importance,
        correlated,
        one_in_ten: one_in_ten_ok(cfg.n_samples, d),
        runtime_summary: Summary::new(&targets)?,
        model_r2,
        samples,
        n_non_finite,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::test_objectives::SplitSphere;
    use crate::objective::{CountingObjective, Objective, Observation};
    use cets_space::{Constraint, SearchSpace};

    #[test]
    fn importance_finds_dominant_parameter() {
        // Weight x0 heavily so it dominates the total.
        struct Weighted(SearchSpace);
        impl Objective for Weighted {
            fn space(&self) -> &SearchSpace {
                &self.0
            }
            fn routine_names(&self) -> Vec<String> {
                vec!["r".into()]
            }
            fn evaluate(&self, cfg: &Config) -> Observation {
                let x: Vec<f64> = cfg.iter().map(|v| v.as_f64()).collect();
                Observation::scalar(100.0 * x[0] * x[0] + x[1] * x[1])
            }
            fn default_config(&self) -> Config {
                self.0.decode(&[0.5, 0.5]).unwrap()
            }
        }
        let obj = Weighted(
            SearchSpace::builder()
                .real("big", -1.0, 1.0)
                .real("small", -1.0, 1.0)
                .build(),
        );
        let ins = gather_insights(
            &obj,
            &InsightsConfig {
                n_samples: 150,
                ..Default::default()
            },
        )
        .unwrap();
        let ranked = ins.ranked_importance();
        assert_eq!(ranked[0].0, "big");
        assert!(ranked[0].1 > 0.8);
        assert!(ins.one_in_ten);
    }

    #[test]
    fn constraint_induced_correlation_detected() {
        // a + b <= 10 over integers: valid samples have negatively
        // correlated a and b near the boundary... use a tight constraint.
        struct Constrained(SearchSpace);
        impl Objective for Constrained {
            fn space(&self) -> &SearchSpace {
                &self.0
            }
            fn routine_names(&self) -> Vec<String> {
                vec!["r".into()]
            }
            fn evaluate(&self, cfg: &Config) -> Observation {
                Observation::scalar(1.0 + cfg[0].as_f64())
            }
            fn default_config(&self) -> Config {
                self.0.config_from_pairs(&[("a", 1.0), ("b", 1.0)]).unwrap()
            }
        }
        let space = SearchSpace::builder()
            .integer("a", 0, 10)
            .integer("b", 0, 10)
            .constraint(Constraint::new("tight", "9 <= a+b <= 11", |s, c| {
                let sum = s.get_i64(c, "a").unwrap() + s.get_i64(c, "b").unwrap();
                (9..=11).contains(&sum)
            }))
            .build();
        let obj = Constrained(space);
        let ins = gather_insights(
            &obj,
            &InsightsConfig {
                n_samples: 120,
                correlation_threshold: 0.5,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(ins.correlated.len(), 1, "{:?}", ins.correlated);
        assert!(ins.correlated[0].2 < -0.5);
    }

    #[test]
    fn sample_count_and_summary() {
        let obj = SplitSphere::new();
        let counted = CountingObjective::new(&obj);
        let ins = gather_insights(
            &counted,
            &InsightsConfig {
                n_samples: 50,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(counted.count(), 50);
        assert_eq!(ins.samples.len(), 50);
        assert_eq!(ins.runtime_summary.n, 50);
        // 50 samples for 3 dims satisfies 10×3.
        assert!(ins.one_in_ten);
    }

    #[test]
    fn non_finite_observations_are_screened_and_counted() {
        // NaN over half the domain: the analysis must survive on the finite
        // half and report how much was dropped.
        struct HalfBroken(SearchSpace);
        impl Objective for HalfBroken {
            fn space(&self) -> &SearchSpace {
                &self.0
            }
            fn routine_names(&self) -> Vec<String> {
                vec!["r".into()]
            }
            fn evaluate(&self, cfg: &Config) -> Observation {
                let x = cfg[0].as_f64();
                if x > 0.0 {
                    Observation::scalar(f64::NAN)
                } else {
                    Observation::scalar(100.0 * x * x + cfg[1].as_f64().powi(2))
                }
            }
            fn default_config(&self) -> Config {
                self.0.decode(&[0.25, 0.5]).unwrap()
            }
        }
        let obj = HalfBroken(
            SearchSpace::builder()
                .real("big", -1.0, 1.0)
                .real("small", -1.0, 1.0)
                .build(),
        );
        let ins = gather_insights(
            &obj,
            &InsightsConfig {
                n_samples: 200,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(ins.n_non_finite > 50, "n_non_finite {}", ins.n_non_finite);
        assert_eq!(ins.samples.len() + ins.n_non_finite, 200);
        assert!(ins.samples.iter().all(|(_, y)| y.is_finite()));
        assert!(ins.runtime_summary.n == ins.samples.len());
        // The importances are still meaningful on the surviving half.
        assert_eq!(ins.ranked_importance()[0].0, "big");
        assert!(ins.importance.iter().all(|v| v.is_finite()));
        assert!(ins.correlated.iter().all(|(_, _, r)| r.is_finite()));
    }

    #[test]
    fn fully_non_finite_objective_errors_cleanly() {
        struct AllNan(SearchSpace);
        impl Objective for AllNan {
            fn space(&self) -> &SearchSpace {
                &self.0
            }
            fn routine_names(&self) -> Vec<String> {
                vec!["r".into()]
            }
            fn evaluate(&self, _cfg: &Config) -> Observation {
                Observation::scalar(f64::NAN)
            }
            fn default_config(&self) -> Config {
                self.0.decode(&[0.5]).unwrap()
            }
        }
        let obj = AllNan(SearchSpace::builder().real("x", 0.0, 1.0).build());
        let err = gather_insights(
            &obj,
            &InsightsConfig {
                n_samples: 10,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, crate::CoreError::SearchStalled(_)));
    }

    #[test]
    fn one_in_ten_flags_small_samples() {
        let obj = SplitSphere::new();
        let ins = gather_insights(
            &obj,
            &InsightsConfig {
                n_samples: 20,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!ins.one_in_ten);
    }
}
