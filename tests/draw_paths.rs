//! Pins every feasible-draw path bit for bit.
//!
//! Each search draws its configurations from the contraction layer's
//! per-dimension slab list through one rejection loop. Three small
//! objectives cover the three shapes that list takes:
//!
//! * the stencil mini-app: its `px·py <= ranks` constraint is prose the
//!   static analysis cannot parse, so draws come from the full unit cube
//!   and rejection does all the work;
//! * a two-parameter bowl under `x <= 25` and `tb <= 24`: the analysis
//!   narrows both axes to one slab each (a box);
//! * a bowl under `a <= 1 || a >= 9`: branch-and-prune splits `a` into two
//!   disjoint slabs.
//!
//! The hashes cover every drawn configuration and value of
//! `random_search`, `gather_insights`, `dropout_bo` and `BoSearch::run` on
//! each objective, so a change to how any path draws moves them.

use cets_core::framelog::fnv1a;
use cets_core::{
    dropout_bo, gather_insights, random_search, BoConfig, BoSearch, InsightsConfig, Objective,
    Observation, RandomSearchConfig, SearchOutcome,
};
use cets_space::{Config, Constraint, SearchSpace, Subspace};
use cets_stats::RandomForestConfig;
use cets_stencil::{StencilApp, StencilProblem};

/// A separable bowl over the encoded unit point, centred inside the
/// feasible region of every space below.
struct Bowl {
    space: SearchSpace,
    default: Config,
}

impl Objective for Bowl {
    fn space(&self) -> &SearchSpace {
        &self.space
    }

    fn routine_names(&self) -> Vec<String> {
        vec!["bowl".into()]
    }

    fn evaluate(&self, cfg: &Config) -> Observation {
        let u = self.space.encode(cfg).expect("valid config encodes");
        let total = u
            .iter()
            .enumerate()
            .map(|(j, x)| (x - 0.1 - 0.05 * j as f64).powi(2))
            .sum();
        Observation::scalar(total)
    }

    fn default_config(&self) -> Config {
        self.default.clone()
    }
}

/// `x <= 25` and `tb <= 24`: the analysis narrows both axes to one slab.
fn boxed() -> Bowl {
    let space = SearchSpace::builder()
        .real("x", 0.0, 100.0)
        .integer("tb", 0, 99)
        .constraint(Constraint::new("xcap", "x <= 25", |s, c| {
            s.get_f64(c, "x").unwrap_or(f64::INFINITY) <= 25.0
        }))
        .constraint(Constraint::new("tbcap", "tb <= 24", |s, c| {
            s.get_i64(c, "tb").unwrap_or(i64::MAX) <= 24
        }))
        .build();
    let default = space
        .config_from_pairs(&[("x", 10.0), ("tb", 10.0)])
        .expect("default in domain");
    Bowl { space, default }
}

/// `a <= 1 || a >= 9`: two disjoint slabs on `a`.
fn disjunctive() -> Bowl {
    let space = SearchSpace::builder()
        .integer("a", 0, 10)
        .real("x", 0.0, 1.0)
        .constraint(Constraint::new("slab", "a <= 1 || a >= 9", |s, c| {
            let a = s.get_i64(c, "a").unwrap_or(5);
            a <= 1 || a >= 9
        }))
        .build();
    let default = space
        .config_from_pairs(&[("a", 0.0), ("x", 0.5)])
        .expect("default in domain");
    Bowl { space, default }
}

fn small_bo(seed: u64) -> BoConfig {
    BoConfig {
        n_init: 4,
        max_evals: 10,
        n_candidates: 32,
        n_local: 4,
        seed,
        ..Default::default()
    }
}

fn outcome_hash(o: &SearchOutcome) -> u64 {
    let mut s = format!("{:?}|{:016x}", o.best_config, o.best_value.to_bits());
    for (u, y) in &o.history {
        s += &format!(";{u:?}|{:016x}", y.to_bits());
    }
    fnv1a(s.as_bytes())
}

/// `[random_search, gather_insights, dropout_bo, BoSearch::run]` hashes.
fn draw_hashes<O: Objective>(objective: &O) -> [u64; 4] {
    let random = random_search(
        objective,
        &RandomSearchConfig {
            n_evals: 12,
            seed: 5,
        },
    )
    .expect("random search draws");
    let insights = gather_insights(
        objective,
        &InsightsConfig {
            n_samples: 16,
            seed: 6,
            forest: RandomForestConfig {
                n_trees: 8,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("insights draw");
    let mut samples = String::new();
    for (cfg, y) in &insights.samples {
        samples += &format!("{cfg:?}|{:016x};", y.to_bits());
    }
    let dropout = dropout_bo(objective, 2, &small_bo(7)).expect("dropout BO draws");
    let sub = Subspace::full(objective.space(), objective.default_config()).expect("subspace");
    let bo = BoSearch::new(small_bo(8))
        .run(&sub, |c| objective.evaluate(c).total)
        .expect("BO draws");
    [
        outcome_hash(&random),
        fnv1a(samples.as_bytes()),
        outcome_hash(&dropout),
        outcome_hash(&bo),
    ]
}

#[test]
fn full_cube_rejection_draws_are_pinned() {
    let app = StencilApp::new(StencilProblem::benchmark());
    assert_eq!(
        draw_hashes(&app),
        [
            0x74e4_d66f_7ca7_5bb7,
            0x2cad_a9d0_ea36_1351,
            0x5c2e_b715_f717_5a4f,
            0xc0dc_3630_83a6_54af,
        ],
        "stencil draws moved"
    );
}

#[test]
fn narrowed_box_draws_are_pinned() {
    assert_eq!(
        draw_hashes(&boxed()),
        [
            0xa9eb_f069_8632_0f90,
            0x6b75_f9bb_9b31_81f5,
            0xb801_5824_d01d_ec3a,
            0x0652_8e6c_4159_4054,
        ],
        "box draws moved"
    );
}

#[test]
fn disjoint_slab_draws_are_pinned() {
    assert_eq!(
        draw_hashes(&disjunctive()),
        [
            0xf461_446c_00d4_c9ff,
            0xb967_75e3_1aa2_4911,
            0xbd6c_a457_5f2f_d6a3,
            0x5d7b_faea_1289_9883,
        ],
        "slab draws moved"
    );
}
