//! Random-forest regression with feature importance, from scratch.
//!
//! The paper's insights phase runs "a feature importance analysis,
//! leveraging Random Forest trees" over sampled (configuration, runtime)
//! data. This module provides that tool: CART regression trees grown on
//! bootstrap resamples with per-split feature subsampling, plus
//! **impurity importance** (mean decrease in variance, normalized) and the
//! out-of-bag R² that says how far to trust it.
//!
//! Trees are trained in parallel with scoped threads (one task per tree —
//! coarse-grained, embarrassingly parallel, the Rayon-style sweet spot).

use crate::{Result, StatsError};
use cets_linalg::vecops;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// How many candidate features each split considers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaxFeatures {
    /// All features (classic bagging).
    All,
    /// `ceil(sqrt(d))` — the usual random-forest default.
    Sqrt,
    /// An explicit count (clamped to `[1, d]`).
    Count(usize),
}

/// Forest hyperparameters.
#[derive(Debug, Clone)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required to split an internal node.
    pub min_samples_split: usize,
    /// Minimum samples in each leaf.
    pub min_samples_leaf: usize,
    /// Feature subsampling policy per split.
    pub max_features: MaxFeatures,
    /// Draw bootstrap resamples (true) or train every tree on the full set.
    pub bootstrap: bool,
    /// RNG seed; tree `t` uses `seed + t`.
    pub seed: u64,
    /// Number of training threads (1 = sequential).
    pub threads: usize,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        RandomForestConfig {
            n_trees: 100,
            max_depth: 16,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::Sqrt,
            bootstrap: true,
            seed: 0,
            threads: 4,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

#[derive(Debug, Clone)]
struct Tree {
    nodes: Vec<Node>,
    /// Sum of weighted impurity decreases per feature, for importance.
    impurity_decrease: Vec<f64>,
    /// Out-of-bag sample indices (empty when bootstrap = false).
    oob: Vec<usize>,
}

impl Tree {
    fn predict(&self, row: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// A trained random-forest regressor.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<Tree>,
    n_features: usize,
    importances: Vec<f64>,
}

impl RandomForest {
    /// Fit a forest on rows `x` (shape `n × d`) and targets `y` (length `n`).
    pub fn fit(x: &[Vec<f64>], y: &[f64], cfg: &RandomForestConfig) -> Result<Self> {
        let n = x.len();
        if n == 0 || y.len() != n {
            return Err(StatsError::BadShape(format!(
                "fit: {n} rows vs {} targets",
                y.len()
            )));
        }
        let d = x[0].len();
        if d == 0 || x.iter().any(|r| r.len() != d) {
            return Err(StatsError::BadShape("fit: ragged or empty rows".into()));
        }
        if cfg.n_trees == 0 {
            return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
        }

        let threads = cfg.threads.max(1).min(cfg.n_trees);
        let mut trees: Vec<Option<Tree>> = vec![None; cfg.n_trees];
        if threads == 1 {
            for (t, slot) in trees.iter_mut().enumerate() {
                *slot = Some(grow_tree(x, y, cfg, t as u64));
            }
        } else {
            // One worker per chunk of trees; each tree is seeded by its
            // global index so threading never changes results.
            let chunk = cfg.n_trees.div_ceil(threads);
            crossbeam::thread::scope(|s| {
                for (ci, slot_chunk) in trees.chunks_mut(chunk).enumerate() {
                    let base = ci * chunk;
                    s.spawn(move |_| {
                        for (off, slot) in slot_chunk.iter_mut().enumerate() {
                            *slot = Some(grow_tree(x, y, cfg, (base + off) as u64));
                        }
                    });
                }
            })
            .map_err(|_| StatsError::Worker("forest worker panicked".into()))?;
        }
        let trees: Vec<Tree> = trees
            .into_iter()
            .map(|t| t.ok_or_else(|| StatsError::Worker("tree slot left unfilled".into())))
            .collect::<Result<_>>()?;

        // Impurity importances: average over trees, normalize to sum 1.
        let mut importances = vec![0.0; d];
        for t in &trees {
            for (f, v) in t.impurity_decrease.iter().enumerate() {
                importances[f] += v;
            }
        }
        let total: f64 = importances.iter().sum();
        if total > 0.0 {
            for v in &mut importances {
                *v /= total;
            }
        }
        Ok(RandomForest {
            trees,
            n_features: d,
            importances,
        })
    }

    /// Predict one row (mean of tree predictions).
    pub fn predict(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.n_features, "predict: wrong feature count");
        self.trees.iter().map(|t| t.predict(row)).sum::<f64>() / self.trees.len() as f64
    }

    /// Predict many rows.
    pub fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|r| self.predict(r)).collect()
    }

    /// Normalized impurity-based feature importances (sum to 1 unless the
    /// target was constant, in which case all are 0).
    pub fn feature_importances(&self) -> &[f64] {
        &self.importances
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Out-of-bag R² score. `None` when bootstrap was disabled or no row
    /// ever landed out-of-bag.
    pub fn oob_r2(&self, x: &[Vec<f64>], y: &[f64]) -> Option<f64> {
        let preds = self.oob_predictions(x)?;
        let pairs: Vec<(f64, f64)> = preds
            .iter()
            .zip(y)
            .filter_map(|(p, &t)| p.map(|p| (p, t)))
            .collect();
        if pairs.len() < 2 {
            return None;
        }
        let targets: Vec<f64> = pairs.iter().map(|&(_, t)| t).collect();
        let my = vecops::mean(&targets);
        let ss_res: f64 = pairs.iter().map(|&(p, t)| (t - p) * (t - p)).sum();
        let ss_tot: f64 = targets.iter().map(|&t| (t - my) * (t - my)).sum();
        if ss_tot == 0.0 {
            return None;
        }
        Some(1.0 - ss_res / ss_tot)
    }

    fn oob_predictions(&self, x: &[Vec<f64>]) -> Option<Vec<Option<f64>>> {
        let mut sums = vec![0.0; x.len()];
        let mut counts = vec![0usize; x.len()];
        let mut any = false;
        for t in &self.trees {
            for &i in &t.oob {
                sums[i] += t.predict(&x[i]);
                counts[i] += 1;
                any = true;
            }
        }
        if !any {
            return None;
        }
        Some(
            sums.iter()
                .zip(&counts)
                .map(|(&s, &c)| if c > 0 { Some(s / c as f64) } else { None })
                .collect(),
        )
    }
}

/// Grow one tree on a bootstrap resample.
fn grow_tree(x: &[Vec<f64>], y: &[f64], cfg: &RandomForestConfig, tree_idx: u64) -> Tree {
    let n = x.len();
    let d = x[0].len();
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(tree_idx));

    let (indices, oob) = if cfg.bootstrap {
        let mut in_bag = vec![false; n];
        let idx: Vec<usize> = (0..n)
            .map(|_| {
                let i = rng.random_range(0..n);
                in_bag[i] = true;
                i
            })
            .collect();
        let oob: Vec<usize> = (0..n).filter(|&i| !in_bag[i]).collect();
        (idx, oob)
    } else {
        ((0..n).collect(), vec![])
    };

    let m_features = match cfg.max_features {
        MaxFeatures::All => d,
        MaxFeatures::Sqrt => (d as f64).sqrt().ceil() as usize,
        MaxFeatures::Count(c) => c.clamp(1, d),
    };

    let mut tree = Tree {
        nodes: Vec::new(),
        impurity_decrease: vec![0.0; d],
        oob,
    };
    build_node(
        x, y, indices, 0, cfg, m_features, &mut rng, &mut tree, n as f64,
    );
    tree
}

/// Recursively build a node; returns its index in `tree.nodes`.
#[allow(clippy::too_many_arguments)]
fn build_node(
    x: &[Vec<f64>],
    y: &[f64],
    indices: Vec<usize>,
    depth: usize,
    cfg: &RandomForestConfig,
    m_features: usize,
    rng: &mut StdRng,
    tree: &mut Tree,
    n_total: f64,
) -> usize {
    let ys: Vec<f64> = indices.iter().map(|&i| y[i]).collect();
    let node_mean = vecops::mean(&ys);
    let node_var = population_variance(&ys);

    let make_leaf =
        depth >= cfg.max_depth || indices.len() < cfg.min_samples_split || node_var <= 1e-24;
    if !make_leaf {
        if let Some(split) = best_split(x, y, &indices, m_features, cfg.min_samples_leaf, rng) {
            let (feature, threshold, gain, left_idx, right_idx) = split;
            // Weighted impurity decrease for importance accounting.
            tree.impurity_decrease[feature] += gain * indices.len() as f64 / n_total;
            let placeholder = tree.nodes.len();
            tree.nodes.push(Node::Leaf { value: node_mean }); // patched below
            let left = build_node(
                x,
                y,
                left_idx,
                depth + 1,
                cfg,
                m_features,
                rng,
                tree,
                n_total,
            );
            let right = build_node(
                x,
                y,
                right_idx,
                depth + 1,
                cfg,
                m_features,
                rng,
                tree,
                n_total,
            );
            tree.nodes[placeholder] = Node::Split {
                feature,
                threshold,
                left,
                right,
            };
            return placeholder;
        }
    }
    tree.nodes.push(Node::Leaf { value: node_mean });
    tree.nodes.len() - 1
}

fn population_variance(ys: &[f64]) -> f64 {
    if ys.is_empty() {
        return 0.0;
    }
    let m = vecops::mean(ys);
    ys.iter().map(|&v| (v - m) * (v - m)).sum::<f64>() / ys.len() as f64
}

type Split = (usize, f64, f64, Vec<usize>, Vec<usize>);

/// Best variance-reducing split over a random feature subset.
fn best_split(
    x: &[Vec<f64>],
    y: &[f64],
    indices: &[usize],
    m_features: usize,
    min_leaf: usize,
    rng: &mut StdRng,
) -> Option<Split> {
    let d = x[0].len();
    // Sample features without replacement (partial Fisher-Yates).
    let mut feats: Vec<usize> = (0..d).collect();
    for k in 0..m_features.min(d) {
        let j = rng.random_range(k..d);
        feats.swap(k, j);
    }
    let feats = &feats[..m_features.min(d)];

    let n = indices.len() as f64;
    let total_sum: f64 = indices.iter().map(|&i| y[i]).sum();
    let total_sq: f64 = indices.iter().map(|&i| y[i] * y[i]).sum();
    let parent_imp = total_sq / n - (total_sum / n) * (total_sum / n);

    let mut best: Option<Split> = None;
    let mut best_gain = 1e-12; // require strictly positive gain

    for &f in feats {
        let mut order: Vec<usize> = indices.to_vec();
        order.sort_by(|&a, &b| {
            x[a][f]
                .partial_cmp(&x[b][f])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut left_sum = 0.0;
        let mut left_sq = 0.0;
        for k in 0..order.len().saturating_sub(1) {
            let yi = y[order[k]];
            left_sum += yi;
            left_sq += yi * yi;
            let nl = (k + 1) as f64;
            let nr = n - nl;
            // Can't split between equal feature values.
            if x[order[k]][f] == x[order[k + 1]][f] {
                continue;
            }
            if (k + 1) < min_leaf || (order.len() - k - 1) < min_leaf {
                continue;
            }
            let right_sum = total_sum - left_sum;
            let right_sq = total_sq - left_sq;
            let imp_l = left_sq / nl - (left_sum / nl) * (left_sum / nl);
            let imp_r = right_sq / nr - (right_sum / nr) * (right_sum / nr);
            let gain = parent_imp - (nl / n) * imp_l - (nr / n) * imp_r;
            if gain > best_gain {
                best_gain = gain;
                let threshold = 0.5 * (x[order[k]][f] + x[order[k + 1]][f]);
                let (l, r): (Vec<usize>, Vec<usize>) =
                    indices.iter().partition(|&&i| x[i][f] <= threshold);
                best = Some((f, threshold, gain, l, r));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y depends only on feature 0; feature 1 is noise.
    fn signal_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(7);
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a: f64 = rng.random_range(-1.0..1.0);
            let b: f64 = rng.random_range(-1.0..1.0);
            x.push(vec![a, b]);
            y.push(3.0 * a + 0.01 * rng.random::<f64>());
        }
        (x, y)
    }

    #[test]
    fn fits_and_predicts_signal() {
        let (x, y) = signal_data(200);
        let f = RandomForest::fit(&x, &y, &RandomForestConfig::default()).unwrap();
        // Prediction at a known point should be close to 3*a.
        let p = f.predict(&[0.5, 0.0]);
        assert!((p - 1.5).abs() < 0.5, "prediction {p} too far from 1.5");
    }

    #[test]
    fn importance_identifies_signal_feature() {
        let (x, y) = signal_data(300);
        let f = RandomForest::fit(&x, &y, &RandomForestConfig::default()).unwrap();
        let imp = f.feature_importances();
        assert!(imp[0] > 0.8, "signal importance {:.3} too low", imp[0]);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn oob_r2_high_for_learnable_signal() {
        let (x, y) = signal_data(400);
        let f = RandomForest::fit(&x, &y, &RandomForestConfig::default()).unwrap();
        let r2 = f.oob_r2(&x, &y).unwrap();
        assert!(r2 > 0.8, "OOB R² {r2:.3} too low");
    }

    #[test]
    fn constant_target_gives_zero_importance() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, -(i as f64)]).collect();
        let y = vec![5.0; 50];
        let f = RandomForest::fit(&x, &y, &RandomForestConfig::default()).unwrap();
        assert!(f.feature_importances().iter().all(|&v| v == 0.0));
        assert_eq!(f.predict(&[25.0, -25.0]), 5.0);
    }

    #[test]
    fn deterministic_under_seed_and_threads() {
        let (x, y) = signal_data(100);
        let mut cfg = RandomForestConfig {
            n_trees: 20,
            ..Default::default()
        };
        cfg.threads = 1;
        let f1 = RandomForest::fit(&x, &y, &cfg).unwrap();
        cfg.threads = 4;
        let f2 = RandomForest::fit(&x, &y, &cfg).unwrap();
        let probe = vec![0.3, -0.2];
        assert_eq!(f1.predict(&probe), f2.predict(&probe));
        assert_eq!(f1.feature_importances(), f2.feature_importances());
    }

    #[test]
    fn shape_errors() {
        assert!(RandomForest::fit(&[], &[], &RandomForestConfig::default()).is_err());
        assert!(
            RandomForest::fit(&[vec![1.0]], &[1.0, 2.0], &RandomForestConfig::default()).is_err()
        );
        assert!(RandomForest::fit(
            &[vec![1.0], vec![1.0, 2.0]],
            &[1.0, 2.0],
            &RandomForestConfig::default()
        )
        .is_err());
        let cfg = RandomForestConfig {
            n_trees: 0,
            ..Default::default()
        };
        assert!(RandomForest::fit(&[vec![1.0]], &[1.0], &cfg).is_err());
    }

    #[test]
    fn no_bootstrap_has_no_oob() {
        let (x, y) = signal_data(50);
        let cfg = RandomForestConfig {
            bootstrap: false,
            n_trees: 5,
            ..Default::default()
        };
        let f = RandomForest::fit(&x, &y, &cfg).unwrap();
        assert!(f.oob_r2(&x, &y).is_none());
    }

    #[test]
    fn single_tree_step_function() {
        // A single deep tree should fit a step function exactly.
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 0.0 } else { 1.0 }).collect();
        let cfg = RandomForestConfig {
            n_trees: 1,
            bootstrap: false,
            max_features: MaxFeatures::All,
            ..Default::default()
        };
        let f = RandomForest::fit(&x, &y, &cfg).unwrap();
        assert_eq!(f.predict(&[3.0]), 0.0);
        assert_eq!(f.predict(&[15.0]), 1.0);
    }
}
