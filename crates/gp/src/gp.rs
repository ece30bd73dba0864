//! Exact Gaussian-process regression with maximum-likelihood training.

use crate::kernel::{Kernel, KernelKind, LOG_PARAM_RANGE};
use crate::optimize::{lbfgs, LbfgsOptions};
use crate::{GpError, Result};
use cets_linalg::{par, Cholesky, Matrix, ParConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::ops::Range;

/// Training configuration for [`Gp::train`].
#[derive(Debug, Clone)]
pub struct GpConfig {
    /// Covariance family.
    pub kernel: KernelKind,
    /// Number of random restarts for hyperparameter optimization (the first
    /// start is always the default kernel).
    pub n_restarts: usize,
    /// Seed for restart jitter.
    pub seed: u64,
    /// Lower bound on the noise variance (of standardized targets). HPC
    /// runtimes are noisy; a floor keeps the model from interpolating
    /// measurement jitter.
    pub noise_floor: f64,
    /// Also optimize the noise variance (otherwise it stays at the floor).
    pub optimize_noise: bool,
    /// Surrogate tier policy consulted by [`crate::Surrogate::train`]:
    /// exact GP below a training-set-size threshold, sparse (SGPR) at or
    /// above it, or an explicit override. Direct [`Gp::train`] calls
    /// ignore it.
    pub tier: crate::TierPolicy,
    /// Sparse-tier (SGPR) options, used when the tier policy selects the
    /// sparse surrogate.
    pub sparse: crate::SparseOptions,
    /// Worker budget for training. The budget is split across the two
    /// parallel levels — L-BFGS restarts on the outside, kernel builds
    /// and Cholesky panels on the inside — and every split
    /// produces bit-identical hyperparameters (fixed partitioning,
    /// fixed-order winner selection).
    pub par: ParConfig,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            kernel: KernelKind::Matern52,
            n_restarts: 3,
            seed: 0,
            noise_floor: 1e-6,
            optimize_noise: true,
            tier: crate::TierPolicy::default(),
            sparse: crate::SparseOptions::default(),
            par: ParConfig::default(),
        }
    }
}

/// Conditioning ceiling for the incremental-update path: when
/// [`Gp::chol_condition_estimate`] crosses this after a [`Gp::append`],
/// debug builds assert. The value matches the "living off jitter" rule of
/// thumb documented on [`Gp::kernel_condition_number`]; legitimate BO
/// appends stay orders of magnitude below it (the noise floor keeps every
/// pivot at `√noise` or larger).
pub const APPEND_CONDITION_LIMIT: f64 = 1e12;

/// A fitted Gaussian process.
///
/// Fitting cost is one `O(N³)` Cholesky factorization plus `O(N²)` per
/// prediction — the scaling the paper leans on when it argues that joint
/// high-dimensional searches (which need many more evaluations `N`) pay a
/// super-linear search-time penalty.
#[derive(Debug, Clone)]
pub struct Gp {
    x: Vec<Vec<f64>>,
    /// Standardized targets (kept for incremental updates).
    ys: Vec<f64>,
    kernel: Kernel,
    noise: f64,
    chol: Cholesky,
    alpha: Vec<f64>,
    y_mean: f64,
    y_std: f64,
    lml: f64,
    train_evals: usize,
}

impl Gp {
    /// Fit with *fixed* hyperparameters (no optimization).
    pub fn fit(x: &[Vec<f64>], y: &[f64], kernel: Kernel, noise: f64) -> Result<Self> {
        let n = x.len();
        if n == 0 || y.len() != n {
            return Err(GpError::BadShape(format!(
                "{n} inputs vs {} targets",
                y.len()
            )));
        }
        let d = kernel.dim();
        if x.iter().any(|r| r.len() != d) {
            return Err(GpError::BadShape(format!(
                "input dim mismatch (kernel expects {d})"
            )));
        }
        check_finite(x, y)?;
        let (y_mean, y_std) = standardization(y);
        let ys: Vec<f64> = y.iter().map(|&v| (v - y_mean) / y_std).collect();

        let mut k = gram(x, &kernel);
        k.add_diag(noise);
        let chol = Cholesky::new_jittered(&k).map_err(|e| GpError::Factorization(e.to_string()))?;
        let alpha = chol.solve_vec(&ys);

        let data_fit: f64 = ys.iter().zip(&alpha).map(|(&a, &b)| a * b).sum();
        let lml = -0.5 * data_fit
            - 0.5 * chol.log_det()
            - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();

        Ok(Gp {
            x: x.to_vec(),
            ys,
            kernel,
            noise,
            chol,
            alpha,
            y_mean,
            y_std,
            lml,
            train_evals: 0,
        })
    }

    /// Train with maximum-likelihood hyperparameters: multi-start
    /// box-projected L-BFGS on the analytic gradient of the negative log
    /// marginal likelihood over `θ = [ln σ², ln ℓ₁.., ln ℓ_d, (ln σ_n²)]`.
    ///
    /// The box is `[−8, 8]` on the kernel log-parameters and
    /// `[max(ln noise_floor, −27), 3]` on the noise, the ranges
    /// [`Kernel::from_log_params`] and the noise floor allow.
    /// [`Gp::train_evals`] reports the likelihood evaluations spent.
    pub fn train(x: &[Vec<f64>], y: &[f64], cfg: &GpConfig) -> Result<Self> {
        let n = x.len();
        if n == 0 || y.len() != n {
            return Err(GpError::BadShape(format!(
                "{n} inputs vs {} targets",
                y.len()
            )));
        }
        let d = x[0].len();
        if d == 0 || x.iter().any(|r| r.len() != d) {
            return Err(GpError::BadShape("ragged or zero-dim inputs".into()));
        }
        check_finite(x, y)?;

        let (y_mean, y_std) = standardization(y);
        let ys: Vec<f64> = y.iter().map(|&v| (v - y_mean) / y_std).collect();

        // The worker budget splits across two levels: independent L-BFGS
        // restarts on the outside (near-perfect scaling) and the
        // per-evaluation kernel build / Cholesky inside each restart
        // taking whatever is left over.
        let threads = cfg.par.resolve();
        let starts = cfg.n_restarts.max(1);
        let ow = threads.min(starts);
        let iw = (threads / ow).max(1);

        // Every likelihood evaluation of every restart rebuilds the pair
        // distances from one shared dimension-major copy of the inputs,
        // so training holds O(n·d) input data, not O(n²·d).
        let floor = cfg.noise_floor.max(1e-12);
        let problem = NegLml {
            xt: dim_major(x),
            ys,
            kind: cfg.kernel,
            optimize_noise: cfg.optimize_noise,
            noise_floor: floor,
        };
        let bounds = problem.bounds(d);

        // One restart: L-BFGS from `p0` with its own scratch so restarts
        // can run concurrently; returns the evaluations it spent too.
        let run_start = |p0: &[f64]| -> (Vec<f64>, f64, usize) {
            let mut scratch = LmlScratch::new(n);
            let mut evals = 0;
            let (p, f) = lbfgs(
                |p, grad| {
                    evals += 1;
                    problem
                        .value_grad(p, grad, &mut scratch, iw)
                        .unwrap_or(f64::INFINITY)
                },
                p0,
                &bounds,
                &LbfgsOptions::default(),
            );
            (p, f, evals)
        };

        // Start points are pre-drawn from the single RNG stream in restart
        // order (L-BFGS itself consumes no randomness), so the draws are
        // identical to the sequential loop's; the winner fold below walks
        // restarts in the same ascending order with the same strict
        // comparison, making the result bit-identical at any worker count.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let p0s: Vec<Vec<f64>> = (0..starts)
            .map(|s| {
                let mut p0 = Kernel::new(cfg.kernel, d).to_log_params();
                if cfg.optimize_noise {
                    p0.push((1e-3_f64).ln());
                }
                if s > 0 {
                    for v in &mut p0 {
                        *v += rng.random_range(-1.5..1.5);
                    }
                }
                p0
            })
            .collect();
        let mut best: Option<(Vec<f64>, f64)> = None;
        let mut train_evals = 0;
        for (p, f, evals) in par::map_indexed(ow, starts, |s| run_start(&p0s[s])) {
            train_evals += evals;
            if f.is_finite() && best.as_ref().is_none_or(|(_, bf)| f < *bf) {
                best = Some((p, f));
            }
        }
        let (p, _) = best.ok_or_else(|| {
            GpError::TrainingFailed("no restart produced a finite likelihood".into())
        })?;
        let (kernel, noise) = hyperparameters(cfg.kernel, &p, cfg.optimize_noise, floor);
        let mut gp = Self::fit(x, y, kernel, noise)?;
        gp.train_evals = train_evals;
        Ok(gp)
    }

    /// Predictive mean and variance (original units) at `x_star`.
    pub fn predict(&self, x_star: &[f64]) -> (f64, f64) {
        let k_star: Vec<f64> = self
            .x
            .iter()
            .map(|xi| self.kernel.eval(xi, x_star))
            .collect();
        let mean_std: f64 = k_star.iter().zip(&self.alpha).map(|(&a, &b)| a * b).sum();
        let v = self.chol.solve_lower(&k_star);
        let var_std = (self.kernel.diag_value() + self.noise
            - v.iter().map(|&x| x * x).sum::<f64>())
        .max(0.0);
        (
            mean_std * self.y_std + self.y_mean,
            var_std * self.y_std * self.y_std,
        )
    }

    /// Predictive mean only (saves the triangular solve).
    pub fn predict_mean(&self, x_star: &[f64]) -> f64 {
        let k_star: Vec<f64> = self
            .x
            .iter()
            .map(|xi| self.kernel.eval(xi, x_star))
            .collect();
        let mean_std: f64 = k_star.iter().zip(&self.alpha).map(|(&a, &b)| a * b).sum();
        mean_std * self.y_std + self.y_mean
    }

    /// Predictive mean and variance (original units) at every point of a
    /// batch — the vectorized form of [`Gp::predict`].
    ///
    /// Builds the `n × m` cross-covariance block K★ in one pass, computes
    /// all means with a single row-sweep against `α`, and runs one blocked
    /// multi-column forward solve ([`Cholesky::solve_lower_multi`]) for
    /// the variances — no per-candidate `Vec` allocations. This is what
    /// the BO candidate-scoring loop calls.
    ///
    /// Guarantees:
    /// * **chunk invariance** — every candidate's result is computed by a
    ///   fixed per-column operation sequence, so splitting a batch into
    ///   chunks (in any sizes) and concatenating yields bit-identical
    ///   results. The BO loop's parallel scorer relies on this.
    /// * agreement with [`Gp::predict`] to ulp-level tolerance only: the
    ///   batch path scales squared distances by `1/ℓ²` where the scalar
    ///   path divides by `ℓ` before squaring.
    ///
    /// Every point must have the kernel's input dimensionality — callers
    /// pass active-space points of fixed arity, and a debug assertion
    /// guards it.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        let m = xs.len();
        let n = self.x.len();
        if m == 0 {
            return Vec::new();
        }
        debug_assert!(xs.iter().all(|p| p.len() == self.kernel.dim()));
        let w = self.kernel.inv_sq_lengthscales();
        // Dimension-major transpose of the queries: the r² accumulation
        // below becomes `d` contiguous element-wise sweeps per training
        // row (independent accumulators, vectorizable) instead of an
        // FP-latency-bound dot product per (i, j) entry.
        let qt = dim_major(xs);
        let mut kstar = Matrix::zeros(n, m);
        for (i, xi) in self.x.iter().enumerate() {
            let row = kstar.row_mut(i);
            for (k, (&xik, &wk)) in xi.iter().zip(&w).enumerate() {
                let qk = &qt[k * m..(k + 1) * m];
                for (rj, &qv) in row.iter_mut().zip(qk) {
                    let dv = xik - qv;
                    *rj += wk * dv * dv;
                }
            }
            for rj in row.iter_mut() {
                *rj = self.kernel.eval_r2(*rj);
            }
        }
        // Means: one sweep over K★'s rows, ascending i per column.
        let mut mean = vec![0.0; m];
        for (i, &ai) in self.alpha.iter().enumerate() {
            for (mu, &kv) in mean.iter_mut().zip(kstar.row(i)) {
                *mu += ai * kv;
            }
        }
        // Variances: V = L⁻¹ K★ in place, then column sums of squares.
        if self.chol.solve_lower_multi(&mut kstar).is_err() {
            // Unreachable (K★ has n rows by construction); fall back to
            // the scalar path rather than panicking.
            return xs.iter().map(|p| self.predict(p)).collect();
        }
        let mut sq = vec![0.0; m];
        for i in 0..n {
            for (s, &v) in sq.iter_mut().zip(kstar.row(i)) {
                *s += v * v;
            }
        }
        let prior = self.kernel.diag_value() + self.noise;
        let var_scale = self.y_std * self.y_std;
        mean.iter()
            .zip(&sq)
            .map(|(&mu, &s)| {
                (
                    mu * self.y_std + self.y_mean,
                    (prior - s).max(0.0) * var_scale,
                )
            })
            .collect()
    }

    /// Log marginal likelihood of the (standardized) training data.
    pub fn lml(&self) -> f64 {
        self.lml
    }

    /// The fitted kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The fitted noise variance (standardized-target units).
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// Number of training points.
    pub fn n_train(&self) -> usize {
        self.x.len()
    }

    /// Likelihood (value-and-gradient) evaluations [`Gp::train`] ran,
    /// summed over its restarts; 0 for a [`Gp::fit`] model. An exact work
    /// count: each evaluation is one `O(n³)` factorization plus inverse.
    pub fn train_evals(&self) -> usize {
        self.train_evals
    }

    /// Spectral condition number of the (noise-augmented) kernel matrix —
    /// a numerical-health diagnostic. Values above ~1e12 mean the
    /// factorization is living off jitter and predictions near data points
    /// should not be over-trusted; common causes are near-duplicate
    /// observations (an over-exploitative acquisition) or a length-scale
    /// far larger than the data spread.
    pub fn kernel_condition_number(&self) -> f64 {
        let n = self.x.len();
        let mut k = Matrix::from_fn(n, n, |i, j| self.kernel.eval(&self.x[i], &self.x[j]));
        k.add_diag(self.noise);
        match cets_linalg::SymEigen::new(&k) {
            Ok(e) => e.condition_number(),
            Err(_) => f64::INFINITY,
        }
    }

    /// Cheap conditioning estimate from the existing Cholesky factor:
    /// `(max_i L_ii / min_i L_ii)²`. A lower bound on
    /// [`Gp::kernel_condition_number`] at `O(n)` cost instead of the
    /// eigendecomposition's `O(n³)`, so it can run on every incremental
    /// update. It is exactly the quantity [`Gp::append`] degrades: each
    /// near-duplicate observation appends a tiny pivot to the factor's
    /// diagonal, and the ratio explodes long before the factorization
    /// fails outright.
    pub fn chol_condition_estimate(&self) -> f64 {
        let diag = self.chol.l().diag();
        let mut lo = f64::INFINITY;
        let mut hi = 0.0_f64;
        for v in diag {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if lo <= 0.0 {
            return f64::INFINITY;
        }
        let r = hi / lo;
        r * r
    }

    /// Leave-one-out cross-validation residuals, computed in closed form
    /// from the existing factorization (Sundararajan & Keerthi): for each
    /// training point, `mu_i = y_i − α_i / [K⁻¹]_ii` and
    /// `σ²_i = 1 / [K⁻¹]_ii` — no refitting. Returns
    /// `(loo_means, loo_variances)` in original target units.
    ///
    /// Use this to gauge surrogate quality during a search: systematically
    /// poor LOO predictions mean the acquisition is flying blind (e.g. the
    /// budget is too small for the dimensionality — the paper's argument
    /// for capping searches at 10 dimensions).
    pub fn loo_cv(&self) -> (Vec<f64>, Vec<f64>) {
        let n = self.x.len();
        let k_diag = self.chol.inv_diag();
        let mut means = Vec::with_capacity(n);
        let mut vars = Vec::with_capacity(n);
        for (i, &kd) in k_diag.iter().enumerate().take(n) {
            let kii = kd.max(1e-300);
            let mu_std = self.ys[i] - self.alpha[i] / kii;
            let var_std = 1.0 / kii;
            means.push(mu_std * self.y_std + self.y_mean);
            vars.push(var_std * self.y_std * self.y_std);
        }
        (means, vars)
    }

    /// LOO-CV pseudo R²: `1 − Σ(y_i − mu_i)² / Σ(y_i − ȳ)²`. `None` when
    /// the targets are constant.
    pub fn loo_r2(&self) -> Option<f64> {
        let (means, _) = self.loo_cv();
        let y: Vec<f64> = self
            .ys
            .iter()
            .map(|&v| v * self.y_std + self.y_mean)
            .collect();
        let ybar = y.iter().sum::<f64>() / y.len() as f64;
        let ss_tot: f64 = y.iter().map(|&v| (v - ybar) * (v - ybar)).sum();
        if ss_tot <= 0.0 {
            return None;
        }
        let ss_res: f64 = y
            .iter()
            .zip(&means)
            .map(|(&yi, &mi)| (yi - mi) * (yi - mi))
            .sum();
        Some(1.0 - ss_res / ss_tot)
    }

    /// Absorb one new observation in `O(n²)` via a bordered Cholesky
    /// update — the per-iteration path of the BO loop between full
    /// hyperparameter retrainings.
    ///
    /// The target standardization constants are kept from the original
    /// fit (standardization is an affine reparametrization, so predictions
    /// remain exact; the constants are merely slightly stale for numerical
    /// conditioning). Fails when the bordered kernel matrix loses positive
    /// definiteness (e.g. a near-duplicate input); callers should fall
    /// back to a fresh [`Gp::fit`].
    ///
    /// **Refit contract.** Appends accumulate conditioning damage that a
    /// successful return does not signal: each one freezes the
    /// hyperparameters and standardization while adding a row to the
    /// factor, so a run of appends near existing observations shrinks the
    /// smallest Cholesky pivot monotonically. Callers must bound the
    /// number of consecutive appends and refit periodically — the BO
    /// loops do this via their `retrain_every` knob, retraining
    /// hyperparameters from scratch every `retrain_every` observations.
    /// Debug builds enforce the contract with an assertion on
    /// [`Gp::chol_condition_estimate`] (threshold
    /// [`APPEND_CONDITION_LIMIT`]); release builds skip the check, as a
    /// degraded-but-PD factor still predicts, just with less trustworthy
    /// uncertainties.
    pub fn append(&mut self, x_new: Vec<f64>, y_new: f64) -> Result<()> {
        if x_new.len() != self.kernel.dim() {
            return Err(GpError::BadShape(format!(
                "append: input dim {} != {}",
                x_new.len(),
                self.kernel.dim()
            )));
        }
        check_finite(std::slice::from_ref(&x_new), &[y_new])?;
        let col: Vec<f64> = self
            .x
            .iter()
            .map(|xi| self.kernel.eval(xi, &x_new))
            .collect();
        let diag = self.kernel.diag_value() + self.noise;
        self.chol
            .append(&col, diag)
            .map_err(|e| GpError::Factorization(e.to_string()))?;
        debug_assert!(
            self.chol_condition_estimate() < APPEND_CONDITION_LIMIT,
            "Gp::append: conditioning estimate {:.3e} exceeds {APPEND_CONDITION_LIMIT:.0e} \
             after {} appended observations — the caller is appending past the refit \
             contract (see Gp::append docs; retrain hyperparameters every \
             `retrain_every` observations)",
            self.chol_condition_estimate(),
            self.x.len() + 1,
        );
        self.x.push(x_new);
        self.ys.push((y_new - self.y_mean) / self.y_std);
        self.alpha = self.chol.solve_vec(&self.ys);
        let data_fit: f64 = self.ys.iter().zip(&self.alpha).map(|(&a, &b)| a * b).sum();
        self.lml = -0.5 * data_fit
            - 0.5 * self.chol.log_det()
            - 0.5 * self.x.len() as f64 * (2.0 * std::f64::consts::PI).ln();
        Ok(())
    }
}

/// Reject NaN/infinite inputs or targets before they reach a factorization:
/// a single poisoned entry spreads through the Cholesky and every
/// subsequent prediction without tripping any error.
pub(crate) fn check_finite(x: &[Vec<f64>], y: &[f64]) -> Result<()> {
    for (i, row) in x.iter().enumerate() {
        if row.iter().any(|v| !v.is_finite()) {
            return Err(GpError::NonFinite(format!(
                "input row {i} contains a non-finite coordinate"
            )));
        }
    }
    for (i, v) in y.iter().enumerate() {
        if !v.is_finite() {
            return Err(GpError::NonFinite(format!("target {i} is {v}")));
        }
    }
    Ok(())
}

pub(crate) fn standardization(y: &[f64]) -> (f64, f64) {
    let mean = cets_linalg::vecops::mean(y);
    let std = cets_linalg::vecops::std_dev(y);
    (mean, if std > 1e-12 { std } else { 1.0 })
}

/// The kernel Gram matrix `K(x, x)` (without noise), built from the lower
/// triangle only and mirrored — stationary kernels are exactly symmetric,
/// so this halves the evaluation count of a full `from_fn` build.
fn gram(x: &[Vec<f64>], kernel: &Kernel) -> Matrix {
    let n = x.len();
    let diag = kernel.diag_value();
    let mut k = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..i {
            let v = kernel.eval(&x[i], &x[j]);
            k[(i, j)] = v;
            k[(j, i)] = v;
        }
        k[(i, i)] = diag;
    }
    k
}

/// Dimension-major copy of equal-length points: `xt[k·n + j] = x_j[k]`.
pub(crate) fn dim_major(x: &[Vec<f64>]) -> Vec<f64> {
    let n = x.len();
    let d = x.first().map_or(0, Vec::len);
    let mut xt = vec![0.0; d * n];
    for (j, row) in x.iter().enumerate() {
        for (k, &v) in row.iter().enumerate() {
            xt[k * n + j] = v;
        }
    }
    xt
}

/// Weighted squared distances of the pairs `(i, j)`, `j < i`, of the rows
/// `i ∈ rows`: `r2[p] = Σ_k w_k (x_ik − x_jk)²`, where `p` counts those
/// pairs in row order, read from the dimension-major copy `xt` of `n`
/// points. Each entry starts at `0.0` and adds `w_k · (Δ · Δ)` in
/// ascending `k`, so it is bit-identical however a caller splits the
/// rows. Up to four dimensions share each contiguous, vectorizable sweep
/// over a row.
pub(crate) fn weighted_r2_rows(
    xt: &[f64],
    n: usize,
    w: &[f64],
    rows: Range<usize>,
    r2: &mut [f64],
) {
    for (k0, width) in dim_groups(w.len()) {
        let rows = rows.clone();
        match width {
            1 => r2_group::<1>(xt, n, w, k0, rows, r2),
            2 => r2_group::<2>(xt, n, w, k0, rows, r2),
            3 => r2_group::<3>(xt, n, w, k0, rows, r2),
            _ => r2_group::<4>(xt, n, w, k0, rows, r2),
        }
    }
}

/// `Σ_p c_p (x_ik − x_jk)²` over every pair `p = (i, j)`, `j < i`, of the
/// `n` points in row order, added to `acc[k]` for each dimension `k` in
/// ascending `p`; `xt` is the dimension-major copy of the points. Up to
/// four dimensions share each pass over `c`, so their independent sums
/// overlap instead of each waiting on its last addition.
fn contract_pairs(xt: &[f64], n: usize, c: &[f64], acc: &mut [f64]) {
    for (k0, width) in dim_groups(acc.len()) {
        match width {
            1 => contract_group::<1>(xt, n, k0, c, acc),
            2 => contract_group::<2>(xt, n, k0, c, acc),
            3 => contract_group::<3>(xt, n, k0, c, acc),
            _ => contract_group::<4>(xt, n, k0, c, acc),
        }
    }
}

/// The `d` dimensions as consecutive `(first, width)` groups: the `d mod
/// 4` leading ones, then fours.
fn dim_groups(d: usize) -> impl Iterator<Item = (usize, usize)> {
    let lead = d % 4;
    (lead > 0)
        .then_some((0, lead))
        .into_iter()
        .chain((lead..d).step_by(4).map(|k0| (k0, 4)))
}

/// The columns of dimensions `k0..k0 + G` in the dimension-major copy.
fn columns<const G: usize>(xt: &[f64], n: usize, k0: usize) -> [&[f64]; G] {
    std::array::from_fn(|q| &xt[(k0 + q) * n..(k0 + q + 1) * n])
}

/// [`weighted_r2_rows`] for dimensions `k0..k0 + G`; the group at `k0 = 0`
/// starts each entry at `0.0`.
#[inline(always)]
fn r2_group<const G: usize>(
    xt: &[f64],
    n: usize,
    w: &[f64],
    k0: usize,
    rows: Range<usize>,
    r2: &mut [f64],
) {
    let cols = columns::<G>(xt, n, k0);
    let wq: [f64; G] = std::array::from_fn(|q| w[k0 + q]);
    let mut base = 0;
    for i in rows {
        let y: [f64; G] = std::array::from_fn(|q| cols[q][i]);
        // Slicing every column to the row's length lets the compiler drop
        // the bounds checks from the loop and vectorize it.
        let xs: [&[f64]; G] = std::array::from_fn(|q| &cols[q][..i]);
        let out = &mut r2[base..base + i];
        for j in 0..i {
            let mut s = if k0 == 0 { 0.0 } else { out[j] };
            for q in 0..G {
                let dv = y[q] - xs[q][j];
                s += wq[q] * (dv * dv);
            }
            out[j] = s;
        }
        base += i;
    }
}

/// [`contract_pairs`] for dimensions `k0..k0 + G`.
#[inline(always)]
fn contract_group<const G: usize>(xt: &[f64], n: usize, k0: usize, c: &[f64], acc: &mut [f64]) {
    let cols = columns::<G>(xt, n, k0);
    let mut s: [f64; G] = std::array::from_fn(|q| acc[k0 + q]);
    let mut base = 0;
    for i in 1..n {
        let y: [f64; G] = std::array::from_fn(|q| cols[q][i]);
        let xs: [&[f64]; G] = std::array::from_fn(|q| &cols[q][..i]);
        let cr = &c[base..base + i];
        for j in 0..i {
            for q in 0..G {
                let dv = y[q] - xs[q][j];
                s[q] += cr[j] * (dv * dv);
            }
        }
        base += i;
    }
    acc[k0..k0 + G].copy_from_slice(&s);
}

/// Range of the log noise variance `ln σ_n²` (before the noise floor).
const LOG_NOISE_RANGE: (f64, f64) = (-27.0, 3.0);

/// Kernel and noise variance at `θ = [ln σ², ln ℓ₁.., ln ℓ_d, (ln σ_n²)]`,
/// the parameter vector both tiers train: the kernel log-parameters are
/// clamped by [`Kernel::from_log_params`], the log noise to
/// [`LOG_NOISE_RANGE`] and then to `floor`. Without `optimize_noise`, `θ`
/// holds no noise coordinate and the noise stays at the floor.
pub(crate) fn hyperparameters(
    kind: KernelKind,
    p: &[f64],
    optimize_noise: bool,
    floor: f64,
) -> (Kernel, f64) {
    if optimize_noise {
        let (kp, np_) = p.split_at(p.len() - 1);
        let (lo, hi) = LOG_NOISE_RANGE;
        (
            Kernel::from_log_params(kind, kp),
            np_[0].clamp(lo, hi).exp().max(floor),
        )
    } else {
        (Kernel::from_log_params(kind, p), floor)
    }
}

/// The training objective of [`Gp::train`]: the negative log marginal
/// likelihood of the standardized targets `ys` as a function of
/// `θ = [ln σ², ln ℓ₁.., ln ℓ_d, (ln σ_n²)]`, with its analytic gradient
/// (Rasmussen & Williams 2006, eq. 5.9).
struct NegLml {
    /// The training inputs, dimension-major ([`dim_major`]).
    xt: Vec<f64>,
    ys: Vec<f64>,
    kind: KernelKind,
    /// Whether `ln σ_n²` is the last coordinate of `θ`; otherwise the
    /// noise variance stays at the floor.
    optimize_noise: bool,
    noise_floor: f64,
}

/// Reusable buffers for [`NegLml::value_grad`]: the kernel matrix, its
/// inverse and the packed pairwise vector survive across likelihood
/// evaluations, so the hot loop allocates nothing besides the Cholesky
/// factor itself.
struct LmlScratch {
    k: Matrix,
    k_inv: Matrix,
    /// Per pair: `r²`, then `∂K_ij/∂r² = σ² g′(r²)`, then that slope
    /// weighted by `W_ij`.
    pairs: Vec<f64>,
}

impl LmlScratch {
    fn new(n: usize) -> Self {
        LmlScratch {
            k: Matrix::zeros(n, n),
            k_inv: Matrix::zeros(n, n),
            pairs: vec![0.0; n * n.saturating_sub(1) / 2],
        }
    }
}

impl NegLml {
    /// The box L-BFGS searches: [`LOG_PARAM_RANGE`] on every kernel
    /// log-parameter and `[max(ln floor, −27), 3]` on the log noise, so
    /// the clamps of [`hyperparameters`] never bind inside it.
    fn bounds(&self, d: usize) -> Vec<(f64, f64)> {
        let mut b = vec![LOG_PARAM_RANGE; d + 1];
        if self.optimize_noise {
            let lo = self.noise_floor.ln().max(LOG_NOISE_RANGE.0);
            b.push((lo, lo.max(LOG_NOISE_RANGE.1)));
        }
        b
    }

    /// `−LML(θ)`, writing `∂(−LML)/∂θ` into `grad` (same length as `p`);
    /// `None` when the kernel matrix does not factorize even with jitter.
    ///
    /// With `α = K⁻¹y` and `W = ααᵀ − K⁻¹`, every partial is
    /// `−½ Σ_ij W_ij ∂K_ij/∂θ`:
    /// * `ln σ²`: `−½ Σ_ij W_ij (K_ij − σ_n² δ_ij)`;
    /// * `ln σ_n²`: `−½ σ_n² tr W`;
    /// * `ln ℓ_d`: `2 w_d Σ_{i>j} W_ij σ² g′(r²_ij) (x_id − x_jd)²` with
    ///   `w_d = ℓ_d⁻²`.
    ///
    /// The work is one pass over the pairs that rebuilds each `r²` from
    /// the dimension-major inputs and evaluates the kernel profile, one
    /// Cholesky, one triangular inverse for `K⁻¹`
    /// ([`Cholesky::inverse_into`]) and one pass that contracts the
    /// `W`-weighted slopes against the rebuilt squared differences. The
    /// kernel rebuild and the factorization use up to `workers` threads
    /// with fixed partitions; every reduction runs in a fixed sequential
    /// order, so the result is bit-identical at any worker count.
    ///
    /// Only the lower triangle and diagonal of `K` are written: both
    /// Cholesky kernels read nothing above the diagonal. Row `i`'s pairs
    /// are contiguous in the packed vector (base `i(i−1)/2`), so rows
    /// partition cleanly across workers.
    fn value_grad(
        &self,
        p: &[f64],
        grad: &mut [f64],
        scratch: &mut LmlScratch,
        workers: usize,
    ) -> Option<f64> {
        let n = self.ys.len();
        let (kernel, noise) = hyperparameters(self.kind, p, self.optimize_noise, self.noise_floor);
        let w = kernel.inv_sq_lengthscales();
        let LmlScratch { k, k_inv, pairs } = scratch;
        let diag = kernel.diag_value() + noise;
        // The rows' r² are rebuilt into their packed blocks; row i of K
        // then comes from its block, which is overwritten by the slopes
        // σ² g′(r²) the length-scale partials need.
        let fill_rows = |krows: &mut [f64], prs: &mut [f64], lo: usize, hi: usize| {
            weighted_r2_rows(&self.xt, n, &w, lo..hi, prs);
            let off = lo * lo.saturating_sub(1) / 2;
            for i in lo..hi {
                let base = i * i.saturating_sub(1) / 2 - off;
                let row = &mut krows[(i - lo) * n..(i - lo) * n + i + 1];
                for (rj, t) in row[..i].iter_mut().zip(&mut prs[base..base + i]) {
                    let (kv, slope) = kernel.eval_r2_with_slope(*t);
                    *rj = kv;
                    *t = slope;
                }
                row[i] = diag;
            }
        };
        let wk = if n * n < 4096 {
            1
        } else {
            workers.max(1).min(n)
        };
        if wk <= 1 {
            fill_rows(k.as_mut_slice(), pairs, 0, n);
        } else {
            // Row i costs i + 1 evaluations, so triangular ranges balance
            // the profile work; chunks are whole rows, hence disjoint.
            let mut rest: &mut [f64] = k.as_mut_slice();
            let mut prest: &mut [f64] = pairs;
            std::thread::scope(|scope| {
                for r in par::triangular_ranges(n, wk) {
                    let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(r.len() * n);
                    rest = tail;
                    let np_ = r.end * (r.end - 1) / 2 - r.start * r.start.saturating_sub(1) / 2;
                    let (pchunk, ptail) = std::mem::take(&mut prest).split_at_mut(np_);
                    prest = ptail;
                    let fill_rows = &fill_rows;
                    scope.spawn(move || fill_rows(chunk, pchunk, r.start, r.end));
                }
            });
        }
        let chol = Cholesky::new_jittered_with(k, workers).ok()?;
        let alpha = chol.solve_vec(&self.ys);
        let data_fit: f64 = self.ys.iter().zip(&alpha).map(|(&a, &b)| a * b).sum();
        let value = 0.5 * data_fit
            + 0.5 * chol.log_det()
            + 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
        chol.inverse_into(k_inv).ok()?;
        // One pass over the lower triangle of W = ααᵀ − K⁻¹: the
        // signal-variance partial's off-diagonal sum, tr W, and the
        // slopes weighted in place by W_ij.
        let mut w_k_off = 0.0;
        let mut tr_w = 0.0;
        for (i, &ai) in alpha.iter().enumerate() {
            let base = i * i.saturating_sub(1) / 2;
            let (inv_row, k_row) = (k_inv.row(i), k.row(i));
            for (((slope, &inv), &kv), &aj) in pairs[base..base + i]
                .iter_mut()
                .zip(&inv_row[..i])
                .zip(&k_row[..i])
                .zip(&alpha)
            {
                let wij = ai * aj - inv;
                w_k_off += wij * kv;
                *slope *= wij;
            }
            tr_w += ai * ai - inv_row[i];
        }
        grad[0] = -(w_k_off + 0.5 * kernel.variance() * tr_w);
        // The length-scale partials contract the weighted slopes against
        // the rebuilt squared differences, each from −0.0 as
        // `Iterator::sum` starts.
        let ls_grad = &mut grad[1..=w.len()];
        ls_grad.fill(-0.0);
        contract_pairs(&self.xt, n, pairs, ls_grad);
        for (g, &wd) in ls_grad.iter_mut().zip(&w) {
            *g *= 2.0 * wd;
        }
        if self.optimize_noise {
            grad[p.len() - 1] = -0.5 * noise * tr_w;
        }
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn interpolates_noise_free_data() {
        let x = grid_1d(10);
        let y: Vec<f64> = x.iter().map(|v| (4.0 * v[0]).sin()).collect();
        let gp = Gp::fit(&x, &y, Kernel::new(KernelKind::SquaredExp, 1), 1e-8).unwrap();
        for (xi, &yi) in x.iter().zip(&y) {
            let (m, _) = gp.predict(xi);
            assert!((m - yi).abs() < 1e-3, "at {xi:?}: {m} vs {yi}");
        }
    }

    #[test]
    fn non_finite_training_data_is_rejected() {
        let x = grid_1d(6);
        let mut y: Vec<f64> = x.iter().map(|v| v[0]).collect();
        y[3] = f64::NAN;
        let cfg = GpConfig::default();
        assert!(matches!(
            Gp::train(&x, &y, &cfg),
            Err(GpError::NonFinite(_))
        ));
        assert!(matches!(
            Gp::fit(&x, &y, Kernel::new(KernelKind::SquaredExp, 1), 1e-6),
            Err(GpError::NonFinite(_))
        ));
        let mut bad_x = x.clone();
        bad_x[1][0] = f64::INFINITY;
        let y_ok: Vec<f64> = x.iter().map(|v| v[0]).collect();
        assert!(matches!(
            Gp::train(&bad_x, &y_ok, &cfg),
            Err(GpError::NonFinite(_))
        ));
        // Incremental updates are guarded too.
        let mut gp = Gp::fit(&x, &y_ok, Kernel::new(KernelKind::SquaredExp, 1), 1e-6).unwrap();
        assert!(matches!(
            gp.append(vec![0.55], f64::NAN),
            Err(GpError::NonFinite(_))
        ));
        assert!(matches!(
            gp.append(vec![f64::NEG_INFINITY], 0.5),
            Err(GpError::NonFinite(_))
        ));
    }

    #[test]
    fn variance_grows_away_from_data() {
        let x = vec![vec![0.2], vec![0.4]];
        let y = vec![1.0, 2.0];
        let gp = Gp::fit(&x, &y, Kernel::new(KernelKind::Matern52, 1), 1e-6).unwrap();
        let (_, v_near) = gp.predict(&[0.3]);
        let (_, v_far) = gp.predict(&[0.95]);
        assert!(v_far > v_near);
        assert!(v_near >= 0.0);
    }

    #[test]
    fn train_recovers_smooth_function() {
        let x = grid_1d(25);
        let y: Vec<f64> = x.iter().map(|v| (3.0 * v[0]).sin()).collect();
        let gp = Gp::train(&x, &y, &GpConfig::default()).unwrap();
        let (m, _) = gp.predict(&[0.33]);
        assert!((m - (0.99_f64).sin()).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn train_beats_default_kernel_lml() {
        let x = grid_1d(20);
        // Rapidly varying function: needs a short lengthscale.
        let y: Vec<f64> = x.iter().map(|v| (20.0 * v[0]).sin()).collect();
        let default_fit = Gp::fit(&x, &y, Kernel::new(KernelKind::SquaredExp, 1), 1e-6).unwrap();
        let cfg = GpConfig {
            kernel: KernelKind::SquaredExp,
            ..Default::default()
        };
        let trained = Gp::train(&x, &y, &cfg).unwrap();
        assert!(
            trained.lml() > default_fit.lml(),
            "trained {} <= default {}",
            trained.lml(),
            default_fit.lml()
        );
        // The learned lengthscale should be short.
        assert!(trained.kernel().lengthscales()[0] < 0.3);
    }

    #[test]
    fn noisy_data_learns_noise() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = grid_1d(40);
        let y: Vec<f64> = x
            .iter()
            .map(|v| v[0] + 0.3 * (rng.random::<f64>() - 0.5))
            .collect();
        let gp = Gp::train(&x, &y, &GpConfig::default()).unwrap();
        // Should not interpolate: noise well above the floor.
        assert!(gp.noise() > 1e-4, "noise {} too small", gp.noise());
    }

    #[test]
    fn shape_errors() {
        assert!(Gp::fit(&[], &[], Kernel::new(KernelKind::SquaredExp, 1), 1e-6).is_err());
        assert!(Gp::fit(
            &[vec![0.0]],
            &[1.0, 2.0],
            Kernel::new(KernelKind::SquaredExp, 1),
            1e-6
        )
        .is_err());
        assert!(Gp::fit(
            &[vec![0.0, 1.0]],
            &[1.0],
            Kernel::new(KernelKind::SquaredExp, 1),
            1e-6
        )
        .is_err());
    }

    #[test]
    fn constant_targets_are_handled() {
        let x = grid_1d(5);
        let y = vec![2.0; 5];
        let gp = Gp::fit(&x, &y, Kernel::new(KernelKind::Matern32, 1), 1e-6).unwrap();
        let (m, v) = gp.predict(&[0.5]);
        assert!((m - 2.0).abs() < 1e-6);
        assert!(v >= 0.0);
    }

    #[test]
    fn duplicate_inputs_survive_via_jitter() {
        let x = vec![vec![0.5], vec![0.5], vec![0.9]];
        let y = vec![1.0, 1.1, 2.0];
        let gp = Gp::fit(&x, &y, Kernel::new(KernelKind::SquaredExp, 1), 1e-9).unwrap();
        let (m, _) = gp.predict(&[0.5]);
        assert!((m - 1.05).abs() < 0.2);
    }

    #[test]
    fn predict_mean_matches_predict() {
        let x = grid_1d(8);
        let y: Vec<f64> = x.iter().map(|v| v[0] * v[0]).collect();
        let gp = Gp::fit(&x, &y, Kernel::new(KernelKind::Matern52, 1), 1e-6).unwrap();
        let (m, _) = gp.predict(&[0.37]);
        assert!((gp.predict_mean(&[0.37]) - m).abs() < 1e-12);
    }

    #[test]
    fn append_matches_full_refit() {
        let x = grid_1d(10);
        let y: Vec<f64> = x.iter().map(|v| (4.0 * v[0]).sin()).collect();
        let kernel = Kernel::new(KernelKind::Matern52, 1);
        let mut gp = Gp::fit(&x[..9], &y[..9], kernel.clone(), 1e-6).unwrap();
        gp.append(x[9].clone(), y[9]).unwrap();
        // A full refit re-standardizes the targets, so its effective prior
        // variance differs slightly from the appended model's (the appended
        // GP keeps the 9-point standardization constants); predictions
        // agree to within that small reparametrization effect.
        let full = Gp::fit(&x, &y, kernel, 1e-6).unwrap();
        assert_eq!(gp.n_train(), 10);
        for probe in [[0.05], [0.45], [0.93]] {
            let (m1, v1) = gp.predict(&probe);
            let (m2, v2) = full.predict(&probe);
            assert!((m1 - m2).abs() < 5e-3, "mean {m1} vs {m2}");
            assert!((v1 - v2).abs() < 5e-3, "var {v1} vs {v2}");
        }
        // The appended model interpolates the new observation.
        assert!((gp.predict_mean(&x[9]) - y[9]).abs() < 1e-2);
    }

    #[test]
    fn append_duplicate_point_fails_gracefully() {
        let x = vec![vec![0.5]];
        let y = vec![1.0];
        let mut gp = Gp::fit(&x, &y, Kernel::new(KernelKind::SquaredExp, 1), 0.0).unwrap();
        // Exact duplicate with zero noise: bordered matrix singular.
        let r = gp.append(vec![0.5], 1.0);
        assert!(r.is_err());
        // GP still usable.
        assert_eq!(gp.n_train(), 1);
        assert!(gp.predict(&[0.5]).0.is_finite());
    }

    #[test]
    fn append_dim_checked() {
        let x = grid_1d(4);
        let y = vec![0.0; 4];
        let mut gp = Gp::fit(&x, &y, Kernel::new(KernelKind::Matern32, 1), 1e-6).unwrap();
        assert!(matches!(
            gp.append(vec![0.1, 0.2], 1.0),
            Err(GpError::BadShape(_))
        ));
    }

    #[test]
    fn chol_condition_estimate_tracks_conditioning() {
        let kernel = Kernel::new(KernelKind::SquaredExp, 1);
        // Well-separated points: benign estimate, far under the limit.
        let x = grid_1d(6);
        let y: Vec<f64> = x.iter().map(|v| v[0]).collect();
        let good = Gp::fit(&x, &y, kernel.clone(), 1e-4).unwrap();
        let ge = good.chol_condition_estimate();
        assert!(ge < 1e6, "benign estimate {ge}");
        // The O(n) estimate is a lower bound on the O(n³) spectral number.
        assert!(ge <= good.kernel_condition_number() * (1.0 + 1e-9));
        // Near-duplicates with tiny noise: the estimate explodes too.
        let x2 = vec![vec![0.5], vec![0.5 + 1e-7], vec![0.9]];
        let y2 = vec![1.0, 1.0, 2.0];
        let bad = Gp::fit(&x2, &y2, kernel, 1e-12).unwrap();
        let be = bad.chol_condition_estimate();
        assert!(be > 1e6, "degenerate estimate {be}");
        assert!(be <= bad.kernel_condition_number() * (1.0 + 1e-9));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "refit contract")]
    fn append_past_conditioning_limit_asserts_in_debug() {
        // Two well-separated points with near-zero noise factorize
        // cleanly; appending an all-but-duplicate observation leaves the
        // factor PD (so `append` itself succeeds) with a pivot around
        // √1e-13 — an estimate of ~1e13, past APPEND_CONDITION_LIMIT.
        let x = vec![vec![0.2], vec![0.8]];
        let y = vec![1.0, 2.0];
        let mut gp = Gp::fit(&x, &y, Kernel::new(KernelKind::SquaredExp, 1), 1e-13).unwrap();
        let _ = gp.append(vec![0.2 + 1e-8], 1.0);
    }

    #[test]
    fn condition_number_flags_duplicates() {
        let kernel = Kernel::new(KernelKind::SquaredExp, 1);
        // Well-separated points: benign conditioning.
        let x = grid_1d(6);
        let y: Vec<f64> = x.iter().map(|v| v[0]).collect();
        let good = Gp::fit(&x, &y, kernel.clone(), 1e-4).unwrap();
        // Near-duplicate points: conditioning explodes.
        let x2 = vec![vec![0.5], vec![0.5 + 1e-9], vec![0.9]];
        let y2 = vec![1.0, 1.0, 2.0];
        let bad = Gp::fit(&x2, &y2, kernel, 1e-12).unwrap();
        assert!(
            bad.kernel_condition_number() > 100.0 * good.kernel_condition_number(),
            "bad {} vs good {}",
            bad.kernel_condition_number(),
            good.kernel_condition_number()
        );
    }

    #[test]
    fn loo_cv_matches_explicit_refits() {
        let x = grid_1d(8);
        let y: Vec<f64> = x.iter().map(|v| (5.0 * v[0]).sin()).collect();
        let kernel = Kernel::new(KernelKind::SquaredExp, 1);
        let gp = Gp::fit(&x, &y, kernel.clone(), 1e-4).unwrap();
        let (loo_means, loo_vars) = gp.loo_cv();
        // Explicitly refit without point i and compare predictions.
        for i in [0usize, 3, 7] {
            let (mut xi, mut yi) = (x.clone(), y.clone());
            xi.remove(i);
            yi.remove(i);
            // Fit on raw targets with the same standardization as the
            // full model would be ideal; small differences from differing
            // standardization are tolerated below.
            let refit = Gp::fit(&xi, &yi, kernel.clone(), 1e-4).unwrap();
            let (m, v) = refit.predict(&x[i]);
            assert!(
                (m - loo_means[i]).abs() < 0.05,
                "point {i}: closed-form {} vs refit {m}",
                loo_means[i]
            );
            assert!(v > 0.0 && loo_vars[i] > 0.0);
        }
    }

    #[test]
    fn loo_r2_high_for_learnable_function() {
        let x = grid_1d(20);
        let y: Vec<f64> = x.iter().map(|v| (3.0 * v[0]).sin()).collect();
        let gp = Gp::train(&x, &y, &GpConfig::default()).unwrap();
        let r2 = gp.loo_r2().unwrap();
        assert!(r2 > 0.9, "LOO R² {r2}");
        // Constant targets: undefined.
        let gc = Gp::fit(&x, &[1.0; 20], Kernel::new(KernelKind::Matern32, 1), 1e-6).unwrap();
        assert!(gc.loo_r2().is_none());
    }

    /// Central finite differences of [`NegLml::value_grad`]'s value
    /// against its analytic gradient, for every kernel, with the noise
    /// optimized and fixed, and with one coordinate on a box bound
    /// (checked there by a second-order one-sided difference into the
    /// box, since the clamps flatten the objective outside it).
    #[test]
    fn lml_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(11);
        let (n, d) = (14, 3);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.random::<f64>()).collect())
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|v| (4.0 * v[0]).sin() + v[1] * v[2] + 0.1 * rng.random::<f64>())
            .collect();
        let (y_mean, y_std) = standardization(&y);
        let ys: Vec<f64> = y.iter().map(|&v| (v - y_mean) / y_std).collect();
        let floor = 0.01;
        for kind in [
            KernelKind::SquaredExp,
            KernelKind::Matern32,
            KernelKind::Matern52,
        ] {
            for optimize_noise in [true, false] {
                let problem = NegLml {
                    xt: dim_major(&x),
                    ys: ys.clone(),
                    kind,
                    optimize_noise,
                    noise_floor: floor,
                };
                let bounds = problem.bounds(d);
                // The log noise on its lower bound (the floor) when it is
                // optimized; otherwise the last length-scale on its upper
                // bound, where ARD parks an irrelevant dimension.
                let mut p = vec![0.3, -1.0, -0.4, 0.2];
                let at_bound = if optimize_noise {
                    p.push(bounds[d + 1].0);
                    d + 1
                } else {
                    p[d] = bounds[d].1;
                    d
                };
                let mut scratch = LmlScratch::new(n);
                let mut grad = vec![0.0; p.len()];
                let f0 = problem.value_grad(&p, &mut grad, &mut scratch, 1).unwrap();
                // The value is the exact GP's −LML at these hyperparameters.
                let (kernel, noise) =
                    hyperparameters(kind, &p, optimize_noise, problem.noise_floor);
                let lml = Gp::fit(&x, &y, kernel, noise).unwrap().lml();
                assert!(
                    (f0 + lml).abs() < 1e-9 * lml.abs().max(1.0),
                    "{f0} vs {lml}"
                );
                let mut f = |q: &[f64]| {
                    let mut g = vec![0.0; q.len()];
                    problem.value_grad(q, &mut g, &mut scratch, 1).unwrap()
                };
                let h = 1e-5;
                for i in 0..p.len() {
                    let shifted = |dx: f64| {
                        let mut q = p.clone();
                        q[i] += dx;
                        q
                    };
                    let fd = if i != at_bound {
                        (f(&shifted(h)) - f(&shifted(-h))) / (2.0 * h)
                    } else if p[i] == bounds[i].0 {
                        (-3.0 * f0 + 4.0 * f(&shifted(h)) - f(&shifted(2.0 * h))) / (2.0 * h)
                    } else {
                        (3.0 * f0 - 4.0 * f(&shifted(-h)) + f(&shifted(-2.0 * h))) / (2.0 * h)
                    };
                    assert!(
                        (grad[i] - fd).abs() <= 1e-6 + 1e-4 * fd.abs(),
                        "{kind:?}, noise optimized {optimize_noise}, θ[{i}]: \
                         analytic {} vs finite difference {fd}",
                        grad[i]
                    );
                }
            }
        }
    }

    #[test]
    fn value_grad_is_bit_identical_at_any_worker_count() {
        // n = 130 puts the kernel fill, the pair sweep and the blocked
        // Cholesky all past their parallel thresholds.
        let mut rng = StdRng::seed_from_u64(4);
        let x: Vec<Vec<f64>> = (0..130)
            .map(|_| vec![rng.random::<f64>(), rng.random::<f64>()])
            .collect();
        let ys: Vec<f64> = x.iter().map(|v| (5.0 * v[0]).sin() - v[1]).collect();
        let problem = NegLml {
            xt: dim_major(&x),
            ys,
            kind: KernelKind::Matern52,
            optimize_noise: true,
            noise_floor: 1e-6,
        };
        let p = [0.1, -1.3, -0.7, -5.0];
        let run = |workers: usize| {
            let mut scratch = LmlScratch::new(x.len());
            let mut grad = vec![0.0; p.len()];
            let f = problem
                .value_grad(&p, &mut grad, &mut scratch, workers)
                .unwrap();
            (
                f.to_bits(),
                grad.iter().map(|g| g.to_bits()).collect::<Vec<_>>(),
            )
        };
        let base = run(1);
        for workers in [2, 3, 4] {
            assert_eq!(run(workers), base, "{workers} workers");
        }
    }

    #[test]
    fn train_reports_its_likelihood_evaluations() {
        let x = grid_1d(15);
        let y: Vec<f64> = x.iter().map(|v| (3.0 * v[0]).sin()).collect();
        let cfg = GpConfig::default();
        let gp = Gp::train(&x, &y, &cfg).unwrap();
        let evals = gp.train_evals();
        assert!(evals >= cfg.n_restarts, "{evals} evaluations");
        assert!(
            evals <= cfg.n_restarts * LbfgsOptions::default().max_evals,
            "{evals} evaluations"
        );
        assert_eq!(
            Gp::fit(&x, &y, gp.kernel().clone(), gp.noise())
                .unwrap()
                .train_evals(),
            0
        );
        // Appends keep the count of the training that produced the model.
        let mut grown = gp.clone();
        grown.append(vec![0.55], 0.2).unwrap();
        assert_eq!(grown.train_evals(), evals);
    }

    #[test]
    fn train_2d_anisotropic() {
        // y depends on dim 0 only; ARD should learn a long lengthscale
        // for dim 1.
        let mut rng = StdRng::seed_from_u64(3);
        let x: Vec<Vec<f64>> = (0..40)
            .map(|_| vec![rng.random::<f64>(), rng.random::<f64>()])
            .collect();
        let y: Vec<f64> = x.iter().map(|v| (6.0 * v[0]).sin()).collect();
        let gp = Gp::train(&x, &y, &GpConfig::default()).unwrap();
        let ls = gp.kernel().lengthscales();
        assert!(
            ls[1] > 2.0 * ls[0],
            "expected ARD to stretch irrelevant dim: {ls:?}"
        );
    }
}
