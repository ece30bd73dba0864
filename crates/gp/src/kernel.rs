//! Covariance functions with ARD length-scales.

use cets_linalg::vecops;
use serde::{Deserialize, Serialize};

/// Range of every kernel log-parameter (`ln σ²`, `ln ℓ_k`):
/// [`Kernel::from_log_params`] clamps to it and exact-GP training
/// searches inside it.
pub(crate) const LOG_PARAM_RANGE: (f64, f64) = (-8.0, 8.0);

/// Which covariance family a [`Kernel`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelKind {
    /// Squared exponential (RBF): infinitely smooth; the default for the
    /// synthetic functions.
    SquaredExp,
    /// Matérn ν = 3/2: once-differentiable; robust for noisy HPC runtimes.
    Matern32,
    /// Matérn ν = 5/2: twice-differentiable; the usual BO default.
    Matern52,
}

/// A stationary ARD kernel `k(a, b) = σ² · g(r)` where
/// `r² = Σ ((a_i − b_i)/ℓ_i)²`.
///
/// Hyperparameters are the signal variance `σ²` and one length-scale per
/// input dimension. [`Kernel::to_log_params`] / [`Kernel::from_log_params`]
/// round-trip them through the log-space vector that the hyperparameter
/// optimizers work on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Kernel {
    kind: KernelKind,
    variance: f64,
    lengthscales: Vec<f64>,
}

impl Kernel {
    /// A kernel with unit variance and all length-scales `0.3` (a sensible
    /// prior for inputs living in the unit cube).
    pub fn new(kind: KernelKind, dim: usize) -> Self {
        Kernel {
            kind,
            variance: 1.0,
            lengthscales: vec![0.3; dim],
        }
    }

    /// Construct with explicit hyperparameters. Panics on non-positive
    /// values (they are meaningless for stationary kernels).
    pub fn with_params(kind: KernelKind, variance: f64, lengthscales: Vec<f64>) -> Self {
        assert!(variance > 0.0, "kernel variance must be positive");
        assert!(
            lengthscales.iter().all(|&l| l > 0.0),
            "length-scales must be positive"
        );
        Kernel {
            kind,
            variance,
            lengthscales,
        }
    }

    /// Covariance family.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Signal variance σ².
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// Per-dimension length-scales.
    pub fn lengthscales(&self) -> &[f64] {
        &self.lengthscales
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.lengthscales.len()
    }

    /// Evaluate `k(a, b)`.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let r2 = vecops::weighted_sq_dist(a, b, &self.lengthscales);
        self.variance * self.profile(r2)
    }

    /// Evaluate `k` from a precomputed scaled squared distance
    /// `r² = Σ w_k (a_k − b_k)²` with `w_k` from
    /// [`Kernel::inv_sq_lengthscales`].
    ///
    /// This is the fused fast path of the GP hot loops: the caller
    /// accumulates `r²` for many pairs at once in contiguous
    /// per-dimension sweeps and reduces each kernel entry to this profile
    /// call. Note `w·d²` and `(d/ℓ)²` (what [`Kernel::eval`] computes) can
    /// differ in the last ulps — callers mixing both paths must not expect
    /// bit-identical covariances.
    #[inline]
    pub fn eval_r2(&self, r2: f64) -> f64 {
        self.variance * self.profile(r2)
    }

    /// Per-dimension weights `w_k = 1/ℓ_k²` for [`Kernel::eval_r2`].
    pub fn inv_sq_lengthscales(&self) -> Vec<f64> {
        self.lengthscales.iter().map(|&l| 1.0 / (l * l)).collect()
    }

    /// `k(x, x)` — for stationary kernels simply σ².
    pub fn diag_value(&self) -> f64 {
        self.variance
    }

    /// `(k, ∂k/∂r²)` from a scaled squared distance: the covariance of
    /// [`Kernel::eval_r2`] (bit-identical) together with its slope
    /// `σ² g′(r²)`, sharing the one exponential. The likelihood gradient
    /// of [`crate::Gp::train`] builds `∂K/∂ln ℓ_d` from them.
    #[inline]
    pub(crate) fn eval_r2_with_slope(&self, r2: f64) -> (f64, f64) {
        let (g, slope) = self.profile_with_slope(r2);
        (self.variance * g, self.variance * slope)
    }

    #[inline]
    fn profile(&self, r2: f64) -> f64 {
        self.profile_with_slope(r2).0
    }

    /// The unit-variance profile `g(r²)` and its derivative `g′(r²)`. The
    /// slopes are `−½e^{−r²/2}` (squared exponential), `−(3/2)e^{−s}` with
    /// `s = √3 r` (Matérn 3/2) and `−(5/6)(1+s)e^{−s}` with `s = √5 r`
    /// (Matérn 5/2), none of them singular at `r = 0`.
    #[inline]
    fn profile_with_slope(&self, r2: f64) -> (f64, f64) {
        match self.kind {
            KernelKind::SquaredExp => {
                let g = (-0.5 * r2).exp();
                (g, -0.5 * g)
            }
            KernelKind::Matern32 => {
                let r = r2.sqrt();
                let s = 3.0_f64.sqrt() * r;
                let e = (-s).exp();
                ((1.0 + s) * e, -1.5 * e)
            }
            KernelKind::Matern52 => {
                let r = r2.sqrt();
                let s = 5.0_f64.sqrt() * r;
                let e = (-s).exp();
                ((1.0 + s + s * s / 3.0) * e, -(5.0 / 6.0) * (1.0 + s) * e)
            }
        }
    }

    /// Pack `[ln σ², ln ℓ_1, ..., ln ℓ_d]` for unconstrained optimization.
    pub fn to_log_params(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(1 + self.dim());
        v.push(self.variance.ln());
        v.extend(self.lengthscales.iter().map(|l| l.ln()));
        v
    }

    /// Rebuild from the log-space vector produced by
    /// [`Kernel::to_log_params`]. Values are clamped to `[e^-8, e^8]` to
    /// keep the kernel matrix numerically sane during optimization.
    pub fn from_log_params(kind: KernelKind, params: &[f64]) -> Self {
        assert!(
            params.len() >= 2,
            "need at least variance + one lengthscale"
        );
        let (lo, hi) = LOG_PARAM_RANGE;
        let clamp = |v: f64| v.clamp(lo, hi).exp();
        Kernel {
            kind,
            variance: clamp(params[0]),
            lengthscales: params[1..].iter().map(|&p| clamp(p)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_covariance_is_variance() {
        for kind in [
            KernelKind::SquaredExp,
            KernelKind::Matern32,
            KernelKind::Matern52,
        ] {
            let k = Kernel::with_params(kind, 2.5, vec![0.5, 0.5]);
            let x = [0.3, 0.7];
            assert!((k.eval(&x, &x) - 2.5).abs() < 1e-12);
            assert_eq!(k.diag_value(), 2.5);
        }
    }

    #[test]
    fn decays_with_distance() {
        for kind in [
            KernelKind::SquaredExp,
            KernelKind::Matern32,
            KernelKind::Matern52,
        ] {
            let k = Kernel::new(kind, 1);
            let near = k.eval(&[0.0], &[0.1]);
            let far = k.eval(&[0.0], &[0.9]);
            assert!(near > far, "{kind:?}: {near} !> {far}");
            assert!(far > 0.0);
        }
    }

    #[test]
    fn symmetry() {
        let k = Kernel::new(KernelKind::Matern52, 3);
        let a = [0.1, 0.5, 0.9];
        let b = [0.4, 0.2, 0.7];
        assert_eq!(k.eval(&a, &b), k.eval(&b, &a));
    }

    #[test]
    fn ard_lengthscales_weight_dimensions() {
        // Long lengthscale in dim 0 => distance in dim 0 matters less.
        let k = Kernel::with_params(KernelKind::SquaredExp, 1.0, vec![10.0, 0.1]);
        let base = [0.0, 0.0];
        let moved_dim0 = k.eval(&base, &[0.5, 0.0]);
        let moved_dim1 = k.eval(&base, &[0.0, 0.5]);
        assert!(moved_dim0 > moved_dim1);
    }

    #[test]
    fn sqexp_known_value() {
        let k = Kernel::with_params(KernelKind::SquaredExp, 1.0, vec![1.0]);
        // r² = 1 → exp(-0.5)
        assert!((k.eval(&[0.0], &[1.0]) - (-0.5_f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn log_param_roundtrip() {
        let k = Kernel::with_params(KernelKind::Matern32, 3.0, vec![0.2, 1.5]);
        let p = k.to_log_params();
        let k2 = Kernel::from_log_params(KernelKind::Matern32, &p);
        assert!((k2.variance() - 3.0).abs() < 1e-12);
        assert!((k2.lengthscales()[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn from_log_params_clamps_extremes() {
        let k = Kernel::from_log_params(KernelKind::SquaredExp, &[100.0, -100.0]);
        assert!(k.variance() <= 8.0_f64.exp());
        assert!(k.lengthscales()[0] >= (-8.0_f64).exp());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_variance() {
        let _ = Kernel::with_params(KernelKind::SquaredExp, 0.0, vec![1.0]);
    }

    #[test]
    fn matern32_known_value() {
        // k(r) = (1 + √3 r) exp(-√3 r) at r = 1, unit params.
        let k = Kernel::with_params(KernelKind::Matern32, 1.0, vec![1.0]);
        let s = 3.0_f64.sqrt();
        let expect = (1.0 + s) * (-s).exp();
        assert!((k.eval(&[0.0], &[1.0]) - expect).abs() < 1e-12);
    }

    #[test]
    fn matern52_known_value() {
        let k = Kernel::with_params(KernelKind::Matern52, 1.0, vec![1.0]);
        let s = 5.0_f64.sqrt();
        let expect = (1.0 + s + s * s / 3.0) * (-s).exp();
        assert!((k.eval(&[0.0], &[1.0]) - expect).abs() < 1e-12);
    }

    #[test]
    fn slope_matches_finite_differences_and_value_is_eval_r2() {
        for kind in [
            KernelKind::SquaredExp,
            KernelKind::Matern32,
            KernelKind::Matern52,
        ] {
            let k = Kernel::with_params(kind, 1.7, vec![0.4]);
            for r2 in [0.0, 1e-3, 0.3, 2.5, 9.0] {
                let (v, slope) = k.eval_r2_with_slope(r2);
                assert_eq!(v.to_bits(), k.eval_r2(r2).to_bits(), "{kind:?} at {r2}");
                let h = 1e-6;
                // One-sided at r² = 0, where the profile's domain starts.
                let fd = if r2 == 0.0 {
                    (k.eval_r2(h) - k.eval_r2(0.0)) / h
                } else {
                    (k.eval_r2(r2 + h) - k.eval_r2(r2 - h)) / (2.0 * h)
                };
                let tol = if r2 == 0.0 { 1e-2 } else { 1e-6 };
                assert!(
                    (slope - fd).abs() <= tol * fd.abs().max(1.0),
                    "{kind:?} at {r2}: {slope} vs {fd}"
                );
            }
        }
    }

    #[test]
    fn matern_kinds_differ() {
        let a = [0.0];
        let b = [0.5];
        let k32 = Kernel::new(KernelKind::Matern32, 1).eval(&a, &b);
        let k52 = Kernel::new(KernelKind::Matern52, 1).eval(&a, &b);
        let rbf = Kernel::new(KernelKind::SquaredExp, 1).eval(&a, &b);
        assert!(k32 != k52 && k52 != rbf);
    }
}
