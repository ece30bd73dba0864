//! Descriptive statistics and modelling-sample-size guidelines.

use crate::{Result, StatsError};
use cets_linalg::vecops;

/// Five-number-style summary of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (unbiased).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// First quartile (linear interpolation).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarize a non-empty sample. NaNs are rejected.
    pub fn new(xs: &[f64]) -> Result<Self> {
        if xs.is_empty() {
            return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
        }
        if xs.iter().any(|v| v.is_nan()) {
            return Err(StatsError::Degenerate("NaN in sample".into()));
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        Ok(Summary {
            n: xs.len(),
            mean: vecops::mean(xs),
            std_dev: vecops::std_dev(xs),
            min: sorted[0],
            q1: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            q3: quantile_sorted(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
        })
    }

    /// Dynamic range `max / min` (∞ when min is 0) — the paper observes
    /// runtime variability "of up to one order of magnitude" across sampled
    /// configurations, i.e. a range of ~10.
    pub fn dynamic_range(&self) -> f64 {
        if self.min == 0.0 {
            f64::INFINITY
        } else {
            self.max / self.min
        }
    }
}

/// Linear-interpolation quantile of an already-sorted sample, `q ∈ [0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = pos - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// The **one-in-ten rule** (Harrell): a regression-style model over `dims`
/// predictors needs at least `10 × dims` observations to be trustworthy.
/// The paper applies this before interpreting feature importance and also
/// derives its BO evaluation budget (`10 × num_parameters`) from it.
pub fn one_in_ten_ok(observations: usize, dims: usize) -> bool {
    observations >= 10 * dims
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = Summary::new(&xs).unwrap();
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.median - 4.5).abs() < 1e-12);
        assert!(s.q1 <= s.median && s.median <= s.q3);
    }

    #[test]
    fn summary_rejects_empty_and_nan() {
        assert!(matches!(
            Summary::new(&[]),
            Err(StatsError::NotEnoughData { .. })
        ));
        assert!(matches!(
            Summary::new(&[1.0, f64::NAN]),
            Err(StatsError::Degenerate(_))
        ));
    }

    #[test]
    fn quantiles_interpolate() {
        let sorted = [0.0, 10.0];
        assert_eq!(quantile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(quantile_sorted(&sorted, 0.5), 5.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 10.0);
        // Clamped out-of-range q.
        assert_eq!(quantile_sorted(&sorted, 2.0), 10.0);
    }

    #[test]
    fn dynamic_range() {
        let s = Summary::new(&[1.0, 10.0]).unwrap();
        assert!((s.dynamic_range() - 10.0).abs() < 1e-12);
        let z = Summary::new(&[0.0, 1.0]).unwrap();
        assert!(z.dynamic_range().is_infinite());
    }

    #[test]
    fn one_in_ten() {
        assert!(one_in_ten_ok(100, 10));
        assert!(!one_in_ten_ok(99, 10));
        assert!(one_in_ten_ok(0, 0));
    }

    #[test]
    fn single_element_summary() {
        let s = Summary::new(&[3.0]).unwrap();
        assert_eq!(s.median, 3.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.q3 - s.q1, 0.0);
    }
}
