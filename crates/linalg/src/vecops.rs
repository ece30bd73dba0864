//! Free-function helpers on `&[f64]` vectors.
//!
//! Kept as plain functions over slices (rather than a newtype) so callers can
//! use ordinary `Vec<f64>` throughout; this mirrors how GP and statistics
//! code naturally passes observation vectors around.

/// Dot product. Panics on length mismatch (programmer error, not data error).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Euclidean norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two points.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sq_dist: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

/// Weighted squared distance `Σ ((a_i - b_i) / w_i)²` — the anisotropic
/// (ARD) distance used by per-dimension length-scale kernels.
#[inline]
pub fn weighted_sq_dist(a: &[f64], b: &[f64], w: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "weighted_sq_dist: length mismatch");
    assert_eq!(a.len(), w.len(), "weighted_sq_dist: weight length mismatch");
    a.iter()
        .zip(b)
        .zip(w)
        .map(|((&x, &y), &wi)| {
            let d = (x - y) / wi;
            d * d
        })
        .sum()
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Unbiased sample variance; 0.0 for fewer than two elements.
pub fn variance(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (a.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(a: &[f64]) -> f64 {
    variance(a).sqrt()
}

/// Minimum value and its index; `None` for an empty slice or all-NaN input.
pub fn argmin(a: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in a.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, b)) if v >= b => {}
            _ => best = Some((i, v)),
        }
    }
    best
}

/// Indices `0..a.len()` sorted by `a` descending (NaN sorts last).
pub fn rank_desc(a: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..a.len()).collect();
    idx.sort_by(|&i, &j| {
        a[j].partial_cmp(&a[i])
            .unwrap_or_else(|| a[i].is_nan().cmp(&a[j].is_nan()))
    });
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distances() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(weighted_sq_dist(&[0.0, 0.0], &[2.0, 4.0], &[2.0, 4.0]), 2.0);
    }

    #[test]
    fn moments() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn argminmax() {
        let xs = [3.0, 1.0, 4.0, 1.5];
        assert_eq!(argmin(&xs), Some((1, 1.0)));
        assert_eq!(argmin(&[]), None);
        // NaN is skipped, not propagated.
        assert_eq!(argmin(&[f64::NAN, 2.0]), Some((1, 2.0)));
    }

    #[test]
    fn ranking() {
        let xs = [0.1, 0.9, 0.5];
        assert_eq!(rank_desc(&xs), vec![1, 2, 0]);
    }
}
