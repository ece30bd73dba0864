//! Order statistics shared by the workloads and `--compare`.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// Nearest-rank percentile of `xs`, given in tenths of a percent
/// (`990` is p99) so ranks are exact; `None` when empty.
fn percentile_permille(xs: &[f64], permille: usize) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (permille * v.len()).div_ceil(1000).clamp(1, v.len().max(1));
    v.get(rank - 1).copied()
}

/// Percentiles the tail rule may report, highest first, in tenths of a
/// percent. The median is not a tail, so p75 is the lowest.
const TAIL_CANDIDATES: [usize; 5] = [999, 990, 950, 900, 750];

/// The tail of a latency sample: the highest percentile with at least ten
/// samples beyond it (p99 needs 1000 samples, p90 needs 100). Returns the
/// percentile used and its value. With fewer than 40 samples no percentile
/// qualifies and the maximum is reported as percentile 100.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let permille = TAIL_CANDIDATES
        .into_iter()
        .find(|&p| xs.len() * (1000 - p) >= 10_000)
        .unwrap_or(1000);
    percentile_permille(xs, permille).map(|v| (permille as f64 / 10.0, v))
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method)
/// computes them; `None` with fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// `--compare` weighs against a metric's bound.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Geometric mean of positive values; `None` when empty or any value is
/// not positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| !(x > 0.0 && x.is_finite())) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Arithmetic mean; `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_uses_highest_percentile_with_ten_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.0), Some(95.0));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((75.0, 30.0)));
        let xs: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((100.0, 39.0)));
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.9, 9990.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&xs).unwrap_or(f64::NAN);
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn geomean_rejects_non_positive() {
        assert!((geomean(&[1.0, 4.0]).unwrap_or(0.0) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }
}
