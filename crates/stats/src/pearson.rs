//! Pearson linear correlation.

use crate::{Result, StatsError};
use cets_linalg::vecops;

/// Pearson correlation coefficient of two equal-length samples.
///
/// Returns an error for fewer than two points or zero-variance inputs
/// (where the coefficient is undefined). The paper uses this to detect the
/// `tb`/`tb_sm` coupling (~0.6) created by the occupancy constraint, and to
/// confirm the *absence* of linear dependence between synthetic variables.
pub fn pearson(x: &[f64], y: &[f64]) -> Result<f64> {
    if x.len() != y.len() {
        return Err(StatsError::BadShape(format!(
            "pearson: {} vs {} samples",
            x.len(),
            y.len()
        )));
    }
    if x.len() < 2 {
        return Err(StatsError::NotEnoughData {
            needed: 2,
            got: x.len(),
        });
    }
    let (mx, my) = (vecops::mean(x), vecops::mean(y));
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let (dx, dy) = (a - mx, b - my);
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return Err(StatsError::Degenerate("zero variance in pearson".into()));
    }
    Ok(sxy / (sxx * syy).sqrt())
}

/// Full correlation matrix of column-wise features.
///
/// `columns[j]` is feature `j`'s sample vector. Diagonal is 1; undefined
/// entries (zero-variance features) are reported as 0 so downstream ranking
/// treats them as uncorrelated rather than failing the whole analysis.
pub fn pearson_matrix(columns: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
    let d = columns.len();
    if d == 0 {
        return Ok(vec![]);
    }
    let n = columns[0].len();
    if columns.iter().any(|c| c.len() != n) {
        return Err(StatsError::BadShape("ragged feature columns".into()));
    }
    let mut m = vec![vec![0.0; d]; d];
    #[allow(clippy::needless_range_loop)] // symmetric fill needs both indices
    for i in 0..d {
        m[i][i] = 1.0;
        for j in (i + 1)..d {
            let r = pearson(&columns[i], &columns[j]).unwrap_or(0.0);
            m[i][j] = r;
            m[j][i] = r;
        }
    }
    Ok(m)
}

/// Pairs `(i, j, r)` with `|r| >= threshold`, sorted by `|r|` descending —
/// the paper's "correlated parameters might be grouped in a search" signal.
pub fn correlated_pairs(columns: &[Vec<f64>], threshold: f64) -> Result<Vec<(usize, usize, f64)>> {
    let m = pearson_matrix(columns)?;
    let mut out = Vec::new();
    #[allow(clippy::needless_range_loop)] // upper-triangle walk needs indices
    for i in 0..m.len() {
        for j in (i + 1)..m.len() {
            if m[i][j].abs() >= threshold {
                out.push((i, j, m[i][j]));
            }
        }
    }
    out.sort_by(|a, b| {
        b.2.abs()
            .partial_cmp(&a.2.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_correlation() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = y.iter().map(|v| -v).collect();
        assert!((pearson(&x, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_correlation_orthogonal() {
        let x = [1.0, -1.0, 1.0, -1.0];
        let y = [1.0, 1.0, -1.0, -1.0];
        assert!(pearson(&x, &y).unwrap().abs() < 1e-12);
    }

    #[test]
    fn errors() {
        assert!(pearson(&[1.0], &[1.0]).is_err());
        assert!(pearson(&[1.0, 2.0], &[1.0]).is_err());
        assert!(matches!(
            pearson(&[1.0, 1.0], &[1.0, 2.0]),
            Err(StatsError::Degenerate(_))
        ));
    }

    #[test]
    fn matrix_is_symmetric_with_unit_diag() {
        let cols = vec![
            vec![1.0, 2.0, 3.0, 4.0],
            vec![1.0, 2.0, 3.0, 5.0],
            vec![4.0, 3.0, 2.0, 1.0],
        ];
        let m = pearson_matrix(&cols).unwrap();
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 1.0);
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, m[j][i]);
            }
        }
        assert!(m[0][2] < -0.99);
    }

    #[test]
    fn constant_column_reports_zero() {
        let cols = vec![vec![1.0, 1.0, 1.0], vec![1.0, 2.0, 3.0]];
        let m = pearson_matrix(&cols).unwrap();
        assert_eq!(m[0][1], 0.0);
    }

    #[test]
    fn correlated_pairs_filter_and_sort() {
        let cols = vec![
            vec![1.0, 2.0, 3.0, 4.0],
            vec![1.1, 1.9, 3.2, 3.9],  // ~1.0 with col 0
            vec![0.5, -0.2, 0.7, 0.1], // weak
        ];
        let pairs = correlated_pairs(&cols, 0.6).unwrap();
        assert_eq!(pairs.len(), 1);
        assert_eq!((pairs[0].0, pairs[0].1), (0, 1));
        assert!(pairs[0].2 > 0.9);
    }

    #[test]
    fn empty_matrix() {
        assert!(pearson_matrix(&[]).unwrap().is_empty());
    }
}
