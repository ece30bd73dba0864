//! Dense row-major matrix.

use crate::simd::Isa;
use crate::{par, LinalgError, Result};

/// A dense, row-major `f64` matrix.
///
/// Storage is a single `Vec<f64>` of length `rows * cols`; element `(i, j)`
/// lives at `data[i * cols + j]`. The type is cheap to clone for the sizes
/// used in tuning searches (N ≲ 10³).
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major flat slice. Panics if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Build from row slices. Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "Matrix::from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Build an `n x n` diagonal matrix from `diag`.
    pub fn from_diag(diag: &[f64]) -> Self {
        let mut m = Matrix::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Build by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when `rows == cols`.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the backing row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the backing row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Copy the main diagonal.
    pub fn diag(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self[(i, i)]).collect()
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// Uses the classic i-k-j loop order so the innermost loop walks both
    /// operands row-major contiguously (see The Rust Performance Book on
    /// iteration order). Large products additionally tile the `i`/`k`/`j`
    /// loops so the working set of `other` stays cache-resident; tiles are
    /// visited in ascending `k`, so every output element accumulates its
    /// terms in exactly the same order as the untiled loop — the results
    /// are bit-identical, tiled or not.
    pub fn mat_mul(&self, other: &Matrix) -> Result<Matrix> {
        self.mat_mul_with(other, par::global_threads())
    }

    /// [`Matrix::mat_mul`] with an explicit worker count.
    ///
    /// Workers own disjoint contiguous ranges of output rows; every output
    /// element still accumulates its terms in ascending `k`, so the product
    /// is bit-identical at any worker count. `workers <= 1` (and any
    /// product small enough to skip the tiling loops) takes the sequential
    /// path.
    pub fn mat_mul_with(&self, other: &Matrix, workers: usize) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch(format!(
                "mat_mul: {}x{} * {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // Tile edge: 96² f64 panels of `other` (~72 KiB per k×j tile pair)
        // fit comfortably in L2; small products skip the tiling loops.
        const T: usize = 96;
        let (n, kk, m) = (self.rows, self.cols, other.cols);
        if n.max(kk).max(m) <= T {
            self.mat_mul_rows(other, &mut out.data, 0, 0..n, 0..kk, 0..m);
            return Ok(out);
        }
        let w = workers.min(n);
        if w <= 1 {
            let mut kb = 0;
            while kb < kk {
                let ke = (kb + T).min(kk);
                let mut ib = 0;
                while ib < n {
                    let ie = (ib + T).min(n);
                    let mut jb = 0;
                    while jb < m {
                        let je = (jb + T).min(m);
                        self.mat_mul_rows(other, &mut out.data, 0, ib..ie, kb..ke, jb..je);
                        jb = je;
                    }
                    ib = ie;
                }
                kb = ke;
            }
            return Ok(out);
        }
        // Each worker owns a contiguous chunk of output rows and runs the
        // same k-i-j tile sweep restricted to them. `chunks_mut` hands out
        // provably disjoint output slices, so this path is entirely safe
        // code.
        let rows_per = n.div_ceil(w);
        std::thread::scope(|scope| {
            for (ci, out_chunk) in out.data.chunks_mut(rows_per * m).enumerate() {
                scope.spawn(move || {
                    let lo = ci * rows_per;
                    let hi = lo + out_chunk.len() / m;
                    let mut kb = 0;
                    while kb < kk {
                        let ke = (kb + T).min(kk);
                        let mut ib = lo;
                        while ib < hi {
                            let ie = (ib + T).min(hi);
                            let mut jb = 0;
                            while jb < m {
                                let je = (jb + T).min(m);
                                self.mat_mul_rows(other, out_chunk, lo, ib..ie, kb..ke, jb..je);
                                jb = je;
                            }
                            ib = ie;
                        }
                        kb = ke;
                    }
                });
            }
        });
        Ok(out)
    }

    /// One i-k-j tile of the product, accumulated into `out_rows` — the
    /// storage of output rows `row0..row0 + out_rows.len() / other.cols`:
    /// `out[is, js] += self[is, ks] * other[ks, js]`.
    #[inline]
    fn mat_mul_rows(
        &self,
        other: &Matrix,
        out_rows: &mut [f64],
        row0: usize,
        is: std::ops::Range<usize>,
        ks: std::ops::Range<usize>,
        js: std::ops::Range<usize>,
    ) {
        let m = other.cols;
        for i in is {
            let o0 = (i - row0) * m;
            for k in ks.clone() {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let orow = &other.data[k * m + js.start..k * m + js.end];
                let out_row = &mut out_rows[o0 + js.start..o0 + js.end];
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += aik * b;
                }
            }
        }
    }

    /// Symmetric outer product `self * selfᵀ` (an `m×m` Gram matrix from an
    /// `m×n` operand).
    ///
    /// Only the lower triangle is computed; the upper triangle is mirrored
    /// afterwards, halving the flops versus `mat_mul(&self.transpose())`.
    /// Four rows at a time are packed into a `k`-major panel, and a
    /// register tile of four output rows runs its lanes across the
    /// panel's four output columns, at full vector width (AVX2 where the
    /// CPU has it, see `cets_linalg::simd`). Each entry is still one
    /// ascending-`k` dot, each lane doing the scalar loop's IEEE
    /// operations, so results are independent of the tiling and of the
    /// vector width. This is the SYRK behind the sparse GP's inner factor
    /// `B = I + A Aᵀ`.
    pub fn aat(&self) -> Matrix {
        self.aat_with(par::global_threads())
    }

    /// [`Matrix::aat`] with an explicit worker count.
    ///
    /// Workers own disjoint contiguous ranges of output rows (triangularly
    /// balanced, since row `i` costs `i·n` flops); every Gram entry is one
    /// ascending-`k` dot product regardless of the partition or the
    /// tiling, so the result is bit-identical at any worker count.
    /// `workers <= 1` (and small Gram matrices) takes the sequential path.
    pub fn aat_with(&self, workers: usize) -> Matrix {
        self.aat_on(workers, Isa::detect())
    }

    /// [`Matrix::aat_with`] on the compiled copy `isa`.
    pub(crate) fn aat_on(&self, workers: usize, isa: Isa) -> Matrix {
        let (m, n) = (self.rows, self.cols);
        let mut out = Matrix::zeros(m, m);
        // Below ~16k multiply-adds a spawn costs more than it saves.
        let w = if m * n < 16_384 {
            1
        } else {
            workers.min(m.div_ceil(2))
        };
        if w <= 1 {
            self.aat_rows(isa, &mut out.data, 0, m);
        } else {
            let mut rest: &mut [f64] = &mut out.data;
            std::thread::scope(|scope| {
                for r in par::triangular_ranges(m, w) {
                    let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(r.len() * m);
                    rest = tail;
                    scope.spawn(move || self.aat_rows(isa, chunk, r.start, r.end));
                }
            });
        }
        for r in 0..m {
            for c in (r + 1)..m {
                out[(r, c)] = out[(c, r)];
            }
        }
        out
    }

    /// Lower-triangle rows `lo..hi` of the Gram matrix, written into
    /// `out_rows` (the storage of output rows `lo..hi`), on the compiled
    /// copy `isa`.
    fn aat_rows(&self, isa: Isa, out_rows: &mut [f64], lo: usize, hi: usize) {
        if isa.is_avx2() {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                fn avx2(a: &Matrix, out_rows: &mut [f64], lo: usize, hi: usize) {
                    a.aat_rows_body(out_rows, lo, hi)
                }
                // SAFETY: an AVX2 `Isa` exists only on a CPU that runs
                // AVX2.
                return unsafe { avx2(self, out_rows, lo, hi) };
            }
        }
        self.aat_rows_body(out_rows, lo, hi)
    }

    /// The source of both copies of [`Matrix::aat_rows`]. For each block
    /// of four columns `j0..j0 + 4` it packs those rows of `self` into a
    /// `k`-major panel (zero lanes past the last row), then fills the
    /// block's entries on and below the diagonal in tiles of four output
    /// rows.
    #[inline(always)]
    fn aat_rows_body(&self, out_rows: &mut [f64], lo: usize, hi: usize) {
        let (m, n) = (self.rows, self.cols);
        let mut panel = vec![0.0; 4 * n];
        for j0 in (0..hi).step_by(4) {
            panel.fill(0.0);
            for q in 0..(m - j0).min(4) {
                for (k, &v) in self.row(j0 + q).iter().enumerate() {
                    panel[4 * k + q] = v;
                }
            }
            for i in (lo.max(j0)..hi).step_by(4) {
                self.aat_tile(&panel, i, j0, out_rows, lo..hi);
            }
        }
    }

    /// The Gram entries `(i + r, j0 + q)` on or below the diagonal, for
    /// the rows `i..i + 4` inside `rows` and the columns `j0..j0 + 4`
    /// packed in `panel`: lane `q` of row `r` sums `self[i + r, k]·panel[k][q]`
    /// from `0.0` in ascending `k`. Past the end of `rows` the tile
    /// repeats the last row and drops the result.
    #[inline(always)]
    fn aat_tile(
        &self,
        panel: &[f64],
        i: usize,
        j0: usize,
        out_rows: &mut [f64],
        rows: std::ops::Range<usize>,
    ) {
        let m = self.rows;
        let a: [&[f64]; 4] = std::array::from_fn(|r| self.row((i + r).min(rows.end - 1)));
        let mut acc = [[0.0; 4]; 4];
        for (k, p) in panel.chunks_exact(4).enumerate() {
            for r in 0..4 {
                let x = a[r][k];
                for q in 0..4 {
                    acc[r][q] += x * p[q];
                }
            }
        }
        for (r, lanes) in acc.iter().enumerate().take(rows.end - i) {
            // Keep the lanes on or below the diagonal: columns `j0..=i + r`.
            let cols = (i + r + 1 - j0).min(4);
            let at = (i + r - rows.start) * m + j0;
            out_rows[at..at + cols].copy_from_slice(&lanes[..cols]);
        }
    }

    /// Matrix-vector product `self * x`.
    pub fn mat_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(
            x.len(),
            self.cols,
            "mat_vec: vector length {} != cols {}",
            x.len(),
            self.cols
        );
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(x).map(|(&a, &b)| a * b).sum::<f64>())
            .collect()
    }

    /// Elementwise sum `self + other`.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, |a, b| a + b, "add")
    }

    /// Elementwise difference `self - other`.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, |a, b| a - b, "sub")
    }

    /// Multiply every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| v * s).collect(),
        }
    }

    /// Add `v` to every diagonal element in place.
    pub fn add_diag(&mut self, v: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += v;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }

    /// `true` when `|self - other|` is elementwise within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// `true` when `|self - selfᵀ|` is elementwise within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    fn zip_with(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64, op: &str) -> Result<Matrix> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch(format!(
                "{op}: {}x{} vs {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.diag(), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_ragged_panics() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert!(t.transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn mat_mul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.mat_mul(&b).unwrap();
        assert!(c.approx_eq(&Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]), 1e-12));
    }

    #[test]
    fn mat_mul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, -2.5, 3.0], &[0.0, 4.0, 9.0]]);
        let c = a.mat_mul(&Matrix::identity(3)).unwrap();
        assert!(c.approx_eq(&a, 0.0));
    }

    #[test]
    fn mat_mul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.mat_mul(&b), Err(LinalgError::ShapeMismatch(_))));
    }

    #[test]
    fn mat_vec_and_transposed() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.mat_vec(&[1.0, 1.0]), vec![3.0, 7.0, 11.0]);
        assert_eq!(a.transpose().mat_vec(&[1.0, 1.0, 1.0]), vec![9.0, 12.0]);
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert!(a
            .add(&b)
            .unwrap()
            .approx_eq(&Matrix::from_rows(&[&[4.0, 7.0]]), 0.0));
        assert!(b
            .sub(&a)
            .unwrap()
            .approx_eq(&Matrix::from_rows(&[&[2.0, 3.0]]), 0.0));
        assert!(a
            .scale(2.0)
            .approx_eq(&Matrix::from_rows(&[&[2.0, 4.0]]), 0.0));
    }

    #[test]
    fn add_diag_and_symmetry() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(a.is_symmetric(0.0));
        a.add_diag(0.5);
        assert_eq!(a[(0, 0)], 1.5);
        assert_eq!(a[(1, 1)], 1.5);
        let ns = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 1.0]]);
        assert!(!ns.is_symmetric(0.5));
        assert!(ns.is_symmetric(1.1));
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn from_fn_builds_expected() {
        let m = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(1, 1)], 11.0);
    }

    #[test]
    fn from_diag_builds_diagonal() {
        let m = Matrix::from_diag(&[1.0, 2.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 1)], 2.0);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn aat_matches_explicit_product() {
        // Odd and even row counts exercise both the paired rows and the
        // scalar remainder.
        for (m, n) in [(1, 4), (2, 3), (5, 7), (8, 2)] {
            let a = Matrix::from_fn(m, n, |i, j| ((i * 13 + j * 5) % 9) as f64 - 4.0);
            let fast = a.aat();
            let slow = a.mat_mul(&a.transpose()).unwrap();
            assert!(fast.approx_eq(&slow, 1e-12), "m={m} n={n}");
            assert!(fast.is_symmetric(0.0));
        }
    }
}
