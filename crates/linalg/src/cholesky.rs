//! Cholesky factorization with automatic jitter escalation.

use crate::simd::Isa;
use crate::{par, LinalgError, Matrix, Result};
use std::ops::Range;

/// Panel width of the blocked factorization (and the dispatch threshold:
/// matrices below `2 * BLOCK` use the scalar kernel, whose loop overhead is
/// lower).
const BLOCK: usize = 48;
/// Micro-tile edge of the SYRK-style trailing update.
const TILE: usize = 64;

/// Lower-triangular Cholesky factor `L` of a symmetric positive-definite
/// matrix `A = L Lᵀ`.
///
/// Gaussian-process fitting repeatedly factorizes kernel matrices that are
/// positive definite in exact arithmetic but can lose definiteness to
/// rounding when observations nearly coincide (common in tuning searches
/// where the acquisition revisits a neighbourhood). [`Cholesky::new_jittered`]
/// therefore retries with an escalating diagonal "jitter", the standard GP
/// stabilisation; the jitter actually applied is recorded in
/// [`Cholesky::jitter`].
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
    jitter: f64,
}

impl Cholesky {
    /// Factorize `a` without any jitter. Fails when `a` is not (numerically)
    /// positive definite.
    pub fn new(a: &Matrix) -> Result<Self> {
        Self::with_jitter(a, 0.0, par::global_threads())
    }

    /// Factorize `a + jitter * I`, retrying with jitter escalated by 10x up
    /// to `max_jitter` when the factorization fails.
    ///
    /// This mirrors the behaviour of mainstream GP libraries (GPy, GPyTorch,
    /// GPTune's underlying models). Starts from `initial` (zero jitter first
    /// via [`Cholesky::new_jittered`]). The factor is bit-identical at every
    /// worker count of the blocked kernel's trailing update; `workers <= 1`
    /// takes the sequential path.
    pub fn new_escalating_with(
        a: &Matrix,
        initial: f64,
        max_jitter: f64,
        workers: usize,
    ) -> Result<Self> {
        let mut jitter = initial;
        loop {
            match Self::with_jitter(a, jitter, workers) {
                Ok(c) => return Ok(c),
                Err(_) if jitter == 0.0 => jitter = max_jitter * 1e-8,
                Err(_) if jitter < max_jitter => jitter = (jitter * 10.0).min(max_jitter),
                Err(_) => {
                    return Err(LinalgError::NotPositiveDefinite {
                        last_jitter: jitter,
                    })
                }
            }
        }
    }

    /// Factorize with the default escalation policy: start at zero jitter,
    /// escalate to at most `1e-4 * mean(|diag|)`.
    pub fn new_jittered(a: &Matrix) -> Result<Self> {
        Self::new_jittered_with(a, par::global_threads())
    }

    /// [`Cholesky::new_jittered`] with an explicit worker count (see
    /// [`Cholesky::new_escalating_with`]).
    pub fn new_jittered_with(a: &Matrix, workers: usize) -> Result<Self> {
        let n = a.rows().max(1);
        let mean_diag = a.diag().iter().map(|d| d.abs()).sum::<f64>() / n as f64;
        let max_jitter = (mean_diag * 1e-4).max(1e-12);
        Self::new_escalating_with(a, 0.0, max_jitter, workers)
    }

    fn with_jitter(a: &Matrix, jitter: f64, workers: usize) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if a.rows() >= BLOCK * 2 {
            Self::factor_blocked(a, jitter, workers)
        } else {
            Self::factor_scalar(a, jitter)
        }
    }

    /// Reference (unblocked) factorization — the oracle the blocked kernel
    /// is property-tested against. Prefer [`Cholesky::new`] /
    /// [`Cholesky::new_jittered`], which pick the faster kernel by size.
    pub fn new_unblocked(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        Self::factor_scalar(a, 0.0)
    }

    /// Cache-blocked factorization regardless of size — exposed so tests
    /// can exercise the blocked kernel on matrices below the dispatch
    /// threshold.
    pub fn new_blocked(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        Self::factor_blocked(a, 0.0, 1)
    }

    /// Classic scalar row-by-row factorization.
    fn factor_scalar(a: &Matrix, jitter: f64) -> Result<Self> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                if i == j {
                    sum += jitter;
                }
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite {
                            last_jitter: jitter,
                        });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l, jitter })
    }

    /// Cache-blocked right-looking factorization: factor a `BLOCK×BLOCK`
    /// diagonal block, triangular-solve the panel below it, then apply the
    /// SYRK-style trailing update in `TILE×TILE` micro-blocks whose inner
    /// loop is a contiguous dot over the panel columns. Same flop count as
    /// the scalar kernel, but the trailing update (the `O(n³)` bulk) reads
    /// rows sequentially and reuses each panel row across a whole tile.
    ///
    /// With `workers > 1` the trailing update — the `O(n³)` bulk — is
    /// split into contiguous row ranges across scoped threads; see
    /// [`trailing_update_rows`] for why the factor stays bit-identical.
    fn factor_blocked(a: &Matrix, jitter: f64, workers: usize) -> Result<Self> {
        let n = a.rows();
        // Work in-place on the lower triangle of `a` (+ jitter).
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            let (dst, src) = (&mut l.row_mut(i)[..=i], &a.row(i)[..=i]);
            dst.copy_from_slice(src);
            dst[i] += jitter;
        }
        let mut kb = 0;
        while kb < n {
            let b = BLOCK.min(n - kb);
            // 1. Factor the diagonal block in place (columns kb..kb+b of
            //    rows kb..kb+b; earlier panels were already applied by the
            //    right-looking trailing updates).
            for jj in 0..b {
                let j = kb + jj;
                let mut d = l[(j, j)];
                for c in kb..j {
                    d -= l[(j, c)] * l[(j, c)];
                }
                if d <= 0.0 || !d.is_finite() {
                    return Err(LinalgError::NotPositiveDefinite {
                        last_jitter: jitter,
                    });
                }
                let piv = d.sqrt();
                l[(j, j)] = piv;
                for i in (j + 1)..(kb + b) {
                    let mut s = l[(i, j)];
                    for c in kb..j {
                        s -= l[(i, c)] * l[(j, c)];
                    }
                    l[(i, j)] = s / piv;
                }
            }
            // 2. Panel solve: rows below the block against the block's
            //    lower-triangular factor, register-blocked four rows at a
            //    time — the four dot products share the `row_j` loads and
            //    run as independent accumulator chains. Each row's
            //    arithmetic order (ascending `j`, ascending `c` within the
            //    dot) is unchanged, so the factor is bit-identical to the
            //    row-at-a-time form.
            {
                let (head, tail) = l.as_mut_slice().split_at_mut((kb + b) * n);
                let mut quads = tail.chunks_exact_mut(4 * n);
                for quad in &mut quads {
                    let (r0, rest) = quad.split_at_mut(n);
                    let (r1, rest) = rest.split_at_mut(n);
                    let (r2, r3) = rest.split_at_mut(n);
                    for jj in 0..b {
                        let j = kb + jj;
                        let row_j = &head[j * n + kb..j * n + j];
                        let piv = head[j * n + j];
                        let (mut s0, mut s1, mut s2, mut s3) = (r0[j], r1[j], r2[j], r3[j]);
                        for (c, &ljc) in row_j.iter().enumerate() {
                            s0 -= r0[kb + c] * ljc;
                            s1 -= r1[kb + c] * ljc;
                            s2 -= r2[kb + c] * ljc;
                            s3 -= r3[kb + c] * ljc;
                        }
                        r0[j] = s0 / piv;
                        r1[j] = s1 / piv;
                        r2[j] = s2 / piv;
                        r3[j] = s3 / piv;
                    }
                }
                for row in quads.into_remainder().chunks_exact_mut(n) {
                    for jj in 0..b {
                        let j = kb + jj;
                        let row_j = &head[j * n + kb..j * n + j];
                        let mut s = row[j];
                        for (c, &ljc) in row_j.iter().enumerate() {
                            s -= row[kb + c] * ljc;
                        }
                        row[j] = s / head[j * n + j];
                    }
                }
            }
            // 3. Trailing SYRK update, micro-tiled: A' -= P Pᵀ where P is
            //    the just-computed panel (see `trailing_update_rows` for
            //    the kernel). Trailing rows only read panel columns
            //    (< tail) — which nothing writes during this phase — and
            //    write trailing columns (>= tail) of their own row, so
            //    disjoint row ranges run on separate workers with
            //    bit-identical results. Tiles stay anchored to the `tail`
            //    grid regardless of the partition.
            let tail = kb + b;
            if tail < n {
                let span = n - tail;
                // Below two tiles of trailing rows the update is too small
                // to amortize a thread spawn.
                let w = if span < 2 * TILE { 1 } else { workers };
                let base = par::SendPtr::new(l.as_mut_slice().as_mut_ptr());
                // Row i costs (i - tail + 1)·b flops, so triangular ranges
                // balance the load where equal chunks would not.
                par::for_each_range(par::triangular_ranges(span, w), |r| {
                    // SAFETY: the ranges are disjoint, so rows
                    // [tail + r.start, tail + r.end) are written by this
                    // worker alone; panel columns are read-only for every
                    // worker.
                    unsafe {
                        trailing_update_rows(base, n, kb, b, tail, tail + r.start, tail + r.end)
                    };
                });
            }
            kb += b;
        }
        // The strict upper triangle was never written and stays zero.
        Ok(Cholesky { l, jitter })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// The diagonal jitter that was actually added to achieve definiteness.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solve `L y = b` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "solve_lower: length mismatch");
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.l[(i, k)] * y[k];
            }
            y[i] = sum / self.l[(i, i)];
        }
        y
    }

    /// Solve `L Y = B` in place for a row-major multi-column right-hand
    /// side (`B` is `n × m`; column `j` of the result equals
    /// [`Cholesky::solve_lower`] applied to column `j` of the input,
    /// bit-for-bit — per-column arithmetic order is identical).
    ///
    /// Columns are processed in cache-sized chunks so the `O(n² m)` sweep
    /// reuses each `L` row across a whole chunk, and each pass over a
    /// chunk row subtracts four solved rows, so the row is loaded and
    /// stored once per four terms. The kernel runs at full vector width
    /// (AVX2 where the CPU has it, see `cets_linalg::simd`), each lane doing
    /// the scalar loop's IEEE operations. This is the batched kernel
    /// behind `Gp::predict_batch` and the sparse GP's `L⁻¹K_mn`.
    pub fn solve_lower_multi(&self, b: &mut Matrix) -> Result<()> {
        self.solve_lower_multi_with(b, par::global_threads())
    }

    /// [`Cholesky::solve_lower_multi`] with an explicit worker count.
    ///
    /// Workers own disjoint contiguous column stripes; since each column's
    /// forward substitution is independent and its arithmetic order does
    /// not depend on the stripe boundaries, the result is bit-identical at
    /// every worker count. `workers <= 1` solves the whole width as one
    /// stripe.
    pub fn solve_lower_multi_with(&self, b: &mut Matrix, workers: usize) -> Result<()> {
        self.solve_lower_multi_on(b, workers, Isa::detect())
    }

    /// [`Cholesky::solve_lower_multi_with`] on the compiled copy `isa`.
    pub(crate) fn solve_lower_multi_on(
        &self,
        b: &mut Matrix,
        workers: usize,
        isa: Isa,
    ) -> Result<()> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch(format!(
                "solve_lower_multi: rhs has {} rows, factor is {n}x{n}",
                b.rows()
            )));
        }
        let m = b.cols();
        // A stripe below one cache chunk per worker is not worth a spawn.
        let w = workers.max(1).min(m.div_ceil(SOLVE_CHUNK));
        let base = par::SendPtr::new(b.as_mut_slice().as_mut_ptr());
        par::for_each_chunk(w, m, |cols| {
            // SAFETY: `base` is the n × m buffer of `b`, and the column
            // stripes of distinct workers are disjoint.
            unsafe { forward_stripe(isa, &self.l, base.get(), m, cols) };
        });
        Ok(())
    }

    /// Solve `Lᵀ x = y` (backward substitution).
    pub fn solve_upper(&self, y: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(y.len(), n, "solve_upper: length mismatch");
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= self.l[(k, i)] * x[k];
            }
            x[i] = sum / self.l[(i, i)];
        }
        x
    }

    /// Solve `A x = b` via the two triangular solves.
    pub fn solve_vec(&self, b: &[f64]) -> Vec<f64> {
        self.solve_upper(&self.solve_lower(b))
    }

    /// `log det(A) = 2 Σ log L_ii` — needed for the GP log marginal
    /// likelihood.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// The inverse `A⁻¹` (used sparingly; prefer the solve methods).
    ///
    /// Allocates the result and runs the [`Cholesky::inverse_into`]
    /// kernel on it; infallible, since the buffer has the factor's shape.
    pub fn inverse(&self) -> Matrix {
        let n = self.dim();
        let mut out = Matrix::zeros(n, n);
        self.write_inverse(out.as_mut_slice());
        out
    }

    /// Write `A⁻¹` into `out`, a caller-owned `n × n` buffer that can be
    /// reused across factorizations (its previous contents are ignored).
    ///
    /// Two triangular sweeps of `n³/6` multiply-adds each (LAPACK's
    /// `potri`): the triangular inverse `X = L⁻¹`, then the lower product
    /// `A⁻¹ = XᵀX` computed in place over `X`, then one mirror of the
    /// lower triangle. That is a third of the `n³` of solving against `n`
    /// unit vectors. The arithmetic order is fixed, so the result is
    /// deterministic. This is the kernel behind the GP likelihood
    /// gradient, which needs `K⁻¹` once per evaluation.
    pub fn inverse_into(&self, out: &mut Matrix) -> Result<()> {
        let n = self.dim();
        if out.rows() != n || out.cols() != n {
            return Err(LinalgError::ShapeMismatch(format!(
                "inverse_into: buffer is {}x{}, factor is {n}x{n}",
                out.rows(),
                out.cols()
            )));
        }
        self.write_inverse(out.as_mut_slice());
        Ok(())
    }

    /// The shared kernel of [`Cholesky::inverse`] and
    /// [`Cholesky::inverse_into`]; `x` is row-major `n × n`.
    fn write_inverse(&self, x: &mut [f64]) {
        let n = self.dim();
        // 1. X = L⁻¹ row by row: X_ii = 1/L_ii and, for j < i,
        //    X_ij = −(Σ_{k=j}^{i−1} L_ik X_kj) / L_ii — an axpy of every
        //    earlier row of X into row i (row k of X is zero past k).
        for i in 0..n {
            let (done, rest) = x.split_at_mut(i * n);
            let row_i = &mut rest[..n];
            row_i.fill(0.0);
            let l_i = self.l.row(i);
            for (k, &lik) in l_i[..i].iter().enumerate() {
                let row_k = &done[k * n..k * n + k + 1];
                for (xi, &xk) in row_i.iter_mut().zip(row_k) {
                    *xi += lik * xk;
                }
            }
            let inv = 1.0 / l_i[i];
            for v in &mut row_i[..i] {
                *v *= -inv;
            }
            row_i[i] = inv;
        }
        // 2. A⁻¹ = XᵀX in place: for j ≤ i, (XᵀX)_ij = Σ_{k≥i} X_ki X_kj
        //    reads only rows k ≥ i of X, so overwriting rows in ascending
        //    order never destroys an input still needed. Row i is first
        //    scaled by X_ii (the k = i term), then gains the later rows.
        for i in 0..n {
            let (head, tail) = x.split_at_mut((i + 1) * n);
            let row_i = &mut head[i * n..=i * n + i];
            let xii = row_i[i];
            for v in row_i.iter_mut() {
                *v *= xii;
            }
            for row_k in tail.chunks_exact(n) {
                let xki = row_k[i];
                for (v, &xk) in row_i.iter_mut().zip(&row_k[..=i]) {
                    *v += xki * xk;
                }
            }
        }
        // 3. Mirror the lower triangle.
        for i in 0..n {
            for j in 0..i {
                x[j * n + i] = x[i * n + j];
            }
        }
    }

    /// The diagonal of `A⁻¹` without forming the inverse.
    ///
    /// Column `i` of `L⁻¹` is the forward solve `L z = e_i` (which is zero
    /// above `i`), and `diag(A⁻¹)_i = Σ_k z_k²` since
    /// `A⁻¹ = L⁻ᵀ L⁻¹`. Runs in `n³/6` flops versus the `n³/3` of
    /// [`Cholesky::inverse`] — this closed form is what makes the GP's
    /// leave-one-out residuals cheap (Sundararajan & Keerthi need exactly
    /// `[K⁻¹]_ii` and `α`).
    pub fn inv_diag(&self) -> Vec<f64> {
        let n = self.dim();
        let mut out = vec![0.0; n];
        let mut z = vec![0.0; n];
        for i in 0..n {
            let zi = 1.0 / self.l[(i, i)];
            z[i] = zi;
            let mut acc = zi * zi;
            for k in (i + 1)..n {
                let row_k = &self.l.row(k)[i..k];
                let mut s = 0.0;
                for (lkc, zc) in row_k.iter().zip(&z[i..k]) {
                    s -= lkc * zc;
                }
                let zk = s / self.l[(k, k)];
                z[k] = zk;
                acc += zk * zk;
            }
            out[i] = acc;
        }
        out
    }

    /// Grow the factorization by one row/column in `O(n²)`.
    ///
    /// Given the bordered matrix `[[A, c], [cᵀ, d]]` where `A = L Lᵀ` is the
    /// already-factorized block, the new factor row is `[wᵀ, √(d − wᵀw)]`
    /// with `L w = c`. This is how a Gaussian process absorbs one new
    /// observation per BO iteration without re-paying the `O(n³)`
    /// factorization.
    ///
    /// Fails with [`LinalgError::NotPositiveDefinite`] when the bordered
    /// matrix is not positive definite (`d ≤ wᵀw`); callers should then
    /// fall back to a fresh jittered factorization.
    pub fn append(&mut self, col: &[f64], diag: f64) -> Result<()> {
        let n = self.dim();
        if col.len() != n {
            return Err(LinalgError::ShapeMismatch(format!(
                "append: column length {} != {n}",
                col.len()
            )));
        }
        let w = self.solve_lower(col);
        let wtw: f64 = w.iter().map(|&v| v * v).sum();
        let pivot2 = diag + self.jitter - wtw;
        if pivot2 <= 0.0 || !pivot2.is_finite() {
            return Err(LinalgError::NotPositiveDefinite {
                last_jitter: self.jitter,
            });
        }
        let mut grown = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            for j in 0..=i {
                grown[(i, j)] = self.l[(i, j)];
            }
        }
        for (j, &wj) in w.iter().enumerate() {
            grown[(n, j)] = wj;
        }
        grown[(n, n)] = pivot2.sqrt();
        self.l = grown;
        Ok(())
    }

    /// Rank-one update in `O(n²)`: replace the factorization of `A` with
    /// the factorization of `A + v vᵀ`.
    ///
    /// Uses the classic sequence of Givens-like plane rotations (Golub &
    /// Van Loan §6.5.4). Adding `v vᵀ` to a positive-definite matrix keeps
    /// it positive definite, so the update cannot fail for finite input;
    /// non-finite pivots (overflow, NaN in `v`) are still reported. This
    /// is the kernel behind the sparse GP's `O(m²)` absorption of one new
    /// observation: the inner factor `B = I + A Aᵀ` gains `a aᵀ` per
    /// appended point.
    pub fn rank_one_update(&mut self, v: &[f64]) -> Result<()> {
        let n = self.dim();
        if v.len() != n {
            return Err(LinalgError::ShapeMismatch(format!(
                "rank_one_update: vector length {} != {n}",
                v.len()
            )));
        }
        let mut work = v.to_vec();
        // Validate all pivots before committing any mutation, so a failed
        // update leaves the factor untouched (mirrors `append`).
        let mut trial = self.l.clone();
        for k in 0..n {
            let lkk = trial[(k, k)];
            let wk = work[k];
            let r = (lkk * lkk + wk * wk).sqrt();
            if r <= 0.0 || !r.is_finite() {
                return Err(LinalgError::NotPositiveDefinite {
                    last_jitter: self.jitter,
                });
            }
            let c = r / lkk;
            let s = wk / lkk;
            trial[(k, k)] = r;
            if s != 0.0 {
                for i in (k + 1)..n {
                    let lik = (trial[(i, k)] + s * work[i]) / c;
                    work[i] = c * work[i] - s * lik;
                    trial[(i, k)] = lik;
                }
            }
        }
        self.l = trial;
        Ok(())
    }
}

/// Columns per cache chunk of the forward-solve stripe: the active
/// window of `B` (`n × SOLVE_CHUNK`) stays in L1 while the sweep over `L`
/// reuses it; per-column arithmetic is unaffected by the chunking.
const SOLVE_CHUNK: usize = 64;

/// Forward substitution `L Y = B` over the columns `cols` of the
/// row-major `n × m` right-hand side at `b` ([`Cholesky::solve_lower_multi`]),
/// on the compiled copy `isa`.
///
/// # Safety
///
/// `b` points to a live row-major buffer of `l.rows() × m` values, and no
/// other thread touches its columns `cols` during the call.
unsafe fn forward_stripe(isa: Isa, l: &Matrix, b: *mut f64, m: usize, cols: Range<usize>) {
    if isa.is_avx2() {
        #[cfg(target_arch = "x86_64")]
        {
            #[target_feature(enable = "avx2")]
            unsafe fn avx2(l: &Matrix, b: *mut f64, m: usize, cols: Range<usize>) {
                forward_stripe_body(l, b, m, cols)
            }
            // SAFETY: an AVX2 `Isa` exists only on a CPU that runs AVX2;
            // the buffer contract is the caller's.
            return unsafe { avx2(l, b, m, cols) };
        }
    }
    // SAFETY: the caller's buffer contract.
    unsafe { forward_stripe_body(l, b, m, cols) }
}

/// The source of both copies of [`forward_stripe`]. Row `i` of a chunk
/// becomes `(b_i − Σ_k L_ik·y_k) / L_ii`, subtracting in ascending `k`:
/// four solved rows per pass, then the remainder one at a time.
///
/// # Safety
///
/// As [`forward_stripe`].
#[inline(always)]
unsafe fn forward_stripe_body(l: &Matrix, b: *mut f64, m: usize, cols: Range<usize>) {
    let n = l.rows();
    let mut j0 = cols.start;
    while j0 < cols.end {
        let width = (cols.end - j0).min(SOLVE_CHUNK);
        // Row `r` of the chunk is the `width` values from `b + r·m + j0`,
        // inside the buffer and inside this call's columns. Row `i` is the
        // only one written, and only rows `k < i` are read alongside it,
        // so no shared slice overlaps the mutable one.
        // SAFETY: `r < n` at every call below, so the row lies in the
        // caller's buffer and columns.
        let row = |r: usize| unsafe { std::slice::from_raw_parts(b.add(r * m + j0), width) };
        for i in 0..n {
            let li = l.row(i);
            // SAFETY: as for `row`; no `row(i)` is alive while this is.
            let yi = unsafe { std::slice::from_raw_parts_mut(b.add(i * m + j0), width) };
            let mut k = 0;
            while k + 4 <= i {
                let (l0, l1, l2, l3) = (li[k], li[k + 1], li[k + 2], li[k + 3]);
                let (y0, y1, y2, y3) = (row(k), row(k + 1), row(k + 2), row(k + 3));
                for j in 0..width {
                    let mut v = yi[j];
                    v -= l0 * y0[j];
                    v -= l1 * y1[j];
                    v -= l2 * y2[j];
                    v -= l3 * y3[j];
                    yi[j] = v;
                }
                k += 4;
            }
            while k < i {
                let lik = li[k];
                for (v, &y) in yi.iter_mut().zip(row(k)) {
                    *v -= lik * y;
                }
                k += 1;
            }
            let piv = li[i];
            for v in yi.iter_mut() {
                *v /= piv;
            }
        }
        j0 += width;
    }
}

/// One worker's share of the blocked factorization's trailing SYRK
/// update: `A'[i][j] -= Σ_k P[i][k] P[j][k]` for rows `lo..hi` (all of
/// `tail..n` when sequential), where `P` is the panel `L[.., kb..kb+b]`.
///
/// Row and column tiles stay anchored to the `tail`-based `TILE` grid
/// regardless of the worker's row range, and every output element
/// receives exactly one ascending-`k` dot-product subtraction, so any
/// row partition produces a bit-identical factor.
///
/// # Safety
///
/// `base` must point to the live `n × n` factor storage, with
/// `tail == kb + b <= n` and `tail <= lo <= hi <= n`. For the duration of
/// the call no other thread may write panel columns `[kb, kb + b)` of any
/// row, and no other call may write rows `lo..hi` (this one writes only
/// their trailing columns `>= tail`).
unsafe fn trailing_update_rows(
    base: par::SendPtr,
    n: usize,
    kb: usize,
    b: usize,
    tail: usize,
    lo: usize,
    hi: usize,
) {
    let p = base.get();
    // First tail-anchored row tile overlapping the worker's range.
    let mut ib = tail + (lo - tail) / TILE * TILE;
    while ib < hi {
        let ie = (ib + TILE).min(n);
        let rlo = ib.max(lo);
        let rhi = ie.min(hi);
        let mut jb = tail;
        while jb <= ib {
            let je = (jb + TILE).min(ie);
            for i in rlo..rhi {
                // SAFETY: the panel segment of row `i` is read-only during
                // the trailing phase; the trailing segment belongs to this
                // worker alone. The two slices are disjoint (kb + b == tail).
                let pan_i = unsafe { std::slice::from_raw_parts(p.add(i * n + kb), b) };
                let tr_i = unsafe { std::slice::from_raw_parts_mut(p.add(i * n + tail), n - tail) };
                let jhi = je.min(i);
                let mut j = jb;
                // Columns register-blocked four at a time: the four dot
                // products share the `pan_i` loads and run as independent
                // accumulator chains, so the update is throughput- rather
                // than FP-latency-bound. Each accumulator still sums in
                // ascending panel order, so the result is bit-identical
                // to the unblocked-in-j form.
                while j + 4 <= jhi {
                    // SAFETY: rows `j..j+4` precede `i`; only their panel
                    // columns are read, which no worker writes.
                    let (r0, r1, r2, r3) = unsafe {
                        (
                            std::slice::from_raw_parts(p.add(j * n + kb), b),
                            std::slice::from_raw_parts(p.add((j + 1) * n + kb), b),
                            std::slice::from_raw_parts(p.add((j + 2) * n + kb), b),
                            std::slice::from_raw_parts(p.add((j + 3) * n + kb), b),
                        )
                    };
                    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
                    for (k, &pi) in pan_i.iter().enumerate() {
                        s0 += pi * r0[k];
                        s1 += pi * r1[k];
                        s2 += pi * r2[k];
                        s3 += pi * r3[k];
                    }
                    tr_i[j - tail] -= s0;
                    tr_i[j + 1 - tail] -= s1;
                    tr_i[j + 2 - tail] -= s2;
                    tr_i[j + 3 - tail] -= s3;
                    j += 4;
                }
                while j < jhi {
                    // SAFETY: as above — panel columns of an earlier row.
                    let row_j = unsafe { std::slice::from_raw_parts(p.add(j * n + kb), b) };
                    let mut s = 0.0;
                    for (pi, pj) in pan_i.iter().zip(row_j) {
                        s += pi * pj;
                    }
                    tr_i[j - tail] -= s;
                    j += 1;
                }
                if (jb..je).contains(&i) {
                    // Diagonal element: dot of the panel row with itself.
                    let mut s = 0.0;
                    for pi in pan_i {
                        s += pi * pi;
                    }
                    tr_i[i - tail] -= s;
                }
            }
            jb += TILE;
        }
        ib += TILE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[
            &[4.0, 12.0, -16.0],
            &[12.0, 37.0, -43.0],
            &[-16.0, -43.0, 98.0],
        ])
    }

    #[test]
    fn factor_known_matrix() {
        // Classic example: L = [[2,0,0],[6,1,0],[-8,5,3]].
        let ch = Cholesky::new(&spd3()).unwrap();
        let l = ch.l();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 6.0).abs() < 1e-12);
        assert!((l[(2, 0)] + 8.0).abs() < 1e-12);
        assert!((l[(1, 1)] - 1.0).abs() < 1e-12);
        assert!((l[(2, 1)] - 5.0).abs() < 1e-12);
        assert!((l[(2, 2)] - 3.0).abs() < 1e-12);
        assert_eq!(ch.jitter(), 0.0);
    }

    #[test]
    fn reconstruction() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let llt = ch.l().mat_mul(&ch.l().transpose()).unwrap();
        assert!(llt.approx_eq(&a, 1e-10));
    }

    #[test]
    fn solve_matches_direct() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = ch.solve_vec(&b);
        let back = a.mat_vec(&x);
        for (got, want) in back.iter().zip(&b) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn solve_mat_identity_gives_inverse() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let inv = ch.inverse();
        let prod = a.mat_mul(&inv).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(3), 1e-8));
    }

    #[test]
    fn inverse_into_reuses_a_buffer_and_checks_its_shape() {
        for n in [1, 5, 70] {
            let a = kernel_like(n);
            let ch = Cholesky::new(&a).unwrap();
            // Stale contents of a reused buffer must not leak through.
            let mut buf = Matrix::from_fn(n, n, |i, j| (i * n + j) as f64 - 7.5);
            ch.inverse_into(&mut buf).unwrap();
            assert!(buf.is_symmetric(0.0), "n={n}: inverse not symmetric");
            let prod = a.mat_mul(&buf).unwrap();
            assert!(
                prod.approx_eq(&Matrix::identity(n), 1e-8),
                "n={n}: A·A⁻¹ != I"
            );
            let fresh = ch.inverse();
            assert!(buf.approx_eq(&fresh, 0.0), "n={n}: inverse_into != inverse");
        }
        let ch = Cholesky::new(&spd3()).unwrap();
        assert!(matches!(
            ch.inverse_into(&mut Matrix::zeros(3, 2)),
            Err(LinalgError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn log_det_matches_known() {
        // det = (2*1*3)^2 = 36.
        let ch = Cholesky::new(&spd3()).unwrap();
        assert!((ch.log_det() - 36.0_f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn jitter_rescues_near_singular() {
        // Rank-deficient Gram matrix: duplicate observation rows.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let ch = Cholesky::new_jittered(&a).unwrap();
        assert!(ch.jitter() > 0.0);
        // Solution should still be finite.
        let x = ch.solve_vec(&[1.0, 1.0]);
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn jitter_gives_up_on_indefinite() {
        let a = Matrix::from_rows(&[&[0.0, 10.0], &[10.0, 0.0]]);
        assert!(matches!(
            Cholesky::new_jittered(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn append_matches_full_factorization() {
        let a = spd3();
        // Factor the leading 2x2 block, then append the third row/col.
        let block = Matrix::from_fn(2, 2, |i, j| a[(i, j)]);
        let mut ch = Cholesky::new(&block).unwrap();
        ch.append(&[a[(0, 2)], a[(1, 2)]], a[(2, 2)]).unwrap();
        let full = Cholesky::new(&a).unwrap();
        assert!(ch.l().approx_eq(full.l(), 1e-10));
        assert!((ch.log_det() - full.log_det()).abs() < 1e-10);
        // Solves agree too.
        let b = [1.0, -2.0, 0.5];
        let x1 = ch.solve_vec(&b);
        let x2 = full.solve_vec(&b);
        for (a, b) in x1.iter().zip(&x2) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn append_rejects_indefinite_border() {
        let a = Matrix::from_rows(&[&[1.0]]);
        let mut ch = Cholesky::new(&a).unwrap();
        // Bordering with c = 2, d = 1: Schur complement 1 - 4 < 0.
        assert!(matches!(
            ch.append(&[2.0], 1.0),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        // Factor unchanged after a failed append.
        assert_eq!(ch.dim(), 1);
    }

    #[test]
    fn append_shape_checked() {
        let mut ch = Cholesky::new(&spd3()).unwrap();
        assert!(matches!(
            ch.append(&[1.0], 5.0),
            Err(LinalgError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn repeated_appends_build_large_factor() {
        // Build a 6x6 SPD matrix by appending one bordered row at a time.
        let n = 6;
        let a = Matrix::from_fn(n, n, |i, j| {
            let d = (i as f64 - j as f64).abs();
            (-0.5 * d * d).exp() + if i == j { 0.1 } else { 0.0 }
        });
        let mut ch = Cholesky::new(&Matrix::from_rows(&[&[a[(0, 0)]]])).unwrap();
        for k in 1..n {
            let col: Vec<f64> = (0..k).map(|i| a[(i, k)]).collect();
            ch.append(&col, a[(k, k)]).unwrap();
        }
        let full = Cholesky::new(&a).unwrap();
        assert!(ch.l().approx_eq(full.l(), 1e-9));
    }

    /// A well-conditioned SPD matrix shaped like a GP kernel Gram matrix.
    fn kernel_like(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            let d = (i as f64 - j as f64) / n as f64;
            (-8.0 * d * d).exp() + if i == j { 0.05 } else { 0.0 }
        })
    }

    #[test]
    fn blocked_matches_unblocked() {
        // Span the dispatch threshold and non-multiple-of-block sizes.
        for n in [5, 47, 96, 131] {
            let a = kernel_like(n);
            let blocked = Cholesky::new_blocked(&a).unwrap();
            let scalar = Cholesky::new_unblocked(&a).unwrap();
            assert!(
                blocked.l().approx_eq(scalar.l(), 1e-11),
                "n={n}: blocked and scalar factors diverge"
            );
            // And the dispatching front door reconstructs A.
            let ch = Cholesky::new(&a).unwrap();
            let llt = ch.l().mat_mul(&ch.l().transpose()).unwrap();
            assert!(llt.approx_eq(&a, 1e-9), "n={n}: L Lᵀ != A");
        }
    }

    #[test]
    fn blocked_rejects_indefinite() {
        let mut a = kernel_like(120);
        a[(60, 60)] = -5.0;
        assert!(matches!(
            Cholesky::new_blocked(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        assert!(matches!(
            Cholesky::new_blocked(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(matches!(
            Cholesky::new_unblocked(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn solve_lower_multi_matches_columnwise() {
        let n = 70;
        let a = kernel_like(n);
        let ch = Cholesky::new(&a).unwrap();
        // 130 columns spans two column chunks plus a ragged tail.
        let m = 130;
        let mut b = Matrix::from_fn(n, m, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
        let cols: Vec<Vec<f64>> = (0..m).map(|j| b.col(j)).collect();
        ch.solve_lower_multi(&mut b).unwrap();
        for (j, col) in cols.iter().enumerate() {
            let y = ch.solve_lower(col);
            for i in 0..n {
                // Bit-identical, not merely close.
                assert_eq!(b[(i, j)], y[i], "element ({i}, {j})");
            }
        }
        // Shape mismatch is rejected.
        let mut bad = Matrix::zeros(n + 1, 2);
        assert!(matches!(
            ch.solve_lower_multi(&mut bad),
            Err(LinalgError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn inv_diag_matches_inverse() {
        for n in [1, 3, 24] {
            let a = kernel_like(n);
            let ch = Cholesky::new(&a).unwrap();
            let fast = ch.inv_diag();
            let full = ch.inverse().diag();
            for (f, g) in fast.iter().zip(&full) {
                assert!((f - g).abs() <= 1e-10 * g.abs().max(1.0), "{f} vs {g}");
            }
        }
    }

    #[test]
    fn rank_one_update_matches_fresh_factorization() {
        for n in [1, 3, 24, 70] {
            let a = kernel_like(n);
            let v: Vec<f64> = (0..n)
                .map(|i| ((i * 7 + 3) % 11) as f64 / 11.0 - 0.4)
                .collect();
            let mut ch = Cholesky::new(&a).unwrap();
            ch.rank_one_update(&v).unwrap();
            let mut updated = a.clone();
            for i in 0..n {
                for j in 0..n {
                    updated[(i, j)] += v[i] * v[j];
                }
            }
            let fresh = Cholesky::new(&updated).unwrap();
            assert!(
                ch.l().approx_eq(fresh.l(), 1e-9),
                "n={n}: rank-one update diverges from fresh factorization"
            );
        }
    }

    #[test]
    fn rank_one_update_with_zero_vector_is_identity() {
        let a = kernel_like(12);
        let mut ch = Cholesky::new(&a).unwrap();
        let before = ch.l().clone();
        ch.rank_one_update(&[0.0; 12]).unwrap();
        for i in 0..12 {
            for j in 0..12 {
                assert_eq!(ch.l()[(i, j)], before[(i, j)]);
            }
        }
    }

    #[test]
    fn rank_one_update_rejects_bad_input() {
        let mut ch = Cholesky::new(&spd3()).unwrap();
        assert!(matches!(
            ch.rank_one_update(&[1.0]),
            Err(LinalgError::ShapeMismatch(_))
        ));
        let before = ch.l().clone();
        assert!(matches!(
            ch.rank_one_update(&[f64::NAN, 0.0, 0.0]),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        // Factor unchanged after a failed update.
        assert!(ch.l().approx_eq(&before, 0.0));
    }

    #[test]
    fn triangular_solves_compose() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let b = [5.0, -1.0, 0.5];
        let y = ch.solve_lower(&b);
        // L y == b
        let back = ch.l().mat_vec(&y);
        for (g, w) in back.iter().zip(&b) {
            assert!((g - w).abs() < 1e-10);
        }
        let x = ch.solve_upper(&y);
        let back2 = ch.l().transpose().mat_vec(&x);
        for (g, w) in back2.iter().zip(&y) {
            assert!((g - w).abs() < 1e-10);
        }
    }
}
