//! Property-based tests for the dense linear algebra substrate.

use cets_linalg::simd::{self, Isa};
use cets_linalg::{vecops, Cholesky, Matrix, SymEigen};
use proptest::prelude::*;

/// Strategy: an n×n matrix with entries in [-5, 5].
fn square(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0..5.0f64, n * n)
        .prop_map(move |data| Matrix::from_vec(n, n, data))
}

/// Strategy: a symmetric positive-definite matrix A = BᵀB + n·I.
fn spd(n: usize) -> impl Strategy<Value = Matrix> {
    square(n).prop_map(move |b| {
        let mut a = b.transpose().mat_mul(&b).unwrap();
        a.add_diag(n as f64);
        a
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involution(m in square(4)) {
        prop_assert!(m.transpose().transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn matmul_transpose_identity(a in square(3), b in square(3)) {
        // (A B)ᵀ == Bᵀ Aᵀ
        let left = a.mat_mul(&b).unwrap().transpose();
        let right = b.transpose().mat_mul(&a.transpose()).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-9));
    }

    #[test]
    fn matvec_matches_matmul(a in square(4), v in proptest::collection::vec(-5.0..5.0f64, 4)) {
        let as_mat = Matrix::from_vec(4, 1, v.clone());
        let prod = a.mat_mul(&as_mat).unwrap();
        let direct = a.mat_vec(&v);
        for i in 0..4 {
            prop_assert!((prod[(i, 0)] - direct[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn cholesky_reconstructs(a in spd(4)) {
        let ch = Cholesky::new_jittered(&a).unwrap();
        let llt = ch.l().mat_mul(&ch.l().transpose()).unwrap();
        // Reconstruction within jitter + rounding.
        let tol = 1e-6 * a.max_abs().max(1.0);
        prop_assert!(llt.approx_eq(&a, tol), "||LLt - A|| too big");
    }

    #[test]
    fn cholesky_solve_roundtrip(a in spd(4), b in proptest::collection::vec(-5.0..5.0f64, 4)) {
        let ch = Cholesky::new_jittered(&a).unwrap();
        let x = ch.solve_vec(&b);
        let back = a.mat_vec(&x);
        for (g, w) in back.iter().zip(&b) {
            prop_assert!((g - w).abs() < 1e-6 * a.max_abs().max(1.0));
        }
    }

    #[test]
    fn cholesky_logdet_matches_eigenvalues(a in spd(3)) {
        let ch = Cholesky::new(&a).unwrap();
        let e = SymEigen::new(&a).unwrap();
        // det = Π λᵢ > 0 for SPD, so log det = Σ ln λᵢ across factorizations.
        prop_assert!(e.eigenvalues().iter().all(|&l| l > 0.0));
        let sum_ln: f64 = e.eigenvalues().iter().map(|l| l.ln()).sum();
        prop_assert!((ch.log_det() - sum_ln).abs() < 1e-6);
    }

    #[test]
    fn eigen_reconstructs_symmetric(m in square(4)) {
        // Symmetrize: A = (M + Mᵀ)/2.
        let a = m.add(&m.transpose()).unwrap().scale(0.5);
        let e = SymEigen::new(&a).unwrap();
        let lam = Matrix::from_diag(e.eigenvalues());
        let v = e.eigenvectors();
        let back = v.mat_mul(&lam).unwrap().mat_mul(&v.transpose()).unwrap();
        prop_assert!(back.approx_eq(&a, 1e-7 * (1.0 + a.max_abs())), "reconstruction failed");
        // Trace preserved.
        let trace: f64 = a.diag().iter().sum();
        let sum: f64 = e.eigenvalues().iter().sum();
        prop_assert!((trace - sum).abs() < 1e-7 * (1.0 + trace.abs()));
    }

    #[test]
    fn eigen_of_spd_positive(a in spd(4)) {
        let e = SymEigen::new(&a).unwrap();
        prop_assert!(e.eigenvalues().iter().all(|&l| l > 0.0));
        prop_assert!(e.condition_number().is_finite());
    }

    #[test]
    fn dot_cauchy_schwarz(
        a in proptest::collection::vec(-10.0..10.0f64, 5),
        b in proptest::collection::vec(-10.0..10.0f64, 5),
    ) {
        let lhs = vecops::dot(&a, &b).abs();
        let rhs = vecops::norm2(&a) * vecops::norm2(&b);
        prop_assert!(lhs <= rhs + 1e-9);
    }

    #[test]
    fn weighted_sq_dist_zero_iff_equal(a in proptest::collection::vec(-10.0..10.0f64, 4)) {
        let w = vec![1.0; 4];
        prop_assert_eq!(vecops::weighted_sq_dist(&a, &a, &w), 0.0);
    }

    #[test]
    fn variance_nonnegative_and_shift_invariant(
        xs in proptest::collection::vec(-100.0..100.0f64, 2..20),
        shift in -50.0..50.0f64,
    ) {
        let v = vecops::variance(&xs);
        prop_assert!(v >= 0.0);
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        prop_assert!((vecops::variance(&shifted) - v).abs() < 1e-6 * (1.0 + v));
    }

    #[test]
    fn argmin_is_minimal(xs in proptest::collection::vec(-100.0..100.0f64, 1..20)) {
        let (i, v) = vecops::argmin(&xs).unwrap();
        prop_assert_eq!(xs[i], v);
        prop_assert!(xs.iter().all(|&x| x >= v));
    }

    #[test]
    fn blocked_cholesky_matches_unblocked(a in spd(24)) {
        // The blocked factorization reorganizes the loop nest but performs
        // the same arithmetic per entry; agreement should be tight.
        let unblocked = Cholesky::new_unblocked(&a).unwrap();
        let blocked = Cholesky::new_blocked(&a).unwrap();
        let tol = 1e-9 * a.max_abs().max(1.0);
        prop_assert!(
            blocked.l().approx_eq(unblocked.l(), tol),
            "blocked and unblocked factors diverge"
        );
    }

    #[test]
    fn solve_lower_multi_is_columnwise_solve_lower(
        a in spd(12),
        cols in proptest::collection::vec(-5.0..5.0f64, 12 * 7),
    ) {
        // The multi-RHS forward solve must be BIT-identical to solving each
        // column alone: the GP batch predictor's chunk invariance (and thus
        // the parallel acquisition scorer's determinism) rests on it.
        let ch = Cholesky::new_jittered(&a).unwrap();
        let mut block = Matrix::from_vec(12, 7, cols.clone());
        prop_assert!(ch.solve_lower_multi(&mut block).is_ok());
        for j in 0..7 {
            let col: Vec<f64> = (0..12).map(|i| cols[i * 7 + j]).collect();
            let single = ch.solve_lower(&col);
            for i in 0..12 {
                prop_assert_eq!(block[(i, j)], single[i], "col {} row {}", j, i);
            }
        }
    }

    #[test]
    fn inv_diag_matches_explicit_inverse(a in spd(9)) {
        let ch = Cholesky::new_jittered(&a).unwrap();
        let fast = ch.inv_diag();
        let inv = ch.inverse();
        for i in 0..9 {
            let explicit = inv[(i, i)];
            prop_assert!(
                (fast[i] - explicit).abs() < 1e-9 * (1.0 + explicit.abs()),
                "diag {}: {} vs {}", i, fast[i], explicit
            );
        }
    }

    #[test]
    fn rank_desc_is_permutation_sorted(xs in proptest::collection::vec(-100.0..100.0f64, 1..20)) {
        let order = vecops::rank_desc(&xs);
        let mut seen = order.clone();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..xs.len()).collect::<Vec<_>>());
        for w in order.windows(2) {
            prop_assert!(xs[w[0]] >= xs[w[1]]);
        }
    }
}

/// A deterministic, well-conditioned SPD matrix shaped like a GP kernel
/// Gram matrix, perturbed by `seed` so every proptest case differs.
fn kernel_like(n: usize, seed: u64) -> Matrix {
    // Squared-exponential Gram matrix (PSD by construction) plus a
    // positive diagonal; the seed varies the length-scale and the nugget.
    let scale = 6.0 + (seed % 7) as f64;
    let nugget = 0.05 + (seed % 13) as f64 / 100.0;
    Matrix::from_fn(n, n, |i, j| {
        let d = (i as f64 - j as f64) / n.max(1) as f64;
        (-scale * d * d).exp() + if i == j { nugget } else { 0.0 }
    })
}

// Determinism contract of the parallel compute layer (`cets_linalg::par`):
// every kernel is BIT-identical at any worker count. Sizes deliberately
// include dimensions below the internal chunk/block sizes (so some workers
// get nothing), just above the dispatch thresholds, and well above them.
// The product operands are real-valued (`ragged`): small-integer data sums
// exactly in f64, so a worker that reordered a sum would still pass.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn parallel_cholesky_is_bit_identical(seed in 0u64..1000) {
        // 5/47: scalar kernel. 97: blocked, trailing span below the spawn
        // grain. 181/230: blocked with parallel trailing updates.
        for n in [5usize, 47, 97, 181, 230] {
            let a = kernel_like(n, seed);
            let base = Cholesky::new_jittered_with(&a, 1).unwrap();
            for w in [2usize, 4] {
                let p = Cholesky::new_jittered_with(&a, w).unwrap();
                prop_assert_eq!(p.l().as_slice(), base.l().as_slice(), "n={} w={}", n, w);
                prop_assert_eq!(p.jitter(), base.jitter());
            }
        }
    }

    #[test]
    fn parallel_mat_mul_is_bit_identical(seed in 0u64..1000) {
        // (2,3,2): smaller than any chunk. (97,5,130): crosses the tile
        // dispatch with a skinny inner dimension. (130,97,40): tall-thin.
        for (n, k, m) in [(2usize, 3usize, 2usize), (97, 5, 130), (130, 97, 40)] {
            let a = ragged(n, k, seed);
            let b = ragged(k, m, !seed);
            let base = a.mat_mul_with(&b, 1).unwrap();
            for w in [2usize, 4] {
                let p = a.mat_mul_with(&b, w).unwrap();
                prop_assert_eq!(p.as_slice(), base.as_slice(), "{}x{}x{} w={}", n, k, m, w);
            }
        }
    }

    #[test]
    fn parallel_solve_lower_multi_is_bit_identical(seed in 0u64..1000) {
        let n = 70;
        let a = kernel_like(n, seed);
        let ch = Cholesky::new_jittered_with(&a, 1).unwrap();
        // 3 columns: fewer than one cache chunk. 130/200: two to four
        // column stripes.
        for m in [3usize, 130, 200] {
            let rhs = Matrix::from_fn(n, m, |i, j| (((i * 29 + j * 11) as u64 ^ seed) % 13) as f64 - 6.0);
            let mut base = rhs.clone();
            ch.solve_lower_multi_with(&mut base, 1).unwrap();
            for w in [2usize, 4] {
                let mut p = rhs.clone();
                ch.solve_lower_multi_with(&mut p, w).unwrap();
                prop_assert_eq!(p.as_slice(), base.as_slice(), "m={} w={}", m, w);
            }
        }
    }

    #[test]
    fn parallel_aat_is_bit_identical(seed in 0u64..1000) {
        // (3,5): tiny. (48,400): the sparse-GP shape, above the spawn
        // grain. (9,2000): fewer rows than 2·workers.
        for (m, n) in [(3usize, 5usize), (48, 400), (9, 2000)] {
            let a = ragged(m, n, seed);
            let base = a.aat_with(1);
            for w in [2usize, 4] {
                let p = a.aat_with(w);
                prop_assert_eq!(p.as_slice(), base.as_slice(), "m={} n={} w={}", m, n, w);
            }
        }
    }
}

/// The compiled copies of the vector kernels this CPU runs, baseline
/// first. Says so when the AVX2 copy cannot run here, so a pass on such a
/// CPU does not read as a pass of both copies.
fn copies() -> Vec<Isa> {
    let mut v = vec![Isa::baseline()];
    match Isa::avx2() {
        Some(isa) => v.push(isa),
        None => eprintln!("skipped the AVX2 copy: this CPU does not run AVX2"),
    }
    v
}

/// `rows × cols` values in `[-1, 1)` that round differently under any
/// reassociation, drawn from a splitmix64 stream.
fn ragged(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    })
}

/// The Gram product `A Aᵀ` as the scalar kernel computed it before the
/// panel kernel: rows in pairs, each entry one ascending-`k` dot from
/// `0.0`, the upper triangle mirrored.
fn aat_oracle(a: &Matrix) -> Matrix {
    let (m, n) = (a.rows(), a.cols());
    let mut out = Matrix::zeros(m, m);
    let mut i = 0;
    while i < m {
        if i + 1 < m {
            let (row_i0, row_i1) = (a.row(i), a.row(i + 1));
            for j in 0..=i {
                let row_j = a.row(j);
                let (mut s0, mut s1) = (0.0, 0.0);
                for k in 0..n {
                    s0 += row_i0[k] * row_j[k];
                    s1 += row_i1[k] * row_j[k];
                }
                out[(i, j)] = s0;
                out[(i + 1, j)] = s1;
            }
            let mut d = 0.0;
            for &v in row_i1 {
                d += v * v;
            }
            out[(i + 1, i + 1)] = d;
            i += 2;
        } else {
            for j in 0..=i {
                let mut s = 0.0;
                for (x, y) in a.row(i).iter().zip(a.row(j)) {
                    s += x * y;
                }
                out[(i, j)] = s;
            }
            i += 1;
        }
    }
    for r in 0..m {
        for c in (r + 1)..m {
            out[(r, c)] = out[(c, r)];
        }
    }
    out
}

/// `L Y = B` as the scalar kernel solved it before the stripe kernel:
/// per row, one `b_i −= L_ik·y_k` sweep per `k`, then the division.
fn solve_oracle(l: &Matrix, b: &mut Matrix) {
    let (n, m) = (b.rows(), b.cols());
    for i in 0..n {
        for k in 0..i {
            let lik = l[(i, k)];
            for j in 0..m {
                let y = b[(k, j)];
                b[(i, j)] -= lik * y;
            }
        }
        for j in 0..m {
            b[(i, j)] /= l[(i, i)];
        }
    }
}

// Both compiled copies of each vector kernel (`cets_linalg::simd`) against
// the scalar loop they replace, bit for bit, at row counts of every
// residue mod 4, column counts off the 64-column chunk grid, and one to
// three workers.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn vector_aat_matches_scalar_oracle(seed in 0u64..1000) {
        // 5..8 rows: one partial panel. 44..47 rows × 389 columns: above
        // the spawn grain, so two and three workers split the rows.
        for (m, n) in [(5usize, 13usize), (6, 1), (7, 70), (8, 64), (44, 389), (45, 389), (46, 389), (47, 389)] {
            let a = ragged(m, n, seed ^ (m * 1000 + n) as u64);
            let expect = aat_oracle(&a);
            for &isa in &copies() {
                for w in 1..=3 {
                    let got = simd::aat(&a, w, isa);
                    prop_assert_eq!(got.as_slice(), expect.as_slice(), "{}x{} {:?} w={}", m, n, isa, w);
                }
            }
        }
    }

    #[test]
    fn vector_solve_stripe_matches_scalar_oracle(seed in 0u64..1000) {
        // Orders of every residue mod 4 (the stripe subtracts four solved
        // rows per pass); 3 columns: below one chunk; 389: six full
        // 64-column chunks and a ragged one, split into two or three
        // stripes.
        for n in [1usize, 6, 44, 45, 46, 47] {
            let l = Cholesky::new_jittered_with(&kernel_like(n, seed), 1).unwrap();
            for m in [3usize, 389] {
                let rhs = ragged(n, m, seed ^ (n * 1000 + m) as u64);
                let mut expect = rhs.clone();
                solve_oracle(l.l(), &mut expect);
                for &isa in &copies() {
                    for w in 1..=3 {
                        let mut got = rhs.clone();
                        simd::solve_lower_multi(&l, &mut got, w, isa).unwrap();
                        prop_assert_eq!(got.as_slice(), expect.as_slice(), "n={} m={} {:?} w={}", n, m, isa, w);
                    }
                }
            }
        }
    }
}
