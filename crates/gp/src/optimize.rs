//! Local minimizers for hyperparameter training: box-projected L-BFGS on
//! an analytic gradient (the exact GP's likelihood) and derivative-free
//! Nelder–Mead simplex search (the sparse tier's ELBO).

use std::collections::VecDeque;

/// Options for [`nelder_mead`].
#[derive(Debug, Clone)]
pub struct NelderMeadOptions {
    /// Maximum objective evaluations.
    pub max_evals: usize,
    /// Stop when the simplex's objective spread falls below this.
    pub f_tol: f64,
    /// Initial simplex edge length.
    pub initial_step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions {
            max_evals: 400,
            f_tol: 1e-8,
            initial_step: 0.5,
        }
    }
}

/// Minimize `f` from `x0` with the Nelder–Mead simplex method
/// (standard coefficients: reflection 1, expansion 2, contraction ½,
/// shrink ½). Returns `(argmin, min)`.
///
/// Non-finite objective values are treated as `+∞`, so `f` may freely
/// signal infeasible hyperparameters (e.g. a kernel matrix that fails to
/// factorize) by returning `f64::INFINITY` or NaN.
pub fn nelder_mead(
    f: impl Fn(&[f64]) -> f64,
    x0: &[f64],
    opts: &NelderMeadOptions,
) -> (Vec<f64>, f64) {
    let n = x0.len();
    assert!(n > 0, "nelder_mead: empty start point");
    let safe = |v: f64| if v.is_finite() { v } else { f64::INFINITY };
    let evals = std::cell::Cell::new(0usize);
    let eval = |x: &[f64]| {
        evals.set(evals.get() + 1);
        safe(f(x))
    };

    // Initial simplex: x0 plus one step along each axis.
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
    let f0 = eval(x0);
    simplex.push((x0.to_vec(), f0));
    for i in 0..n {
        let mut xi = x0.to_vec();
        xi[i] += opts.initial_step;
        let fi = eval(&xi);
        simplex.push((xi, fi));
    }

    while evals.get() < opts.max_evals {
        simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let best = simplex[0].1;
        let worst = simplex[n].1;
        if (worst - best).abs() < opts.f_tol && worst.is_finite() {
            break;
        }

        // Centroid of all but the worst.
        let mut centroid = vec![0.0; n];
        for (x, _) in &simplex[..n] {
            for (c, &xi) in centroid.iter_mut().zip(x) {
                *c += xi / n as f64;
            }
        }

        let worst_x = simplex[n].0.clone();
        let reflect: Vec<f64> = centroid
            .iter()
            .zip(&worst_x)
            .map(|(&c, &w)| c + (c - w))
            .collect();
        let f_r = eval(&reflect);

        if f_r < simplex[0].1 {
            // Try expansion.
            let expand: Vec<f64> = centroid
                .iter()
                .zip(&worst_x)
                .map(|(&c, &w)| c + 2.0 * (c - w))
                .collect();
            let f_e = eval(&expand);
            simplex[n] = if f_e < f_r {
                (expand, f_e)
            } else {
                (reflect, f_r)
            };
        } else if f_r < simplex[n - 1].1 {
            simplex[n] = (reflect, f_r);
        } else {
            // Contraction (outside if reflection improved on worst, else inside).
            let towards: &[f64] = if f_r < simplex[n].1 {
                &reflect
            } else {
                &worst_x
            };
            let contract: Vec<f64> = centroid
                .iter()
                .zip(towards)
                .map(|(&c, &t)| c + 0.5 * (t - c))
                .collect();
            let f_c = eval(&contract);
            if f_c < simplex[n].1.min(f_r) {
                simplex[n] = (contract, f_c);
            } else {
                // Shrink everything towards the best vertex.
                let best_x = simplex[0].0.clone();
                for entry in simplex.iter_mut().skip(1) {
                    let shrunk: Vec<f64> = best_x
                        .iter()
                        .zip(&entry.0)
                        .map(|(&b, &x)| b + 0.5 * (x - b))
                        .collect();
                    let fs = eval(&shrunk);
                    *entry = (shrunk, fs);
                }
            }
        }
    }
    simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    let (x, fx) = simplex.swap_remove(0);
    (x, fx)
}

/// Options for box-projected [`lbfgs`]. [`crate::Gp::train`] runs the
/// defaults from each restart's start point.
#[derive(Debug, Clone)]
pub(crate) struct LbfgsOptions {
    /// Maximum value-and-gradient evaluations, line-search trials
    /// included.
    pub(crate) max_evals: usize,
    /// Stop when an accepted step lowers the objective by less than
    /// `f_tol · max(|f|, 1)`.
    pub(crate) f_tol: f64,
    /// Stop when no component of the projected gradient exceeds this in
    /// magnitude (a first-order point of the box-constrained problem).
    pub(crate) g_tol: f64,
}

impl Default for LbfgsOptions {
    fn default() -> Self {
        LbfgsOptions {
            max_evals: 60,
            f_tol: 1e-10,
            g_tol: 1e-5,
        }
    }
}

/// Correction pairs kept by [`lbfgs`].
const LBFGS_MEMORY: usize = 8;
/// Sufficient-decrease constant of the Armijo condition.
const ARMIJO_C1: f64 = 1e-4;
/// Largest move of any coordinate in one trial step: a step of one unit
/// in log-hyperparameter space already rescales its parameter by `e`.
const MAX_STEP: f64 = 2.0;

/// Minimize `fg` over the box `bounds` (one `(lower, upper)` pair per
/// coordinate) from `x0` with projected L-BFGS. `fg(x, grad)` returns
/// `f(x)` and writes `∇f(x)` into `grad`. Returns `(argmin, min)`.
///
/// Each iteration fixes the coordinates that sit on a bound with the
/// gradient pushing outward, takes the two-loop L-BFGS direction on the
/// rest (falling back to steepest descent when that is not a descent
/// direction), and backtracks along the projected path `P(x + t·d)`
/// until the Armijo condition holds. A correction pair enters the memory
/// only when its curvature `sᵀy` is positive. A non-finite value or
/// gradient at a trial point is rejected like an Armijo failure, so `fg`
/// may signal infeasible points with `f64::INFINITY` or NaN; a
/// non-finite start returns `(P(x0), +∞)`. Everything is deterministic:
/// the same inputs give bit-identical iterates.
pub(crate) fn lbfgs(
    mut fg: impl FnMut(&[f64], &mut [f64]) -> f64,
    x0: &[f64],
    bounds: &[(f64, f64)],
    opts: &LbfgsOptions,
) -> (Vec<f64>, f64) {
    let n = x0.len();
    debug_assert_eq!(bounds.len(), n, "lbfgs: one bound pair per coordinate");
    let project = |x: &mut [f64]| {
        for (v, &(lo, hi)) in x.iter_mut().zip(bounds) {
            *v = v.max(lo).min(hi);
        }
    };
    let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(&u, &v)| u * v).sum::<f64>();
    let finite = |f: f64, g: &[f64]| f.is_finite() && g.iter().all(|v| v.is_finite());

    let mut x = x0.to_vec();
    project(&mut x);
    let mut g = vec![0.0; n];
    let mut f = fg(&x, &mut g);
    let mut evals = 1;
    if !finite(f, &g) {
        return (x, f64::INFINITY);
    }
    let mut memory: VecDeque<(Vec<f64>, Vec<f64>, f64)> = VecDeque::with_capacity(LBFGS_MEMORY);
    let (mut d, mut xt, mut gt) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let mut alpha = [0.0; LBFGS_MEMORY];
    while evals < opts.max_evals {
        // Coordinates on a bound whose gradient points out of the box
        // stay put this iteration; the projected gradient is the rest.
        let fixed = |i: usize| {
            let (lo, hi) = bounds[i];
            (x[i] <= lo && g[i] > 0.0) || (x[i] >= hi && g[i] < 0.0)
        };
        for (i, di) in d.iter_mut().enumerate() {
            *di = if fixed(i) { 0.0 } else { g[i] };
        }
        if d.iter().all(|v| v.abs() <= opts.g_tol) {
            break;
        }
        // Two-loop recursion: d = −H·(projected gradient).
        for (k, (s, y, rho)) in memory.iter().enumerate().rev() {
            alpha[k] = rho * dot(s, &d);
            for (di, &yi) in d.iter_mut().zip(y) {
                *di -= alpha[k] * yi;
            }
        }
        if let Some((s, y, _)) = memory.back() {
            let gamma = dot(s, y) / dot(y, y);
            for di in &mut d {
                *di *= gamma;
            }
        }
        for (k, (s, y, rho)) in memory.iter().enumerate() {
            let beta = rho * dot(y, &d);
            for (di, &si) in d.iter_mut().zip(s) {
                *di += (alpha[k] - beta) * si;
            }
        }
        for (i, di) in d.iter_mut().enumerate() {
            *di = if fixed(i) { 0.0 } else { -*di };
        }
        let slope = dot(&d, &g);
        if slope.is_nan() || slope >= 0.0 {
            // Not a descent direction (stale curvature): restart from
            // projected steepest descent.
            memory.clear();
            for (i, di) in d.iter_mut().enumerate() {
                *di = if fixed(i) { 0.0 } else { -g[i] };
            }
        }
        let d_max = d.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        // Without curvature information the gradient's scale is
        // meaningless: the first trial moves the largest coordinate by 1.
        let mut t = if memory.is_empty() {
            1.0 / d_max
        } else {
            (MAX_STEP / d_max).min(1.0)
        };
        // Projected backtracking line search.
        let mut accepted = None;
        while evals < opts.max_evals {
            for ((xti, &xi), &di) in xt.iter_mut().zip(&x).zip(&d) {
                *xti = xi + t * di;
            }
            project(&mut xt);
            if xt == x {
                break;
            }
            // First-order change along the projected step. Clipping at a
            // bound can make it non-negative; such a step is shortened
            // without spending an evaluation on it.
            let decrease: f64 = g
                .iter()
                .zip(xt.iter().zip(&x))
                .map(|(&gi, (&a, &b))| gi * (a - b))
                .sum();
            if decrease < 0.0 {
                let ft = fg(&xt, &mut gt);
                evals += 1;
                if finite(ft, &gt) && ft <= f + ARMIJO_C1 * decrease {
                    accepted = Some(ft);
                    break;
                }
            }
            t *= 0.5;
        }
        let Some(ft) = accepted else {
            break;
        };
        let s: Vec<f64> = xt.iter().zip(&x).map(|(&a, &b)| a - b).collect();
        let y: Vec<f64> = gt.iter().zip(&g).map(|(&a, &b)| a - b).collect();
        let sy = dot(&s, &y);
        if sy > 1e-10 * dot(&y, &y) {
            if memory.len() == LBFGS_MEMORY {
                memory.pop_front();
            }
            memory.push_back((s, y, 1.0 / sy));
        }
        let small = f - ft <= opts.f_tol * f.abs().max(1.0);
        std::mem::swap(&mut x, &mut xt);
        std::mem::swap(&mut g, &mut gt);
        f = ft;
        if small {
            break;
        }
    }
    (x, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn minimizes_quadratic() {
        let (x, fx) = nelder_mead(
            |v| (v[0] - 3.0).powi(2) + (v[1] + 1.0).powi(2),
            &[0.0, 0.0],
            &NelderMeadOptions::default(),
        );
        assert!((x[0] - 3.0).abs() < 1e-3, "{x:?}");
        assert!((x[1] + 1.0).abs() < 1e-3, "{x:?}");
        assert!(fx < 1e-5);
    }

    #[test]
    fn minimizes_rosenbrock_2d() {
        let rosen = |v: &[f64]| {
            let (a, b) = (v[0], v[1]);
            (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2)
        };
        let opts = NelderMeadOptions {
            max_evals: 4000,
            ..Default::default()
        };
        let (x, _) = nelder_mead(rosen, &[-1.2, 1.0], &opts);
        assert!((x[0] - 1.0).abs() < 0.02, "{x:?}");
        assert!((x[1] - 1.0).abs() < 0.04, "{x:?}");
    }

    #[test]
    fn handles_infinite_regions() {
        // Objective is +inf for x < 0; minimum at x = 1.
        let f = |v: &[f64]| {
            if v[0] < 0.0 {
                f64::INFINITY
            } else {
                (v[0] - 1.0).powi(2)
            }
        };
        let (x, fx) = nelder_mead(f, &[2.0], &NelderMeadOptions::default());
        assert!((x[0] - 1.0).abs() < 1e-3);
        assert!(fx.is_finite());
    }

    #[test]
    fn handles_nan_as_infinite() {
        let f = |v: &[f64]| {
            if v[0] > 5.0 {
                f64::NAN
            } else {
                (v[0] - 4.0).powi(2)
            }
        };
        let (x, _) = nelder_mead(f, &[0.0], &NelderMeadOptions::default());
        assert!((x[0] - 4.0).abs() < 1e-2);
    }

    #[test]
    fn respects_eval_budget() {
        let count = Cell::new(0usize);
        let f = |v: &[f64]| {
            count.set(count.get() + 1);
            v[0] * v[0]
        };
        let opts = NelderMeadOptions {
            max_evals: 30,
            f_tol: 0.0,
            ..Default::default()
        };
        let _ = nelder_mead(f, &[10.0], &opts);
        // Budget may be exceeded by at most one in-flight iteration's evals.
        assert!(count.get() <= 35, "used {} evals", count.get());
    }

    /// A box wide enough to leave every test problem unconstrained.
    fn wide(n: usize) -> Vec<(f64, f64)> {
        vec![(-100.0, 100.0); n]
    }

    fn rosenbrock(v: &[f64], g: &mut [f64]) -> f64 {
        let (a, b) = (v[0], v[1]);
        g[0] = -2.0 * (1.0 - a) - 400.0 * a * (b - a * a);
        g[1] = 200.0 * (b - a * a);
        (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2)
    }

    #[test]
    fn lbfgs_minimizes_quadratic() {
        let f = |v: &[f64], g: &mut [f64]| {
            g[0] = 2.0 * (v[0] - 3.0);
            g[1] = 20.0 * (v[1] + 1.0);
            (v[0] - 3.0).powi(2) + 10.0 * (v[1] + 1.0).powi(2)
        };
        let (x, fx) = lbfgs(f, &[0.0, 0.0], &wide(2), &LbfgsOptions::default());
        assert!((x[0] - 3.0).abs() < 1e-5, "{x:?}");
        assert!((x[1] + 1.0).abs() < 1e-5, "{x:?}");
        assert!(fx < 1e-9);
    }

    #[test]
    fn lbfgs_minimizes_rosenbrock_2d() {
        let opts = LbfgsOptions {
            max_evals: 400,
            f_tol: 0.0,
            g_tol: 1e-8,
        };
        let (x, fx) = lbfgs(rosenbrock, &[-1.2, 1.0], &wide(2), &opts);
        assert!((x[0] - 1.0).abs() < 1e-4, "{x:?}");
        assert!((x[1] - 1.0).abs() < 2e-4, "{x:?}");
        assert!(fx < 1e-8);
    }

    #[test]
    fn lbfgs_stops_exactly_on_a_bound() {
        // Unconstrained optimum (3, −1) lies outside the box; the
        // constrained one is the corner (1, 0).
        let f = |v: &[f64], g: &mut [f64]| {
            g[0] = 2.0 * (v[0] - 3.0);
            g[1] = 2.0 * (v[1] + 1.0);
            (v[0] - 3.0).powi(2) + (v[1] + 1.0).powi(2)
        };
        let bounds = [(-1.0, 1.0), (0.0, 2.0)];
        let (x, fx) = lbfgs(f, &[-0.5, 1.5], &bounds, &LbfgsOptions::default());
        assert_eq!(x, vec![1.0, 0.0]);
        assert_eq!(fx, 5.0);
        // A start outside the box is projected into it first.
        let (x, _) = lbfgs(f, &[-9.0, 9.0], &bounds, &LbfgsOptions::default());
        assert_eq!(x, vec![1.0, 0.0]);
    }

    #[test]
    fn lbfgs_backtracks_out_of_nan_and_infinite_regions() {
        // The first trial step from 0 lands at 1, past the edge of the
        // finite region; the optimum 0.9 sits just inside it.
        for bad in [f64::NAN, f64::INFINITY] {
            let hits = Cell::new(0usize);
            let f = |v: &[f64], g: &mut [f64]| {
                g[0] = 2.0 * (v[0] - 0.9);
                if v[0] >= 0.95 {
                    hits.set(hits.get() + 1);
                    return bad;
                }
                (v[0] - 0.9).powi(2)
            };
            let (x, fx) = lbfgs(f, &[0.0], &wide(1), &LbfgsOptions::default());
            assert!((x[0] - 0.9).abs() < 1e-6, "{bad}: {x:?}");
            assert!(fx.is_finite());
            assert!(hits.get() > 0, "{bad}: the region was never probed");
        }
        // A non-finite start has nowhere to backtrack to.
        let (x, fx) = lbfgs(
            |_, g| {
                g[0] = 0.0;
                f64::NAN
            },
            &[0.5],
            &wide(1),
            &LbfgsOptions::default(),
        );
        assert_eq!(x, vec![0.5]);
        assert_eq!(fx, f64::INFINITY);
    }

    #[test]
    fn lbfgs_respects_eval_budget() {
        let count = Cell::new(0usize);
        let f = |v: &[f64], g: &mut [f64]| {
            count.set(count.get() + 1);
            rosenbrock(v, g)
        };
        let opts = LbfgsOptions {
            max_evals: 7,
            f_tol: 0.0,
            g_tol: 0.0,
        };
        let _ = lbfgs(f, &[-1.2, 1.0], &wide(2), &opts);
        // Line-search trials count against the cap, which is never
        // exceeded.
        assert_eq!(count.get(), 7);
    }

    #[test]
    fn lbfgs_is_deterministic() {
        let run = || {
            let path = std::cell::RefCell::new(Vec::new());
            let f = |v: &[f64], g: &mut [f64]| {
                path.borrow_mut().extend(v.iter().map(|x| x.to_bits()));
                rosenbrock(v, g)
            };
            let (x, fx) = lbfgs(
                f,
                &[-1.2, 1.0],
                &[(-2.0, 0.8), (-1.0, 3.0)],
                &LbfgsOptions::default(),
            );
            (x, fx.to_bits(), path.into_inner())
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_start_panics() {
        let _ = nelder_mead(|_| 0.0, &[], &NelderMeadOptions::default());
    }
}
