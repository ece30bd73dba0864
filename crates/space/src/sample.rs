//! Feasible draws: the one rejection loop every search samples through.

use crate::{Result, SpaceError};
use rand::{Rng, RngExt};

/// Rejected attempts after which [`draw_feasible`] gives up.
const MAX_ATTEMPTS: usize = 10_000;

/// Rejection-sample one feasible point from a per-dimension slab list.
///
/// Each attempt maps one raw `[0, 1)` draw per dimension through
/// [`map_slabs`] (dimension `j` lands in the union `slabs[j]`; one full
/// `(0, 1)` slab maps every draw to itself) and hands the unit point to
/// `accept`, which returns the accepted value or `None` to reject it. A
/// full-space draw accepts by decoding and checking the constraints; a
/// subspace draw by lifting through the frozen defaults.
///
/// The attempt budget makes concrete the paper's observation that heavily
/// constrained high-dimensional spaces defeat blind candidate generation:
/// after 10 000 rejections the draw fails with
/// [`SpaceError::SamplingExhausted`] instead of spinning.
pub fn draw_feasible<T, R: Rng + ?Sized>(
    slabs: &[Vec<(f64, f64)>],
    rng: &mut R,
    mut accept: impl FnMut(Vec<f64>) -> Option<T>,
) -> Result<T> {
    for _ in 0..MAX_ATTEMPTS {
        let u = slabs
            .iter()
            .map(|s| map_slabs(s, rng.random::<f64>()))
            .collect();
        if let Some(accepted) = accept(u) {
            return Ok(accepted);
        }
    }
    Err(SpaceError::SamplingExhausted {
        attempts: MAX_ATTEMPTS,
    })
}

/// Map a raw `[0, 1)` draw into a union of unit-space slabs,
/// measure-proportionally. A single slab maps affinely
/// (`lo + r * (hi - lo)`); a zero-measure union (all point slabs)
/// collapses onto the first slab's point.
pub fn map_slabs(slabs: &[(f64, f64)], r: f64) -> f64 {
    if let [(lo, hi)] = slabs {
        return lo + r * (hi - lo);
    }
    let total: f64 = slabs.iter().map(|(lo, hi)| hi - lo).sum();
    if total <= 0.0 {
        return slabs[0].0;
    }
    let mut t = r * total;
    for &(lo, hi) in slabs {
        let w = hi - lo;
        if t <= w {
            return (lo + t).min(hi);
        }
        t -= w;
    }
    slabs[slabs.len() - 1].1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Config, Constraint, SearchSpace};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .real("x", -50.0, 50.0)
            .integer("tb", 32, 1024)
            .ordinal("u", vec![1.0, 2.0, 4.0, 8.0])
            .build()
    }

    fn cube(s: &SearchSpace) -> Vec<Vec<(f64, f64)>> {
        vec![vec![(0.0, 1.0)]; s.dim()]
    }

    /// The full-space acceptance: decode, then check every constraint.
    fn draw(s: &SearchSpace, slabs: &[Vec<(f64, f64)>], rng: &mut StdRng) -> Result<Config> {
        draw_feasible(slabs, rng, |u| s.decode(&u).ok().filter(|c| s.is_valid(c)))
    }

    fn draws(s: &SearchSpace, slabs: &[Vec<(f64, f64)>], n: usize, seed: u64) -> Vec<Config> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| draw(s, slabs, &mut rng).unwrap()).collect()
    }

    #[test]
    fn uniform_draws_are_valid_and_deterministic() {
        let s = space();
        let a = draws(&s, &cube(&s), 10, 42);
        assert_eq!(a, draws(&s, &cube(&s), 10, 42));
        assert!(a.iter().all(|c| s.is_valid(c)));
    }

    #[test]
    fn rejection_respects_constraints() {
        let s = SearchSpace::builder()
            .integer("a", 0, 10)
            .integer("b", 0, 10)
            .constraint(Constraint::new("sum", "a + b <= 10", |s, c| {
                s.get_i64(c, "a").unwrap() + s.get_i64(c, "b").unwrap() <= 10
            }))
            .build();
        for c in draws(&s, &cube(&s), 50, 3) {
            assert!(s.get_i64(&c, "a").unwrap() + s.get_i64(&c, "b").unwrap() <= 10);
        }
    }

    #[test]
    fn impossible_constraint_exhausts() {
        let s = SearchSpace::builder()
            .real("x", 0.0, 1.0)
            .constraint(Constraint::new("never", "false", |_, _| false))
            .build();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(matches!(
            draw(&s, &cube(&s), &mut rng),
            Err(SpaceError::SamplingExhausted { attempts: 10_000 })
        ));
    }

    #[test]
    fn unit_box_narrows_draws() {
        let s = SearchSpace::builder().real("x", 0.0, 100.0).build();
        for c in draws(&s, &[vec![(0.25, 0.5)]], 50, 7) {
            let x = c[0].as_f64();
            assert!((25.0..=50.0).contains(&x), "draw {x} escaped the box");
        }
    }

    #[test]
    fn full_unit_box_is_identity() {
        // An all-(0, 1) slab list hands every raw draw through unchanged.
        let s = space();
        let mut raw = StdRng::seed_from_u64(5);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let expected: Vec<f64> = (0..s.dim()).map(|_| raw.random::<f64>()).collect();
            let u = draw_feasible(&cube(&s), &mut rng, Some).unwrap();
            assert_eq!(u, expected);
        }
    }

    #[test]
    fn unit_slabs_draw_from_both_islands_and_skip_the_gap() {
        let s = SearchSpace::builder().integer("a", 0, 10).build();
        // Unit-space image of the integer slabs {0..1} ∪ {9..10}: bin k
        // maps from [k/11, (k+1)/11).
        let slabs = [vec![(0.0, 2.0 / 11.0), (9.0 / 11.0, 1.0)]];
        let mut seen = std::collections::BTreeSet::new();
        for c in draws(&s, &slabs, 200, 13) {
            let a = s.get_i64(&c, "a").unwrap();
            assert!(a <= 1 || a >= 9, "draw {a} landed in the gap");
            seen.insert(a);
        }
        assert!(seen.contains(&0) || seen.contains(&1), "low island unseen");
        assert!(
            seen.contains(&9) || seen.contains(&10),
            "high island unseen"
        );
    }

    #[test]
    fn single_slab_is_bit_identical_to_unit_box() {
        // One slab maps a raw draw exactly as the affine box map does.
        let (lo, hi) = (0.25, 0.5);
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..100 {
            let r = rng.random::<f64>();
            assert_eq!(
                map_slabs(&[(lo, hi)], r).to_bits(),
                (lo + r * (hi - lo)).to_bits()
            );
        }
    }

    #[test]
    fn map_slabs_is_measure_proportional() {
        let slabs = [(0.0, 0.1), (0.8, 0.9)];
        // Half the raw mass lands in each equal-measure slab.
        assert!(map_slabs(&slabs, 0.25) < 0.1);
        assert!(map_slabs(&slabs, 0.75) > 0.8);
        assert!(map_slabs(&slabs, 0.999) <= 0.9);
        // Degenerate all-point union collapses deterministically.
        assert_eq!(map_slabs(&[(0.3, 0.3), (0.7, 0.7)], 0.5), 0.3);
    }
}
