//! Contraction-aware sampling: feed `cets-lint`'s statically contracted
//! domains into every search's draws.
//!
//! The abstract-interpretation engine ([`cets_lint::analyze_space`]) proves
//! which slice of each parameter's declared domain can possibly satisfy the
//! constraint conjunction. Rejection samplers that draw from the *full*
//! box waste almost every attempt on heavily constrained spaces (the
//! paper's RT-TDDFT space accepts ~0.0005 % of blind draws); drawing from
//! the contracted domains instead raises the hit rate without excluding
//! any feasible configuration, because the contraction is sound.
//!
//! This module maps the analysis into one per-dimension list of
//! **unit-cube slabs** ([`contracted_unit_slabs`]) that every search draws
//! from through [`cets_space::draw_feasible`]:
//!
//! * [`crate::BoSearch`]'s initial design and candidate pool, over
//!   [`active_unit_slabs`] (the related-work baselines [`crate::rembo`]
//!   and [`crate::dropout_bo`] run on it too);
//! * [`crate::random_search()`] and [`crate::gather_insights`], through
//!   `draw_config`, the default path behind
//!   [`crate::Objective::sample_valid`].
//!
//! All mappings round **outward**, so a slab is never narrower than the
//! proof allows; unconstrained (or unanalyzable) spaces yield one full
//! `(0, 1)` slab per dimension, which maps every raw draw to itself.

use crate::objective::Objective;
use crate::Result;
use cets_lint::{analyze_space, Interval, PlanBundle};
use cets_space::{Config, ParamDef, SearchSpace, Subspace};
use rand::rngs::StdRng;

/// The per-dimension unit-coordinate slab unions proved to contain every
/// feasible configuration of `space`, from at most one
/// [`analyze_space`] call (none when the space declares no constraints):
///
/// * one full `(0, 1)` slab per dimension when there is nothing to
///   analyze, the analysis is unavailable, it proves the space empty
///   (draws keep their normal exhaustion behaviour: an empty box has
///   nothing better to offer), or it narrows nothing;
/// * when some parameter's feasible set is a union of ≥ 2 slabs (e.g.
///   `a <= 1 || a >= 9`) or the finite-set pass proved some declared
///   ordinal/categorical choices dead, those unions, holes and all;
/// * otherwise the contracted box, one slab per dimension.
pub fn contracted_unit_slabs(space: &SearchSpace) -> Vec<Vec<(f64, f64)>> {
    let full = || vec![vec![(0.0, 1.0)]; space.dim()];
    if space.constraints().is_empty() {
        return full();
    }
    let analysis = analyze_space(&space_bundle(space));
    if !analysis.analyzed || analysis.proved_empty {
        return full();
    }
    let pruned = |p: &cets_lint::absint::ParamInterval, def: &ParamDef| {
        p.kept
            .as_ref()
            .zip(def.cardinality())
            .is_some_and(|(idx, n)| !idx.is_empty() && idx.len() < n)
    };
    let params = || analysis.params.iter().zip(space.defs());
    if params().any(|(p, def)| p.slabs.len() > 1 || pruned(p, def)) {
        params()
            .map(|(p, def)| {
                // Finite-set facts are exact: the surviving choices' unit
                // bins (contiguous runs merged) are the tightest sound union.
                if pruned(p, def) {
                    if let Some(bins) = kept_unit_bins(def, p.kept.as_deref().unwrap_or(&[])) {
                        return bins;
                    }
                }
                let slabs: Vec<(f64, f64)> =
                    p.slabs.iter().map(|iv| unit_bounds(def, iv)).collect();
                // `unit_bounds` answers the full `(0, 1)` cube both for
                // "spans everything" and for "not expressible in this
                // domain kind"; either way the union degenerates, so fall
                // back to the sound hull for that dimension.
                if slabs.is_empty() || slabs.contains(&(0.0, 1.0)) {
                    vec![unit_bounds(def, &p.contracted)]
                } else {
                    slabs
                }
            })
            .collect()
    } else if analysis.any_narrowed() {
        params()
            .map(|(p, def)| vec![unit_bounds(def, &p.contracted)])
            .collect()
    } else {
        full()
    }
}

/// Per-active-dimension unit slab unions for a subspace — what the BO
/// loop draws from: [`contracted_unit_slabs`] of the full space, projected
/// onto the active dimensions.
pub fn active_unit_slabs(subspace: &Subspace) -> Vec<Vec<(f64, f64)>> {
    let dims = contracted_unit_slabs(subspace.space());
    subspace
        .active_indices()
        .iter()
        .map(|&i| dims[i].clone())
        .collect()
}

/// One feasible configuration of `objective`'s full space: its
/// constructive sampler ([`Objective::sample_valid`]) when it has one,
/// otherwise a rejection draw from `slabs` (the space's
/// [`contracted_unit_slabs`]) accepted by decoding and checking the
/// constraints.
pub(crate) fn draw_config<O: Objective + ?Sized>(
    objective: &O,
    slabs: &[Vec<(f64, f64)>],
    rng: &mut StdRng,
) -> Result<Config> {
    if let Some(cfg) = objective.sample_valid(rng) {
        return Ok(cfg);
    }
    let space = objective.space();
    Ok(cets_space::draw_feasible(slabs, rng, |u| {
        space.decode(&u).ok().filter(|c| space.is_valid(c))
    })?)
}

/// The data mirror of `space` the static analysis runs over.
pub(crate) fn space_bundle(space: &SearchSpace) -> PlanBundle {
    PlanBundle {
        params: space
            .names()
            .iter()
            .zip(space.defs())
            .map(|(name, def)| cets_lint::ParamSpec {
                name: name.clone(),
                def: def.clone(),
                default: None,
            })
            .collect(),
        constraints: space
            .constraints()
            .iter()
            .map(|c| cets_lint::ConstraintSpec {
                name: c.name().to_string(),
                expr: c.description().to_string(),
            })
            .collect(),
        ..Default::default()
    }
}

/// The unit bins of the surviving choice indices, with contiguous runs
/// merged into one slab. `None` for non-finite kinds or an empty set.
fn kept_unit_bins(def: &ParamDef, kept: &[usize]) -> Option<Vec<(f64, f64)>> {
    let mut out: Vec<(f64, f64)> = Vec::new();
    for &k in kept {
        let (lo, hi) = def.unit_bin(k)?;
        match out.last_mut() {
            Some(last) if (last.1 - lo).abs() < 1e-12 => last.1 = hi,
            _ => out.push((lo, hi)),
        }
    }
    (!out.is_empty()).then_some(out)
}

/// Map a contracted domain interval into the unit bin coordinates of
/// [`ParamDef::decode`], rounding outward (soundness over tightness).
fn unit_bounds(def: &ParamDef, iv: &Interval) -> (f64, f64) {
    const FULL: (f64, f64) = (0.0, 1.0);
    if iv.is_empty_range() || !iv.lo.is_finite() || !iv.hi.is_finite() {
        return FULL;
    }
    let (lo, hi) = match def {
        // decode: v = lo + u (hi − lo), linear and exact to invert.
        ParamDef::Real { lo, hi } => {
            if hi <= lo {
                return FULL;
            }
            ((iv.lo - lo) / (hi - lo), (iv.hi - lo) / (hi - lo))
        }
        // decode: v = lo + ⌊u n⌋ with n bins; integer v keeps the whole
        // bin [k/n, (k+1)/n) with k = v − lo.
        ParamDef::Integer { lo, hi } => {
            let n = (hi - lo + 1) as f64;
            let k_lo = (iv.lo.ceil() - *lo as f64).max(0.0);
            let k_hi = (iv.hi.floor() - *lo as f64).min(n - 1.0);
            if k_hi < k_lo {
                return FULL; // no representable value: leave untouched
            }
            (k_lo / n, (k_hi + 1.0) / n)
        }
        // Equal index bins over the (declaration-ordered) value list; only
        // a contiguous surviving run maps to one unit interval.
        ParamDef::Ordinal { values } => {
            let kept: Vec<usize> = values
                .iter()
                .enumerate()
                .filter(|(_, v)| iv.contains(**v))
                .map(|(k, _)| k)
                .collect();
            match (kept.first(), kept.last()) {
                (Some(&a), Some(&b)) if b - a + 1 == kept.len() => {
                    let n = values.len() as f64;
                    (a as f64 / n, (b + 1) as f64 / n)
                }
                _ => return FULL,
            }
        }
        // Slicing the option list would renumber constraint-referenced
        // indices; categorical axes always keep the full bin range.
        ParamDef::Categorical { .. } => return FULL,
    };
    let (lo, hi) = (lo.clamp(0.0, 1.0), hi.clamp(0.0, 1.0));
    // A real domain wider than `f64::MAX` divides into NaN: keep the axis.
    if lo <= hi {
        (lo, hi)
    } else {
        FULL
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cets_space::{draw_feasible, Constraint, ParamValue};
    use rand::SeedableRng;

    fn constrained_space() -> SearchSpace {
        SearchSpace::builder()
            .real("x", 0.0, 100.0)
            .integer("tb", 0, 99)
            .constraint(Constraint::new("xcap", "x <= 25", |s, c| {
                s.get_f64(c, "x").unwrap() <= 25.0
            }))
            .constraint(Constraint::new("tbcap", "tb <= 24", |s, c| {
                s.get_i64(c, "tb").unwrap() <= 24
            }))
            .build()
    }

    /// Draws from `slabs` with no rejection at all: every decoded point
    /// is kept, so what they satisfy the slab list alone guarantees.
    fn unrejected(s: &SearchSpace, slabs: &[Vec<(f64, f64)>], n: usize, seed: u64) -> Vec<Config> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| draw_feasible(slabs, &mut rng, |u| s.decode(&u).ok()).unwrap())
            .collect()
    }

    #[test]
    fn contracted_box_matches_analysis() {
        let b = contracted_unit_slabs(&constrained_space());
        // x ∈ [0, 25] of [0, 100] → unit [0, 0.25].
        assert_eq!(b[0].len(), 1);
        assert!((b[0][0].0 - 0.0).abs() < 1e-12 && (b[0][0].1 - 0.25).abs() < 1e-12);
        // tb ∈ {0..24} of {0..99} → unit [0, 25/100).
        assert_eq!(b[1].len(), 1);
        assert!((b[1][0].0 - 0.0).abs() < 1e-12 && (b[1][0].1 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn unconstrained_space_has_no_box() {
        let s = SearchSpace::builder().real("x", 0.0, 1.0).build();
        assert_eq!(contracted_unit_slabs(&s), vec![vec![(0.0, 1.0)]]);
    }

    #[test]
    fn unparsed_constraints_leave_the_full_cube() {
        let s = SearchSpace::builder()
            .integer("px", 1, 16)
            .integer("py", 1, 16)
            .constraint(Constraint::new("grid", "px·py <= ranks", |s, c| {
                s.get_i64(c, "px").unwrap() * s.get_i64(c, "py").unwrap() <= 16
            }))
            .build();
        assert_eq!(contracted_unit_slabs(&s), vec![vec![(0.0, 1.0)]; 2]);
    }

    #[test]
    fn sampler_draws_land_in_contraction() {
        let s = constrained_space();
        for cfg in unrejected(&s, &contracted_unit_slabs(&s), 50, 3) {
            assert!(s.get_f64(&cfg, "x").unwrap() <= 25.0);
            assert!(s.get_i64(&cfg, "tb").unwrap() <= 24);
        }
    }

    #[test]
    fn active_box_projects_to_active_dims() {
        let s = constrained_space();
        let defaults = vec![ParamValue::Real(1.0), ParamValue::Int(1)];
        let sub = Subspace::new(&s, &["tb"], defaults).unwrap();
        let b = active_unit_slabs(&sub);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].len(), 1);
        assert!(
            (b[0][0].1 - 0.25).abs() < 1e-12,
            "tb axis bound: {:?}",
            b[0]
        );
    }

    #[test]
    fn full_cube_for_unconstrained_subspace() {
        let s = SearchSpace::builder()
            .real("a", 0.0, 1.0)
            .real("b", 0.0, 1.0)
            .build();
        let sub = Subspace::full(&s, vec![ParamValue::Real(0.5), ParamValue::Real(0.5)]).unwrap();
        assert_eq!(active_unit_slabs(&sub), vec![vec![(0.0, 1.0)]; 2]);
    }

    #[test]
    fn integer_bounds_round_outward() {
        // tb ∈ [3.2, 7.9] over {0..9} keeps bins 4..=7 → [0.4, 0.8).
        let def = ParamDef::Integer { lo: 0, hi: 9 };
        let (lo, hi) = unit_bounds(&def, &Interval::new(3.2, 7.9));
        assert!((lo - 0.4).abs() < 1e-12 && (hi - 0.8).abs() < 1e-12);
        // Every kept bin decodes inside the interval.
        for v in [0.4, 0.5, 0.79] {
            match def.decode(v) {
                ParamValue::Int(k) => assert!((4..=7).contains(&k)),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    fn disjunctive_space() -> SearchSpace {
        SearchSpace::builder()
            .integer("a", 0, 10)
            .real("x", 0.0, 1.0)
            .constraint(Constraint::new("slab", "a <= 1 || a >= 9", |s, c| {
                let a = s.get_i64(c, "a").unwrap();
                a <= 1 || a >= 9
            }))
            .build()
    }

    #[test]
    fn disjunctive_constraint_yields_two_slabs() {
        let dims = contracted_unit_slabs(&disjunctive_space());
        // a ∈ {0, 1} ∪ {9, 10} over {0..10} → bins [0, 2/11] ∪ [9/11, 1].
        assert_eq!(dims[0].len(), 2, "a slabs: {:?}", dims[0]);
        assert!((dims[0][0].0 - 0.0).abs() < 1e-12);
        assert!((dims[0][0].1 - 2.0 / 11.0).abs() < 1e-12);
        assert!((dims[0][1].0 - 9.0 / 11.0).abs() < 1e-12);
        assert!((dims[0][1].1 - 1.0).abs() < 1e-12);
        // x is unconstrained: exactly one full slab.
        assert_eq!(dims[1], vec![(0.0, 1.0)]);
    }

    #[test]
    fn dead_categorical_options_become_slab_holes() {
        // `mode != 1` punches a hole in the option bins: the slab union
        // is [0, 1/3) ∪ [2/3, 1) and no draw lands on option 1.
        let s = SearchSpace::builder()
            .categorical("mode", vec!["row".into(), "col".into(), "tile".into()])
            .constraint(Constraint::new("hole", "mode != 1", |s, c| {
                s.get_f64(c, "mode").unwrap() as usize != 1
            }))
            .build();
        let dims = contracted_unit_slabs(&s);
        assert_eq!(dims[0].len(), 2, "{:?}", dims[0]);
        assert!((dims[0][0].0 - 0.0).abs() < 1e-12);
        assert!((dims[0][0].1 - 1.0 / 3.0).abs() < 1e-12);
        assert!((dims[0][1].0 - 2.0 / 3.0).abs() < 1e-12);
        for cfg in unrejected(&s, &dims, 100, 17) {
            let mode = s.get_f64(&cfg, "mode").unwrap() as usize;
            assert_ne!(mode, 1, "dead option drawn");
        }
    }

    #[test]
    fn single_interval_spaces_stay_on_the_box_path() {
        // No disjoint structure: the contracted box, one slab per axis.
        let dims = contracted_unit_slabs(&constrained_space());
        assert!(dims.iter().all(|d| d.len() == 1), "{dims:?}");
    }

    #[test]
    fn slab_sampler_always_lands_in_a_feasible_slab() {
        let s = disjunctive_space();
        for cfg in unrejected(&s, &contracted_unit_slabs(&s), 200, 11) {
            let a = s.get_i64(&cfg, "a").unwrap();
            assert!(a <= 1 || a >= 9, "infeasible draw a = {a}");
        }
    }

    #[test]
    fn active_slabs_project_and_fall_back() {
        let s = disjunctive_space();
        let defaults = vec![ParamValue::Int(0), ParamValue::Real(0.5)];
        let sub = Subspace::new(&s, &["a"], defaults).unwrap();
        let slabs = active_unit_slabs(&sub);
        assert_eq!(slabs.len(), 1);
        assert_eq!(slabs[0].len(), 2);
        // Without disjoint structure each dimension falls back to its box
        // interval as one slab.
        let plain = constrained_space();
        let sub2 = Subspace::full(&plain, vec![ParamValue::Real(1.0), ParamValue::Int(1)]).unwrap();
        assert_eq!(active_unit_slabs(&sub2), contracted_unit_slabs(&plain));
    }

    #[test]
    fn degenerate_intervals_fall_back_to_full() {
        let def = ParamDef::Integer { lo: 0, hi: 9 };
        // No representable integer inside (5.2, 5.8).
        assert_eq!(unit_bounds(&def, &Interval::new(5.2, 5.8)), (0.0, 1.0));
        let real = ParamDef::Real { lo: 0.0, hi: 1.0 };
        assert_eq!(
            unit_bounds(&real, &Interval::new(f64::NEG_INFINITY, 0.5)),
            (0.0, 1.0)
        );
        // A domain wider than `f64::MAX`: `hi − lo` overflows and the upper
        // bound divides into NaN, so the axis stays whole.
        let huge = ParamDef::Real {
            lo: -1e308,
            hi: 1e308,
        };
        assert_eq!(unit_bounds(&huge, &Interval::new(0.0, 1e308)), (0.0, 1.0));
    }
}
