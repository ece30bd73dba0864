//! The tuning objective abstraction: an application with observable
//! per-routine runtimes.

use cets_space::{Config, SearchSpace};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One application evaluation: the total objective (usually wall time, to
/// be minimized) plus each routine's individual contribution.
///
/// Per-routine observability is what makes the paper's cheap
/// interdependence analysis possible — instrumenting routine-level timers
/// is standard practice in HPC (the paper reads QBox's per-kernel timings),
/// so the methodology assumes it rather than re-deriving routine costs from
/// totals.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// The value the tuner minimizes.
    pub total: f64,
    /// Per-routine values, in [`Objective::routine_names`] order.
    pub routines: Vec<f64>,
}

impl Observation {
    /// A single-routine observation (routine value == total).
    pub fn scalar(total: f64) -> Self {
        Observation {
            total,
            routines: vec![total],
        }
    }
}

/// A tunable application.
///
/// Implementations must be [`Sync`]: the methodology runs independent
/// searches in parallel threads, each calling [`Objective::evaluate`]
/// concurrently. Stochastic objectives (runtime noise) should derive their
/// randomness from the configuration and an internal seed so repeated runs
/// of the whole pipeline are reproducible.
pub trait Objective: Sync {
    /// The parameter space (with constraints).
    fn space(&self) -> &SearchSpace;

    /// Names of the observable routines, fixing the order of
    /// [`Observation::routines`].
    fn routine_names(&self) -> Vec<String>;

    /// Evaluate one configuration. Implementations may assume `cfg` is
    /// valid for [`Objective::space`].
    fn evaluate(&self, cfg: &Config) -> Observation;

    /// A reasonable default configuration (the paper's "default tuning
    /// values" that discarded parameters fall back to).
    fn default_config(&self) -> Config;

    /// Optional **constructive** sampler for heavily constrained spaces.
    ///
    /// Blind rejection sampling of a joint high-dimensional constrained
    /// space can fail outright — the paper's RT-TDDFT space is valid for
    /// only ~0.0005% of blind draws (five per-kernel occupancy rules plus
    /// the MPI product rule compound), which is precisely why its joint
    /// 20-dim GPTune search could not generate candidates. Applications
    /// that know their constraint structure can supply a sampler that
    /// builds valid configurations directly (e.g. draw `tb` first, then
    /// `tb_sm ≤ max_threads / tb`); the full-space samplers
    /// ([`crate::insights::gather_insights`], [`crate::random_search()`])
    /// use it when present. BO searches, decomposed or not, draw from the
    /// contracted slabs instead.
    ///
    /// The default path (this method returning `None`) is not blind: the
    /// consumers fall back to rejection draws from
    /// [`crate::contraction::contracted_unit_slabs`], the slabs
    /// `cets-lint`'s interval analysis proves feasible — so even without a
    /// constructive sampler, declared constraints narrow where candidates
    /// are drawn.
    fn sample_valid(&self, _rng: &mut dyn rand::Rng) -> Option<Config> {
        None
    }
}

/// Wrapper that counts evaluations — the methodology's currency.
///
/// The paper compares approaches by *observations required*; wrapping an
/// objective in this type makes the accounting automatic and thread-safe.
pub struct CountingObjective<'a, O: Objective + ?Sized> {
    inner: &'a O,
    count: AtomicUsize,
}

impl<'a, O: Objective + ?Sized> CountingObjective<'a, O> {
    /// Wrap an objective, starting the counter at zero.
    pub fn new(inner: &'a O) -> Self {
        CountingObjective {
            inner,
            count: AtomicUsize::new(0),
        }
    }

    /// Evaluations performed so far.
    pub fn count(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }
}

impl<'a, O: Objective + ?Sized> Objective for CountingObjective<'a, O> {
    fn space(&self) -> &SearchSpace {
        self.inner.space()
    }

    fn routine_names(&self) -> Vec<String> {
        self.inner.routine_names()
    }

    fn evaluate(&self, cfg: &Config) -> Observation {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.inner.evaluate(cfg)
    }

    fn default_config(&self) -> Config {
        self.inner.default_config()
    }

    fn sample_valid(&self, rng: &mut dyn rand::Rng) -> Option<Config> {
        self.inner.sample_valid(rng)
    }
}

/// Wrapper that substitutes a *statically contracted* search space for the
/// inner objective's declared one.
///
/// Built by the methodology's `contract_bounds` pre-pass (see
/// [`crate::methodology::MethodologyConfig::contract_bounds`]): the
/// abstract-interpretation engine in `cets-lint` proves which fraction of
/// each parameter's declared domain can possibly satisfy the constraints,
/// and searching the narrowed box raises the density of valid candidates
/// without losing any feasible point — the contraction is sound, so every
/// configuration the constraints accept is still inside the new bounds.
///
/// Everything except [`Objective::space`] delegates to the inner
/// objective; evaluation semantics are untouched.
pub struct ContractedObjective<'a, O: Objective + ?Sized> {
    inner: &'a O,
    space: SearchSpace,
}

impl<'a, O: Objective + ?Sized> ContractedObjective<'a, O> {
    /// Wrap `inner`, answering [`Objective::space`] with `space`.
    ///
    /// `space` must declare the same parameters in the same order as
    /// `inner.space()` (the methodology builds it that way); only the
    /// domains may differ.
    pub fn new(inner: &'a O, space: SearchSpace) -> Self {
        debug_assert_eq!(inner.space().names(), space.names());
        ContractedObjective { inner, space }
    }

    /// The narrowed space (same as [`Objective::space`], but owned here).
    pub fn contracted_space(&self) -> &SearchSpace {
        &self.space
    }
}

impl<'a, O: Objective + ?Sized> Objective for ContractedObjective<'a, O> {
    fn space(&self) -> &SearchSpace {
        &self.space
    }

    fn routine_names(&self) -> Vec<String> {
        self.inner.routine_names()
    }

    fn evaluate(&self, cfg: &Config) -> Observation {
        self.inner.evaluate(cfg)
    }

    fn default_config(&self) -> Config {
        self.inner.default_config()
    }

    fn sample_valid(&self, rng: &mut dyn rand::Rng) -> Option<Config> {
        self.inner.sample_valid(rng)
    }
}

#[cfg(test)]
pub(crate) mod test_objectives {
    use super::*;
    use cets_space::ParamValue;

    /// Sphere function split into two "routines": r0 = x0²+x1², r1 = x2².
    /// Total = r0 + r1. Minimum 0 at the origin.
    pub struct SplitSphere {
        space: SearchSpace,
    }

    impl SplitSphere {
        pub fn new() -> Self {
            SplitSphere {
                space: SearchSpace::builder()
                    .real("x0", -5.0, 5.0)
                    .real("x1", -5.0, 5.0)
                    .real("x2", -5.0, 5.0)
                    .build(),
            }
        }
    }

    impl Objective for SplitSphere {
        fn space(&self) -> &SearchSpace {
            &self.space
        }

        fn routine_names(&self) -> Vec<String> {
            vec!["r0".into(), "r1".into()]
        }

        fn evaluate(&self, cfg: &Config) -> Observation {
            let x: Vec<f64> = cfg.iter().map(|v| v.as_f64()).collect();
            let r0 = x[0] * x[0] + x[1] * x[1];
            let r1 = x[2] * x[2];
            Observation {
                total: r0 + r1,
                routines: vec![r0, r1],
            }
        }

        fn default_config(&self) -> Config {
            vec![
                ParamValue::Real(1.0),
                ParamValue::Real(1.0),
                ParamValue::Real(1.0),
            ]
        }
    }

    /// Coupled variant: routine 1 is influenced by x1 as well (x1·x2)², so
    /// x1 cross-influences routine r1 — a miniature of the paper's
    /// Group 3/Group 4 interdependence.
    pub struct CoupledSphere {
        space: SearchSpace,
    }

    impl CoupledSphere {
        pub fn new() -> Self {
            CoupledSphere {
                space: SearchSpace::builder()
                    .real("x0", -5.0, 5.0)
                    .real("x1", -5.0, 5.0)
                    .real("x2", -5.0, 5.0)
                    .build(),
            }
        }
    }

    impl Objective for CoupledSphere {
        fn space(&self) -> &SearchSpace {
            &self.space
        }

        fn routine_names(&self) -> Vec<String> {
            vec!["r0".into(), "r1".into()]
        }

        fn evaluate(&self, cfg: &Config) -> Observation {
            let x: Vec<f64> = cfg.iter().map(|v| v.as_f64()).collect();
            let r0 = x[0] * x[0];
            let r1 = x[2] * x[2] + (x[1] * x[2]).powi(2) + 0.5 * x[1] * x[1];
            Observation {
                total: r0 + r1,
                routines: vec![r0, r1],
            }
        }

        fn default_config(&self) -> Config {
            vec![
                ParamValue::Real(1.0),
                ParamValue::Real(1.0),
                ParamValue::Real(1.0),
            ]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_objectives::SplitSphere;
    use super::*;

    #[test]
    fn observation_scalar() {
        let o = Observation::scalar(3.0);
        assert_eq!(o.total, 3.0);
        assert_eq!(o.routines, vec![3.0]);
    }

    #[test]
    fn counting_objective_counts() {
        let obj = SplitSphere::new();
        let counted = CountingObjective::new(&obj);
        assert_eq!(counted.count(), 0);
        let cfg = counted.default_config();
        let o = counted.evaluate(&cfg);
        assert_eq!(o.total, 3.0);
        assert_eq!(counted.count(), 1);
        counted.evaluate(&cfg);
        assert_eq!(counted.count(), 2);
    }

    #[test]
    fn counting_is_thread_safe() {
        let obj = SplitSphere::new();
        let counted = CountingObjective::new(&obj);
        let cfg = counted.default_config();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..25 {
                        counted.evaluate(&cfg);
                    }
                });
            }
        });
        assert_eq!(counted.count(), 100);
    }
}
