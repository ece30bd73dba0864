//! Projection of a search onto a subset of parameters.

use crate::{Config, Result, SearchSpace, SpaceError};

/// A view of a [`SearchSpace`] restricted to a subset of *active*
/// parameters, with every frozen parameter pinned to a default value.
///
/// This is the paper's decomposition mechanism made concrete: the
/// methodology's output is a set of lower-dimensional searches, each of
/// which explores only its own routine's parameters (plus any merged-in
/// interdependent ones) while the rest of the application keeps defaults or
/// previously-tuned values. The Gaussian process operates in the
/// `active.len()`-dimensional unit cube; [`Subspace::lift`] expands a point
/// back to a full-space [`Config`] for objective evaluation, so full-space
/// constraints keep applying.
#[derive(Debug, Clone)]
pub struct Subspace {
    space: SearchSpace,
    active: Vec<usize>,
    defaults: Config,
}

impl Subspace {
    /// Create a view with `active_names` free and everything else pinned to
    /// `defaults` (a full-space config).
    pub fn new(space: &SearchSpace, active_names: &[&str], defaults: Config) -> Result<Self> {
        space.check_valid(&defaults)?;
        let mut active = Vec::with_capacity(active_names.len());
        for name in active_names {
            let i = space.index_of(name)?;
            if active.contains(&i) {
                return Err(SpaceError::DuplicateParam(name.to_string()));
            }
            active.push(i);
        }
        Ok(Subspace {
            space: space.clone(),
            active,
            defaults,
        })
    }

    /// The full-space view of all parameters (identity projection); useful
    /// for expressing a fully-joint search in the same machinery.
    pub fn full(space: &SearchSpace, defaults: Config) -> Result<Self> {
        let names: Vec<&str> = space.names().iter().map(|s| s.as_str()).collect();
        Self::new(space, &names, defaults)
    }

    /// The active dimensionality (what the GP sees).
    pub fn dim(&self) -> usize {
        self.active.len()
    }

    /// The underlying full space.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// Indices of the active parameters in full-space order.
    pub fn active_indices(&self) -> &[usize] {
        &self.active
    }

    /// Names of the active parameters.
    pub fn active_names(&self) -> Vec<&str> {
        self.active
            .iter()
            .map(|&i| self.space.names()[i].as_str())
            .collect()
    }

    /// The frozen default configuration.
    pub fn defaults(&self) -> &Config {
        &self.defaults
    }

    /// Expand an active-space unit point into a full config: active
    /// coordinates decoded, frozen ones taken from the defaults.
    pub fn lift(&self, u_active: &[f64]) -> Result<Config> {
        if u_active.len() != self.dim() {
            return Err(SpaceError::InvalidConfig(format!(
                "subspace arity {} != {}",
                u_active.len(),
                self.dim()
            )));
        }
        let mut cfg = self.defaults.clone();
        for (&idx, &u) in self.active.iter().zip(u_active) {
            cfg[idx] = self.space.defs()[idx].decode(u);
        }
        Ok(cfg)
    }

    /// Project a full config onto the active unit coordinates.
    pub fn project(&self, cfg: &Config) -> Result<Vec<f64>> {
        let full = self.space.encode(cfg)?;
        Ok(self.active.iter().map(|&i| full[i]).collect())
    }

    /// Is the lifted configuration valid in the full space?
    pub fn is_valid_active(&self, u_active: &[f64]) -> bool {
        self.lift(u_active)
            .map(|c| self.space.is_valid(&c))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Constraint;

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .real("x", 0.0, 10.0)
            .integer("tb", 32, 1024)
            .integer("tb_sm", 1, 32)
            .constraint(Constraint::new("occ", "tb*tb_sm<=2048", |s, c| {
                s.get_i64(c, "tb").unwrap() * s.get_i64(c, "tb_sm").unwrap() <= 2048
            }))
            .build()
    }

    fn defaults(s: &SearchSpace) -> Config {
        s.config_from_pairs(&[("x", 5.0), ("tb", 64.0), ("tb_sm", 2.0)])
            .unwrap()
    }

    #[test]
    fn lift_pins_frozen_params() {
        let s = space();
        let sub = Subspace::new(&s, &["x"], defaults(&s)).unwrap();
        assert_eq!(sub.dim(), 1);
        let cfg = sub.lift(&[0.0]).unwrap();
        assert_eq!(s.get_f64(&cfg, "x").unwrap(), 0.0);
        assert_eq!(s.get_i64(&cfg, "tb").unwrap(), 64);
        assert_eq!(s.get_i64(&cfg, "tb_sm").unwrap(), 2);
    }

    #[test]
    fn project_roundtrip() {
        let s = space();
        let sub = Subspace::new(&s, &["tb", "tb_sm"], defaults(&s)).unwrap();
        let cfg = s
            .config_from_pairs(&[("x", 5.0), ("tb", 128.0), ("tb_sm", 4.0)])
            .unwrap();
        let u = sub.project(&cfg).unwrap();
        let lifted = sub.lift(&u).unwrap();
        assert_eq!(lifted, cfg);
    }

    #[test]
    fn constraints_apply_after_lift() {
        let s = space();
        let sub = Subspace::new(&s, &["tb", "tb_sm"], defaults(&s)).unwrap();
        // tb=1024 (u≈1.0), tb_sm=32 (u≈1.0) violates occupancy.
        assert!(!sub.is_valid_active(&[0.9999, 0.9999]));
        // tb=32 (u≈0), tb_sm=1 (u≈0) is fine.
        assert!(sub.is_valid_active(&[0.0, 0.0]));
    }

    #[test]
    fn unknown_and_duplicate_active_names() {
        let s = space();
        assert!(matches!(
            Subspace::new(&s, &["nope"], defaults(&s)),
            Err(SpaceError::UnknownParam(_))
        ));
        assert!(matches!(
            Subspace::new(&s, &["x", "x"], defaults(&s)),
            Err(SpaceError::DuplicateParam(_))
        ));
    }

    #[test]
    fn invalid_defaults_rejected() {
        let s = space();
        let bad = s.config_from_pairs(&[("x", 5.0), ("tb", 1024.0), ("tb_sm", 32.0)]);
        // config_from_pairs doesn't run constraints; build raw then check.
        let bad = bad.unwrap();
        assert!(Subspace::new(&s, &["x"], bad).is_err());
    }

    #[test]
    fn full_view_covers_all_params() {
        let s = space();
        let sub = Subspace::full(&s, defaults(&s)).unwrap();
        assert_eq!(sub.dim(), 3);
        assert_eq!(sub.active_names(), vec!["x", "tb", "tb_sm"]);
    }
}
