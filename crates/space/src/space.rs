//! The search space: named parameters + constraints.

use crate::{Constraint, ParamDef, ParamValue, Result, SpaceError};

/// A full configuration: one [`ParamValue`] per parameter, in space order.
pub type Config = Vec<ParamValue>;

/// An ordered collection of named parameters with validity constraints.
///
/// Parameter order is significant: it defines the layout of unit-cube
/// encodings and of every score vector produced by the statistics layer.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    names: Vec<String>,
    defs: Vec<ParamDef>,
    constraints: Vec<Constraint>,
}

/// Why a config is invalid: the first failing check, by index.
enum Violation {
    Arity,
    Domain(usize),
    Constraint(usize),
}

impl SearchSpace {
    /// Start building a space.
    pub fn builder() -> SearchSpaceBuilder {
        SearchSpaceBuilder::default()
    }

    /// Number of parameters (the search dimensionality `D`).
    pub fn dim(&self) -> usize {
        self.defs.len()
    }

    /// Total number of *unconstrained* configurations — the product of the
    /// discrete parameters' cardinalities. `None` if any parameter is
    /// continuous (infinite) or on overflow. This is the headline number
    /// HPC papers quote for their search spaces (the CETS paper's Table IV
    /// reports 41,943,040 × the MPI-grid sizes for its GPU parameters);
    /// constraints shrink the *valid* count further.
    pub fn cardinality(&self) -> Option<u128> {
        let mut total: u128 = 1;
        for def in &self.defs {
            let c = def.cardinality()? as u128;
            total = total.checked_mul(c)?;
        }
        Some(total)
    }

    /// Parameter names in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Parameter definitions in order.
    pub fn defs(&self) -> &[ParamDef] {
        &self.defs
    }

    /// The constraint set.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Index of a parameter by name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| SpaceError::UnknownParam(name.to_string()))
    }

    /// The definition of parameter `name`.
    pub fn def_of(&self, name: &str) -> Result<&ParamDef> {
        Ok(&self.defs[self.index_of(name)?])
    }

    /// Get a parameter's value from a config by name.
    pub fn get(&self, cfg: &Config, name: &str) -> Result<ParamValue> {
        let i = self.index_of(name)?;
        cfg.get(i)
            .cloned()
            .ok_or_else(|| SpaceError::InvalidConfig(format!("config too short for {name}")))
    }

    /// Numeric view of a parameter's value.
    pub fn get_f64(&self, cfg: &Config, name: &str) -> Result<f64> {
        Ok(self.get(cfg, name)?.as_f64())
    }

    /// Integer view of a parameter's value.
    pub fn get_i64(&self, cfg: &Config, name: &str) -> Result<i64> {
        Ok(self.get(cfg, name)?.as_i64())
    }

    /// Replace one named value, returning the modified config.
    pub fn with_value(&self, cfg: &Config, name: &str, v: ParamValue) -> Result<Config> {
        let i = self.index_of(name)?;
        if !self.defs[i].contains(&v) {
            return Err(SpaceError::InvalidConfig(format!(
                "value {v:?} outside domain of {name}"
            )));
        }
        let mut out = cfg.clone();
        out[i] = v;
        Ok(out)
    }

    /// Does `cfg` have the right arity, in-domain values, and satisfy every
    /// constraint?
    pub fn is_valid(&self, cfg: &Config) -> bool {
        self.first_violation(cfg).is_none()
    }

    /// Like [`SearchSpace::is_valid`] but reports *why* a config is invalid.
    pub fn check_valid(&self, cfg: &Config) -> Result<()> {
        let msg = match self.first_violation(cfg) {
            None => return Ok(()),
            Some(Violation::Arity) => format!("arity {} != {}", cfg.len(), self.dim()),
            Some(Violation::Domain(j)) => {
                format!("{}: {:?} outside domain", self.names[j], cfg[j])
            }
            Some(Violation::Constraint(k)) => {
                let c = &self.constraints[k];
                format!("constraint '{}' violated ({})", c.name(), c.description())
            }
        };
        Err(SpaceError::InvalidConfig(msg))
    }

    /// The first check `cfg` fails, without building a message: blind
    /// draws on a heavily constrained space are rejected far more often
    /// than they are kept.
    fn first_violation(&self, cfg: &Config) -> Option<Violation> {
        if cfg.len() != self.dim() {
            return Some(Violation::Arity);
        }
        self.defs
            .iter()
            .zip(cfg)
            .position(|(def, v)| !def.contains(v))
            .map(Violation::Domain)
            .or_else(|| {
                self.constraints
                    .iter()
                    .position(|c| !c.check(self, cfg))
                    .map(Violation::Constraint)
            })
    }

    /// Encode a config into the unit cube `[0, 1]^D`.
    pub fn encode(&self, cfg: &Config) -> Result<Vec<f64>> {
        if cfg.len() != self.dim() {
            return Err(SpaceError::InvalidConfig(format!(
                "arity {} != {}",
                cfg.len(),
                self.dim()
            )));
        }
        self.defs
            .iter()
            .zip(cfg)
            .zip(&self.names)
            .map(|((def, v), name)| {
                def.encode(v).map_err(|reason| SpaceError::InvalidDef {
                    name: name.clone(),
                    reason,
                })
            })
            .collect()
    }

    /// Decode a unit-cube point into a config (coordinates are clamped).
    pub fn decode(&self, u: &[f64]) -> Result<Config> {
        if u.len() != self.dim() {
            return Err(SpaceError::InvalidConfig(format!(
                "arity {} != {}",
                u.len(),
                self.dim()
            )));
        }
        Ok(self
            .defs
            .iter()
            .zip(u)
            .map(|(def, &x)| def.decode(x))
            .collect())
    }

    /// Build a config from `(name, numeric value)` pairs — every parameter
    /// must appear exactly once. Reals are taken verbatim, integers rounded,
    /// ordinals matched exactly, categorical values interpreted as indices.
    pub fn config_from_pairs(&self, pairs: &[(&str, f64)]) -> Result<Config> {
        if pairs.len() != self.dim() {
            return Err(SpaceError::InvalidConfig(format!(
                "{} pairs for {} parameters",
                pairs.len(),
                self.dim()
            )));
        }
        let mut cfg: Vec<Option<ParamValue>> = vec![None; self.dim()];
        for (name, x) in pairs {
            let i = self.index_of(name)?;
            if cfg[i].is_some() {
                return Err(SpaceError::DuplicateParam(name.to_string()));
            }
            let v = match &self.defs[i] {
                ParamDef::Real { .. } => ParamValue::Real(*x),
                ParamDef::Integer { .. } => ParamValue::Int(x.round() as i64),
                ParamDef::Ordinal { .. } => ParamValue::Real(*x),
                ParamDef::Categorical { .. } => ParamValue::Index(x.round().max(0.0) as usize),
            };
            if !self.defs[i].contains(&v) {
                return Err(SpaceError::InvalidConfig(format!(
                    "{name}: {x} outside domain"
                )));
            }
            cfg[i] = Some(v);
        }
        // `dim` distinct names were set, so every slot holds a value.
        cfg.into_iter()
            .collect::<Option<Config>>()
            .ok_or_else(|| SpaceError::InvalidConfig("a parameter has no value".into()))
    }

    /// Render the space definition as a markdown table (parameters,
    /// domains, cardinalities) plus the constraint list — used by tuning
    /// reports.
    pub fn describe_markdown(&self) -> String {
        let mut s = String::from("| Parameter | Domain | Values |\n|---|---|---|\n");
        for (name, def) in self.names.iter().zip(&self.defs) {
            let (domain, card) = match def {
                ParamDef::Real { lo, hi } => (format!("real [{lo}, {hi}]"), "∞".to_string()),
                ParamDef::Integer { lo, hi } => (
                    format!("integer [{lo}, {hi}]"),
                    def.cardinality().map_or("?".into(), |c| c.to_string()),
                ),
                ParamDef::Ordinal { values } => (
                    format!(
                        "ordinal {{{}}}",
                        values
                            .iter()
                            .map(|v| format!("{v}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                    values.len().to_string(),
                ),
                ParamDef::Categorical { options } => (
                    format!("categorical {{{}}}", options.join(", ")),
                    options.len().to_string(),
                ),
            };
            s += &format!("| {name} | {domain} | {card} |\n");
        }
        if let Some(total) = self.cardinality() {
            s += &format!("\nUnconstrained configurations: {total}\n");
        }
        if !self.constraints.is_empty() {
            s += "\nConstraints:\n";
            for c in &self.constraints {
                s += &format!("- **{}**: {}\n", c.name(), c.description());
            }
        }
        s
    }

    /// Render a config as `name=value` pairs for logs and reports.
    pub fn format_config(&self, cfg: &Config) -> String {
        self.names
            .iter()
            .zip(cfg)
            .map(|(n, v)| match v {
                ParamValue::Real(x) => format!("{n}={x:.4}"),
                ParamValue::Int(x) => format!("{n}={x}"),
                ParamValue::Index(i) => format!("{n}=#{i}"),
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Fluent builder for [`SearchSpace`].
#[derive(Default)]
pub struct SearchSpaceBuilder {
    names: Vec<String>,
    defs: Vec<ParamDef>,
    constraints: Vec<Constraint>,
}

impl SearchSpaceBuilder {
    /// Add a real parameter in `[lo, hi]`.
    pub fn real(self, name: impl Into<String>, lo: f64, hi: f64) -> Self {
        self.param(name, ParamDef::Real { lo, hi })
    }

    /// Add an integer parameter in `[lo, hi]` inclusive.
    pub fn integer(self, name: impl Into<String>, lo: i64, hi: i64) -> Self {
        self.param(name, ParamDef::Integer { lo, hi })
    }

    /// Add an ordinal parameter over an explicit value list.
    pub fn ordinal(self, name: impl Into<String>, values: Vec<f64>) -> Self {
        self.param(name, ParamDef::Ordinal { values })
    }

    /// Add a categorical parameter over labels.
    pub fn categorical(self, name: impl Into<String>, options: Vec<String>) -> Self {
        self.param(name, ParamDef::Categorical { options })
    }

    /// Add a parameter with an explicit definition.
    pub fn param(mut self, name: impl Into<String>, def: ParamDef) -> Self {
        self.names.push(name.into());
        self.defs.push(def);
        self
    }

    /// Add a validity constraint.
    pub fn constraint(mut self, c: Constraint) -> Self {
        self.constraints.push(c);
        self
    }

    /// Validate and build. Panics on duplicate names or inconsistent
    /// definitions — space construction is programmer-driven setup code, so
    /// failing fast beats threading `Result` through every call site; use
    /// [`SearchSpaceBuilder::try_build`] when definitions come from data.
    pub fn build(self) -> SearchSpace {
        self.try_build().expect("invalid search space definition")
    }

    /// Validate and build, returning errors instead of panicking.
    pub fn try_build(self) -> Result<SearchSpace> {
        for (i, name) in self.names.iter().enumerate() {
            if self.names[..i].contains(name) {
                return Err(SpaceError::DuplicateParam(name.clone()));
            }
        }
        for (name, def) in self.names.iter().zip(&self.defs) {
            def.validate().map_err(|reason| SpaceError::InvalidDef {
                name: name.clone(),
                reason,
            })?;
        }
        Ok(SearchSpace {
            names: self.names,
            defs: self.defs,
            constraints: self.constraints,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .real("x", -50.0, 50.0)
            .integer("tb", 32, 1024)
            .ordinal("u", vec![1.0, 2.0, 4.0, 8.0])
            .build()
    }

    #[test]
    fn basic_introspection() {
        let s = space();
        assert_eq!(s.dim(), 3);
        assert_eq!(s.index_of("tb").unwrap(), 1);
        assert!(s.index_of("nope").is_err());
        assert!(matches!(s.def_of("u").unwrap(), ParamDef::Ordinal { .. }));
    }

    #[test]
    fn check_valid_names_the_first_failure() {
        let s = SearchSpace::builder()
            .integer("a", 0, 10)
            .integer("b", 0, 10)
            .constraint(crate::Constraint::new("sum", "a + b <= 10", |s, c| {
                s.get_i64(c, "a").unwrap() + s.get_i64(c, "b").unwrap() <= 10
            }))
            .build();
        let msg = |cfg: Config| match s.check_valid(&cfg) {
            Err(SpaceError::InvalidConfig(m)) => m,
            other => panic!("expected an invalid config, got {other:?}"),
        };
        assert_eq!(msg(vec![ParamValue::Int(1)]), "arity 1 != 2");
        assert_eq!(
            msg(vec![ParamValue::Int(11), ParamValue::Int(12)]),
            "a: Int(11) outside domain"
        );
        assert_eq!(
            msg(vec![ParamValue::Int(6), ParamValue::Int(6)]),
            "constraint 'sum' violated (a + b <= 10)"
        );
        let ok = vec![ParamValue::Int(4), ParamValue::Int(6)];
        assert!(s.check_valid(&ok).is_ok() && s.is_valid(&ok));
        assert!(!s.is_valid(&vec![ParamValue::Int(6), ParamValue::Int(6)]));
    }

    #[test]
    fn cardinality_products() {
        let s = SearchSpace::builder()
            .integer("a", 1, 4)
            .ordinal("u", vec![1.0, 2.0, 4.0, 8.0])
            .categorical("m", vec!["x".into(), "y".into()])
            .build();
        assert_eq!(s.cardinality(), Some(32));
        // Continuous parameter => unbounded.
        let c = SearchSpace::builder().real("x", 0.0, 1.0).build();
        assert_eq!(c.cardinality(), None);
    }

    #[test]
    fn duplicate_name_rejected() {
        let r = SearchSpace::builder()
            .real("x", 0.0, 1.0)
            .real("x", 0.0, 2.0)
            .try_build();
        assert!(matches!(r, Err(SpaceError::DuplicateParam(_))));
    }

    #[test]
    fn invalid_def_rejected() {
        let r = SearchSpace::builder().real("x", 1.0, 0.0).try_build();
        assert!(matches!(r, Err(SpaceError::InvalidDef { .. })));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = space();
        let cfg = s
            .config_from_pairs(&[("x", 10.0), ("tb", 64.0), ("u", 4.0)])
            .unwrap();
        let u = s.encode(&cfg).unwrap();
        assert!(u.iter().all(|&v| (0.0..=1.0).contains(&v)));
        let back = s.decode(&u).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn decode_wrong_arity() {
        let s = space();
        assert!(s.decode(&[0.5, 0.5]).is_err());
        assert!(s.encode(&vec![ParamValue::Real(0.0)]).is_err());
    }

    #[test]
    fn describe_markdown_renders_table_cardinality_and_constraints() {
        let s = SearchSpace::builder()
            .integer("tb", 32, 64)
            .ordinal("u", vec![1.0, 2.5])
            .categorical("mode", vec!["a".into(), "b".into()])
            .constraint(Constraint::new("cap", "tb <= 48", |_, _| true))
            .build();
        assert_eq!(
            s.describe_markdown(),
            "| Parameter | Domain | Values |\n|---|---|---|\n\
             | tb | integer [32, 64] | 33 |\n\
             | u | ordinal {1, 2.5} | 2 |\n\
             | mode | categorical {a, b} | 2 |\n\
             \nUnconstrained configurations: 132\n\
             \nConstraints:\n\
             - **cap**: tb <= 48\n"
        );
        let real = SearchSpace::builder().real("x", 0.0, 1.5).build();
        assert_eq!(
            real.describe_markdown(),
            "| Parameter | Domain | Values |\n|---|---|---|\n| x | real [0, 1.5] | ∞ |\n"
        );
    }

    #[test]
    fn config_from_pairs_errors() {
        let s = space();
        // missing param
        assert!(s.config_from_pairs(&[("x", 0.0), ("tb", 64.0)]).is_err());
        // duplicate
        assert!(s
            .config_from_pairs(&[("x", 0.0), ("x", 1.0), ("tb", 64.0)])
            .is_err());
        // out of domain
        assert!(s
            .config_from_pairs(&[("x", 500.0), ("tb", 64.0), ("u", 4.0)])
            .is_err());
        // ordinal must match exactly
        assert!(s
            .config_from_pairs(&[("x", 0.0), ("tb", 64.0), ("u", 3.0)])
            .is_err());
    }

    #[test]
    fn with_value_replaces_and_checks() {
        let s = space();
        let cfg = s
            .config_from_pairs(&[("x", 0.0), ("tb", 64.0), ("u", 1.0)])
            .unwrap();
        let c2 = s.with_value(&cfg, "tb", ParamValue::Int(128)).unwrap();
        assert_eq!(s.get_i64(&c2, "tb").unwrap(), 128);
        assert!(s.with_value(&cfg, "tb", ParamValue::Int(7)).is_err());
    }

    #[test]
    fn check_valid_reports_reason() {
        let s = space();
        let short = vec![ParamValue::Real(0.0)];
        let err = s.check_valid(&short).unwrap_err();
        assert!(matches!(err, SpaceError::InvalidConfig(_)));
    }

    #[test]
    fn describe_markdown_lists_everything() {
        let s = SearchSpace::builder()
            .integer("tb", 32, 1024)
            .ordinal("u", vec![1.0, 2.0])
            .constraint(crate::Constraint::new("occ", "tb*tb_sm <= 2048", |_, _| {
                true
            }))
            .build();
        let md = s.describe_markdown();
        assert!(md.contains("| tb | integer [32, 1024] | 993 |"));
        assert!(md.contains("ordinal {1, 2}"));
        assert!(md.contains("Unconstrained configurations: 1986"));
        assert!(md.contains("**occ**: tb*tb_sm <= 2048"));
    }

    #[test]
    fn format_config_is_readable() {
        let s = space();
        let cfg = s
            .config_from_pairs(&[("x", 1.5), ("tb", 64.0), ("u", 2.0)])
            .unwrap();
        let txt = s.format_config(&cfg);
        assert!(txt.contains("tb=64"));
        assert!(txt.contains("x=1.5000"));
    }
}
