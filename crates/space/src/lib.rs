//! # cets-space
//!
//! Search-space definition, encoding, constraints and sampling for the CETS
//! tuning methodology.
//!
//! A tuning problem is described by a [`SearchSpace`]: an ordered list of
//! named [`ParamDef`]s (real / integer / ordinal / categorical) plus a set of
//! [`Constraint`] predicates that mark configurations invalid (e.g. the
//! paper's `tb * tb_sm <= max_threads_per_sm` A100 rule, or
//! `nstb * nkpb * nspb <= cores`).
//!
//! Configurations travel in two representations:
//!
//! * a **natural** [`Config`] — one [`ParamValue`] per parameter, what
//!   objectives consume;
//! * a **unit-cube encoding** `Vec<f64>` in `[0, 1]^d`, what the Gaussian
//!   process and acquisition optimizers operate on.
//!
//! [`Subspace`] projects a search onto a subset of parameters with frozen
//! defaults for the rest — this is how the methodology's decomposed
//! lower-dimensional searches (its central contribution) are expressed.
//!
//! Every feasible draw goes through one rejection loop, [`draw_feasible`],
//! over a per-dimension list of unit-coordinate slabs (one full `(0, 1)`
//! slab per dimension draws the plain cube):
//!
//! ```
//! use cets_space::{draw_feasible, SearchSpace};
//! use rand::SeedableRng;
//!
//! let space = SearchSpace::builder()
//!     .real("x", -50.0, 50.0)
//!     .integer("tb", 32, 1024)
//!     .build();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let cube = vec![vec![(0.0, 1.0)]; space.dim()];
//! let cfg = draw_feasible(&cube, &mut rng, |u| {
//!     space.decode(&u).ok().filter(|c| space.is_valid(c))
//! })
//! .unwrap();
//! assert!(space.is_valid(&cfg));
//! ```

mod constraint;
mod param;
mod sample;
mod space;
mod subspace;

pub use constraint::Constraint;
pub use param::{ParamDef, ParamValue};
pub use sample::{draw_feasible, map_slabs};
pub use space::{Config, SearchSpace, SearchSpaceBuilder};
pub use subspace::Subspace;

/// Errors from space construction, encoding and sampling.
#[derive(Debug, Clone, PartialEq)]
pub enum SpaceError {
    /// No parameter with this name exists in the space.
    UnknownParam(String),
    /// A parameter was defined twice.
    DuplicateParam(String),
    /// A definition was internally inconsistent (empty range, no options...).
    InvalidDef { name: String, reason: String },
    /// A config had the wrong arity or a value outside its parameter domain.
    InvalidConfig(String),
    /// Rejection sampling failed to find a valid configuration within the
    /// attempt budget — the constraint set is too tight for blind sampling.
    /// This is exactly the failure mode the paper reports for joint 20-dim
    /// and 17-dim GPTune searches on RT-TDDFT.
    SamplingExhausted { attempts: usize },
}

impl std::fmt::Display for SpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpaceError::UnknownParam(n) => write!(f, "unknown parameter: {n}"),
            SpaceError::DuplicateParam(n) => write!(f, "duplicate parameter: {n}"),
            SpaceError::InvalidDef { name, reason } => {
                write!(f, "invalid definition for {name}: {reason}")
            }
            SpaceError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            SpaceError::SamplingExhausted { attempts } => write!(
                f,
                "could not sample a valid configuration in {attempts} attempts \
                 (constraint set too tight for rejection sampling)"
            ),
        }
    }
}

impl std::error::Error for SpaceError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SpaceError>;
