//! # cets-stats
//!
//! The statistical toolkit behind the CETS methodology's "insights" phase
//! (paper Section IV-B) and its cheap interdependence analysis (Section
//! IV-C):
//!
//! * [`sensitivity`] — runtime **sensitivity analysis**: the mean relative
//!   variability each parameter induces in each routine's output when varied
//!   individually around a baseline. This is the paper's central
//!   cost-reduction: `D × V` observations instead of the combinatorial
//!   sample an orthogonality analysis needs;
//! * [`pearson()`] — Pearson correlation (pairwise and matrix), which the
//!   paper uses to spot the `tb`/`tb_sm` coupling (~0.6) induced by the
//!   occupancy constraint;
//! * [`forest`] — a from-scratch **random-forest regressor** with impurity
//!   **feature importance** and its out-of-bag R² (the paper's
//!   Random-Forest feature-importance step);
//! * [`describe`] — descriptive statistics and the **one-in-ten rule**
//!   sample-size guideline the paper cites for regression modelling.
//!
//! Everything is deterministic under a caller-provided seed and operates on
//! plain `f64` slices; driving an actual application (choosing variations,
//! evaluating configurations) lives in `cets-core`.

pub mod describe;
pub mod forest;
pub mod pearson;
pub mod sensitivity;

pub use describe::{one_in_ten_ok, Summary};
pub use forest::{MaxFeatures, RandomForest, RandomForestConfig};
pub use pearson::{pearson, pearson_matrix};
pub use sensitivity::{SensitivityScores, VariabilityTable};

/// Errors from the statistics layer.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// Input slices had inconsistent or empty shapes.
    BadShape(String),
    /// Not enough samples for the requested statistic.
    NotEnoughData { needed: usize, got: usize },
    /// A numeric degenerate case (zero variance, zero baseline...).
    Degenerate(String),
    /// A parallel worker died (panic in a scoped thread).
    Worker(String),
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::BadShape(m) => write!(f, "bad shape: {m}"),
            StatsError::NotEnoughData { needed, got } => {
                write!(f, "not enough data: needed {needed}, got {got}")
            }
            StatsError::Degenerate(m) => write!(f, "degenerate input: {m}"),
            StatsError::Worker(m) => write!(f, "worker failure: {m}"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, StatsError>;
