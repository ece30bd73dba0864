//! # cets-core
//!
//! The CETS methodology — *Cost-Effective Tuning Searches* — for complex
//! HPC tuning problems with many parameters and inter-routine
//! interdependencies (IPDPS 2024).
//!
//! Given an application exposing `t` routines and `D` tuning parameters
//! (the paper targets `D ≥ 20`, past the practical limit of plain Bayesian
//! optimization), the methodology proceeds in two phases:
//!
//! 1. **Insights & interdependence** ([`insights`], [`sensitivity`]):
//!    a cheap runtime-sensitivity analysis scores the influence of every
//!    parameter on every routine (`1 + D×V` evaluations instead of a full
//!    orthogonality design), complemented by Pearson correlation and
//!    random-forest feature importance over a modest sample.
//! 2. **Search planning & execution** ([`methodology`], [`bo`],
//!    [`strategy`]): the scores become an influence DAG; pruning at a
//!    cut-off and partitioning yields an optimized set of independent and
//!    merged searches, each capped at 10 dimensions, which are then run
//!    with Bayesian optimization (merged groups jointly, independent groups
//!    in parallel).
//!
//! The crate also ships the comparison baselines from the paper's Table III
//! (random search, fully-joint BO, fully-independent BO), BO crash-recovery
//! checkpoints, and transfer-learning seeding between related tasks.
//!
//! The paper's two evaluation targets live in sibling crates
//! (`cets-synthetic`, `cets-tddft`); anything implementing [`Objective`]
//! can be tuned.

pub mod bo;
pub mod checkpoint;
pub mod contraction;
pub mod db;
pub mod framelog;
pub mod highdim;
pub mod insights;
pub mod interaction;
pub mod methodology;
pub mod normal;
pub mod objective;
pub mod random_search;
pub mod report;
pub mod resilience;
pub mod sensitivity;
pub mod strategy;
pub mod transfer;

pub use bo::{Acquisition, BoConfig, BoSearch, FailurePolicy, ResilientOutcome, SearchOutcome};
pub use checkpoint::BoCheckpoint;
pub use contraction::{active_unit_slabs, contracted_unit_slabs};
pub use db::{Database, Record};
pub use highdim::{dropout_bo, rembo};
pub use insights::{gather_insights, FeatureInsights, InsightsConfig};
pub use interaction::{pairwise_interactions_on, InteractionAnalysis};
pub use methodology::{
    build_graph, execute_plan, ExecutionLedger, LintPolicy, Methodology, MethodologyConfig,
    MethodologyReport, PlanExecution, PlannedSearch, SearchDisposition, SearchLedgerEntry,
    SearchPlan, SearchTarget,
};
pub use objective::{ContractedObjective, CountingObjective, Objective, Observation};
pub use random_search::{random_search, RandomSearchConfig};
pub use report::render_markdown;
pub use resilience::{
    Clock, EvalError, EvalOutcome, EvalRecord, FailedEval, FailureKind, FailureStats, FaultKind,
    FaultPlan, FaultyObjective, GuardPolicy, ResilienceConfig, ResilientObjective, RetryPolicy,
    SystemClock, VirtualClock,
};
pub use sensitivity::{routine_sensitivity, VariationPolicy};
pub use strategy::{run_strategy, Strategy, StrategyResult};
pub use transfer::TransferSeed;

/// Errors produced by the tuning engine.
#[derive(Debug)]
pub enum CoreError {
    /// Underlying search-space failure.
    Space(cets_space::SpaceError),
    /// Underlying GP failure.
    Gp(cets_gp::GpError),
    /// Underlying statistics failure.
    Stats(cets_stats::StatsError),
    /// Underlying graph failure.
    Graph(cets_graph::GraphError),
    /// Checkpoint (de)serialization or IO failure.
    Checkpoint(String),
    /// The search could not make progress (e.g. no valid candidates).
    SearchStalled(String),
    /// Invalid configuration of the engine itself.
    BadConfig(String),
    /// The pre-execution plan linter rejected the plan (see
    /// [`methodology::LintPolicy`]). The payload is the rendered report.
    Lint(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Space(e) => write!(f, "space error: {e}"),
            CoreError::Gp(e) => write!(f, "gp error: {e}"),
            CoreError::Stats(e) => write!(f, "stats error: {e}"),
            CoreError::Graph(e) => write!(f, "graph error: {e}"),
            CoreError::Checkpoint(m) => write!(f, "checkpoint error: {m}"),
            CoreError::SearchStalled(m) => write!(f, "search stalled: {m}"),
            CoreError::BadConfig(m) => write!(f, "bad config: {m}"),
            CoreError::Lint(m) => write!(f, "plan rejected by linter:\n{m}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<cets_space::SpaceError> for CoreError {
    fn from(e: cets_space::SpaceError) -> Self {
        CoreError::Space(e)
    }
}
impl From<cets_gp::GpError> for CoreError {
    fn from(e: cets_gp::GpError) -> Self {
        CoreError::Gp(e)
    }
}
impl From<cets_stats::StatsError> for CoreError {
    fn from(e: cets_stats::StatsError) -> Self {
        CoreError::Stats(e)
    }
}
impl From<cets_graph::GraphError> for CoreError {
    fn from(e: cets_graph::GraphError) -> Self {
        CoreError::Graph(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
