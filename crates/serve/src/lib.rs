//! `cets-serve` — the durable multi-campaign tuning service.
//!
//! The paper's methodology is a long-lived, budget-accounted campaign, and
//! its engine of record (GPTune) runs as a shared service over a persistent
//! history database. This crate promotes the per-run resilience layer
//! (typed failures, watchdog, `VirtualClock`, bit-for-bit resumable
//! searches) to a per-service substrate:
//!
//! * [`wal`] — the service's event records on an append-only,
//!   length-prefixed, FNV-checksummed write-ahead log. The frame codec,
//!   the explicit fsync policy and the recovery reader (which tolerates
//!   torn tails and bit-flips by truncating at the first bad record) are
//!   `cets_core::framelog`, shared with the BO checkpoint.
//! * [`spec`] — the campaign job description (JSON, validated by
//!   `cets-lint`'s `C0xx` family on intake) and the built-in objective
//!   registry.
//! * [`recovery`] — WAL replay: rebuild every campaign's `EvalRecord`
//!   history and stage fold so a restarted service resumes each search
//!   **bit-for-bit** through `BoSearch::run_resilient_observed`.
//! * [`supervisor`] — the per-campaign state machine
//!   (`Pending → Running → {Degraded, Completed, Failed}`) with panic
//!   containment via `ResilientObjective`, capped-exponential-backoff
//!   restarts under a restart budget, and N concurrent campaigns through
//!   the `cets-linalg::par` worker layer.
//! * [`sim`] — deterministic crash simulation: virtual-clock runs with
//!   injected process kills at record *k* and torn writes at byte
//!   granularity, powering the recovery-invariant tests.
//!
//! ## Durability contract
//!
//! Job intake is a file spool (no networking, zero new dependencies): drop
//! a JSON spec in the spool directory, the service validates it and writes
//! a `CampaignSubmitted` record — the WAL, not the spool, is the source of
//! truth from then on. Every evaluation attempt is logged *before* the
//! search advances past it, so a `kill -9` at any instant loses at most
//! the attempt in flight; recovery replays the log and continues every
//! campaign to the identical final configuration (see `DESIGN.md` §16 for
//! the record-by-record contract).

pub mod recovery;
pub mod sim;
pub mod spec;
pub mod supervisor;
pub mod wal;

use cets_core::framelog::LogError;
pub use recovery::{CampaignPhase, CampaignState, ServiceState, Terminal};
pub use sim::{run_service, uninterrupted_baseline, SimReport};
pub use spec::{build_objective, config_hash, CampaignSpec, ServeObjective};
pub use supervisor::{CampaignSummary, RestartPolicy, ServeConfig, Service, ServiceSummary};
pub use wal::{
    fnv1a, read_frames, FsyncPolicy, KillSpec, RecoveryReport, Wal, WalRecord, WAL_FILE_NAME,
};

/// Service-layer errors.
#[derive(Debug)]
pub enum ServeError {
    /// Filesystem or I/O failure (path context in the message).
    Io(String),
    /// The WAL replayed into a semantically impossible state — the file
    /// passed checksum validation but was not written by this service.
    Corrupt(String),
    /// A campaign spec failed validation.
    Spec(String),
    /// An error from the core search machinery.
    Core(cets_core::CoreError),
    /// A simulated process kill injected by [`wal::KillSpec`] fired; the
    /// payload is the number of intact records the log retains.
    SimulatedCrash {
        /// Valid records in the WAL at the moment of "death".
        records: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(m) => write!(f, "i/o error: {m}"),
            ServeError::Corrupt(m) => write!(f, "corrupt service state: {m}"),
            ServeError::Spec(m) => write!(f, "invalid campaign spec: {m}"),
            ServeError::Core(e) => write!(f, "search error: {e}"),
            ServeError::SimulatedCrash { records } => {
                write!(f, "simulated crash with {records} records durable")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<cets_core::CoreError> for ServeError {
    fn from(e: cets_core::CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<LogError> for ServeError {
    fn from(e: LogError) -> Self {
        match e {
            LogError::Io(m) => ServeError::Io(m),
            LogError::Corrupt(m) => ServeError::Corrupt(m),
            LogError::SimulatedCrash { records } => ServeError::SimulatedCrash { records },
        }
    }
}

impl From<cets_space::SpaceError> for ServeError {
    fn from(e: cets_space::SpaceError) -> Self {
        ServeError::Core(cets_core::CoreError::Space(e))
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
