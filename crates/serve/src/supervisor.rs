//! The campaign supervisor: spool intake, concurrent stage execution,
//! restart budgets, and the durable state machine.
//!
//! Each campaign moves through `Pending → Running → {Completed, Degraded,
//! Failed}` (see [`CampaignPhase`]). The supervisor drives every open
//! campaign's *current* stage as a resilient BO search whose observer
//! appends one WAL record per evaluation attempt **before** the search
//! advances past it — the WAL is therefore always at least as current as
//! the in-memory search, which is the whole durability story.
//!
//! ## Determinism under concurrency
//!
//! Campaigns run concurrently (`cets-linalg::par`, worker count from
//! `CETS_THREADS`), but every per-campaign stream — LHS design,
//! per-iteration RNG, retry jitter, fault plan — is keyed off the
//! campaign's own seed, and the WAL is strictly per-attempt-ordered
//! *within* a campaign (cross-campaign interleaving varies; replay groups
//! by id). Final configurations are identical whatever the interleaving,
//! which the crash-simulation suite and the CI `serve-chaos` job verify
//! by hash equality.
//!
//! ## Restarts
//!
//! A campaign-level error (e.g. a stage stalling with every attempt
//! failed) does not kill the service: the supervisor logs
//! `CampaignRestarted`, sleeps a capped-exponential backoff (through the
//! injected clock, so simulations pay no wall time), and retries the
//! stage from its durable records. When the restart budget is exhausted
//! the campaign fails terminally (`CampaignFailed`) — other campaigns are
//! unaffected.

use crate::recovery::{CampaignPhase, CampaignState, ServiceState, Terminal};
use crate::spec::{build_objective, config_hash, CampaignSpec};
use crate::wal::{FsyncPolicy, KillSpec, RecoveryReport, Wal, WalRecord, WAL_FILE_NAME};
use crate::{Result, ServeError};
use cets_core::{
    BoConfig, BoSearch, Clock, CoreError, EvalRecord, FailurePolicy, FaultPlan, FaultyObjective,
    GuardPolicy, Objective, ResilientObjective, RetryPolicy, SystemClock, VirtualClock,
};
use cets_linalg::par;
use cets_space::Subspace;
use serde::Deserialize;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Salt separating the restart-backoff stream from the retry stream (both
/// reuse [`RetryPolicy::backoff`], keyed per campaign).
const RESTART_SEED_SALT: u64 = 0x5e57_a127_0b3c_9d71;

/// Per-stage seed stride: stage `s` of a campaign searches with
/// `spec.seed + s · STAGE_SEED_STRIDE`, so stages draw independent
/// streams while remaining a pure function of the spec.
const STAGE_SEED_STRIDE: u64 = 1 << 32;

/// Supervisor restart budget and backoff shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Campaign-level restarts before the campaign fails terminally.
    pub max_restarts: usize,
    /// First backoff delay.
    pub base_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            max_restarts: 2,
            base_backoff: Duration::from_millis(250),
            max_backoff: Duration::from_secs(30),
        }
    }
}

/// Service configuration.
pub struct ServeConfig {
    /// Data directory; the WAL lives at `<data_dir>/wal.log`.
    pub data_dir: PathBuf,
    /// Job-intake spool directory (scanned for `*.json` specs). `None`
    /// disables spool intake (programmatic submission only).
    pub spool_dir: Option<PathBuf>,
    /// WAL durability policy.
    pub fsync: FsyncPolicy,
    /// Concurrent campaign workers; 0 = the `cets-linalg::par` global
    /// (`CETS_THREADS` / detected cores).
    pub workers: usize,
    /// Restart budget and backoff.
    pub restart: RestartPolicy,
    /// Per-evaluation watchdog limit handed to the resilience layer. The
    /// guard times evaluations against a per-campaign *virtual* clock that
    /// only injected faults advance, so the classification (and therefore
    /// the record stream) is a pure function of the spec — a wall-clock
    /// watchdog would make crash recovery timing-dependent.
    pub watchdog: Option<Duration>,
    /// Time source for restart backoff: `SystemClock` in production,
    /// `VirtualClock` in simulation (backoffs advance it without
    /// sleeping).
    pub clock: Arc<dyn Clock>,
    /// Simulated process kill, armed on the WAL (tests/simulation only).
    pub kill: Option<KillSpec>,
}

impl ServeConfig {
    /// Production defaults rooted at `data_dir`: fsync on every append, a
    /// 60 s watchdog, the system clock, no fault injection.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            data_dir: data_dir.into(),
            spool_dir: None,
            fsync: FsyncPolicy::Always,
            workers: 0,
            restart: RestartPolicy::default(),
            watchdog: Some(Duration::from_secs(60)),
            clock: Arc::new(SystemClock::new()),
            kill: None,
        }
    }
}

/// One campaign's row in the service summary.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// Campaign id.
    pub id: String,
    /// Lifecycle phase.
    pub phase: CampaignPhase,
    /// Best observed value, when finished.
    pub best_value: Option<f64>,
    /// Final configuration hash, when finished.
    pub config_hash: Option<String>,
    /// Successful attempts.
    pub n_ok: usize,
    /// Failed attempts.
    pub n_failed: usize,
    /// Supervisor restarts.
    pub restarts: usize,
    /// Terminal failure reason, when failed.
    pub failure: Option<String>,
}

/// The whole service's summary, sorted by campaign id — identical across
/// runs whatever the scheduling interleaving, so CI can diff it.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSummary {
    /// Per-campaign rows, ascending by id.
    pub campaigns: Vec<CampaignSummary>,
}

impl ServiceSummary {
    /// Any campaign terminally failed?
    pub fn any_failed(&self) -> bool {
        self.campaigns
            .iter()
            .any(|c| c.phase == CampaignPhase::Failed)
    }

    /// Render as stable `campaign <id> ...` lines (one per campaign) for
    /// logs and the CI hash-equality gate.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.campaigns {
            out.push_str(&format!(
                "campaign {} phase={} evals_ok={} evals_failed={} restarts={}",
                c.id,
                c.phase.as_str(),
                c.n_ok,
                c.n_failed,
                c.restarts
            ));
            if let Some(v) = c.best_value {
                out.push_str(&format!(" best={v:?}"));
            }
            if let Some(h) = &c.config_hash {
                out.push_str(&format!(" config={h}"));
            }
            if let Some(f) = &c.failure {
                out.push_str(&format!(" error={f:?}"));
            }
            out.push('\n');
        }
        out
    }
}

/// The durable campaign service.
pub struct Service {
    config: ServeConfig,
    wal: Mutex<Wal>,
    state: ServiceState,
    /// Recovery report from opening the WAL (how much log survived).
    pub recovery: RecoveryReport,
}

impl Service {
    /// Open the service: create the data directory, open/repair the WAL,
    /// and replay it into memory. A service directory is self-contained —
    /// opening it after a `kill -9` resumes every campaign.
    pub fn open(config: ServeConfig) -> Result<Service> {
        std::fs::create_dir_all(&config.data_dir)
            .map_err(|e| ServeError::Io(format!("create {}: {e}", config.data_dir.display())))?;
        let wal_path = config.data_dir.join(WAL_FILE_NAME);
        let (wal, records, recovery) = Wal::open(&wal_path, config.fsync)?;
        let wal = wal.with_kill(config.kill);
        let state = ServiceState::replay(&records)?;
        Ok(Service {
            config,
            wal: Mutex::new(wal),
            state,
            recovery,
        })
    }

    /// The replayed (and since-updated) service state.
    pub fn state(&self) -> &ServiceState {
        &self.state
    }

    fn append(&self, rec: &WalRecord) -> Result<usize> {
        lock_wal(&self.wal)?.append(rec)
    }

    /// Submit a campaign programmatically: validate, log
    /// `CampaignSubmitted`, register. Duplicate ids are rejected as spec
    /// errors (the WAL keys campaigns by id).
    pub fn submit(&mut self, spec: CampaignSpec) -> Result<()> {
        if self.state.campaign(&spec.id).is_some() {
            return Err(ServeError::Spec(format!(
                "campaign id `{}` already exists",
                spec.id
            )));
        }
        spec.validate()?;
        self.append(&WalRecord::CampaignSubmitted { spec: spec.clone() })?;
        self.state.campaigns.push(CampaignState::new(spec));
        Ok(())
    }

    /// Scan the spool directory for `*.json` specs. Files whose id is
    /// already registered or that were already rejected are skipped (the
    /// spool is never mutated — the WAL remembers both outcomes).
    /// Returns `(accepted, rejected)` counts for this scan.
    pub fn intake_spool(&mut self) -> Result<(usize, usize)> {
        let Some(dir) = self.config.spool_dir.clone() else {
            return Ok((0, 0));
        };
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .map_err(|e| ServeError::Io(format!("read spool {}: {e}", dir.display())))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().map(|x| x == "json").unwrap_or(false))
            .collect();
        // Deterministic intake order whatever the directory iteration order.
        files.sort();
        let (mut accepted, mut rejected) = (0, 0);
        for path in files {
            let file = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if self.state.is_rejected(&file) {
                continue;
            }
            match self.load_spool_spec(&path) {
                Ok(spec) => {
                    if self.state.campaign(&spec.id).is_none() {
                        self.submit(spec)?;
                        accepted += 1;
                    }
                }
                Err(ServeError::Spec(reason)) => {
                    self.append(&WalRecord::SpoolRejected {
                        file: file.clone(),
                        reason: reason.clone(),
                    })?;
                    self.state.rejected.push((file, reason));
                    rejected += 1;
                }
                Err(other) => return Err(other),
            }
        }
        Ok((accepted, rejected))
    }

    fn load_spool_spec(&self, path: &Path) -> Result<CampaignSpec> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ServeError::Io(format!("read {}: {e}", path.display())))?;
        let value = serde_json::from_str(&text)
            .map_err(|e| ServeError::Spec(format!("unparseable JSON: {e}")))?;
        let spec = CampaignSpec::deserialize(&value)
            .map_err(|e| ServeError::Spec(format!("malformed spec: {e}")))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Drive every open campaign to a terminal state. Campaigns run
    /// concurrently; each is advanced stage by stage with restarts on
    /// campaign-level errors. Returns the summary when all campaigns are
    /// terminal; a simulated kill aborts the whole run with
    /// [`ServeError::SimulatedCrash`].
    pub fn run_until_drained(&mut self) -> Result<ServiceSummary> {
        let open: Vec<CampaignState> = self.state.open_campaigns().cloned().collect();
        let workers = if self.config.workers == 0 {
            par::global_threads()
        } else {
            self.config.workers
        };
        let results: Vec<Result<CampaignState>> = par::map_indexed(workers, open.len(), |i| {
            run_campaign(open[i].clone(), &self.wal, &self.config)
        });
        let mut crash: Option<ServeError> = None;
        for result in results {
            match result {
                Ok(updated) => {
                    if let Some(slot) = self
                        .state
                        .campaigns
                        .iter_mut()
                        .find(|c| c.spec.id == updated.spec.id)
                    {
                        *slot = updated;
                    }
                }
                Err(e @ ServeError::SimulatedCrash { .. }) => {
                    // Remember the first kill; other campaigns died on the
                    // poisoned WAL with the same error.
                    crash.get_or_insert(e);
                }
                Err(other) => return Err(other),
            }
        }
        if let Some(e) = crash {
            return Err(e);
        }
        Ok(self.summary())
    }

    /// The service summary (sorted by campaign id, render-stable).
    pub fn summary(&self) -> ServiceSummary {
        let mut campaigns: Vec<CampaignSummary> = self
            .state
            .campaigns
            .iter()
            .map(|c| {
                let stats = c.failure_stats();
                let (best_value, config_hash, failure) = match &c.terminal {
                    Some(Terminal::Finished {
                        best_value,
                        config_hash,
                    }) => (Some(*best_value), Some(config_hash.clone()), None),
                    Some(Terminal::Failed { reason }) => (None, None, Some(reason.clone())),
                    None => (None, None, None),
                };
                CampaignSummary {
                    id: c.spec.id.clone(),
                    phase: c.phase(),
                    best_value,
                    config_hash,
                    n_ok: stats.n_ok,
                    n_failed: stats.n_failed(),
                    restarts: c.restarts,
                    failure,
                }
            })
            .collect();
        campaigns.sort_by(|a, b| a.id.cmp(&b.id));
        ServiceSummary { campaigns }
    }
}

fn lock_wal<'a>(wal: &'a Mutex<Wal>) -> Result<std::sync::MutexGuard<'a, Wal>> {
    wal.lock()
        .map_err(|_| ServeError::Io("WAL lock poisoned".into()))
}

/// Drive one campaign to a terminal state, appending every event to the
/// shared WAL. Runs on a worker thread; returns the updated state.
fn run_campaign(
    mut campaign: CampaignState,
    wal: &Mutex<Wal>,
    config: &ServeConfig,
) -> Result<CampaignState> {
    let id = campaign.spec.id.clone();
    loop {
        match run_campaign_stages(&mut campaign, wal, config) {
            Ok(()) => return Ok(campaign),
            Err(e @ ServeError::SimulatedCrash { .. }) => return Err(e),
            Err(ServeError::Core(core_err)) => {
                // Campaign-level error: restart under the budget, else fail
                // terminally. Either way the service itself survives.
                let attempt = campaign.restarts + 1;
                if attempt > config.restart.max_restarts {
                    let reason = format!("restart budget exhausted: {core_err}");
                    lock_wal(wal)?.append(&WalRecord::CampaignFailed {
                        id: id.clone(),
                        reason: reason.clone(),
                    })?;
                    campaign.terminal = Some(Terminal::Failed { reason });
                    return Ok(campaign);
                }
                lock_wal(wal)?.append(&WalRecord::CampaignRestarted {
                    id: id.clone(),
                    attempt,
                    reason: core_err.to_string(),
                })?;
                campaign.restarts = attempt;
                let backoff = RetryPolicy {
                    max_retries: config.restart.max_restarts,
                    base_backoff: config.restart.base_backoff,
                    max_backoff: config.restart.max_backoff,
                    seed: campaign.spec.seed ^ RESTART_SEED_SALT,
                };
                config.clock.sleep(backoff.backoff(0, attempt));
            }
            Err(other) => return Err(other),
        }
    }
}

/// Advance `campaign` through its remaining stages. Errors from the
/// search machinery surface as `ServeError::Core` for the restart loop;
/// WAL failures (including simulated kills) surface as themselves.
fn run_campaign_stages(
    campaign: &mut CampaignState,
    wal: &Mutex<Wal>,
    config: &ServeConfig,
) -> Result<()> {
    let spec = campaign.spec.clone();
    let objective = build_objective(&spec)?;
    let space = objective.space().clone();
    let stage_params = spec.stage_params(&space);
    let n_stages = stage_params.len();

    // Rebuild the stage fold: defaults for stage s are the best config of
    // the replayed stage s-1 (chained), starting from the objective's
    // defaults. Pure function of the durable records.
    let mut defaults = objective.default_config();
    for (params, records) in stage_params
        .iter()
        .zip(&campaign.stages)
        .take(campaign.advanced)
    {
        let names: Vec<&str> = params.iter().map(|p| p.as_str()).collect();
        let sub = Subspace::new(&space, &names, defaults)?;
        defaults = BoSearch::replay_outcome(&sub, records)?.best_config;
    }

    let policy = FailurePolicy {
        // Failures cost no budget here — the per-stage budget counts
        // *successful* evaluations so interrupted and uninterrupted runs
        // agree on when a stage is done; the failure cap bounds runaway.
        budget_fraction: 0.0,
        max_failures: spec.max_evals.saturating_mul(4).max(16),
    };

    while campaign.advanced < n_stages {
        let s = campaign.advanced;
        let names: Vec<&str> = stage_params[s].iter().map(|p| p.as_str()).collect();
        let sub = Subspace::new(&space, &names, defaults.clone())?;
        let bo = BoSearch::new(BoConfig {
            n_init: spec.n_init,
            max_evals: spec.max_evals,
            seed: spec
                .seed
                .wrapping_add((s as u64).wrapping_mul(STAGE_SEED_STRIDE)),
            ..BoConfig::default()
        });

        // Evaluations are timed against a virtual clock that only injected
        // faults (stalls, latency) and retry backoffs advance: a stall
        // fault trips the watchdog instantly in real time, and the
        // classification never depends on machine load. The config clock
        // stays in charge of campaign restart backoff only.
        let eval_clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let guard = GuardPolicy {
            retry: RetryPolicy {
                max_retries: spec.max_retries,
                seed: spec.seed,
                ..RetryPolicy::default()
            },
            watchdog: config.watchdog,
            validate_configs: true,
        };

        // The observer appends one WAL record per NEW attempt before the
        // search advances; a WAL error (real or simulated kill) is stashed
        // in the side channel and aborts the search at the exact record
        // boundary via a core error.
        let side_channel: Mutex<Option<ServeError>> = Mutex::new(None);
        // Every record the observer logs also lands here, so the
        // in-memory stage history stays in lockstep with the WAL even
        // when the search errors out mid-stage — a restart must resume
        // from the *logged* records, not a stale prefix (replay rejects
        // duplicate attempt indices as corruption).
        let mut appended: Vec<EvalRecord> = Vec::new();
        let mut next_idx = campaign.stages[s].len();
        let mut on_record = |rec: &EvalRecord| -> cets_core::Result<()> {
            let wal_rec = match &rec.value {
                Ok(y) => WalRecord::EvalCompleted {
                    id: spec.id.clone(),
                    stage: s,
                    idx: next_idx,
                    u: rec.u.clone(),
                    y: *y,
                },
                Err(f) => WalRecord::EvalFailed {
                    id: spec.id.clone(),
                    stage: s,
                    idx: next_idx,
                    u: rec.u.clone(),
                    kind: f.kind.as_str().to_string(),
                    message: f.message.clone(),
                },
            };
            let append = lock_wal(wal).and_then(|mut w| w.append(&wal_rec));
            match append {
                Ok(_) => {
                    next_idx += 1;
                    appended.push(rec.clone());
                    Ok(())
                }
                Err(e) => {
                    if let Ok(mut slot) = side_channel.lock() {
                        *slot = Some(e);
                    }
                    Err(CoreError::Checkpoint("WAL append failed".into()))
                }
            }
        };

        let faulty;
        let target: &dyn Objective = if spec.flaky_rate > 0.0 {
            let plan = FaultPlan::flaky(spec.flaky_rate, spec.seed);
            faulty = FaultyObjective::new(&objective, plan, eval_clock.clone());
            &faulty
        } else {
            &objective
        };
        let guarded = ResilientObjective::new(target, guard, eval_clock);
        let run = bo.run_resilient_observed(
            &sub,
            |cfg, i| guarded.evaluate_outcome(cfg, i),
            &policy,
            campaign.stages[s].clone(),
            &mut on_record,
        );

        let outcome = match run {
            Ok(outcome) => outcome,
            Err(core_err) => {
                // Sync the in-memory history with what reached the WAL
                // before surfacing the error, so a restart resumes from
                // the logged records.
                campaign.stages[s].extend(appended);
                // A stashed WAL error outranks the core wrapper it rode in
                // on (simulated kills must surface as SimulatedCrash).
                if let Ok(mut slot) = side_channel.lock() {
                    if let Some(serve_err) = slot.take() {
                        return Err(serve_err);
                    }
                }
                return Err(ServeError::Core(core_err));
            }
        };

        campaign.stages[s] = outcome.records;
        lock_wal(wal)?.append(&WalRecord::StageAdvanced {
            id: spec.id.clone(),
            stage: s,
        })?;
        campaign.advanced += 1;
        defaults = outcome.outcome.best_config;
    }

    // Terminal fold: best over all stages' successful attempts; the final
    // configuration is the fold of every stage's best (no extra
    // evaluation — the WAL already holds every observation).
    let best_value = campaign
        .stages
        .iter()
        .flatten()
        .filter_map(EvalRecord::y)
        .fold(f64::INFINITY, f64::min);
    if !best_value.is_finite() {
        return Err(ServeError::Core(CoreError::SearchStalled(
            "no successful evaluation in any stage".into(),
        )));
    }
    let hash = config_hash(&defaults);
    lock_wal(wal)?.append(&WalRecord::CampaignFinished {
        id: spec.id.clone(),
        best_value,
        config_hash: hash.clone(),
    })?;
    campaign.terminal = Some(Terminal::Finished {
        best_value,
        config_hash: hash,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cets_core::VirtualClock;

    fn test_config(name: &str) -> ServeConfig {
        let mut dir = std::env::temp_dir();
        dir.push(format!("cets_serve_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ServeConfig {
            fsync: FsyncPolicy::Never,
            workers: 1,
            clock: Arc::new(VirtualClock::new()),
            ..ServeConfig::new(dir)
        }
    }

    fn staged_spec(id: &str, seed: u64) -> CampaignSpec {
        CampaignSpec {
            stages: vec![vec!["x0".into(), "x1".into()], vec!["x2".into()]],
            max_evals: 6,
            n_init: 3,
            ..CampaignSpec::new(id, "sphere", seed)
        }
    }

    #[test]
    fn clean_campaign_completes_and_survives_reopen() {
        let config = test_config("clean");
        let dir = config.data_dir.clone();
        let summary = {
            let mut svc = Service::open(config).unwrap();
            svc.submit(staged_spec("demo", 11)).unwrap();
            svc.run_until_drained().unwrap()
        };
        assert_eq!(summary.campaigns.len(), 1);
        let c = &summary.campaigns[0];
        assert_eq!(c.phase, CampaignPhase::Completed);
        assert_eq!(c.n_ok, 12); // 6 evals × 2 stages, no failures
        let hash = c.config_hash.clone().unwrap();

        // Reopen: state replays to the identical summary.
        let svc = Service::open(test_config_existing(&dir)).unwrap();
        let replayed = svc.summary();
        assert_eq!(replayed.campaigns[0].config_hash.as_deref(), Some(&*hash));
        assert_eq!(replayed.campaigns[0].phase, CampaignPhase::Completed);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn test_config_existing(dir: &Path) -> ServeConfig {
        ServeConfig {
            fsync: FsyncPolicy::Never,
            workers: 1,
            clock: Arc::new(VirtualClock::new()),
            ..ServeConfig::new(dir.to_path_buf())
        }
    }

    #[test]
    fn flaky_campaign_degrades_but_finishes() {
        let config = test_config("flaky");
        let dir = config.data_dir.clone();
        let mut svc = Service::open(config).unwrap();
        svc.submit(CampaignSpec {
            flaky_rate: 0.3,
            max_retries: 0,
            max_evals: 8,
            ..CampaignSpec::new("shaky", "sphere", 5)
        })
        .unwrap();
        let summary = svc.run_until_drained().unwrap();
        let c = &summary.campaigns[0];
        assert_eq!(c.phase, CampaignPhase::Degraded);
        assert!(c.n_failed > 0, "flaky rate 0.3 produced no failures");
        assert!(c.config_hash.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_id_is_rejected() {
        let config = test_config("dup");
        let dir = config.data_dir.clone();
        let mut svc = Service::open(config).unwrap();
        svc.submit(CampaignSpec::new("same", "sphere", 1)).unwrap();
        assert!(matches!(
            svc.submit(CampaignSpec::new("same", "sphere", 2)),
            Err(ServeError::Spec(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hopeless_campaign_exhausts_restarts_and_fails_alone() {
        let config = test_config("hopeless");
        let dir = config.data_dir.clone();
        let mut svc = Service::open(config).unwrap();
        // flaky_rate 1.0: every evaluation fails deterministically, the
        // stage stalls, restarts replay into the same stall.
        svc.submit(CampaignSpec {
            flaky_rate: 1.0,
            max_retries: 0,
            max_evals: 4,
            ..CampaignSpec::new("doomed", "sphere", 9)
        })
        .unwrap();
        svc.submit(staged_spec("fine", 13)).unwrap();
        let summary = svc.run_until_drained().unwrap();
        assert!(summary.any_failed());
        let doomed = summary.campaigns.iter().find(|c| c.id == "doomed").unwrap();
        assert_eq!(doomed.phase, CampaignPhase::Failed);
        assert_eq!(doomed.restarts, RestartPolicy::default().max_restarts);
        assert!(doomed
            .failure
            .as_deref()
            .unwrap()
            .contains("restart budget"));
        let fine = summary.campaigns.iter().find(|c| c.id == "fine").unwrap();
        assert_eq!(fine.phase, CampaignPhase::Completed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spool_intake_accepts_validates_and_remembers_rejections() {
        let mut config = test_config("spool");
        let dir = config.data_dir.clone();
        let spool = dir.join("spool");
        std::fs::create_dir_all(&spool).unwrap();
        std::fs::write(
            spool.join("good.json"),
            r#"{"id":"good","objective":"sphere","seed":3,"max_evals":5}"#,
        )
        .unwrap();
        std::fs::write(
            spool.join("bad.json"),
            r#"{"id":"bad","objective":"warp-drive","seed":3,"max_evals":5}"#,
        )
        .unwrap();
        std::fs::write(spool.join("notes.txt"), "not a spec").unwrap();
        config.spool_dir = Some(spool.clone());
        let mut svc = Service::open(config).unwrap();
        assert_eq!(svc.intake_spool().unwrap(), (1, 1));
        // Re-scan: both outcomes remembered, nothing re-processed.
        assert_eq!(svc.intake_spool().unwrap(), (0, 0));
        assert!(svc.state().campaign("good").is_some());
        assert!(svc.state().is_rejected("bad.json"));
        // The spool itself is never mutated.
        assert!(spool.join("good.json").exists());
        assert!(spool.join("bad.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
