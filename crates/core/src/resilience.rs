//! Fault-tolerant evaluation: typed outcomes, panic containment, watchdog
//! timeouts, seeded retry with backoff, and deterministic fault injection.
//!
//! The paper's observations are *real* HPC runs (RT-TDDFT on Perlmutter
//! A100 nodes), and real runs crash, hang, OOM and return garbage timings.
//! GPTune survives failed runs by recording and imputing them; this module
//! gives CETS the same property. Three layers compose:
//!
//! 1. **[`EvalOutcome`]** — the typed result of one evaluation attempt:
//!    either an [`Observation`] or an [`EvalError`] (crash, timeout,
//!    non-finite output, invalid configuration).
//! 2. **[`ResilientObjective`]** — wraps any [`Objective`], catches panics
//!    with `catch_unwind`, screens non-finite totals/routine values,
//!    classifies over-long evaluations against a wall-clock watchdog, and
//!    retries transient failures with seeded, capped exponential backoff.
//!    All timing flows through a [`Clock`], so tests drive a
//!    [`VirtualClock`] and stay deterministic and instant.
//! 3. **[`FaultPlan`]** / **[`FaultyObjective`]** — deterministic fault
//!    *injection* for chaos testing: fail every k-th evaluation, fail
//!    inside a sub-box of the space, seeded flaky failures keyed on the
//!    configuration (order-independent), and injected latency that the
//!    watchdog observes through the shared clock.
//!
//! The BO loop ([`crate::BoSearch::run_resilient`], which every search
//! runs) consumes [`EvalOutcome`]s and guarantees no non-finite value ever
//! reaches `Gp::train`; the plan executor isolates whole-search failures
//! into a ledger ([`crate::methodology::ExecutionLedger`]) instead of
//! aborting.

use crate::objective::{Objective, Observation};
use cets_space::Config;
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

/// A monotonic time source the resilience layer reads and sleeps against.
///
/// Production code uses [`SystemClock`]; tests share one [`VirtualClock`]
/// between the fault injector and the watchdog so injected latency,
/// timeouts and retry backoff are observed deterministically without any
/// real waiting.
pub trait Clock: Send + Sync {
    /// Monotonic elapsed time since the clock's origin.
    fn now(&self) -> Duration;
    /// Sleep for `d` (virtually or actually).
    fn sleep(&self, d: Duration);
}

/// Wall-clock [`Clock`] backed by [`Instant`] and [`std::thread::sleep`].
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// Deterministic test clock: `sleep` advances time instantly.
#[derive(Debug, Default)]
pub struct VirtualClock {
    t: Mutex<Duration>,
}

impl VirtualClock {
    /// A virtual clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance time without sleeping (alias of [`Clock::sleep`]).
    pub fn advance(&self, d: Duration) {
        let mut t = self.t.lock();
        *t += d;
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        *self.t.lock()
    }
    fn sleep(&self, d: Duration) {
        self.advance(d);
    }
}

// ---------------------------------------------------------------------------
// Outcome types
// ---------------------------------------------------------------------------

/// Why one evaluation attempt failed.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The evaluation panicked (application crash). Payload is the panic
    /// message when it was a string.
    Crashed(String),
    /// The evaluation exceeded the per-evaluation watchdog limit. The
    /// result (if any) is discarded as untrustworthy, mirroring a batch
    /// system killing an over-limit job.
    Timeout {
        /// The configured watchdog limit.
        limit: Duration,
        /// How long the evaluation actually took (by the [`Clock`]).
        observed: Duration,
    },
    /// The evaluation returned a non-finite total or routine value
    /// (NaN/Inf garbage timings).
    NonFinite {
        /// Which output was non-finite (e.g. `"total"` or a routine name).
        what: String,
    },
    /// The configuration was rejected before evaluation.
    InvalidConfig(String),
}

impl EvalError {
    /// Compact classification of this error, for ledgers and checkpoints.
    pub fn kind(&self) -> FailureKind {
        match self {
            EvalError::Crashed(_) => FailureKind::Crashed,
            EvalError::Timeout { .. } => FailureKind::Timeout,
            EvalError::NonFinite { .. } => FailureKind::NonFinite,
            EvalError::InvalidConfig(_) => FailureKind::InvalidConfig,
        }
    }

    /// Is retrying this failure potentially useful? Crashes and timeouts
    /// are treated as transient (node flakiness, interference); non-finite
    /// outputs and invalid configurations are deterministic properties of
    /// the configuration and are not retried.
    pub fn is_transient(&self) -> bool {
        matches!(self, EvalError::Crashed(_) | EvalError::Timeout { .. })
    }
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Crashed(m) => write!(f, "evaluation crashed: {m}"),
            EvalError::Timeout { limit, observed } => write!(
                f,
                "evaluation timed out: {observed:.2?} exceeded the {limit:.2?} watchdog"
            ),
            EvalError::NonFinite { what } => {
                write!(f, "evaluation returned a non-finite value for {what}")
            }
            EvalError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Compact failure class, serializable into checkpoints and ledgers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The evaluation panicked.
    Crashed,
    /// The evaluation exceeded the watchdog limit.
    Timeout,
    /// The evaluation returned NaN/Inf.
    NonFinite,
    /// The configuration was rejected before evaluation.
    InvalidConfig,
}

impl FailureKind {
    /// Stable string tag (checkpoint format).
    pub fn as_str(&self) -> &'static str {
        match self {
            FailureKind::Crashed => "crashed",
            FailureKind::Timeout => "timeout",
            FailureKind::NonFinite => "non-finite",
            FailureKind::InvalidConfig => "invalid-config",
        }
    }

    /// Parse a stable string tag written by [`FailureKind::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "crashed" => Some(FailureKind::Crashed),
            "timeout" => Some(FailureKind::Timeout),
            "non-finite" => Some(FailureKind::NonFinite),
            "invalid-config" => Some(FailureKind::InvalidConfig),
            _ => None,
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A failed evaluation as recorded in failure-aware search histories and
/// checkpoints: the compact classification plus the human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedEval {
    /// What class of failure this was.
    pub kind: FailureKind,
    /// Human-readable description (panic message, timeout details, …).
    pub message: String,
}

impl FailedEval {
    /// Record an [`EvalError`].
    pub fn from_error(e: &EvalError) -> Self {
        FailedEval {
            kind: e.kind(),
            message: e.to_string(),
        }
    }
}

/// One evaluation attempt in a failure-aware search history: the
/// unit-encoded point plus either the observed objective value or the
/// recorded failure.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRecord {
    /// The active-space unit point that was evaluated.
    pub u: Vec<f64>,
    /// The observed total (finite by construction) or the failure.
    pub value: std::result::Result<f64, FailedEval>,
}

impl EvalRecord {
    /// A successful evaluation.
    pub fn ok(u: Vec<f64>, y: f64) -> Self {
        EvalRecord { u, value: Ok(y) }
    }

    /// A failed evaluation.
    pub fn failed(u: Vec<f64>, e: FailedEval) -> Self {
        EvalRecord { u, value: Err(e) }
    }

    /// The record of an evaluation outcome. A non-finite total is
    /// recorded as a failure, never as an observation, even when the
    /// evaluator skipped screening.
    pub(crate) fn from_outcome(u: Vec<f64>, outcome: EvalOutcome) -> Self {
        match outcome {
            EvalOutcome::Ok(obs) if obs.total.is_finite() => EvalRecord::ok(u, obs.total),
            EvalOutcome::Ok(_) => EvalRecord::failed(
                u,
                FailedEval::from_error(&EvalError::NonFinite {
                    what: "total".into(),
                }),
            ),
            EvalOutcome::Failed(e) => EvalRecord::failed(u, FailedEval::from_error(&e)),
        }
    }

    /// Did this attempt succeed?
    pub fn is_ok(&self) -> bool {
        self.value.is_ok()
    }

    /// The observed value, if successful.
    pub fn y(&self) -> Option<f64> {
        self.value.as_ref().ok().copied()
    }
}

/// Per-[`FailureKind`] evaluation accounting, aggregable across searches.
///
/// A single search's ledger entry counts failures in bulk; a long-running
/// service supervises many searches and wants the breakdown (how many
/// crashes vs. timeouts vs. screening rejections) rolled up per campaign
/// and per service. `FailureStats` is that roll-up: build one per record
/// stream with [`FailureStats::from_records`] and fold them together with
/// [`FailureStats::merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureStats {
    /// Successful evaluations.
    pub n_ok: usize,
    /// Evaluations that panicked.
    pub n_crashed: usize,
    /// Evaluations killed by the watchdog.
    pub n_timeout: usize,
    /// Evaluations screened out for NaN/Inf results.
    pub n_non_finite: usize,
    /// Configurations rejected before evaluation.
    pub n_invalid_config: usize,
}

impl FailureStats {
    /// Tally one recorded attempt.
    pub fn record(&mut self, r: &EvalRecord) {
        match &r.value {
            Ok(_) => self.n_ok += 1,
            Err(f) => match f.kind {
                FailureKind::Crashed => self.n_crashed += 1,
                FailureKind::Timeout => self.n_timeout += 1,
                FailureKind::NonFinite => self.n_non_finite += 1,
                FailureKind::InvalidConfig => self.n_invalid_config += 1,
            },
        }
    }

    /// Aggregate a whole record stream.
    pub fn from_records(records: &[EvalRecord]) -> Self {
        let mut s = FailureStats::default();
        for r in records {
            s.record(r);
        }
        s
    }

    /// Fold another tally into this one (service-level aggregation).
    pub fn merge(&mut self, other: &FailureStats) {
        self.n_ok += other.n_ok;
        self.n_crashed += other.n_crashed;
        self.n_timeout += other.n_timeout;
        self.n_non_finite += other.n_non_finite;
        self.n_invalid_config += other.n_invalid_config;
    }

    /// Total failed attempts across all kinds.
    pub fn n_failed(&self) -> usize {
        self.n_crashed + self.n_timeout + self.n_non_finite + self.n_invalid_config
    }

    /// Total recorded attempts.
    pub fn total(&self) -> usize {
        self.n_ok + self.n_failed()
    }
}

/// The typed result of evaluating one configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalOutcome {
    /// The evaluation produced a trustworthy observation.
    Ok(Observation),
    /// The evaluation failed (after any retries).
    Failed(EvalError),
}

impl EvalOutcome {
    /// The observation, if successful.
    pub fn ok(self) -> Option<Observation> {
        match self {
            EvalOutcome::Ok(o) => Some(o),
            EvalOutcome::Failed(_) => None,
        }
    }

    /// Did the evaluation succeed?
    pub fn is_ok(&self) -> bool {
        matches!(self, EvalOutcome::Ok(_))
    }

    /// Screen an infallible observation: non-finite totals or routine
    /// values become [`EvalError::NonFinite`].
    pub fn screened(obs: Observation, routine_names: &[String]) -> Self {
        if !obs.total.is_finite() {
            return EvalOutcome::Failed(EvalError::NonFinite {
                what: "total".into(),
            });
        }
        if let Some(r) = obs.routines.iter().position(|v| !v.is_finite()) {
            let what = routine_names
                .get(r)
                .cloned()
                .unwrap_or_else(|| format!("routine {r}"));
            return EvalOutcome::Failed(EvalError::NonFinite { what });
        }
        EvalOutcome::Ok(obs)
    }
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

/// Seeded, capped exponential backoff for transient evaluation failures.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 disables retrying).
    pub max_retries: usize,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(5),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (1-based) of evaluation
    /// `eval_idx`: `base · 2^(retry−1)` capped at `max_backoff`, with up to
    /// +50% deterministic jitter derived from `(seed, eval_idx, retry)` —
    /// the same inputs always produce the same backoff, so virtual-clock
    /// tests are reproducible while real fleets still decorrelate.
    ///
    /// The jitter is a pure function of those three inputs, **never** a
    /// draw from a shared stream: retries consumed by earlier evaluations
    /// cannot shift later draws, which is what keeps crash-at-k resume
    /// bit-for-bit even when retries fired before the kill (resumed runs
    /// skip the recorded attempts and therefore replay none of their
    /// backoff draws).
    pub fn backoff(&self, eval_idx: usize, retry: usize) -> Duration {
        let exp = retry.saturating_sub(1).min(32) as u32;
        let base = self
            .base_backoff
            .saturating_mul(2u32.saturating_pow(exp))
            .min(self.max_backoff);
        let h = splitmix64(
            self.seed
                .wrapping_add((eval_idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .wrapping_add(retry as u64),
        );
        let jitter = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        base + base.mul_f64(0.5 * jitter)
    }
}

/// SplitMix64: a tiny, high-quality 64-bit mixer. Used for deterministic,
/// order-independent fault and jitter decisions.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` value derived from a 64-bit hash.
pub(crate) fn hash_unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

// ---------------------------------------------------------------------------
// ResilientObjective
// ---------------------------------------------------------------------------

/// Per-evaluation protection settings for [`ResilientObjective`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GuardPolicy {
    /// Retry policy for transient failures.
    pub retry: RetryPolicy,
    /// Per-evaluation wall-clock limit (`None` disables the watchdog). An
    /// evaluation observed to exceed the limit is classified as
    /// [`EvalError::Timeout`] and its result discarded; the in-process
    /// evaluation cannot be pre-empted, but its outcome is never trusted —
    /// exactly the contract of a batch scheduler killing an over-limit job.
    pub watchdog: Option<Duration>,
    /// Validate configurations against the objective's space before
    /// evaluating ([`EvalError::InvalidConfig`] instead of undefined
    /// behaviour inside the application).
    pub validate_configs: bool,
}

/// Fault-containing wrapper around any [`Objective`].
///
/// [`ResilientObjective::evaluate_outcome`] never panics and never returns
/// a non-finite observation: panics are caught, outputs screened, slow
/// evaluations classified against the watchdog, and transient failures
/// retried under the [`RetryPolicy`] with clock-driven backoff.
pub struct ResilientObjective<'a, O: Objective + ?Sized> {
    inner: &'a O,
    policy: GuardPolicy,
    clock: Arc<dyn Clock>,
    routine_names: Vec<String>,
    attempts: AtomicUsize,
    failures: AtomicUsize,
    retries: AtomicUsize,
}

impl<'a, O: Objective + ?Sized> ResilientObjective<'a, O> {
    /// Wrap `inner` under `policy`, timing against `clock`.
    pub fn new(inner: &'a O, policy: GuardPolicy, clock: Arc<dyn Clock>) -> Self {
        let routine_names = inner.routine_names();
        ResilientObjective {
            inner,
            policy,
            clock,
            routine_names,
            attempts: AtomicUsize::new(0),
            failures: AtomicUsize::new(0),
            retries: AtomicUsize::new(0),
        }
    }

    /// The wrapped objective.
    pub fn inner(&self) -> &O {
        self.inner
    }

    /// Total evaluation attempts (including retries).
    pub fn attempts(&self) -> usize {
        self.attempts.load(Ordering::Relaxed)
    }

    /// Attempts that failed (including retried-then-recovered ones).
    pub fn failed_attempts(&self) -> usize {
        self.failures.load(Ordering::Relaxed)
    }

    /// Retries performed.
    pub fn retries(&self) -> usize {
        self.retries.load(Ordering::Relaxed)
    }

    /// One protected attempt: catch panics, watchdog, screen non-finite.
    fn attempt(&self, cfg: &Config) -> EvalOutcome {
        self.attempts.fetch_add(1, Ordering::Relaxed);
        let t0 = self.clock.now();
        let result = catch_unwind(AssertUnwindSafe(|| self.inner.evaluate(cfg)));
        let observed = self.clock.now().saturating_sub(t0);
        let outcome = match result {
            Err(payload) => EvalOutcome::Failed(EvalError::Crashed(panic_message(&*payload))),
            Ok(obs) => {
                if let Some(limit) = self.policy.watchdog {
                    if observed > limit {
                        return self
                            .record(EvalOutcome::Failed(EvalError::Timeout { limit, observed }));
                    }
                }
                EvalOutcome::screened(obs, &self.routine_names)
            }
        };
        self.record(outcome)
    }

    fn record(&self, outcome: EvalOutcome) -> EvalOutcome {
        if !outcome.is_ok() {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    /// Evaluate `cfg` with full protection and retries. `eval_idx` keys the
    /// deterministic backoff jitter (pass the evaluation's ordinal in the
    /// search; any stable value works).
    pub fn evaluate_outcome(&self, cfg: &Config, eval_idx: usize) -> EvalOutcome {
        if self.policy.validate_configs {
            if let Err(e) = self.inner.space().check_valid(cfg) {
                self.failures.fetch_add(1, Ordering::Relaxed);
                return EvalOutcome::Failed(EvalError::InvalidConfig(e.to_string()));
            }
        }
        let mut outcome = self.attempt(cfg);
        let mut retry = 0;
        while let EvalOutcome::Failed(err) = &outcome {
            if !err.is_transient() || retry >= self.policy.retry.max_retries {
                break;
            }
            retry += 1;
            self.retries.fetch_add(1, Ordering::Relaxed);
            self.clock.sleep(self.policy.retry.backoff(eval_idx, retry));
            outcome = self.attempt(cfg);
        }
        outcome
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// End-to-end resilience settings for a methodology run: per-evaluation
/// protection ([`GuardPolicy`]), failure-aware BO accounting
/// ([`crate::FailurePolicy`]), and the clock everything times against.
///
/// Every plan execution runs under one ([`crate::execute_plan`]): each
/// search is isolated and accounted for in a failure ledger. `None` in
/// [`crate::MethodologyConfig::resilience`] still contains panics and
/// screens non-finite outputs, but retries nothing and runs no watchdog.
#[derive(Clone)]
pub struct ResilienceConfig {
    /// Per-evaluation protection (panic containment, watchdog, retries).
    pub guard: GuardPolicy,
    /// Failure-aware BO policy (imputation, budget accounting).
    pub failure: crate::bo::FailurePolicy,
    /// Time source for the watchdog and retry backoff. Tests pass a shared
    /// [`VirtualClock`]; production uses the default [`SystemClock`].
    pub clock: Arc<dyn Clock>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            guard: GuardPolicy::default(),
            failure: crate::bo::FailurePolicy::default(),
            clock: Arc::new(SystemClock::new()),
        }
    }
}

impl ResilienceConfig {
    /// The settings of a run without resilience options: no retries, no
    /// watchdog, default failure accounting.
    pub(crate) fn unguarded() -> Self {
        ResilienceConfig {
            guard: GuardPolicy {
                retry: RetryPolicy {
                    max_retries: 0,
                    ..RetryPolicy::default()
                },
                ..GuardPolicy::default()
            },
            ..ResilienceConfig::default()
        }
    }
}

impl std::fmt::Debug for ResilienceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilienceConfig")
            .field("guard", &self.guard)
            .field("failure", &self.failure)
            .field("clock", &"<dyn Clock>")
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// What an injected fault does to the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside `evaluate` (application crash).
    Panic,
    /// Stall past any reasonable watchdog (virtual-clock sleep), then
    /// return the real observation — the watchdog must discard it.
    Stall,
    /// Return NaN for the total and every routine (garbage timing).
    NonFinite,
}

/// A deterministic plan of injected faults for chaos testing.
///
/// All decisions are pure functions of the plan, the evaluation counter and
/// the configuration, so a test re-running the same searches sees the same
/// faults. The flaky and region rules key on the *configuration* (via a
/// seeded hash of its unit encoding), which makes them independent of
/// evaluation order — safe even under parallel stages; the `every_kth` rule
/// keys on the shared counter and is deterministic under sequential
/// execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Fail every k-th evaluation (counter-based, 1-indexed).
    pub every_kth: Option<(usize, FaultKind)>,
    /// Fail every evaluation whose unit-encoded configuration lies inside
    /// this axis-aligned sub-box (`(lo, hi)` per dimension, in space order).
    pub region: Option<(Vec<(f64, f64)>, FaultKind)>,
    /// Seeded flaky failure probability per evaluation, keyed on the
    /// configuration so the decision is order-independent.
    pub flaky_rate: f64,
    /// Seed for the flaky decision stream.
    pub seed: u64,
    /// Latency injected into every evaluation (advances the shared clock).
    pub latency: Duration,
    /// How long a [`FaultKind::Stall`] fault stalls.
    pub stall: Duration,
}

impl FaultPlan {
    /// A plan injecting only seeded flaky failures at `rate`, cycling the
    /// fault kind through panic → NaN → stall per decision hash.
    pub fn flaky(rate: f64, seed: u64) -> Self {
        FaultPlan {
            flaky_rate: rate,
            seed,
            stall: Duration::from_secs(3600),
            ..Default::default()
        }
    }

    /// The fault (if any) to inject for evaluation number `n` (1-indexed)
    /// of the unit-encoded configuration `u`.
    pub fn fault_for(&self, n: usize, u: &[f64]) -> Option<FaultKind> {
        if let Some((k, kind)) = self.every_kth {
            if k > 0 && n.is_multiple_of(k) {
                return Some(kind);
            }
        }
        if let Some((ref bx, kind)) = self.region {
            let inside = bx.len() == u.len()
                && bx
                    .iter()
                    .zip(u)
                    .all(|(&(lo, hi), &v)| (lo..=hi).contains(&v));
            if inside {
                return Some(kind);
            }
        }
        if self.flaky_rate > 0.0 {
            let mut h = splitmix64(self.seed ^ 0xc3a5_c85c_97cb_3127);
            for &v in u {
                h = splitmix64(h ^ v.to_bits());
            }
            if hash_unit(h) < self.flaky_rate {
                // Cycle the kind from an independent bit range of the hash
                // so a 20% rate mixes crashes, garbage and stalls.
                return Some(match splitmix64(h) % 3 {
                    0 => FaultKind::Panic,
                    1 => FaultKind::NonFinite,
                    _ => FaultKind::Stall,
                });
            }
        }
        None
    }
}

/// An [`Objective`] wrapper that injects the faults a [`FaultPlan`]
/// prescribes — the chaos-testing harness.
pub struct FaultyObjective<'a, O: Objective + ?Sized> {
    inner: &'a O,
    plan: FaultPlan,
    clock: Arc<dyn Clock>,
    count: AtomicUsize,
    injected: AtomicUsize,
}

impl<'a, O: Objective + ?Sized> FaultyObjective<'a, O> {
    /// Wrap `inner`, injecting per `plan` and stalling/lagging on `clock`.
    pub fn new(inner: &'a O, plan: FaultPlan, clock: Arc<dyn Clock>) -> Self {
        FaultyObjective {
            inner,
            plan,
            clock,
            count: AtomicUsize::new(0),
            injected: AtomicUsize::new(0),
        }
    }

    /// Evaluations attempted so far.
    pub fn evaluations(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// Faults injected so far.
    pub fn injected(&self) -> usize {
        self.injected.load(Ordering::Relaxed)
    }
}

impl<'a, O: Objective + ?Sized> Objective for FaultyObjective<'a, O> {
    fn space(&self) -> &cets_space::SearchSpace {
        self.inner.space()
    }

    fn routine_names(&self) -> Vec<String> {
        self.inner.routine_names()
    }

    fn evaluate(&self, cfg: &Config) -> Observation {
        let n = self.count.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.plan.latency.is_zero() {
            self.clock.sleep(self.plan.latency);
        }
        let u = self.space().encode(cfg).unwrap_or_default();
        match self.plan.fault_for(n, &u) {
            Some(FaultKind::Panic) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                // panic_any rather than panic!: this is the one deliberate
                // crash in the library (the fault injector's job), and the
                // source-hygiene lint rightly flags the macro form.
                std::panic::panic_any(format!("injected fault: crash at evaluation {n}"));
            }
            Some(FaultKind::NonFinite) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                let routines = vec![f64::NAN; self.inner.routine_names().len()];
                Observation {
                    total: f64::NAN,
                    routines,
                }
            }
            Some(FaultKind::Stall) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                self.clock.sleep(self.plan.stall);
                self.inner.evaluate(cfg)
            }
            None => self.inner.evaluate(cfg),
        }
    }

    fn default_config(&self) -> Config {
        self.inner.default_config()
    }

    fn sample_valid(&self, rng: &mut dyn rand::Rng) -> Option<Config> {
        self.inner.sample_valid(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::test_objectives::SplitSphere;

    /// Objective that panics when x0 > threshold, for containment tests.
    struct Panicky {
        base: SplitSphere,
        threshold: f64,
    }

    impl Panicky {
        fn new(threshold: f64) -> Self {
            Panicky {
                base: SplitSphere::new(),
                threshold,
            }
        }
    }

    impl Objective for Panicky {
        fn space(&self) -> &cets_space::SearchSpace {
            self.base.space()
        }
        fn routine_names(&self) -> Vec<String> {
            self.base.routine_names()
        }
        fn evaluate(&self, cfg: &Config) -> Observation {
            if cfg[0].as_f64() > self.threshold {
                panic!("boom at x0 = {}", cfg[0].as_f64());
            }
            self.base.evaluate(cfg)
        }
        fn default_config(&self) -> Config {
            self.base.default_config()
        }
    }

    fn quiet_panics() {
        // Silence the default hook's backtrace spam for intentional panics.
        std::panic::set_hook(Box::new(|_| {}));
    }

    #[test]
    fn virtual_clock_advances_on_sleep() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), Duration::ZERO);
        c.sleep(Duration::from_secs(3));
        c.advance(Duration::from_secs(2));
        assert_eq!(c.now(), Duration::from_secs(5));
    }

    #[test]
    fn panic_is_caught_and_classified() {
        quiet_panics();
        let obj = Panicky::new(0.0);
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let policy = GuardPolicy {
            retry: RetryPolicy {
                max_retries: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let res = ResilientObjective::new(&obj, policy, clock);
        let cfg = obj.default_config(); // x0 = 1 > 0 → panic
        match res.evaluate_outcome(&cfg, 0) {
            EvalOutcome::Failed(EvalError::Crashed(m)) => assert!(m.contains("boom"), "{m}"),
            other => panic!("expected Crashed, got {other:?}"),
        }
        assert_eq!(res.failed_attempts(), 1);
    }

    #[test]
    fn non_finite_output_is_screened() {
        let obj = SplitSphere::new();
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let plan = FaultPlan {
            every_kth: Some((1, FaultKind::NonFinite)),
            ..Default::default()
        };
        let faulty = FaultyObjective::new(&obj, plan, Arc::clone(&clock));
        let res = ResilientObjective::new(&faulty, GuardPolicy::default(), clock);
        let out = res.evaluate_outcome(&obj.default_config(), 0);
        assert!(
            matches!(out, EvalOutcome::Failed(EvalError::NonFinite { .. })),
            "{out:?}"
        );
    }

    #[test]
    fn watchdog_discards_stalled_evaluations() {
        let obj = SplitSphere::new();
        let clock = Arc::new(VirtualClock::new());
        let plan = FaultPlan {
            every_kth: Some((1, FaultKind::Stall)),
            stall: Duration::from_secs(600),
            ..Default::default()
        };
        let faulty = FaultyObjective::new(&obj, plan, clock.clone());
        let policy = GuardPolicy {
            watchdog: Some(Duration::from_secs(60)),
            retry: RetryPolicy {
                max_retries: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let res = ResilientObjective::new(&faulty, policy, clock);
        match res.evaluate_outcome(&obj.default_config(), 0) {
            EvalOutcome::Failed(EvalError::Timeout { limit, observed }) => {
                assert_eq!(limit, Duration::from_secs(60));
                assert!(observed >= Duration::from_secs(600));
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn transient_failures_are_retried_with_backoff() {
        quiet_panics();
        // Fails on evaluations 1 and 2 (every_kth = 1 would always fail);
        // use a stateful objective failing the first two calls.
        struct FlakyTwice {
            base: SplitSphere,
            calls: AtomicUsize,
        }
        impl Objective for FlakyTwice {
            fn space(&self) -> &cets_space::SearchSpace {
                self.base.space()
            }
            fn routine_names(&self) -> Vec<String> {
                self.base.routine_names()
            }
            fn evaluate(&self, cfg: &Config) -> Observation {
                if self.calls.fetch_add(1, Ordering::Relaxed) < 2 {
                    panic!("transient");
                }
                self.base.evaluate(cfg)
            }
            fn default_config(&self) -> Config {
                self.base.default_config()
            }
        }
        let obj = FlakyTwice {
            base: SplitSphere::new(),
            calls: AtomicUsize::new(0),
        };
        let clock = Arc::new(VirtualClock::new());
        let policy = GuardPolicy {
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::from_millis(100),
                max_backoff: Duration::from_secs(5),
                seed: 7,
            },
            ..Default::default()
        };
        let res = ResilientObjective::new(&obj, policy.clone(), clock.clone());
        let out = res.evaluate_outcome(&obj.default_config(), 3);
        assert!(out.is_ok(), "{out:?}");
        assert_eq!(res.retries(), 2);
        assert_eq!(res.failed_attempts(), 2);
        // The virtual clock advanced by exactly the two deterministic
        // backoffs.
        let expected = policy.retry.backoff(3, 1) + policy.retry.backoff(3, 2);
        assert_eq!(clock.now(), expected);
    }

    #[test]
    fn non_transient_failures_are_not_retried() {
        let obj = SplitSphere::new();
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let plan = FaultPlan {
            every_kth: Some((1, FaultKind::NonFinite)),
            ..Default::default()
        };
        let faulty = FaultyObjective::new(&obj, plan, Arc::clone(&clock));
        let res = ResilientObjective::new(&faulty, GuardPolicy::default(), clock);
        let out = res.evaluate_outcome(&obj.default_config(), 0);
        assert!(!out.is_ok());
        assert_eq!(res.retries(), 0, "NonFinite must not be retried");
        assert_eq!(faulty.evaluations(), 1);
    }

    #[test]
    fn backoff_is_seeded_capped_and_exponential() {
        let p = RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(400),
            seed: 42,
        };
        // Deterministic: same inputs, same backoff.
        assert_eq!(p.backoff(5, 1), p.backoff(5, 1));
        // Jitter keyed on eval_idx: different evals decorrelate.
        assert_ne!(p.backoff(5, 1), p.backoff(6, 1));
        // Exponential-ish growth then cap (+50% max jitter).
        let b1 = p.backoff(0, 1);
        let b3 = p.backoff(0, 3);
        assert!(b1 >= Duration::from_millis(100) && b1 < Duration::from_millis(151));
        assert!(b3 >= Duration::from_millis(400) && b3 <= Duration::from_millis(600));
    }

    #[test]
    fn fault_plan_every_kth_and_region() {
        let plan = FaultPlan {
            every_kth: Some((3, FaultKind::Panic)),
            region: Some((vec![(0.0, 0.2), (0.0, 1.0)], FaultKind::NonFinite)),
            ..Default::default()
        };
        assert_eq!(plan.fault_for(3, &[0.9, 0.5]), Some(FaultKind::Panic));
        assert_eq!(plan.fault_for(4, &[0.9, 0.5]), None);
        assert_eq!(
            plan.fault_for(4, &[0.1, 0.5]),
            Some(FaultKind::NonFinite),
            "inside the sub-box"
        );
    }

    #[test]
    fn flaky_rate_is_order_independent_and_calibrated() {
        let plan = FaultPlan::flaky(0.25, 99);
        // Same configuration → same decision, independent of counter.
        let u = vec![0.3, 0.7];
        assert_eq!(plan.fault_for(1, &u), plan.fault_for(1000, &u));
        // Roughly a quarter of distinct configurations fail.
        let mut failed = 0;
        let n = 2000;
        for i in 0..n {
            let u = vec![i as f64 / n as f64, 1.0 - i as f64 / n as f64];
            if plan.fault_for(1, &u).is_some() {
                failed += 1;
            }
        }
        let rate = failed as f64 / n as f64;
        assert!((0.18..0.32).contains(&rate), "injected rate {rate}");
    }

    #[test]
    fn injected_latency_advances_the_shared_clock() {
        let obj = SplitSphere::new();
        let clock = Arc::new(VirtualClock::new());
        let plan = FaultPlan {
            latency: Duration::from_secs(2),
            ..Default::default()
        };
        let faulty = FaultyObjective::new(&obj, plan, clock.clone());
        faulty.evaluate(&obj.default_config());
        faulty.evaluate(&obj.default_config());
        assert_eq!(clock.now(), Duration::from_secs(4));
        assert_eq!(faulty.evaluations(), 2);
        assert_eq!(faulty.injected(), 0);
    }

    #[test]
    fn invalid_config_rejected_before_evaluation() {
        use cets_space::{Constraint, SearchSpace};
        struct Guarded(SearchSpace);
        impl Objective for Guarded {
            fn space(&self) -> &SearchSpace {
                &self.0
            }
            fn routine_names(&self) -> Vec<String> {
                vec!["r".into()]
            }
            fn evaluate(&self, cfg: &Config) -> Observation {
                Observation::scalar(cfg[0].as_f64())
            }
            fn default_config(&self) -> Config {
                self.0.config_from_pairs(&[("a", 1.0)]).unwrap()
            }
        }
        let obj = Guarded(
            SearchSpace::builder()
                .real("a", 0.0, 10.0)
                .constraint(Constraint::new("cap", "a <= 5", |s, c| {
                    s.get_f64(c, "a").unwrap_or(f64::NAN) <= 5.0
                }))
                .build(),
        );
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let policy = GuardPolicy {
            validate_configs: true,
            ..Default::default()
        };
        let res = ResilientObjective::new(&obj, policy, clock);
        let bad = obj.0.config_from_pairs(&[("a", 9.0)]).unwrap();
        assert!(matches!(
            res.evaluate_outcome(&bad, 0),
            EvalOutcome::Failed(EvalError::InvalidConfig(_))
        ));
    }
}
