//! WAL replay: rebuilding service state from the durable record stream.
//!
//! [`ServiceState::replay`] folds a WAL record sequence (the valid prefix
//! [`crate::wal::read_frames`] recovered) into per-campaign state:
//! per-stage `EvalRecord` histories, the stage cursor, restart counts, and
//! terminal outcomes. Replay is **strict** — the WAL is written by one
//! code path, so any semantically impossible sequence (an evaluation for
//! an unknown campaign, a non-dense attempt index, a record after a
//! terminal) means the file was not produced by this service and surfaces
//! as [`ServeError::Corrupt`] rather than being papered over.
//!
//! The rebuilt histories feed straight back into
//! `BoSearch::run_resilient_observed`, whose trajectory is a pure
//! function of its record prefix — which is what makes recovery
//! *bit-for-bit*: the restarted search proposes exactly the points the
//! uninterrupted one would have.

use crate::spec::CampaignSpec;
use crate::wal::WalRecord;
use crate::{Result, ServeError};
use cets_core::{EvalRecord, FailedEval, FailureKind, FailureStats};

/// How a campaign ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminal {
    /// All stages completed.
    Finished {
        /// Best observed objective value across all stages.
        best_value: f64,
        /// Hash of the final folded configuration.
        config_hash: String,
    },
    /// The restart budget was exhausted.
    Failed {
        /// Terminal error description.
        reason: String,
    },
}

/// The observable lifecycle phase of one campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignPhase {
    /// Submitted, no evaluation recorded yet.
    Pending,
    /// At least one record, not yet terminal.
    Running,
    /// Finished with every attempt successful and no restarts.
    Completed,
    /// Finished, but some attempts failed or the campaign was restarted.
    Degraded,
    /// Exhausted its restart budget.
    Failed,
}

impl CampaignPhase {
    /// Stable lowercase tag (summary rendering).
    pub fn as_str(&self) -> &'static str {
        match self {
            CampaignPhase::Pending => "pending",
            CampaignPhase::Running => "running",
            CampaignPhase::Completed => "completed",
            CampaignPhase::Degraded => "degraded",
            CampaignPhase::Failed => "failed",
        }
    }
}

/// Replayed state of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignState {
    /// The accepted job description (embedded in `CampaignSubmitted`).
    pub spec: CampaignSpec,
    /// Evaluation history per stage, in attempt order. Always holds
    /// `spec.n_stages()` entries; stages past the cursor are empty.
    pub stages: Vec<Vec<EvalRecord>>,
    /// Stages completed so far (the stage cursor: records append to
    /// `stages[advanced]` while `advanced < n_stages`).
    pub advanced: usize,
    /// Supervisor restarts recorded for this campaign.
    pub restarts: usize,
    /// Terminal outcome, once reached.
    pub terminal: Option<Terminal>,
}

impl CampaignState {
    /// Fresh state for a just-submitted campaign.
    pub fn new(spec: CampaignSpec) -> Self {
        let n = spec.n_stages();
        CampaignState {
            spec,
            stages: vec![Vec::new(); n],
            advanced: 0,
            restarts: 0,
            terminal: None,
        }
    }

    /// Lifecycle phase implied by the replayed records.
    pub fn phase(&self) -> CampaignPhase {
        match &self.terminal {
            Some(Terminal::Failed { .. }) => CampaignPhase::Failed,
            Some(Terminal::Finished { .. }) => {
                if self.restarts == 0 && self.failure_stats().n_failed() == 0 {
                    CampaignPhase::Completed
                } else {
                    CampaignPhase::Degraded
                }
            }
            None => {
                if self.stages.iter().all(|s| s.is_empty()) {
                    CampaignPhase::Pending
                } else {
                    CampaignPhase::Running
                }
            }
        }
    }

    /// Attempt accounting aggregated over every stage.
    pub fn failure_stats(&self) -> FailureStats {
        let mut stats = FailureStats::default();
        for stage in &self.stages {
            stats.merge(&FailureStats::from_records(stage));
        }
        stats
    }

    fn apply(&mut self, rec: &WalRecord) -> Result<()> {
        let corrupt = |msg: String| Err(ServeError::Corrupt(msg));
        if self.terminal.is_some() {
            return corrupt(format!(
                "campaign `{}`: record after terminal state",
                self.spec.id
            ));
        }
        match rec {
            WalRecord::EvalCompleted {
                stage, idx, u, y, ..
            } => self.push_eval(*stage, *idx, EvalRecord::ok(u.clone(), *y)),
            WalRecord::EvalFailed {
                stage,
                idx,
                u,
                kind,
                message,
                ..
            } => {
                let kind = FailureKind::parse(kind).ok_or_else(|| {
                    ServeError::Corrupt(format!(
                        "campaign `{}`: unknown failure kind `{kind}`",
                        self.spec.id
                    ))
                })?;
                self.push_eval(
                    *stage,
                    *idx,
                    EvalRecord::failed(
                        u.clone(),
                        FailedEval {
                            kind,
                            message: message.clone(),
                        },
                    ),
                )
            }
            WalRecord::StageAdvanced { stage, .. } => {
                if *stage != self.advanced {
                    return corrupt(format!(
                        "campaign `{}`: stage {stage} advanced while cursor is at {}",
                        self.spec.id, self.advanced
                    ));
                }
                if self.advanced >= self.stages.len() {
                    return corrupt(format!(
                        "campaign `{}`: advance past the last stage",
                        self.spec.id
                    ));
                }
                self.advanced += 1;
                Ok(())
            }
            WalRecord::CampaignRestarted { attempt, .. } => {
                if *attempt != self.restarts + 1 {
                    return corrupt(format!(
                        "campaign `{}`: restart attempt {attempt} after {} restarts",
                        self.spec.id, self.restarts
                    ));
                }
                self.restarts = *attempt;
                Ok(())
            }
            WalRecord::CampaignFinished {
                best_value,
                config_hash,
                ..
            } => {
                if self.advanced != self.stages.len() {
                    return corrupt(format!(
                        "campaign `{}`: finished with {}/{} stages advanced",
                        self.spec.id,
                        self.advanced,
                        self.stages.len()
                    ));
                }
                self.terminal = Some(Terminal::Finished {
                    best_value: *best_value,
                    config_hash: config_hash.clone(),
                });
                Ok(())
            }
            WalRecord::CampaignFailed { reason, .. } => {
                self.terminal = Some(Terminal::Failed {
                    reason: reason.clone(),
                });
                Ok(())
            }
            WalRecord::CampaignSubmitted { .. } | WalRecord::SpoolRejected { .. } => {
                corrupt("service-level record routed to a campaign".into())
            }
        }
    }

    fn push_eval(&mut self, stage: usize, idx: usize, rec: EvalRecord) -> Result<()> {
        if stage != self.advanced || stage >= self.stages.len() {
            return Err(ServeError::Corrupt(format!(
                "campaign `{}`: evaluation for stage {stage} while cursor is at {} of {}",
                self.spec.id,
                self.advanced,
                self.stages.len()
            )));
        }
        let cur = &mut self.stages[stage];
        if idx != cur.len() {
            return Err(ServeError::Corrupt(format!(
                "campaign `{}`: attempt index {idx} is not dense (stage {stage} holds {})",
                self.spec.id,
                cur.len()
            )));
        }
        cur.push(rec);
        Ok(())
    }
}

/// Replayed state of the whole service.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceState {
    /// Campaigns in submission order.
    pub campaigns: Vec<CampaignState>,
    /// Spool files rejected at intake (`(file name, reason)`) — re-scans
    /// skip these without re-validating.
    pub rejected: Vec<(String, String)>,
}

impl ServiceState {
    /// Fold a WAL record sequence into service state. Strict: any
    /// sequence this service could not have written is
    /// [`ServeError::Corrupt`].
    pub fn replay(records: &[WalRecord]) -> Result<ServiceState> {
        let mut state = ServiceState::default();
        for rec in records {
            match rec {
                WalRecord::CampaignSubmitted { spec } => {
                    if state.campaign(&spec.id).is_some() {
                        return Err(ServeError::Corrupt(format!(
                            "campaign `{}` submitted twice",
                            spec.id
                        )));
                    }
                    state.campaigns.push(CampaignState::new(spec.clone()));
                }
                WalRecord::SpoolRejected { file, reason } => {
                    state.rejected.push((file.clone(), reason.clone()));
                }
                other => {
                    let id = other.campaign_id().ok_or_else(|| {
                        ServeError::Corrupt("campaign record without an id".into())
                    })?;
                    let campaign = state.campaign_mut(id).ok_or_else(|| {
                        ServeError::Corrupt(format!(
                            "record for unknown campaign `{id}` (no CampaignSubmitted)"
                        ))
                    })?;
                    campaign.apply(other)?;
                }
            }
        }
        Ok(state)
    }

    /// Look up a campaign by id.
    pub fn campaign(&self, id: &str) -> Option<&CampaignState> {
        self.campaigns.iter().find(|c| c.spec.id == id)
    }

    fn campaign_mut(&mut self, id: &str) -> Option<&mut CampaignState> {
        self.campaigns.iter_mut().find(|c| c.spec.id == id)
    }

    /// Has a spool file already been rejected?
    pub fn is_rejected(&self, file: &str) -> bool {
        self.rejected.iter().any(|(f, _)| f == file)
    }

    /// Campaigns that still need supervisor work (not terminal).
    pub fn open_campaigns(&self) -> impl Iterator<Item = &CampaignState> {
        self.campaigns.iter().filter(|c| c.terminal.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submitted(id: &str) -> WalRecord {
        let mut spec = CampaignSpec::new(id, "sphere", 3);
        spec.stages = vec![vec!["x0".into()], vec!["x1".into(), "x2".into()]];
        WalRecord::CampaignSubmitted { spec }
    }

    fn eval_ok(id: &str, stage: usize, idx: usize, y: f64) -> WalRecord {
        WalRecord::EvalCompleted {
            id: id.into(),
            stage,
            idx,
            u: vec![0.5],
            y,
        }
    }

    #[test]
    fn replay_rebuilds_stage_cursor_and_histories() {
        let records = vec![
            submitted("a"),
            eval_ok("a", 0, 0, 3.0),
            eval_ok("a", 0, 1, 2.0),
            WalRecord::EvalFailed {
                id: "a".into(),
                stage: 0,
                idx: 2,
                u: vec![0.25],
                kind: "crashed".into(),
                message: "boom".into(),
            },
            WalRecord::StageAdvanced {
                id: "a".into(),
                stage: 0,
            },
            eval_ok("a", 1, 0, 1.5),
        ];
        let state = ServiceState::replay(&records).unwrap();
        let c = state.campaign("a").unwrap();
        assert_eq!(c.advanced, 1);
        assert_eq!(c.stages[0].len(), 3);
        assert_eq!(c.stages[1].len(), 1);
        assert_eq!(c.phase(), CampaignPhase::Running);
        let stats = c.failure_stats();
        assert_eq!((stats.n_ok, stats.n_crashed), (3, 1));
    }

    #[test]
    fn finished_with_failures_is_degraded_without_is_completed() {
        let mut clean = vec![
            submitted("a"),
            eval_ok("a", 0, 0, 3.0),
            WalRecord::StageAdvanced {
                id: "a".into(),
                stage: 0,
            },
            eval_ok("a", 1, 0, 1.0),
            WalRecord::StageAdvanced {
                id: "a".into(),
                stage: 1,
            },
            WalRecord::CampaignFinished {
                id: "a".into(),
                best_value: 1.0,
                config_hash: "fnv1a:00".into(),
            },
        ];
        let state = ServiceState::replay(&clean).unwrap();
        assert_eq!(
            state.campaign("a").unwrap().phase(),
            CampaignPhase::Completed
        );

        // Same trajectory with one failed attempt mixed in → Degraded.
        clean.insert(
            1,
            WalRecord::EvalFailed {
                id: "a".into(),
                stage: 0,
                idx: 0,
                u: vec![0.1],
                kind: "timeout".into(),
                message: "slow".into(),
            },
        );
        // Re-index the following success to keep the stream dense.
        if let WalRecord::EvalCompleted { idx, .. } = &mut clean[2] {
            *idx = 1;
        }
        let state = ServiceState::replay(&clean).unwrap();
        assert_eq!(
            state.campaign("a").unwrap().phase(),
            CampaignPhase::Degraded
        );
    }

    #[test]
    fn impossible_sequences_are_corrupt_not_ignored() {
        // Unknown campaign.
        assert!(matches!(
            ServiceState::replay(&[eval_ok("ghost", 0, 0, 1.0)]),
            Err(ServeError::Corrupt(_))
        ));
        // Duplicate submission.
        assert!(matches!(
            ServiceState::replay(&[submitted("a"), submitted("a")]),
            Err(ServeError::Corrupt(_))
        ));
        // Non-dense attempt index.
        assert!(matches!(
            ServiceState::replay(&[submitted("a"), eval_ok("a", 0, 5, 1.0)]),
            Err(ServeError::Corrupt(_))
        ));
        // Evaluation for a stage the cursor is not at.
        assert!(matches!(
            ServiceState::replay(&[submitted("a"), eval_ok("a", 1, 0, 1.0)]),
            Err(ServeError::Corrupt(_))
        ));
        // Record after terminal.
        assert!(matches!(
            ServiceState::replay(&[
                submitted("a"),
                WalRecord::CampaignFailed {
                    id: "a".into(),
                    reason: "out of restarts".into()
                },
                eval_ok("a", 0, 0, 1.0),
            ]),
            Err(ServeError::Corrupt(_))
        ));
        // Finishing with stages left.
        assert!(matches!(
            ServiceState::replay(&[
                submitted("a"),
                WalRecord::CampaignFinished {
                    id: "a".into(),
                    best_value: 1.0,
                    config_hash: "fnv1a:00".into()
                },
            ]),
            Err(ServeError::Corrupt(_))
        ));
    }

    #[test]
    fn rejected_spool_files_are_remembered() {
        let records = vec![WalRecord::SpoolRejected {
            file: "bad.json".into(),
            reason: "C002: unknown objective".into(),
        }];
        let state = ServiceState::replay(&records).unwrap();
        assert!(state.is_rejected("bad.json"));
        assert!(!state.is_rejected("good.json"));
    }
}
