//! The service write-ahead log: the [`WalRecord`] vocabulary and its
//! payloads on `cets-core`'s framed log format ([`cets_core::framelog`],
//! which owns the frame codec, the prefix reader, tail repair and the
//! [`FsyncPolicy`]) under the magic `CETSWAL1`.
//!
//! Payloads are single-key JSON objects (`{"eval_completed": {...}}`)
//! whose floats are shortest-roundtrip, so WAL replay is bit-exact.
//! [`Wal::open`] truncates a torn tail before appending and refuses a
//! file with another magic, a BO checkpoint included.

use crate::spec::CampaignSpec;
use crate::Result;
use cets_core::framelog::{self, FrameLog};
pub use cets_core::framelog::{encode_frame, fnv1a, FsyncPolicy, KillSpec, RecoveryReport};
use serde::{DeError, Deserialize, Serialize, Value};
use std::path::Path;

/// Log file magic: identifies the format and its version.
pub const WAL_MAGIC: &[u8; 8] = b"CETSWAL1";

/// Conventional WAL file name inside a service data directory.
pub const WAL_FILE_NAME: &str = "wal.log";

/// One durable service event.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A campaign passed intake validation; the spec is embedded so
    /// recovery never needs the spool file again.
    CampaignSubmitted {
        /// The accepted job description.
        spec: CampaignSpec,
    },
    /// A spool file failed validation (keyed by file name: re-scans skip
    /// it without re-validating).
    SpoolRejected {
        /// Spool file name (not path).
        file: String,
        /// First validation error.
        reason: String,
    },
    /// One successful evaluation attempt of a campaign stage.
    EvalCompleted {
        /// Campaign id.
        id: String,
        /// Stage ordinal the attempt belongs to.
        stage: usize,
        /// Attempt ordinal within the stage (dense, 0-based).
        idx: usize,
        /// Active-space unit point evaluated.
        u: Vec<f64>,
        /// Observed objective total.
        y: f64,
    },
    /// One failed evaluation attempt (after any retries).
    EvalFailed {
        /// Campaign id.
        id: String,
        /// Stage ordinal the attempt belongs to.
        stage: usize,
        /// Attempt ordinal within the stage (dense, 0-based).
        idx: usize,
        /// Active-space unit point attempted.
        u: Vec<f64>,
        /// Stable failure-kind tag (`FailureKind::as_str`).
        kind: String,
        /// Human-readable failure description.
        message: String,
    },
    /// A stage completed; its best configuration folds into the defaults
    /// of every later stage.
    StageAdvanced {
        /// Campaign id.
        id: String,
        /// The stage that finished (0-based).
        stage: usize,
    },
    /// The supervisor restarted a campaign after a campaign-level error.
    CampaignRestarted {
        /// Campaign id.
        id: String,
        /// Restart ordinal (1-based).
        attempt: usize,
        /// What went wrong.
        reason: String,
    },
    /// All stages finished.
    CampaignFinished {
        /// Campaign id.
        id: String,
        /// Best observed objective value across all stages.
        best_value: f64,
        /// [`crate::spec::config_hash`] of the final folded configuration.
        config_hash: String,
    },
    /// The campaign exhausted its restart budget.
    CampaignFailed {
        /// Campaign id.
        id: String,
        /// Terminal error description.
        reason: String,
    },
}

impl WalRecord {
    /// The campaign id this record belongs to, if any.
    pub fn campaign_id(&self) -> Option<&str> {
        match self {
            WalRecord::CampaignSubmitted { spec } => Some(&spec.id),
            WalRecord::SpoolRejected { .. } => None,
            WalRecord::EvalCompleted { id, .. }
            | WalRecord::EvalFailed { id, .. }
            | WalRecord::StageAdvanced { id, .. }
            | WalRecord::CampaignRestarted { id, .. }
            | WalRecord::CampaignFinished { id, .. }
            | WalRecord::CampaignFailed { id, .. } => Some(id),
        }
    }
}

impl Serialize for WalRecord {
    fn serialize(&self) -> Value {
        let (tag, body): (&str, Vec<(&str, Value)>) = match self {
            WalRecord::CampaignSubmitted { spec } => {
                ("campaign_submitted", vec![("spec", spec.serialize())])
            }
            WalRecord::SpoolRejected { file, reason } => (
                "spool_rejected",
                vec![("file", file.serialize()), ("reason", reason.serialize())],
            ),
            WalRecord::EvalCompleted {
                id,
                stage,
                idx,
                u,
                y,
            } => (
                "eval_completed",
                vec![
                    ("id", id.serialize()),
                    ("stage", stage.serialize()),
                    ("idx", idx.serialize()),
                    ("u", u.serialize()),
                    ("y", y.serialize()),
                ],
            ),
            WalRecord::EvalFailed {
                id,
                stage,
                idx,
                u,
                kind,
                message,
            } => (
                "eval_failed",
                vec![
                    ("id", id.serialize()),
                    ("stage", stage.serialize()),
                    ("idx", idx.serialize()),
                    ("u", u.serialize()),
                    ("kind", kind.serialize()),
                    ("message", message.serialize()),
                ],
            ),
            WalRecord::StageAdvanced { id, stage } => (
                "stage_advanced",
                vec![("id", id.serialize()), ("stage", stage.serialize())],
            ),
            WalRecord::CampaignRestarted {
                id,
                attempt,
                reason,
            } => (
                "campaign_restarted",
                vec![
                    ("id", id.serialize()),
                    ("attempt", attempt.serialize()),
                    ("reason", reason.serialize()),
                ],
            ),
            WalRecord::CampaignFinished {
                id,
                best_value,
                config_hash,
            } => (
                "campaign_finished",
                vec![
                    ("id", id.serialize()),
                    ("best_value", best_value.serialize()),
                    ("config_hash", config_hash.serialize()),
                ],
            ),
            WalRecord::CampaignFailed { id, reason } => (
                "campaign_failed",
                vec![("id", id.serialize()), ("reason", reason.serialize())],
            ),
        };
        let body = body.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        Value::Object(vec![(tag.to_string(), Value::Object(body))])
    }
}

impl Deserialize for WalRecord {
    fn deserialize(v: &Value) -> std::result::Result<Self, DeError> {
        let (tag, body) = v.as_variant()?;
        let at = |field: &'static str| move |e: DeError| DeError(format!("{tag}.{field}: {e}"));
        let s = |field: &'static str| String::deserialize(body.get_field(field)).map_err(at(field));
        let n = |field: &'static str| {
            body.get_field(field)
                .as_u64()
                .map(|x| x as usize)
                .map_err(at(field))
        };
        let u = || Deserialize::deserialize(body.get_field("u")).map_err(at("u"));
        let f = |field: &'static str| match body.get_field(field) {
            Value::Null => Err(DeError(format!("{tag}.{field}: missing"))),
            x => x.as_f64().map_err(at(field)),
        };
        match tag {
            "campaign_submitted" => Ok(WalRecord::CampaignSubmitted {
                spec: CampaignSpec::deserialize(body.get_field("spec")).map_err(at("spec"))?,
            }),
            "spool_rejected" => Ok(WalRecord::SpoolRejected {
                file: s("file")?,
                reason: s("reason")?,
            }),
            "eval_completed" => Ok(WalRecord::EvalCompleted {
                id: s("id")?,
                stage: n("stage")?,
                idx: n("idx")?,
                u: u()?,
                y: f("y")?,
            }),
            "eval_failed" => Ok(WalRecord::EvalFailed {
                id: s("id")?,
                stage: n("stage")?,
                idx: n("idx")?,
                u: u()?,
                kind: s("kind")?,
                message: s("message")?,
            }),
            "stage_advanced" => Ok(WalRecord::StageAdvanced {
                id: s("id")?,
                stage: n("stage")?,
            }),
            "campaign_restarted" => Ok(WalRecord::CampaignRestarted {
                id: s("id")?,
                attempt: n("attempt")?,
                reason: s("reason")?,
            }),
            "campaign_finished" => Ok(WalRecord::CampaignFinished {
                id: s("id")?,
                best_value: f("best_value")?,
                config_hash: s("config_hash")?,
            }),
            "campaign_failed" => Ok(WalRecord::CampaignFailed {
                id: s("id")?,
                reason: s("reason")?,
            }),
            other => Err(DeError(format!("unknown WAL record type `{other}`"))),
        }
    }
}

/// Decode every valid record from raw log bytes (magic included),
/// stopping at the first torn or corrupt frame. Pure function of the
/// bytes — the WAL-robustness proptests drive it directly.
pub fn read_frames(bytes: &[u8]) -> Result<(Vec<WalRecord>, RecoveryReport)> {
    let decoded = framelog::read_frames(bytes, WAL_MAGIC, WalRecord::deserialize);
    Ok(decoded?)
}

/// The append-side handle on a service log.
#[derive(Debug)]
pub struct Wal(FrameLog);

impl Wal {
    /// Open (or create) the log at `path`, repairing any torn tail:
    /// returns the handle positioned for append, the valid record prefix,
    /// and the recovery report. Refuses files whose magic is not a CETS
    /// WAL.
    pub fn open(path: &Path, fsync: FsyncPolicy) -> Result<(Wal, Vec<WalRecord>, RecoveryReport)> {
        let (log, records, report) =
            FrameLog::open(path, WAL_MAGIC, fsync, WalRecord::deserialize)?;
        Ok((Wal(log), records, report))
    }

    /// Arm a simulated process kill (see [`KillSpec`]).
    pub fn with_kill(self, kill: Option<KillSpec>) -> Self {
        Wal(self.0.with_kill(kill))
    }

    /// Has the armed [`KillSpec`] fired?
    pub fn kill_tripped(&self) -> bool {
        self.0.kill_tripped()
    }

    /// Valid records currently in the log.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Append one record durably (per the fsync policy). Returns the
    /// record's ordinal in the log.
    pub fn append(&mut self, rec: &WalRecord) -> Result<usize> {
        Ok(self.0.append(rec)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeError;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cets_wal_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CampaignSubmitted {
                spec: CampaignSpec::new("c1", "sphere", 7),
            },
            WalRecord::EvalCompleted {
                id: "c1".into(),
                stage: 0,
                idx: 0,
                u: vec![0.125, 0.75, 0.5],
                y: 2.625,
            },
            WalRecord::EvalFailed {
                id: "c1".into(),
                stage: 0,
                idx: 1,
                u: vec![0.1, 0.2, 0.3],
                kind: "crashed".into(),
                message: "boom".into(),
            },
            WalRecord::StageAdvanced {
                id: "c1".into(),
                stage: 0,
            },
            WalRecord::CampaignRestarted {
                id: "c1".into(),
                attempt: 1,
                reason: "stalled".into(),
            },
            WalRecord::CampaignFinished {
                id: "c1".into(),
                best_value: 2.625,
                config_hash: "fnv1a:0123456789abcdef".into(),
            },
            WalRecord::CampaignFailed {
                id: "c1".into(),
                reason: "restart budget exhausted".into(),
            },
            WalRecord::SpoolRejected {
                file: "bad.json".into(),
                reason: "C001: missing id".into(),
            },
        ]
    }

    #[test]
    fn append_reopen_roundtrips_every_record_type() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join(WAL_FILE_NAME);
        std::fs::remove_file(&path).ok();
        let recs = sample_records();
        {
            let (mut wal, existing, _) = Wal::open(&path, FsyncPolicy::Always).unwrap();
            assert!(existing.is_empty());
            for r in &recs {
                wal.append(r).unwrap();
            }
        }
        let (wal, back, report) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(back, recs);
        assert_eq!(wal.len(), recs.len());
        assert!(report.truncated.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_append_continues() {
        let dir = tmp_dir("torn");
        let path = dir.join(WAL_FILE_NAME);
        std::fs::remove_file(&path).ok();
        let recs = sample_records();
        {
            let (mut wal, _, _) = Wal::open(&path, FsyncPolicy::Never).unwrap();
            for r in &recs[..3] {
                wal.append(r).unwrap();
            }
        }
        // Tear the file mid-frame, then append after reopening.
        let bytes = std::fs::read(&path).unwrap();
        let mut torn = bytes.clone();
        torn.extend_from_slice(&42u32.to_le_bytes()); // header fragment
        std::fs::write(&path, &torn).unwrap();
        {
            let (mut wal, back, report) = Wal::open(&path, FsyncPolicy::Never).unwrap();
            assert_eq!(back, recs[..3]);
            assert!(report.truncated.is_some());
            wal.append(&recs[3]).unwrap();
        }
        let (_, finals, report) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(finals, recs[..4]);
        assert!(report.truncated.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_truncates_from_the_flipped_record() {
        let dir = tmp_dir("bitflip");
        let path = dir.join(WAL_FILE_NAME);
        std::fs::remove_file(&path).ok();
        let recs = sample_records();
        {
            let (mut wal, _, _) = Wal::open(&path, FsyncPolicy::Never).unwrap();
            for r in &recs {
                wal.append(r).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit inside the third record's payload.
        let (_, clean) = read_frames(&bytes).unwrap();
        assert!(clean.truncated.is_none());
        let flip_at = bytes.len() / 2;
        bytes[flip_at] ^= 0x10;
        let (prefix, report) = read_frames(&bytes).unwrap();
        assert!(report.truncated.is_some());
        assert!(prefix.len() < recs.len());
        assert_eq!(prefix, recs[..prefix.len()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_file_refused_not_clobbered() {
        let dir = tmp_dir("foreign");
        let path = dir.join(WAL_FILE_NAME);
        std::fs::write(&path, b"definitely not a WAL file").unwrap();
        assert!(matches!(
            Wal::open(&path, FsyncPolicy::Never),
            Err(ServeError::Corrupt(_))
        ));
        // Untouched.
        assert_eq!(std::fs::read(&path).unwrap(), b"definitely not a WAL file");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_spec_tears_the_frame_and_poisons_the_handle() {
        let dir = tmp_dir("kill");
        let path = dir.join(WAL_FILE_NAME);
        std::fs::remove_file(&path).ok();
        let recs = sample_records();
        let (wal, _, _) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        let mut wal = wal.with_kill(Some(KillSpec {
            after_records: 2,
            torn_bytes: 7,
        }));
        wal.append(&recs[0]).unwrap();
        wal.append(&recs[1]).unwrap();
        assert!(matches!(
            wal.append(&recs[2]),
            Err(ServeError::SimulatedCrash { records: 2 })
        ));
        assert!(wal.kill_tripped());
        // Poisoned: later appends die too.
        assert!(matches!(
            wal.append(&recs[3]),
            Err(ServeError::SimulatedCrash { .. })
        ));
        drop(wal);
        // Recovery sees exactly the 2 durable records and repairs the tear.
        let (wal2, back, report) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(back, recs[..2]);
        assert!(report.truncated.is_some());
        assert_eq!(wal2.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
