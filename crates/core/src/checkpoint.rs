//! Crash-recovery checkpoints for BO searches.
//!
//! HPC tuning runs die: node failures, queue time limits, application
//! crashes on pathological configurations. The paper chose GPTune partly
//! for its crash recovery; CETS provides the same property by logging
//! every objective evaluation — the most expensive state by far — as it
//! happens, so a restarted search continues where it stopped
//! ([`crate::BoSearch::resume`]).
//!
//! A checkpoint is a one-search log in the framed format of
//! [`crate::framelog`] under the magic `CETSCKP1`: a header frame
//! `{"seed":42,"tier":"auto:512"}`, then one frame per attempt, failures
//! included — `{"u":[0.1,0.9],"y":3.5}` or
//! `{"u":[0.4,0.2],"failed":{"kind":"crashed","message":"..."}}` — so
//! plain and failure-aware searches alike resume bit-for-bit. A search
//! with [`crate::BoConfig::checkpoint_path`] set snapshots the attempts it
//! starts from, then appends and `sync_data`s one frame per new attempt.
//!
//! [`BoCheckpoint::load`] returns the longest valid prefix: it stops at
//! the first torn, checksum-damaged or invalid frame (ragged or
//! non-finite point, non-finite value on a success, unknown failure
//! kind). It fails only when no header survives or the file is not a
//! checkpoint, such as the JSON checkpoints of earlier versions. Resume
//! rejects a checkpoint whose seed or tier-policy tag
//! ([`cets_gp::TierPolicy::tag`]) differs from the search's, since the
//! trajectory re-derives every tier decision from the policy.

use crate::framelog::{
    encode_frame, read_frames, write_snapshot, FrameLog, FsyncPolicy, RecoveryReport,
};
use crate::resilience::{EvalRecord, FailedEval, FailureKind};
use crate::{CoreError, Result};
use serde::{DeError, Deserialize, Serialize, Value};
use std::path::Path;

/// Checkpoint file magic: identifies the file kind and its version.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"CETSCKP1";

/// Persisted state of a (possibly interrupted) BO search.
#[derive(Debug, Clone, PartialEq)]
pub struct BoCheckpoint {
    /// Seed the search was started with (resume derives its RNG stream from
    /// `seed + attempts`, so continued runs stay deterministic without
    /// persisting raw RNG state).
    pub seed: u64,
    /// Surrogate tier-policy tag the search ran with
    /// ([`cets_gp::TierPolicy::tag`]); `None` when saved without one.
    /// Resume rejects a mismatching tag rather than silently diverging
    /// from the interrupted trajectory.
    pub tier: Option<String>,
    /// Every attempt, failures included, in attempt order.
    pub records: Vec<EvalRecord>,
}

impl BoCheckpoint {
    /// Snapshot an all-success history.
    pub fn from_history(seed: u64, history: &[(Vec<f64>, f64)]) -> Self {
        let records = history.iter().map(|(u, y)| EvalRecord::ok(u.clone(), *y));
        BoCheckpoint {
            seed,
            tier: None,
            records: records.collect(),
        }
    }

    /// Snapshot a failure-aware attempt history.
    pub fn from_records(seed: u64, records: &[EvalRecord]) -> Self {
        BoCheckpoint {
            seed,
            tier: None,
            records: records.to_vec(),
        }
    }

    /// Record the surrogate tier-policy tag the search is running with.
    pub fn with_tier(mut self, tag: String) -> Self {
        self.tier = Some(tag);
        self
    }

    /// Rebuild the `(point, value)` history of **successful** evaluations.
    pub fn history(&self) -> Vec<(Vec<f64>, f64)> {
        let ok = |r: &EvalRecord| r.y().map(|y| (r.u.clone(), y));
        self.records.iter().filter_map(ok).collect()
    }

    /// Number of attempts (successes + failures).
    pub fn n_evals(&self) -> usize {
        self.records.len()
    }

    /// Number of failed attempts.
    pub fn n_failed(&self) -> usize {
        self.records.iter().filter(|r| !r.is_ok()).count()
    }

    /// Write the whole checkpoint as one durable, atomic snapshot
    /// ([`crate::framelog::write_snapshot`]).
    pub fn save(&self, path: &Path) -> Result<()> {
        let mut header = vec![("seed".to_string(), self.seed.serialize())];
        if let Some(tag) = &self.tier {
            header.push(("tier".to_string(), tag.serialize()));
        }
        let frames = std::iter::once(Value::Object(header)).chain(self.records.iter().map(payload));
        let mut bytes = CHECKPOINT_MAGIC.to_vec();
        for frame in frames {
            bytes.extend_from_slice(&encode_frame(&frame)?);
        }
        Ok(write_snapshot(path, &bytes)?)
    }

    /// Load the longest valid prefix of a checkpoint; the file is only
    /// read, never repaired.
    pub fn load(path: &Path) -> Result<Self> {
        let in_file = |e: String| CoreError::Checkpoint(format!("{}: {e}", path.display()));
        let bytes = std::fs::read(path).map_err(|e| in_file(e.to_string()))?;
        match Self::decode(&bytes) {
            Ok((cp, _)) => Ok(cp),
            Err(CoreError::Checkpoint(m)) => Err(in_file(m)),
            Err(e) => Err(e),
        }
    }

    /// Decode checkpoint bytes: the longest valid prefix, and the report
    /// of where and why reading stopped.
    pub fn decode(bytes: &[u8]) -> Result<(Self, RecoveryReport)> {
        if bytes.first() == Some(&b'{') {
            return Err(CoreError::Checkpoint(
                "a JSON checkpoint from an earlier version; this build reads only \
                 CETSCKP1 checkpoint logs"
                    .into(),
            ));
        }
        let (mut header, mut dim) = (None, None);
        let (frames, report) = read_frames(bytes, CHECKPOINT_MAGIC, |v| {
            if header.is_some() {
                return decode_record(v, &mut dim).map(Some);
            }
            let seed = v.get_field("seed").as_u64()?;
            header = Some((seed, Deserialize::deserialize(v.get_field("tier"))?));
            Ok(None)
        })?;
        let Some((seed, tier)) = header else {
            let why = report.truncated.as_deref().unwrap_or("empty file");
            return Err(CoreError::Checkpoint(format!(
                "no checkpoint header ({why})"
            )));
        };
        let records = frames.into_iter().flatten().collect();
        Ok((
            BoCheckpoint {
                seed,
                tier,
                records,
            },
            report,
        ))
    }
}

/// The append side of a running search's checkpoint.
#[derive(Debug)]
pub(crate) struct CheckpointLog(FrameLog);

impl CheckpointLog {
    /// Save `checkpoint` as a snapshot, then append new attempts to it.
    pub(crate) fn create(path: &Path, checkpoint: &BoCheckpoint) -> Result<Self> {
        checkpoint.save(path)?;
        let (log, _, _) = FrameLog::open(path, CHECKPOINT_MAGIC, FsyncPolicy::Always, |_| Ok(()))?;
        Ok(CheckpointLog(log))
    }

    /// Append one attempt and `sync_data` it.
    pub(crate) fn append(&mut self, record: &EvalRecord) -> Result<()> {
        self.0.append(&payload(record))?;
        Ok(())
    }
}

/// An attempt's frame: `{"u":[…],"y":…}` or `{"u":[…],"failed":{…}}`.
fn payload(record: &EvalRecord) -> Value {
    let value = match &record.value {
        Ok(y) => ("y".to_string(), Value::Float(*y)),
        Err(f) => ("failed".to_string(), f.serialize()),
    };
    Value::Object(vec![("u".to_string(), record.u.serialize()), value])
}

/// Decode one attempt, holding every point to the first one's dimension.
fn decode_record(v: &Value, dim: &mut Option<usize>) -> std::result::Result<EvalRecord, DeError> {
    let u: Vec<f64> = Deserialize::deserialize(v.get_field("u"))?;
    let expected = *dim.get_or_insert(u.len());
    if u.len() != expected || u.iter().any(|x| !x.is_finite()) {
        return Err(DeError(format!(
            "point {u:?} is not {expected} finite coordinates"
        )));
    }
    match v.get_field("failed") {
        Value::Null => match v.get_field("y").as_f64()? {
            y if y.is_finite() => Ok(EvalRecord::ok(u, y)),
            _ => Err(DeError("value is not finite on a successful entry".into())),
        },
        failed => Ok(EvalRecord::failed(u, FailedEval::deserialize(failed)?)),
    }
}

impl Serialize for FailedEval {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("kind".into(), Value::String(self.kind.as_str().to_string())),
            ("message".into(), Value::String(self.message.clone())),
        ])
    }
}

impl Deserialize for FailedEval {
    fn deserialize(v: &Value) -> std::result::Result<Self, DeError> {
        let tag = String::deserialize(v.get_field("kind"))
            .map_err(|e| DeError(format!("failure kind: {e}")))?;
        let kind = FailureKind::parse(&tag)
            .ok_or_else(|| DeError(format!("unknown failure kind `{tag}`")))?;
        let message: Option<String> = Deserialize::deserialize(v.get_field("message"))
            .map_err(|e| DeError(format!("failure message: {e}")))?;
        Ok(FailedEval {
            kind,
            message: message.unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cets_ckpt_{}_{name}.ckpt", std::process::id()))
    }

    /// Decode a hand-made checkpoint, a header then one JSON text per
    /// attempt frame: the loaded attempts and why reading stopped.
    fn decode_frames(frames: &[&str]) -> (Vec<EvalRecord>, String) {
        let mut bytes = CHECKPOINT_MAGIC.to_vec();
        for f in std::iter::once(&r#"{"seed":1}"#).chain(frames) {
            let v = serde_json::parse_value(f).unwrap();
            bytes.extend_from_slice(&encode_frame(&v).unwrap());
        }
        let (cp, report) = BoCheckpoint::decode(&bytes).unwrap();
        (cp.records, report.truncated.unwrap_or_default())
    }

    #[test]
    fn roundtrip() {
        let hist = vec![(vec![0.1, 0.2], 3.0), (vec![0.5, 0.6], 1.5)];
        let cp = BoCheckpoint::from_history(42, &hist);
        assert_eq!(cp.n_evals(), 2);
        assert_eq!(cp.n_failed(), 0);
        let path = tmp_path("roundtrip");
        cp.save(&path).unwrap();
        let loaded = BoCheckpoint::load(&path).unwrap();
        assert_eq!(loaded, cp);
        assert_eq!(loaded.history(), hist);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn records_roundtrip_with_failures() {
        let records = vec![
            EvalRecord::ok(vec![0.1, 0.2], 3.0),
            EvalRecord::failed(
                vec![0.5, 0.6],
                FailedEval {
                    kind: FailureKind::Crashed,
                    message: "boom".into(),
                },
            ),
            EvalRecord::ok(vec![0.9, 0.4], 1.0),
        ];
        let cp = BoCheckpoint::from_records(7, &records);
        assert_eq!(cp.n_evals(), 3);
        assert_eq!(cp.n_failed(), 1);
        let path = tmp_path("records");
        cp.save(&path).unwrap();
        let loaded = BoCheckpoint::load(&path).unwrap();
        assert_eq!(loaded.records, records);
        // Successful history skips the failure.
        assert_eq!(
            loaded.history(),
            vec![(vec![0.1, 0.2], 3.0), (vec![0.9, 0.4], 1.0)]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tier_tag_roundtrips_and_defaults_to_none() {
        let cp = BoCheckpoint::from_history(3, &[(vec![0.1], 1.0)]);
        let path = tmp_path("tier");
        cp.clone().with_tier("auto:512".into()).save(&path).unwrap();
        let loaded = BoCheckpoint::load(&path).unwrap();
        assert_eq!(loaded.tier.as_deref(), Some("auto:512"));
        // Saved without a tag, it loads as `None`.
        cp.save(&path).unwrap();
        assert_eq!(BoCheckpoint::load(&path).unwrap(), cp);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_errors() {
        let path = tmp_path("missing_never_written");
        assert!(matches!(
            BoCheckpoint::load(&path),
            Err(CoreError::Checkpoint(_))
        ));
    }

    #[test]
    fn corrupt_lengths_rejected() {
        // A frame length past the end of the file or past the cap ends
        // the valid prefix before that frame.
        let cp = BoCheckpoint::from_history(1, &[(vec![0.1], 1.0), (vec![0.2], 2.0)]);
        let path = tmp_path("lengths");
        cp.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let last = bytes.len() - 12 - r#"{"u":[0.2],"y":2.0}"#.len();
        for len in [u32::MAX, 4096] {
            bytes[last..last + 4].copy_from_slice(&len.to_le_bytes());
            let (loaded, report) = BoCheckpoint::decode(&bytes).unwrap();
            assert_eq!(loaded.records, cp.records[..1]);
            assert_eq!(report.valid_bytes, last as u64);
        }
    }

    #[test]
    fn ragged_points_rejected() {
        let (records, why) =
            decode_frames(&[r#"{"u":[0.1,0.2],"y":1.0}"#, r#"{"u":[0.3],"y":2.0}"#]);
        assert_eq!(records, vec![EvalRecord::ok(vec![0.1, 0.2], 1.0)]);
        assert!(why.contains("not 2 finite coordinates"), "{why}");
    }

    #[test]
    fn null_value_on_success_entry_rejected() {
        // JSON null reads back as NaN; a successful entry must be finite.
        let (records, why) = decode_frames(&[r#"{"u":[0.1],"y":null}"#]);
        assert!(records.is_empty());
        assert!(why.contains("not finite"), "{why}");
    }

    #[test]
    fn unknown_failure_kind_rejected() {
        let bad = r#"{"u":[0.1],"failed":{"kind":"cosmic-ray","message":""}}"#;
        let (records, why) = decode_frames(&[bad]);
        assert!(records.is_empty());
        assert!(why.contains("cosmic-ray"), "{why}");
    }

    #[test]
    fn garbage_json_rejected() {
        // Garbage, and a log of another kind (here a `cets serve` WAL), are
        // refused by their magic.
        let path = tmp_path("garbage");
        let wal = [b"CETSWAL1".as_slice(), &encode_frame(&1i64).unwrap()].concat();
        for bytes in [b"not json at all".as_slice(), &wal] {
            std::fs::write(&path, bytes).unwrap();
            let err = BoCheckpoint::load(&path).unwrap_err().to_string();
            assert!(err.contains("magic mismatch"), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_json_rejected() {
        // Half of a JSON checkpoint written by an earlier version.
        let path = tmp_path("truncated");
        std::fs::write(&path, r#"{"version":2,"seed":3,"x_unit":[[0.1,0.2],[0."#).unwrap();
        assert!(matches!(
            BoCheckpoint::load(&path),
            Err(CoreError::Checkpoint(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parent_json_checkpoint_refused_and_left_untouched() {
        let path = tmp_path("parent_json");
        let json = "{\n  \"version\": 2,\n  \"seed\": 5,\n  \"x_unit\": [\n    [\n      0.3\n    ]\n  ],\n  \
                    \"y\": [\n    2.0\n  ],\n  \"failed\": [\n    null\n  ]\n}";
        std::fs::write(&path, json).unwrap();
        let err = BoCheckpoint::load(&path).unwrap_err();
        assert!(err.to_string().contains("earlier version"), "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), json);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overwrite_is_atomic_style() {
        let path = tmp_path("atomic");
        let cp1 = BoCheckpoint::from_history(1, &[(vec![0.0], 1.0)]);
        cp1.save(&path).unwrap();
        let cp2 = BoCheckpoint::from_history(1, &[(vec![0.0], 1.0), (vec![1.0], 0.5)]);
        cp2.save(&path).unwrap();
        assert_eq!(BoCheckpoint::load(&path).unwrap().n_evals(), 2);
        // No stray tmp file.
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_file(&path).ok();
    }
}
