//! Crash-recovery checkpoints for BO searches.
//!
//! HPC tuning runs die: node failures, queue time limits, application
//! crashes on pathological configurations. The paper chose GPTune partly
//! for its crash recovery; CETS provides the same property by writing the
//! full evaluation history to JSON after every objective evaluation —
//! the most expensive state by far — so a restarted search continues where
//! it stopped ([`crate::BoSearch::resume`]).
//!
//! ## Format
//!
//! Checkpoints are versioned JSON objects. **Version 2** (current) records
//! every *attempt*, including failures, so every search — plain
//! ([`crate::BoSearch::run`]) or failure-aware
//! ([`crate::BoSearch::run_resilient`]) — resumes bit-for-bit:
//!
//! ```json
//! {
//!   "version": 2,
//!   "seed": 42,
//!   "tier": "auto:512",
//!   "x_unit": [[0.1, 0.9], [0.4, 0.2]],
//!   "y": [3.5, 0.0],
//!   "failed": [null, {"kind": "crashed", "message": "..."}],
//!   "checksum": "fnv1a:a1b2c3d4e5f60718"
//! }
//! ```
//!
//! `checksum` is an FNV-1a hash of the semantic content (seed, tier, point
//! and value bit patterns, failure records) verified on load; files written
//! by older versions carry no field and load without the check. Writes are
//! durable as well as atomic: the tmp file is fsynced before the rename and
//! the parent directory after it, so a `kill -9` or power loss at any
//! instant leaves either the previous checkpoint or the new one intact.
//!
//! `tier` is the surrogate tier-policy tag
//! ([`cets_gp::TierPolicy::tag`]) the search ran with. Resume re-derives
//! every per-iteration tier decision from the policy and the record
//! count, so a mismatched policy would silently diverge from the
//! interrupted trajectory — [`crate::BoSearch::resume`] and
//! [`crate::BoSearch::resume_resilient`] reject it instead. Files
//! written before the tier layer existed carry no `tier` field and
//! resume without the check.
//!
//! `y[i]` holds `0.0` as a placeholder where `failed[i]` is non-null (JSON
//! cannot encode NaN); imputation happens at GP-train time from the failure
//! records, never from stored sentinel values. **Version 1** files (no
//! `version` field) are read as all-success histories. Loading validates
//! the version, array lengths, point dimensions, and finiteness, and
//! reports what is wrong in [`CoreError::Checkpoint`] rather than
//! panicking or silently resuming from garbage.

use crate::resilience::{EvalRecord, FailedEval, FailureKind};
use crate::{CoreError, Result};
use serde::{DeError, Deserialize, Serialize, Value};
use std::path::Path;

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: i64 = 2;

/// Persisted state of a (possibly interrupted) BO search.
#[derive(Debug, Clone, PartialEq)]
pub struct BoCheckpoint {
    /// Seed the search was started with (resume derives its RNG stream from
    /// `seed + attempts`, so continued runs stay deterministic without
    /// persisting raw RNG state).
    pub seed: u64,
    /// Attempted active-space unit points, in attempt order.
    pub x_unit: Vec<Vec<f64>>,
    /// Corresponding objective values (`0.0` placeholder where the attempt
    /// failed — see `failed`).
    pub y: Vec<f64>,
    /// Per-attempt failure record; `None` marks a successful evaluation.
    pub failed: Vec<Option<FailedEval>>,
    /// Surrogate tier-policy tag the search ran with
    /// ([`cets_gp::TierPolicy::tag`]); `None` for files written before the
    /// tier layer existed. Resume rejects a mismatching tag rather than
    /// silently diverging from the interrupted trajectory.
    pub tier: Option<String>,
}

impl BoCheckpoint {
    /// Snapshot an all-success history.
    pub fn from_history(seed: u64, history: &[(Vec<f64>, f64)]) -> Self {
        BoCheckpoint {
            seed,
            x_unit: history.iter().map(|(u, _)| u.clone()).collect(),
            y: history.iter().map(|(_, y)| *y).collect(),
            failed: vec![None; history.len()],
            tier: None,
        }
    }

    /// Snapshot a failure-aware attempt history.
    pub fn from_records(seed: u64, records: &[EvalRecord]) -> Self {
        BoCheckpoint {
            seed,
            x_unit: records.iter().map(|r| r.u.clone()).collect(),
            y: records.iter().map(|r| r.y().unwrap_or(0.0)).collect(),
            failed: records
                .iter()
                .map(|r| r.value.as_ref().err().cloned())
                .collect(),
            tier: None,
        }
    }

    /// Record the surrogate tier-policy tag the search is running with.
    pub fn with_tier(mut self, tag: String) -> Self {
        self.tier = Some(tag);
        self
    }

    /// Rebuild the `(point, value)` history of **successful** evaluations.
    pub fn history(&self) -> Vec<(Vec<f64>, f64)> {
        self.x_unit
            .iter()
            .zip(&self.y)
            .zip(&self.failed)
            .filter(|(_, f)| f.is_none())
            .map(|((u, y), _)| (u.clone(), *y))
            .collect()
    }

    /// Rebuild the full attempt history, failures included.
    pub fn records(&self) -> Vec<EvalRecord> {
        self.x_unit
            .iter()
            .zip(&self.y)
            .zip(&self.failed)
            .map(|((u, y), f)| match f {
                None => EvalRecord::ok(u.clone(), *y),
                Some(e) => EvalRecord::failed(u.clone(), e.clone()),
            })
            .collect()
    }

    /// Number of attempts (successes + failures).
    pub fn n_evals(&self) -> usize {
        self.y.len()
    }

    /// Number of failed attempts.
    pub fn n_failed(&self) -> usize {
        self.failed.iter().filter(|f| f.is_some()).count()
    }

    /// Content checksum over the semantic payload (seed, tier tag, point
    /// and value bit patterns, failure records), independent of JSON
    /// formatting. Written into the v2 payload by [`BoCheckpoint::save`]
    /// and verified on load, so silent storage corruption (a post-rename
    /// power loss, a flipped bit) is diagnosed as a checksum mismatch
    /// instead of surfacing as a confusing parse or validation error — or
    /// worse, resuming from subtly wrong history.
    pub fn content_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&self.seed.to_le_bytes());
        if let Some(tag) = &self.tier {
            eat(&(tag.len() as u64).to_le_bytes());
            eat(tag.as_bytes());
        }
        eat(&(self.x_unit.len() as u64).to_le_bytes());
        for (i, u) in self.x_unit.iter().enumerate() {
            eat(&(u.len() as u64).to_le_bytes());
            for v in u {
                eat(&v.to_bits().to_le_bytes());
            }
            match &self.failed.get(i) {
                Some(Some(f)) => {
                    eat(b"err");
                    eat(f.kind.as_str().as_bytes());
                    eat(&(f.message.len() as u64).to_le_bytes());
                    eat(f.message.as_bytes());
                }
                _ => {
                    eat(b"ok");
                    eat(&self
                        .y
                        .get(i)
                        .copied()
                        .unwrap_or(0.0)
                        .to_bits()
                        .to_le_bytes());
                }
            }
        }
        h
    }

    /// Write durably and atomically: serialize to `<path>.tmp`, `fsync` the
    /// tmp file, rename over `path`, then `fsync` the parent directory so
    /// the rename itself survives a power loss. A crash at any point leaves
    /// either the previous checkpoint or the new one — never a torn file —
    /// and the embedded [`BoCheckpoint::content_hash`] lets `load` diagnose
    /// silent corruption that slips past those guarantees.
    pub fn save(&self, path: &Path) -> Result<()> {
        use std::io::Write;
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| CoreError::Checkpoint(format!("serialize: {e}")))?;
        let tmp = path.with_extension("tmp");
        let mut f = std::fs::File::create(&tmp)
            .map_err(|e| CoreError::Checkpoint(format!("create {}: {e}", tmp.display())))?;
        f.write_all(json.as_bytes())
            .map_err(|e| CoreError::Checkpoint(format!("write {}: {e}", tmp.display())))?;
        f.sync_all()
            .map_err(|e| CoreError::Checkpoint(format!("fsync {}: {e}", tmp.display())))?;
        drop(f);
        std::fs::rename(&tmp, path)
            .map_err(|e| CoreError::Checkpoint(format!("rename to {}: {e}", path.display())))?;
        // Persist the rename: fsync the directory entry. Directory handles
        // are a Unix notion; elsewhere the rename is as durable as it gets.
        #[cfg(unix)]
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            let d = std::fs::File::open(dir)
                .map_err(|e| CoreError::Checkpoint(format!("open dir {}: {e}", dir.display())))?;
            d.sync_all()
                .map_err(|e| CoreError::Checkpoint(format!("fsync dir {}: {e}", dir.display())))?;
        }
        Ok(())
    }

    /// Load and validate a checkpoint written by [`BoCheckpoint::save`]
    /// (or a pre-versioning v1 file).
    pub fn load(path: &Path) -> Result<Self> {
        let data = std::fs::read_to_string(path)
            .map_err(|e| CoreError::Checkpoint(format!("read {}: {e}", path.display())))?;
        let cp: BoCheckpoint = serde_json::from_str(&data)
            .map_err(|e| CoreError::Checkpoint(format!("parse {}: {e}", path.display())))?;
        cp.validate()
            .map_err(|m| CoreError::Checkpoint(format!("{}: {m}", path.display())))?;
        Ok(cp)
    }

    /// Structural validation: consistent lengths and dimensions, finite
    /// points, finite values on successful entries.
    fn validate(&self) -> std::result::Result<(), String> {
        if self.x_unit.len() != self.y.len() {
            return Err(format!(
                "corrupt checkpoint: {} points vs {} values",
                self.x_unit.len(),
                self.y.len()
            ));
        }
        if self.failed.len() != self.y.len() {
            return Err(format!(
                "corrupt checkpoint: {} failure markers vs {} values",
                self.failed.len(),
                self.y.len()
            ));
        }
        let dim = self.x_unit.first().map(Vec::len).unwrap_or(0);
        for (i, u) in self.x_unit.iter().enumerate() {
            if u.len() != dim {
                return Err(format!(
                    "corrupt checkpoint: point {i} has {} coordinates, expected {dim}",
                    u.len()
                ));
            }
            if let Some(j) = u.iter().position(|v| !v.is_finite()) {
                return Err(format!(
                    "corrupt checkpoint: point {i} coordinate {j} is not finite"
                ));
            }
        }
        for (i, (y, f)) in self.y.iter().zip(&self.failed).enumerate() {
            if f.is_none() && !y.is_finite() {
                return Err(format!(
                    "corrupt checkpoint: value {i} is not finite on a successful entry"
                ));
            }
        }
        Ok(())
    }
}

// Hand-written (de)serialization: the vendored serde derive has no
// `#[serde(default)]`, and the version/back-compat handling needs explicit
// control anyway.

impl Serialize for BoCheckpoint {
    fn serialize(&self) -> Value {
        // `y` placeholders for failed entries are already finite (0.0), so
        // the JSON never contains nulls in the value array.
        let mut fields = vec![
            ("version".into(), Value::Int(CHECKPOINT_VERSION)),
            ("seed".into(), self.seed.serialize()),
        ];
        if let Some(tag) = &self.tier {
            fields.push(("tier".into(), Value::String(tag.clone())));
        }
        fields.push(("x_unit".into(), self.x_unit.serialize()));
        fields.push(("y".into(), self.y.serialize()));
        fields.push(("failed".into(), self.failed.serialize()));
        fields.push((
            "checksum".into(),
            Value::String(format!("fnv1a:{:016x}", self.content_hash())),
        ));
        Value::Object(fields)
    }
}

impl Deserialize for BoCheckpoint {
    fn deserialize(v: &Value) -> std::result::Result<Self, DeError> {
        let version = match v.get_field("version") {
            Value::Null => 1, // pre-versioning files carry no field
            other => other
                .as_i64()
                .map_err(|e| DeError(format!("version: {e}")))?,
        };
        if !(1..=CHECKPOINT_VERSION).contains(&version) {
            return Err(DeError(format!(
                "unsupported checkpoint version {version} (this build reads 1..={CHECKPOINT_VERSION})"
            )));
        }
        let seed = v
            .get_field("seed")
            .as_u64()
            .map_err(|e| DeError(format!("seed: {e}")))?;
        let x_unit: Vec<Vec<f64>> = Deserialize::deserialize(v.get_field("x_unit"))
            .map_err(|e| DeError(format!("x_unit: {e}")))?;
        let y: Vec<f64> =
            Deserialize::deserialize(v.get_field("y")).map_err(|e| DeError(format!("y: {e}")))?;
        let failed: Vec<Option<FailedEval>> = if version >= 2 {
            Deserialize::deserialize(v.get_field("failed"))
                .map_err(|e| DeError(format!("failed: {e}")))?
        } else {
            vec![None; y.len()]
        };
        // Optional in every version: absent in files written before the
        // sparse-GP tier layer existed.
        let tier: Option<String> = match v.get_field("tier") {
            Value::Null => None,
            other => Some(String::deserialize(other).map_err(|e| DeError(format!("tier: {e}")))?),
        };
        let cp = BoCheckpoint {
            seed,
            x_unit,
            y,
            failed,
            tier,
        };
        // Verify the embedded content checksum when present (absent in
        // files written by older versions — still accepted).
        match v.get_field("checksum") {
            Value::Null => {}
            other => {
                let stored =
                    String::deserialize(other).map_err(|e| DeError(format!("checksum: {e}")))?;
                let computed = format!("fnv1a:{:016x}", cp.content_hash());
                if stored != computed {
                    return Err(DeError(format!(
                        "checksum mismatch: file says {stored}, content hashes to {computed} — \
                         the checkpoint was corrupted after it was written"
                    )));
                }
            }
        }
        Ok(cp)
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
        let mut p = std::env::temp_dir();
        p.push(format!("cets_ckpt_{}_{name}.json", std::process::id()));
        p
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
        assert_eq!(loaded.records(), records);
        // Successful history skips the failure.
        assert_eq!(
            loaded.history(),
            vec![(vec![0.1, 0.2], 3.0), (vec![0.9, 0.4], 1.0)]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tier_tag_roundtrips_and_defaults_to_none() {
        let cp = BoCheckpoint::from_history(3, &[(vec![0.1], 1.0)]).with_tier("auto:512".into());
        let path = tmp_path("tier");
        cp.save(&path).unwrap();
        let loaded = BoCheckpoint::load(&path).unwrap();
        assert_eq!(loaded.tier.as_deref(), Some("auto:512"));
        assert_eq!(loaded, cp);
        // A file without the field (older writer) loads as `None`.
        std::fs::write(
            &path,
            r#"{"version":2,"seed":3,"x_unit":[[0.1]],"y":[1.0],"failed":[null]}"#,
        )
        .unwrap();
        assert_eq!(BoCheckpoint::load(&path).unwrap().tier, None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_file_without_version_loads_as_all_success() {
        let path = tmp_path("v1");
        std::fs::write(&path, r#"{"seed":9,"x_unit":[[0.1],[0.2]],"y":[1.0,2.0]}"#).unwrap();
        let cp = BoCheckpoint::load(&path).unwrap();
        assert_eq!(cp.seed, 9);
        assert_eq!(cp.n_failed(), 0);
        assert_eq!(cp.history(), vec![(vec![0.1], 1.0), (vec![0.2], 2.0)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn future_version_rejected_with_clear_message() {
        let path = tmp_path("future");
        std::fs::write(
            &path,
            r#"{"version":99,"seed":1,"x_unit":[],"y":[],"failed":[]}"#,
        )
        .unwrap();
        let err = BoCheckpoint::load(&path).unwrap_err();
        assert!(
            err.to_string()
                .contains("unsupported checkpoint version 99"),
            "{err}"
        );
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
        let path = tmp_path("corrupt");
        std::fs::write(&path, r#"{"seed":1,"x_unit":[[0.1]],"y":[1.0,2.0]}"#).unwrap();
        assert!(matches!(
            BoCheckpoint::load(&path),
            Err(CoreError::Checkpoint(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ragged_points_rejected() {
        let path = tmp_path("ragged");
        std::fs::write(
            &path,
            r#"{"seed":1,"x_unit":[[0.1,0.2],[0.3]],"y":[1.0,2.0]}"#,
        )
        .unwrap();
        let err = BoCheckpoint::load(&path).unwrap_err();
        assert!(err.to_string().contains("coordinates"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn null_value_on_success_entry_rejected() {
        // JSON null reads back as NaN; a successful entry must be finite.
        let path = tmp_path("nan");
        std::fs::write(&path, r#"{"seed":1,"x_unit":[[0.1]],"y":[null]}"#).unwrap();
        let err = BoCheckpoint::load(&path).unwrap_err();
        assert!(err.to_string().contains("not finite"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_failure_kind_rejected() {
        let path = tmp_path("badkind");
        std::fs::write(
            &path,
            r#"{"version":2,"seed":1,"x_unit":[[0.1]],"y":[0.0],"failed":[{"kind":"cosmic-ray","message":""}]}"#,
        )
        .unwrap();
        let err = BoCheckpoint::load(&path).unwrap_err();
        assert!(err.to_string().contains("cosmic-ray"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_json_rejected() {
        let path = tmp_path("garbage");
        std::fs::write(&path, "not json at all").unwrap();
        assert!(BoCheckpoint::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_json_rejected() {
        let path = tmp_path("truncated");
        let full = serde_json::to_string_pretty(&BoCheckpoint::from_history(
            3,
            &[(vec![0.1, 0.2], 1.0), (vec![0.3, 0.4], 2.0)],
        ))
        .unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(matches!(
            BoCheckpoint::load(&path),
            Err(CoreError::Checkpoint(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_detects_silent_corruption() {
        let path = tmp_path("checksum");
        let cp = BoCheckpoint::from_records(
            11,
            &[
                EvalRecord::ok(vec![0.25, 0.75], 3.0),
                EvalRecord::failed(
                    vec![0.5, 0.5],
                    FailedEval {
                        kind: FailureKind::Timeout,
                        message: "slow".into(),
                    },
                ),
            ],
        );
        cp.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"checksum\""), "{text}");
        // Flip one observed value without touching the stored checksum:
        // structurally valid JSON, semantically corrupt.
        let tampered = text.replacen("3.0", "3.5", 1);
        assert_ne!(tampered, text);
        std::fs::write(&path, tampered).unwrap();
        let err = BoCheckpoint::load(&path).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_field_absent_still_loads() {
        // Files written before the checksum existed load without the check.
        let path = tmp_path("nochecksum");
        std::fs::write(
            &path,
            r#"{"version":2,"seed":5,"x_unit":[[0.3]],"y":[2.0],"failed":[null]}"#,
        )
        .unwrap();
        let cp = BoCheckpoint::load(&path).unwrap();
        assert_eq!(cp.seed, 5);
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
