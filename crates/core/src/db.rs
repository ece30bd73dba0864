//! Evaluation database: persistent storage of every configuration the
//! tuner has ever run, à la GPTune's historic database.
//!
//! The paper leans on two GPTune features this module provides: results
//! survive crashes/sessions (JSON on disk), and a related task can reuse
//! a prior task's "configuration database" for transfer learning (Case
//! Study 1 → Case Study 2). A [`Database`] stores full observations
//! (total + per-routine values), so it can also replay the insights phase
//! without re-running the application.

use crate::objective::{Objective, Observation};
use crate::transfer::TransferSeed;
use crate::{CoreError, Result};
use cets_space::Config;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// One recorded evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// The evaluated configuration (natural values, space order).
    pub config: Config,
    /// Total objective value.
    pub total: f64,
    /// Per-routine values.
    pub routines: Vec<f64>,
    /// Free-form tag (search name, phase, ...).
    pub tag: String,
}

/// A persistent collection of evaluations for one task.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Database {
    /// Task identifier (e.g. the case-study name).
    pub task: String,
    /// Parameter names, fixing the config layout. Guards against loading a
    /// database into a mismatched space.
    pub param_names: Vec<String>,
    /// Routine names, fixing the routines layout.
    pub routine_names: Vec<String>,
    records: Vec<Record>,
}

impl Database {
    /// An empty database bound to an objective's layout.
    pub fn for_objective<O: Objective + ?Sized>(task: impl Into<String>, objective: &O) -> Self {
        Database {
            task: task.into(),
            param_names: objective.space().names().to_vec(),
            routine_names: objective.routine_names(),
            records: Vec::new(),
        }
    }

    /// Number of stored evaluations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no evaluations are stored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records, insertion-ordered.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Record one evaluation.
    pub fn push(&mut self, config: Config, obs: &Observation, tag: impl Into<String>) {
        self.records.push(Record {
            config,
            total: obs.total,
            routines: obs.routines.clone(),
            tag: tag.into(),
        });
    }

    /// The best (lowest-total) record, if any.
    pub fn best(&self) -> Option<&Record> {
        self.records.iter().min_by(|a, b| {
            a.total
                .partial_cmp(&b.total)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// The `k` best records by total, ascending.
    pub fn top_k(&self, k: usize) -> Vec<&Record> {
        let mut sorted: Vec<&Record> = self.records.iter().collect();
        sorted.sort_by(|a, b| {
            a.total
                .partial_cmp(&b.total)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        sorted.truncate(k);
        sorted
    }

    /// Records whose tag matches exactly.
    pub fn with_tag<'a>(&'a self, tag: &'a str) -> impl Iterator<Item = &'a Record> + 'a {
        self.records.iter().filter(move |r| r.tag == tag)
    }

    /// Convert into a transfer-learning seed pool (prior config, prior
    /// total).
    pub fn to_transfer_seed(&self) -> TransferSeed {
        TransferSeed {
            points: self
                .records
                .iter()
                .map(|r| (r.config.clone(), r.total))
                .collect(),
        }
    }

    /// Merge another database for the same layout (appends its records).
    pub fn merge(&mut self, other: Database) -> Result<()> {
        if other.param_names != self.param_names || other.routine_names != self.routine_names {
            return Err(CoreError::BadConfig(format!(
                "database layout mismatch: {:?} vs {:?}",
                other.param_names, self.param_names
            )));
        }
        self.records.extend(other.records);
        Ok(())
    }

    /// Save as pretty JSON, atomically and durably
    /// ([`crate::framelog::write_snapshot`]).
    pub fn save(&self, path: &Path) -> Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| CoreError::Checkpoint(format!("serialize database: {e}")))?;
        Ok(crate::framelog::write_snapshot(path, json.as_bytes())?)
    }

    /// Load and validate against the expected parameter layout of
    /// `objective` (pass `None` to skip validation).
    pub fn load<O: Objective + ?Sized>(path: &Path, objective: Option<&O>) -> Result<Self> {
        let data = std::fs::read_to_string(path)
            .map_err(|e| CoreError::Checkpoint(format!("read {}: {e}", path.display())))?;
        let db: Database = serde_json::from_str(&data)
            .map_err(|e| CoreError::Checkpoint(format!("parse {}: {e}", path.display())))?;
        if let Some(obj) = objective {
            if db.param_names != obj.space().names() {
                return Err(CoreError::BadConfig(
                    "database parameter layout does not match objective".into(),
                ));
            }
        }
        for r in &db.records {
            if r.config.len() != db.param_names.len() {
                return Err(CoreError::Checkpoint("corrupt record arity".into()));
            }
        }
        Ok(db)
    }

    /// Summary statistics of the stored totals (None when empty).
    pub fn summary(&self) -> Option<cets_stats::Summary> {
        let totals: Vec<f64> = self.records.iter().map(|r| r.total).collect();
        cets_stats::Summary::new(&totals).ok()
    }

    /// Extract `(features, totals)` matrices for model fitting — features
    /// are the unit-cube encodings under `objective`'s space. Records with
    /// out-of-domain configs (space definition drift) are skipped.
    pub fn training_data<O: Objective + ?Sized>(&self, objective: &O) -> (Vec<Vec<f64>>, Vec<f64>) {
        let space = objective.space();
        let mut xs = Vec::with_capacity(self.records.len());
        let mut ys = Vec::with_capacity(self.records.len());
        for r in &self.records {
            if let Ok(u) = space.encode(&r.config) {
                xs.push(u);
                ys.push(r.total);
            }
        }
        (xs, ys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::test_objectives::SplitSphere;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cets_db_{}_{name}.json", std::process::id()))
    }

    #[test]
    fn record_query_roundtrip() {
        let obj = SplitSphere::new();
        let mut db = Database::for_objective("sphere", &obj);
        assert!(db.is_empty());
        for i in 0..5 {
            let u = vec![i as f64 / 4.0; 3];
            let cfg = obj.space().decode(&u).unwrap();
            db.push(
                cfg.clone(),
                &obj.evaluate(&cfg),
                if i < 3 { "init" } else { "bo" },
            );
        }
        assert_eq!(db.len(), 5);
        assert_eq!(db.with_tag("init").count(), 3);
        // Best is the config closest to the origin... u=0.5 -> x=0.
        let best = db.best().unwrap();
        assert!(best.total <= db.records()[0].total);
        let top2 = db.top_k(2);
        assert!(top2[0].total <= top2[1].total);
    }

    #[test]
    fn save_load_validates_layout() {
        let obj = SplitSphere::new();
        let mut db = Database::for_objective("sphere", &obj);
        let cfg = obj.default_config();
        db.push(cfg.clone(), &obj.evaluate(&cfg), "x");
        let path = tmp("layout");
        db.save(&path).unwrap();
        let loaded = Database::load(&path, Some(&obj)).unwrap();
        assert_eq!(loaded, db);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_wrong_space() {
        let obj = SplitSphere::new();
        let mut db = Database::for_objective("sphere", &obj);
        db.push(
            obj.default_config(),
            &obj.evaluate(&obj.default_config()),
            "t",
        );
        db.param_names = vec!["zzz".into()];
        let path = tmp("wrong");
        db.save(&path).unwrap();
        assert!(Database::load(&path, Some(&obj)).is_err());
        // Without validation it loads (but record arity still checked).
        assert!(Database::load::<SplitSphere>(&path, None).is_err()); // arity 3 != 1
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_checks_layout() {
        let obj = SplitSphere::new();
        let mut a = Database::for_objective("a", &obj);
        let mut b = Database::for_objective("b", &obj);
        b.push(
            obj.default_config(),
            &obj.evaluate(&obj.default_config()),
            "t",
        );
        a.merge(b).unwrap();
        assert_eq!(a.len(), 1);
        let mut c = Database::for_objective("c", &obj);
        c.param_names.push("extra".into());
        assert!(a.merge(c).is_err());
    }

    #[test]
    fn transfer_seed_and_training_data() {
        let obj = SplitSphere::new();
        let mut db = Database::for_objective("sphere", &obj);
        for i in 0..4 {
            let u = vec![i as f64 / 3.0; 3];
            let cfg = obj.space().decode(&u).unwrap();
            db.push(cfg.clone(), &obj.evaluate(&cfg), "t");
        }
        let seed = db.to_transfer_seed();
        assert_eq!(seed.points.len(), 4);
        let (xs, ys) = db.training_data(&obj);
        assert_eq!(xs.len(), 4);
        assert_eq!(ys.len(), 4);
        assert!(xs.iter().all(|u| u.len() == 3));
        assert!(db.summary().unwrap().n == 4);
    }
}
