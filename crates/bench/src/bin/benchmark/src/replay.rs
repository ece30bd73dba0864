//! Per-layer attribution by replay.
//!
//! A BO search is one opaque library call, so the time it spends in GP
//! training and in proposals cannot be timed from outside while it runs.
//! Its recorded history can, however, be replayed through the same public
//! calls at the same points: retrain `Surrogate::train` at every retrain
//! boundary with the loop's per-boundary GP seed, `Surrogate::append` in
//! between, and `BoSearch::propose` once per iteration. The replayed times
//! estimate the search's own; `bo.replay_coverage` checks the estimate
//! against the search's measured wall time.

use cets_core::{
    active_unit_slabs, BoCheckpoint, BoConfig, BoSearch, EvalRecord, FailurePolicy, Objective,
};
use cets_gp::{Surrogate, SurrogateTier};
use cets_space::Subspace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Sums, maxima and raw samples of per-layer measurements.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    sums: BTreeMap<&'static str, f64>,
    maxes: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Ledger {
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_insert(0.0) += v;
    }

    pub fn max(&mut self, key: &'static str, v: f64) {
        let e = self.maxes.entry(key).or_insert(v);
        *e = e.max(v);
    }

    pub fn sample(&mut self, key: &'static str, v: f64) {
        self.samples.entry(key).or_default().push(v);
    }

    /// Sum booked under `key` (0 when nothing was booked).
    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Maximum booked under `key` (0 when nothing was booked).
    pub fn maximum(&self, key: &str) -> f64 {
        self.maxes.get(key).copied().unwrap_or(0.0)
    }

    pub fn samples(&self, key: &str) -> &[f64] {
        self.samples.get(key).map(Vec::as_slice).unwrap_or(&[])
    }
}

fn book_train(ledger: &mut Ledger, model: &Surrogate, n: usize, secs: f64) {
    match model.tier() {
        SurrogateTier::Exact => {
            ledger.add("gp.train_s", secs);
            ledger.add("gp.train_calls", 1.0);
            ledger.max("gp.train_n_max", n as f64);
        }
        SurrogateTier::Sparse => {
            ledger.add("gp.sparse_train_s", secs);
            ledger.add("gp.sparse_train_calls", 1.0);
        }
    }
}

fn book_append(ledger: &mut Ledger, secs: f64) {
    ledger.add("gp.append_s", secs);
    ledger.add("gp.append_calls", 1.0);
}

/// Time one `BoSearch::propose` call. `propose` re-derives the subspace's
/// contracted sampling slabs on every call, which the search loop does once
/// per search; that part is measured separately and left out.
fn timed_propose(
    search: &BoSearch,
    sub: &Subspace,
    model: &Surrogate,
    best: f64,
    seed: u64,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let t = Instant::now();
    let _slabs = std::hint::black_box(active_unit_slabs(sub));
    let slabs_s = t.elapsed().as_secs_f64();
    let mut rng = StdRng::seed_from_u64(seed);
    let t = Instant::now();
    let u = search
        .propose(sub, model, best, None, &mut rng)
        .map_err(|e| format!("replayed propose: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(u);
    ledger.add("propose.s", (secs - slabs_s).max(0.0));
    ledger.add("propose.calls", 1.0);
    Ok(())
}

/// The sampling-slab analysis each search runs once, booked to `absint.s`.
fn book_search_slabs(sub: &Subspace, ledger: &mut Ledger) {
    let t = Instant::now();
    std::hint::black_box(active_unit_slabs(sub));
    ledger.add("absint.s", t.elapsed().as_secs_f64());
}

/// Replay a plain search (`BoSearch::run_with_history`) whose first
/// `seeded` history entries were handed in rather than proposed.
///
/// Mirrors the loop's schedule exactly: a full retrain when the history
/// length is a multiple of `retrain_every` or the cache cannot absorb the
/// newest point, an append otherwise. Proposals draw from a per-iteration
/// seed rather than the loop's single stream, so they cost the same work
/// without reproducing the same points.
pub fn replay_plain(
    sub: &Subspace,
    bo: &BoConfig,
    history: &[(Vec<f64>, f64)],
    seeded: usize,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let search = BoSearch::new(bo.clone());
    let every = bo.retrain_every.max(1);
    let first = bo.n_init.max(seeded).min(history.len());
    let (xs, ys): (Vec<Vec<f64>>, Vec<f64>) = history.iter().cloned().unzip();
    let mut cache: Option<Surrogate> = None;
    book_search_slabs(sub, ledger);
    for len in first..history.len() {
        let best = ys[..len].iter().copied().fold(f64::INFINITY, f64::min);
        let can_append = cache.as_ref().is_some_and(|g| g.n_train() + 1 == len);
        match cache.as_mut() {
            Some(model) if can_append && len % every != 0 => {
                let t = Instant::now();
                if model.append(xs[len - 1].clone(), ys[len - 1]).is_err() {
                    *model = model
                        .refit(&xs[..len], &ys[..len])
                        .map_err(|e| format!("replayed refit: {e}"))?;
                }
                book_append(ledger, t.elapsed().as_secs_f64());
            }
            _ => {
                let mut gp = bo.gp.clone();
                gp.seed = bo.seed.wrapping_add(len as u64);
                let t = Instant::now();
                let model = Surrogate::train(&xs[..len], &ys[..len], &gp)
                    .map_err(|e| format!("replayed train: {e}"))?;
                book_train(ledger, &model, len, t.elapsed().as_secs_f64());
                cache = Some(model);
            }
        }
        let model = cache
            .as_ref()
            .ok_or_else(|| "replay lost its surrogate".to_string())?;
        timed_propose(
            &search,
            sub,
            model,
            best,
            bo.seed.wrapping_add(len as u64),
            ledger,
        )?;
    }
    Ok(())
}

/// Cached surrogate of a replayed failure-aware search, with the imputed
/// value baked into its training set and the record count it reflects.
struct ResilientModel {
    surrogate: Surrogate,
    imputed: Option<f64>,
    n_records: usize,
}

/// Replay a failure-aware search (`BoSearch::run_resilient_observed`, the
/// loop `cets serve` drives) from its attempt records.
///
/// Mirrors the loop's cache rule: rebuild at retrain boundaries, when the
/// cache is stale, or when the newest record moves the imputed failure
/// value; otherwise absorb the newest success (or imputed failure) by
/// append. Iterations with no successful observation yet draw at random
/// and involve no surrogate, so they are not replayed.
pub fn replay_resilient(
    sub: &Subspace,
    bo: &BoConfig,
    policy: &FailurePolicy,
    records: &[EvalRecord],
    ledger: &mut Ledger,
) -> Result<(), String> {
    let search = BoSearch::new(bo.clone());
    let every = bo.retrain_every.max(1);
    let finite = |r: &EvalRecord| r.u.iter().all(|v| v.is_finite());
    let finite_ok = |r: &EvalRecord| r.y().filter(|y| y.is_finite() && finite(r));
    let mut model: Option<ResilientModel> = None;
    book_search_slabs(sub, ledger);
    for len in bo.n_init.min(records.len())..records.len() {
        let prefix = &records[..len];
        if !prefix.iter().any(|r| finite_ok(r).is_some()) {
            model = None;
            continue;
        }
        let imputed_now = if prefix.iter().any(|r| !r.is_ok() && finite(r)) {
            policy.imputed_value(prefix)
        } else {
            None
        };
        let can_append = len % every != 0
            && model.as_ref().is_some_and(|m| {
                m.n_records + 1 == len && (m.imputed.is_none() || m.imputed == imputed_now)
            });
        match model.as_mut() {
            Some(m) if can_append => {
                let last = &prefix[len - 1];
                let point = match (finite_ok(last), last.is_ok()) {
                    (Some(y), _) => Some(y),
                    (None, false) if finite(last) => imputed_now,
                    _ => None,
                };
                if let Some(y) = point {
                    let t = Instant::now();
                    if m.surrogate.append(last.u.clone(), y).is_err() {
                        let (xs, ys) = policy.training_data(prefix);
                        m.surrogate = m
                            .surrogate
                            .refit(&xs, &ys)
                            .map_err(|e| format!("replayed refit: {e}"))?;
                    }
                    book_append(ledger, t.elapsed().as_secs_f64());
                }
                m.imputed = imputed_now;
                m.n_records = len;
            }
            _ => {
                let (xs, ys) = policy.training_data(prefix);
                let mut gp = bo.gp.clone();
                gp.seed = bo.seed.wrapping_add(len as u64);
                let t = Instant::now();
                let surrogate =
                    Surrogate::train(&xs, &ys, &gp).map_err(|e| format!("replayed train: {e}"))?;
                book_train(ledger, &surrogate, xs.len(), t.elapsed().as_secs_f64());
                model = Some(ResilientModel {
                    surrogate,
                    imputed: imputed_now,
                    n_records: len,
                });
            }
        }
        let m = model
            .as_ref()
            .ok_or_else(|| "replay lost its surrogate".to_string())?;
        let best = prefix
            .iter()
            .filter_map(EvalRecord::y)
            .fold(f64::INFINITY, f64::min);
        timed_propose(
            &search,
            sub,
            &m.surrogate,
            best,
            bo.seed.wrapping_add(len as u64),
            ledger,
        )?;
    }
    Ok(())
}

/// Time the objective on every recorded point of a search, as the
/// objective's share of a search that could not be probed while it ran.
pub fn replay_objective<O: Objective + ?Sized>(
    objective: &O,
    sub: &Subspace,
    points: &[Vec<f64>],
    ledger: &mut Ledger,
) -> Result<(), String> {
    for u in points {
        let cfg = sub.lift(u).map_err(|e| format!("lift: {e}"))?;
        let t = Instant::now();
        std::hint::black_box(objective.evaluate(&cfg));
        ledger.add("objective.s", t.elapsed().as_secs_f64());
        ledger.add("objective.evals", 1.0);
    }
    Ok(())
}

/// Rewrite the checkpoint for every history prefix, as a checkpointing
/// search does after each evaluation, and time each durable save.
pub fn replay_checkpoints(
    seed: u64,
    tier_tag: &str,
    history: &[(Vec<f64>, f64)],
    path: &Path,
    ledger: &mut Ledger,
) -> Result<(), String> {
    for n in 1..=history.len() {
        let cp = BoCheckpoint::from_history(seed, &history[..n]).with_tier(tier_tag.to_string());
        let t = Instant::now();
        cp.save(path).map_err(|e| format!("checkpoint save: {e}"))?;
        ledger.add("checkpoint.save_s", t.elapsed().as_secs_f64());
        ledger.add("checkpoint.saves", 1.0);
        let bytes = std::fs::metadata(path)
            .map_err(|e| format!("checkpoint stat: {e}"))?
            .len();
        ledger.add("checkpoint.bytes", bytes as f64);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cets_synthetic::{SyntheticCase, SyntheticFunction};

    fn setup() -> (SyntheticFunction, Subspace, BoConfig) {
        let f = SyntheticFunction::new(SyntheticCase::Case3);
        let names = ["x0", "x1", "x2"];
        let sub = Subspace::new(f.space(), &names, f.default_config()).unwrap();
        let bo = BoConfig {
            max_evals: 12,
            seed: 5,
            n_candidates: 16,
            n_local: 4,
            ..Default::default()
        };
        (f, sub, bo)
    }

    #[test]
    fn plain_replay_follows_the_retrain_schedule() {
        let (f, sub, bo) = setup();
        let out = BoSearch::new(bo.clone())
            .run(&sub, |c| f.evaluate(c).total)
            .unwrap();
        let mut ledger = Ledger::default();
        replay_plain(&sub, &bo, &out.history, 0, &mut ledger).unwrap();
        // Iterations 5..12: retrains at 5 and 10, appends at the other six.
        assert_eq!(ledger.sum("propose.calls"), 7.0);
        assert_eq!(ledger.sum("gp.train_calls"), 2.0);
        assert_eq!(ledger.sum("gp.append_calls"), 5.0);
        assert_eq!(ledger.maximum("gp.train_n_max"), 10.0);
    }

    #[test]
    fn resilient_replay_counts_one_proposal_per_guided_attempt() {
        let (f, sub, bo) = setup();
        let out = BoSearch::new(bo.clone())
            .run_resilient(
                &sub,
                |c, _| cets_core::EvalOutcome::Ok(f.evaluate(c)),
                &FailurePolicy::default(),
            )
            .unwrap();
        let mut ledger = Ledger::default();
        replay_resilient(
            &sub,
            &bo,
            &FailurePolicy::default(),
            &out.records,
            &mut ledger,
        )
        .unwrap();
        assert_eq!(ledger.sum("propose.calls"), 7.0);
        assert_eq!(
            ledger.sum("gp.train_calls") + ledger.sum("gp.append_calls"),
            7.0
        );
    }
}
