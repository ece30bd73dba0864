//! The benchmark's objective wrapper: counts every evaluation, sums the
//! time spent inside the objective, and records the tuner's decision gaps.

use cets_core::{Objective, Observation};
use cets_space::{Config, SearchSpace};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Source of arming epochs; 0 means "disarmed".
static EPOCH: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// When the last armed evaluation on this thread returned, and under
    /// which epoch.
    static LAST_EXIT: Cell<Option<(u64, Instant)>> = const { Cell::new(None) };
}

/// Forwards every call to `inner`, including `sample_valid`, so the
/// methodology behaves exactly as on the bare objective.
///
/// A *decision gap* is the time between one evaluation returning and the
/// next one starting on the same thread: the wait the tuner adds before
/// every real application run. Gaps are recorded only while the probe is
/// armed (the plan-execution phase).
pub struct Probe<'a, O: Objective + ?Sized> {
    inner: &'a O,
    evals: AtomicUsize,
    non_finite: AtomicUsize,
    busy_ns: AtomicU64,
    epoch: AtomicU64,
    gaps_ms: Mutex<Vec<f64>>,
}

impl<'a, O: Objective + ?Sized> Probe<'a, O> {
    pub fn new(inner: &'a O) -> Self {
        Probe {
            inner,
            evals: AtomicUsize::new(0),
            non_finite: AtomicUsize::new(0),
            busy_ns: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            gaps_ms: Mutex::new(Vec::new()),
        }
    }

    /// Start recording decision gaps. Gaps never span an arming boundary.
    pub fn arm(&self) {
        self.epoch
            .store(EPOCH.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Stop recording decision gaps.
    pub fn disarm(&self) {
        self.epoch.store(0, Ordering::Relaxed);
    }

    /// Evaluations so far.
    pub fn evals(&self) -> usize {
        self.evals.load(Ordering::Relaxed)
    }

    /// Evaluations whose total was not finite: failed application runs.
    pub fn non_finite(&self) -> usize {
        self.non_finite.load(Ordering::Relaxed)
    }

    /// Seconds spent inside the wrapped objective so far, summed over
    /// threads.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Take the recorded decision gaps (milliseconds).
    pub fn take_gaps(&self) -> Vec<f64> {
        match self.gaps_ms.lock() {
            Ok(mut g) => std::mem::take(&mut *g),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        }
    }
}

impl<O: Objective + ?Sized> Objective for Probe<'_, O> {
    fn space(&self) -> &SearchSpace {
        self.inner.space()
    }

    fn routine_names(&self) -> Vec<String> {
        self.inner.routine_names()
    }

    fn evaluate(&self, cfg: &Config) -> Observation {
        let epoch = self.epoch.load(Ordering::Relaxed);
        let start = Instant::now();
        if epoch != 0 {
            if let Some((e, last)) = LAST_EXIT.get() {
                if e == epoch {
                    let gap = start.duration_since(last).as_secs_f64() * 1e3;
                    // A poisoned lock only means another evaluation thread
                    // panicked; the sample vector itself is still valid.
                    match self.gaps_ms.lock() {
                        Ok(mut g) => g.push(gap),
                        Err(poisoned) => poisoned.into_inner().push(gap),
                    }
                }
            }
        }
        let obs = self.inner.evaluate(cfg);
        let end = Instant::now();
        self.evals.fetch_add(1, Ordering::Relaxed);
        if !obs.total.is_finite() {
            self.non_finite.fetch_add(1, Ordering::Relaxed);
        }
        self.busy_ns.fetch_add(
            end.duration_since(start).as_nanos() as u64,
            Ordering::Relaxed,
        );
        LAST_EXIT.set((epoch != 0).then_some((epoch, end)));
        obs
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
    use cets_synthetic::{SyntheticCase, SyntheticFunction};

    #[test]
    fn gaps_only_while_armed() {
        let f = SyntheticFunction::new(SyntheticCase::Case3);
        let probe = Probe::new(&f);
        let cfg = f.default_config();
        probe.evaluate(&cfg);
        probe.evaluate(&cfg);
        assert!(probe.take_gaps().is_empty());
        probe.arm();
        probe.evaluate(&cfg);
        probe.evaluate(&cfg);
        probe.evaluate(&cfg);
        probe.disarm();
        probe.evaluate(&cfg);
        assert_eq!(probe.take_gaps().len(), 2);
        assert_eq!(probe.evals(), 6);
        assert!(probe.busy_s() > 0.0);
    }

    #[test]
    fn forwards_observations_unchanged() {
        let f = SyntheticFunction::new(SyntheticCase::Case3).with_seed(9);
        let probe = Probe::new(&f);
        let cfg = f.default_config();
        assert_eq!(probe.evaluate(&cfg), f.evaluate(&cfg));
        assert_eq!(probe.space().names(), f.space().names());
    }
}
