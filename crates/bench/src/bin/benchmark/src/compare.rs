//! `--compare BASE NEW`: judge two sets of runs metric by metric and
//! workload by workload, against the bounds in `BENCHMARK.json`.

use crate::stats;
use serde_json::Value;
use std::collections::BTreeMap;

/// Metrics that are a pure function of the seed: they must match exactly
/// on every seed both sides ran.
const EXACT: [&str; 3] = ["evals_total", "ok_ratio", "tuned_speedup"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The base's run-to-run spread is wider than the bound and the new
    /// runs do not all beat the base runs.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric's direction and regression bound, from `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Judge `new` against `base` (values of one metric on one workload, one
/// per run) under `b`.
pub fn verdict(base: &[f64], new: &[f64], b: Bound) -> Verdict {
    let (Some(mb), Some(mn)) = (stats::median(base), stats::median(new)) else {
        return Verdict::Unresolved;
    };
    // Positive when `x` is better than `y`.
    let gain = |x: f64, y: f64| if b.lower_is_better { y - x } else { x - y };
    let all_better = new.iter().all(|&n| base.iter().all(|&v| gain(n, v) > 0.0));
    let spread = stats::spread(base).unwrap_or(0.0);
    if spread > b.bound {
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let rel = gain(mn, mb) / mb.abs().max(f64::MIN_POSITIVE);
    if rel < -b.bound {
        return Verdict::Regressed;
    }
    let pairs = base.len() * new.len();
    let wins = new
        .iter()
        .flat_map(|&n| base.iter().map(move |&v| gain(n, v) > 0.0))
        .filter(|&w| w)
        .count();
    if rel > spread && rel > 0.0 && wins * 10 >= pairs * 9 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Judge an exact metric: values are compared seed by seed.
pub fn exact_verdict(
    base: &BTreeMap<u64, f64>,
    new: &BTreeMap<u64, f64>,
    b: Bound,
) -> Option<Verdict> {
    let common: Vec<(f64, f64)> = base
        .iter()
        .filter_map(|(seed, &v)| new.get(seed).map(|&n| (v, n)))
        .collect();
    if common.is_empty() {
        return None;
    }
    let worse = |v: f64, n: f64| if b.lower_is_better { n > v } else { n < v };
    Some(if common.iter().all(|(v, n)| v.to_bits() == n.to_bits()) {
        Verdict::Unchanged
    } else if common.iter().any(|&(v, n)| worse(v, n)) {
        Verdict::Regressed
    } else {
        Verdict::Improved
    })
}

/// Read a benchmark's bounds: metric name → bound.
pub fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc =
        serde_json::parse_value(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = BTreeMap::new();
    for m in doc
        .get_field("end_to_end")
        .as_array()
        .map_err(|e| format!("end_to_end: {e}"))?
    {
        let (Value::String(name), Value::String(better)) =
            (m.get_field("name"), m.get_field("better"))
        else {
            return Err("end_to_end entry without name or better".into());
        };
        let bound = m
            .get_field("bound")
            .as_f64()
            .map_err(|e| format!("{name}.bound: {e}"))?;
        out.insert(
            name.clone(),
            Bound {
                lower_is_better: better == "lower",
                bound,
            },
        );
    }
    Ok(out)
}

/// Untraced runs in a `--out` file: (workload, metric) → seed → values.
type Runs = BTreeMap<(String, String), Vec<(u64, f64)>>;

pub fn load_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = serde_json::parse_value(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if rec.get_field("trace") != &Value::Bool(false) {
            continue;
        }
        let Value::String(workload) = rec.get_field("workload") else {
            return Err(format!("line {}: no workload", i + 1));
        };
        let seed = rec
            .get_field("seed")
            .as_u64()
            .map_err(|e| format!("line {}: seed: {e}", i + 1))?;
        let Value::Object(metrics) = rec.get_field("result").get_field("metrics") else {
            return Err(format!("line {}: no metrics", i + 1));
        };
        for (name, m) in metrics {
            let v = m
                .get_field("value")
                .as_f64()
                .map_err(|e| format!("line {}: {name}: {e}", i + 1))?;
            runs.entry((workload.clone(), name.clone()))
                .or_default()
                .push((seed, v));
        }
    }
    Ok(runs)
}

/// Print one row per (workload, metric) and return whether any regressed.
pub fn compare(bounds: &BTreeMap<String, Bound>, base: &Runs, new: &Runs) -> Result<bool, String> {
    println!(
        "{:<16} {:<15} {:>13} {:>13} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "base median", "new median", "change", "spread", "bound"
    );
    let mut regressed = false;
    for ((workload, metric), b_runs) in base {
        let Some(n_runs) = new.get(&(workload.clone(), metric.clone())) else {
            return Err(format!("{workload}/{metric}: missing from NEW"));
        };
        let b = *bounds
            .get(metric)
            .ok_or_else(|| format!("{metric}: no bound in BENCHMARK.json"))?;
        let bv: Vec<f64> = b_runs.iter().map(|r| r.1).collect();
        let nv: Vec<f64> = n_runs.iter().map(|r| r.1).collect();
        let exact = EXACT
            .contains(&metric.as_str())
            .then(|| {
                exact_verdict(
                    &b_runs.iter().copied().collect(),
                    &n_runs.iter().copied().collect(),
                    b,
                )
            })
            .flatten();
        let v = exact.unwrap_or_else(|| verdict(&bv, &nv, b));
        regressed |= v == Verdict::Regressed;
        let (mb, mn) = (
            stats::median(&bv).unwrap_or(f64::NAN),
            stats::median(&nv).unwrap_or(f64::NAN),
        );
        println!(
            "{:<16} {:<15} {:>13.6} {:>13.6} {:>+7.2}% {:>6.2}% {:>5.1}%  {}{}",
            workload,
            metric,
            mb,
            mn,
            (mn - mb) / mb * 100.0,
            stats::spread(&bv).unwrap_or(0.0) * 100.0,
            b.bound * 100.0,
            v.as_str(),
            if exact.is_some() {
                " (exact, per seed)"
            } else {
                ""
            }
        );
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER_10: Bound = Bound {
        lower_is_better: true,
        bound: 0.10,
    };

    #[test]
    fn verdicts_under_a_tight_spread() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(
            verdict(&base, &[1.00, 1.01, 1.00], LOWER_10),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&base, &[1.15, 1.16, 1.14], LOWER_10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &[0.80, 0.81, 0.79], LOWER_10),
            Verdict::Improved
        );
        // Worse, but within the bound.
        assert_eq!(
            verdict(&base, &[1.08, 1.09, 1.07], LOWER_10),
            Verdict::Unchanged
        );
        let higher = Bound {
            lower_is_better: false,
            bound: 0.10,
        };
        assert_eq!(
            verdict(&base, &[0.85, 0.86, 0.84], higher),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_new_run_wins() {
        let base = [1.0, 1.5, 0.7, 1.3, 0.8];
        assert!(stats::spread(&base).unwrap_or(0.0) > 0.10);
        assert_eq!(
            verdict(&base, &[1.4, 1.6, 1.5], LOWER_10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&base, &[0.9, 1.0, 1.1], LOWER_10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&base, &[0.5, 0.6, 0.55], LOWER_10),
            Verdict::Improved
        );
    }

    #[test]
    fn exact_metrics_compare_seed_by_seed() {
        let base: BTreeMap<u64, f64> = [(1, 801.0), (2, 801.0)].into();
        let same: BTreeMap<u64, f64> = [(1, 801.0), (2, 801.0), (3, 790.0)].into();
        let more: BTreeMap<u64, f64> = [(1, 802.0), (2, 801.0)].into();
        let other_seeds: BTreeMap<u64, f64> = [(7, 700.0)].into();
        assert_eq!(
            exact_verdict(&base, &same, LOWER_10),
            Some(Verdict::Unchanged)
        );
        assert_eq!(
            exact_verdict(&base, &more, LOWER_10),
            Some(Verdict::Regressed)
        );
        assert_eq!(
            exact_verdict(&more, &base, LOWER_10),
            Some(Verdict::Improved)
        );
        assert_eq!(exact_verdict(&base, &other_seeds, LOWER_10), None);
    }

    #[test]
    fn runs_and_bounds_parse() {
        let bench =
            r#"{"end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#;
        let b = bounds(bench).unwrap();
        assert_eq!(b.get("run_s"), Some(&LOWER_10));
        let runs = "{\"workload\":\"w\",\"seed\":3,\"trace\":false,\"result\":{\"metrics\":{\"run_s\":{\"value\":1.5,\"unit\":\"s\"}}}}\n\
                    {\"workload\":\"w\",\"seed\":3,\"trace\":true,\"result\":{\"metrics\":{}}}\n";
        let r = load_runs(runs).unwrap();
        assert_eq!(r.get(&("w".into(), "run_s".into())), Some(&vec![(3, 1.5)]));
        assert!(!compare(&b, &r, &r).unwrap());
    }
}
