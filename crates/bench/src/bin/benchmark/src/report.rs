//! The metric catalogue and the run's output: a detail line, the result
//! line that ends standard output, and the optional `--out` record.

use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Write;

/// One metric the benchmark reports: its name and unit.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics a user of the tuner sees, reported by the untraced pass on
/// every workload.
pub const END_TO_END: [MetricDef; 9] = [
    m("run_s", "s"),
    m("evals_per_s", "1/s"),
    m("decide_ms_p50", "ms"),
    m("decide_ms_tail", "ms"),
    m("setup_s", "s"),
    m("tuned_speedup", "x"),
    m("evals_total", "count"),
    m("ok_ratio", "ratio"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced pass on every workload (0
/// where a layer does no work). Every `.s` time is per unit of work; the
/// leaves in [`LEAVES`] plus `residual_s` add up to `trace.unit_s`.
pub const PER_LAYER: [MetricDef; 38] = [
    m("trace.unit_s", "s"),
    m("analyze.s", "s"),
    m("analyze.evals", "count"),
    m("lint.s", "s"),
    m("lint.diagnostics", "count"),
    m("absint.s", "s"),
    m("absint.params_narrowed", "count"),
    m("execute.s", "s"),
    m("objective.s", "s"),
    m("objective.evals", "count"),
    m("gp.train_s", "s"),
    m("gp.train_calls", "count"),
    m("gp.train_n_max", "count"),
    m("gp.append_s", "s"),
    m("gp.append_calls", "count"),
    m("gp.sparse_train_s", "s"),
    m("gp.sparse_train_calls", "count"),
    m("propose.s", "s"),
    m("propose.calls", "count"),
    m("checkpoint.save_s", "s"),
    m("checkpoint.saves", "count"),
    m("checkpoint.bytes", "B"),
    m("wal.append_s", "s"),
    m("wal.append_us_p50", "us"),
    m("wal.append_us_tail", "us"),
    m("wal.records", "count"),
    m("wal.bytes", "B"),
    m("wal.replay_s", "s"),
    m("wal.replay_records_per_s", "1/s"),
    m("recovery.open_s", "s"),
    m("recovery.crashes", "count"),
    m("recovery.truncated_bytes", "B"),
    m("serve.restarts", "count"),
    m("serve.attempts", "count"),
    m("serve.failed", "count"),
    m("bo.replay_coverage", "ratio"),
    m("par.speedup_t2", "x"),
    m("residual_s", "s"),
];

/// The layer times that partition one traced unit of work (with
/// `residual_s`). `execute.s` is their parent and `recovery.open_s` and
/// `wal.replay_s` happen outside units, so none of those is a leaf.
pub const LEAVES: [&str; 10] = [
    "analyze.s",
    "lint.s",
    "absint.s",
    "objective.s",
    "gp.train_s",
    "gp.append_s",
    "gp.sparse_train_s",
    "propose.s",
    "checkpoint.save_s",
    "wal.append_s",
];

/// A correctness gate: the run fails when any check fails.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one workload run produced. A unit of work that returns an
/// error ends the run without a result, so a printed result has no failed
/// units.
#[derive(Default)]
pub struct RunResult {
    /// Units of work attempted (campaigns, drains or searches).
    pub attempted: usize,
    pub checks: Vec<Check>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Supporting facts for the detail line (sample counts, the tail
    /// percentile used, hashes, seeds).
    pub details: Vec<(String, Value)>,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn detail(&mut self, key: &str, value: Value) {
        self.details.push((key.to_string(), value));
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The run's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric with its value and unit. Errors when a
/// catalogue metric is missing or not finite.
pub fn result_line(r: &RunResult, trace: bool) -> Result<Value, String> {
    let catalogue: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for def in catalogue {
        let v = r
            .metrics
            .get(def.name)
            .copied()
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite ({v})", def.name));
        }
        metrics.push((
            def.name.to_string(),
            obj(vec![
                ("value", Value::Float(v)),
                ("unit", Value::String(def.unit.to_string())),
            ]),
        ));
    }
    Ok(obj(vec![
        ("correct", Value::Bool(r.correct())),
        ("attempted", Value::UInt(r.attempted as u64)),
        ("failed", Value::UInt(0)),
        ("metrics", Value::Object(metrics)),
    ]))
}

/// Everything about the run, for people and for `--compare`.
pub fn detail_line(r: &RunResult, header: Vec<(&str, Value)>, result: &Value) -> Value {
    let checks = r
        .checks
        .iter()
        .map(|c| {
            obj(vec![
                ("name", Value::String(c.name.clone())),
                ("ok", Value::Bool(c.ok)),
                ("detail", Value::String(c.detail.clone())),
            ])
        })
        .collect();
    let mut fields = header;
    fields.push(("checks", Value::Array(checks)));
    fields.push(("details", Value::Object(r.details.clone())));
    fields.push(("result", result.clone()));
    obj(fields)
}

/// Append one JSON record to a JSON-lines file.
pub fn append_jsonl(path: &str, record: &Value) -> Result<(), String> {
    let line = serde_json::to_string(record).map_err(|e| format!("serialize: {e}"))?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {path}: {e}"))?;
    writeln!(f, "{line}").map_err(|e| format!("write {path}: {e}"))?;
    f.flush().map_err(|e| format!("flush {path}: {e}"))
}

/// `VmHWM` (peak resident set) of this process in MiB, from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The `VmHWM` value in kB from a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kb)
}

/// CPUs this process may run on, as `nproc` counts them (the affinity
/// mask in `/proc/self/status`); `None` when the platform does not say.
pub fn nproc() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let mut n = 0;
    for part in list.split(',') {
        n += match part.split_once('-') {
            Some((a, b)) => b.parse::<usize>().ok()? - a.parse::<usize>().ok()? + 1,
            None => {
                part.parse::<usize>().ok()?;
                1
            }
        };
    }
    Some(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_kb_lines_only() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  200000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(51234));
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 12 kB\n"), None);
        assert!(peak_rss_mb().unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_result_keys_and_round_trips() {
        let mut r = RunResult {
            attempted: 3,
            ..Default::default()
        };
        for (i, d) in END_TO_END.iter().enumerate() {
            r.set(d.name, 0.1 + i as f64 / 3.0);
        }
        let line = result_line(&r, false).unwrap();
        let text = serde_json::to_string(&line).unwrap();
        let back = serde_json::parse_value(&text).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), text);
        let Value::Object(fields) = &back else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back.get_field("correct"), &Value::Bool(true));
        let v = back
            .get_field("metrics")
            .get_field("run_s")
            .get_field("value")
            .as_f64()
            .unwrap();
        assert_eq!(v.to_bits(), 0.1f64.to_bits());
        assert!(result_line(&r, true).is_err(), "per-layer metrics missing");
    }

    #[test]
    fn failed_check_makes_the_run_incorrect() {
        let mut r = RunResult::default();
        r.check("a", true, "");
        assert!(r.correct());
        r.check("b", false, "mismatch");
        assert!(!r.correct());
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc = serde_json::parse_value(&text).unwrap();
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get_field(key).as_array().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry.get_field("name"), &Value::String(def.name.into()));
                assert_eq!(entry.get_field("unit"), &Value::String(def.unit.into()));
            }
        }
    }
}
