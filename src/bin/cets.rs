//! `cets` — command-line front end for the CETS tuning methodology.
//!
//! ```text
//! cets synthetic --case 3 [--cutoff 0.25] [--evals-per-dim 10] [--seed 0] [--report out.md]
//!                [--gp-tier auto|exact|sparse|auto:N] [--inducing m]
//! cets tddft --case 1 [--cutoff 0.10] [--evals-per-dim 10] [--seed 0] [--report out.md]
//!                    [--db out.json] [--gp-tier auto|exact|sparse|auto:N] [--inducing m]
//! cets serve --data <dir> [--spool <dir>] [--fsync always|never] [--max-restarts n]
//!            [--sim-kill-at k[:torn]] [--threads n]
//! cets lint <plan.json> [--format human|json|sarif] [--deny-warnings]
//! cets analyze <plan.json> [--format human|json|sarif] [--deny-warnings]
//!                          [--domain interval|octagon|product] [--contract [out.json]]
//! cets analyze --explain <CODE>
//! cets help
//! ```
//!
//! Runs the full pipeline (sensitivity → DAG → plan → staged BO execution)
//! on one of the two built-in evaluation targets and prints (optionally
//! writes) the markdown tuning report. `cets lint` statically validates a
//! plan-bundle file (search space + influence DAG + staged plan + kernel)
//! without evaluating anything; exit code 0 means the plan passed, 1 means
//! diagnostics denied it, 2 means the file could not be read or parsed.
//! `cets analyze` additionally runs the abstract-interpretation
//! feasibility engine (diagnostic codes `A001`–`A011`): it proves
//! constraints unsatisfiable or tautological over the declared domains and
//! contracts the box bounds to the feasible region. The default `product`
//! domain is the reduced product of the relational octagon (differences
//! and sums `±x ± y <= c`, disjunctive branch-and-prune), a congruence
//! domain (`n ≡ r mod m` residue grids from `%` constraints, `A009`), and
//! a finite-set domain over ordinal/categorical parameters (dead options
//! `A010`, forced values `A011`); `--domain octagon` drops the last two
//! and `--domain interval` falls back to the plain per-parameter interval
//! analysis. With `--contract` the rewritten plan (tightened bounds
//! applied, dead options pruned) is printed to stdout — or written to a
//! file when the flag is given a path — while the report moves to stderr.
//! `cets analyze --explain <CODE>` prints the reference entry for any
//! diagnostic code without needing a plan file.
//!
//! `cets serve` runs the durable campaign service: it opens (or recovers)
//! the write-ahead log under `--data`, ingests any JSON campaign specs
//! from the `--spool` directory, drives every open campaign to a terminal
//! state, prints the summary, and exits. Killing the process at any
//! moment — `kill -9` included — loses at most the evaluation in flight:
//! re-running the same command replays the log and continues every
//! campaign bit-for-bit. Exit codes: 0 all campaigns succeeded, 1 some
//! campaign failed terminally, 2 usage or state error, 3 a simulated kill
//! (`--sim-kill-at`, testing only) fired.

use cets::core::{
    render_markdown, BoConfig, CountingObjective, FaultPlan, FaultyObjective, Methodology,
    MethodologyConfig, Objective, ResilienceConfig, SystemClock, VariationPolicy,
};
use cets::synthetic::{SyntheticCase, SyntheticFunction};
use cets::tddft::{CaseStudy, TddftSimulator};
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Self {
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            if let Some(name) = raw[i].strip_prefix("--") {
                // A flag followed by another flag (or nothing) is boolean.
                match raw.get(i + 1).filter(|v| !v.starts_with("--")) {
                    Some(value) => {
                        flags.push((name.to_string(), value.clone()));
                        i += 2;
                    }
                    None => {
                        flags.push((name.to_string(), String::new()));
                        i += 1;
                    }
                }
            } else {
                i += 1;
            }
        }
        Args { flags }
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(default)
    }

    fn get_str(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

fn usage() {
    eprintln!("cets — cost-effective tuning searches for HPC");
    eprintln!();
    eprintln!("USAGE:");
    eprintln!("  cets synthetic --case <1..5> [options]   tune a synthetic function");
    eprintln!("  cets tddft     --case <1|2>  [options]   tune the RT-TDDFT simulator");
    eprintln!("  cets lint      <plan.json>   [options]   statically validate a plan bundle");
    eprintln!("  cets analyze   <plan.json>   [options]   lint + interval feasibility analysis");
    eprintln!("  cets serve     --data <dir>  [options]   run the durable campaign service");
    eprintln!();
    eprintln!("OPTIONS:");
    eprintln!("  --cutoff <f>         influence cut-off (default: 0.25 synthetic, 0.10 tddft)");
    eprintln!("  --evals-per-dim <n>  BO budget per dimension (default 10)");
    eprintln!("  --seed <n>           RNG seed (default 0)");
    eprintln!("  --threads <n>        worker threads for GP training, linear algebra and");
    eprintln!("                       concurrent stage searches (default: CETS_THREADS env");
    eprintln!("                       var, else all cores); results are bit-identical at");
    eprintln!("                       any thread count — only wall-clock time changes");
    eprintln!("  --report <path>      also write the markdown report to a file");
    eprintln!("  --db <path>          (tddft) save the evaluation database as JSON");
    eprintln!("  --resilient          also retry transient failures with backoff. Every");
    eprintln!("                       run, sensitivity pre-pass included, contains panics");
    eprintln!("                       and screens non-finite results; it counts failed");
    eprintln!("                       variations, isolates failed searches and reports a");
    eprintln!("                       per-search failure ledger");
    eprintln!("  --inject-flaky <p>   (synthetic) deterministically inject faults (panics,");
    eprintln!("                       NaNs) into a fraction p of evaluations; implies");
    eprintln!("                       --resilient — a demo of graceful degradation");
    eprintln!("  --gp-tier <t>        surrogate tier: `auto` (default; exact GP below the");
    eprintln!("                       escalation threshold, sparse SGPR above), `auto:N`");
    eprintln!("                       (auto with threshold N), `exact`, or `sparse`");
    eprintln!("  --inducing <m>       (sparse tier) number of inducing points (default 48)");
    eprintln!();
    eprintln!("LINT / ANALYZE OPTIONS:");
    eprintln!("  --format <human|json|sarif>  output format (default human)");
    eprintln!("  --deny-warnings              exit non-zero on warnings, not just errors");
    eprintln!("  --domain <d>                 (analyze) abstract domain: `product` (default,");
    eprintln!("                               octagon × congruence × finite sets), `octagon`");
    eprintln!("                               (relational, disjunctive splitting), or the");
    eprintln!("                               plain `interval` analysis");
    eprintln!("  --contract [out.json]        (analyze) emit the plan with statically");
    eprintln!("                               contracted bounds applied and dead ordinal/");
    eprintln!("                               categorical options pruned");
    eprintln!("  --explain <CODE>             (analyze) print the reference entry for a");
    eprintln!("                               diagnostic code (S/G/N/A) and exit");
    eprintln!();
    eprintln!("SERVE OPTIONS:");
    eprintln!("  --data <dir>                 service directory (holds the write-ahead log);");
    eprintln!("                               reopening it recovers every campaign bit-for-bit");
    eprintln!("  --spool <dir>                ingest campaign specs (*.json) from a spool");
    eprintln!("                               directory; files are never modified or removed");
    eprintln!("  --fsync <always|never>       WAL durability (default always: every record is");
    eprintln!("                               synced before the evaluation result is used)");
    eprintln!("  --max-restarts <n>           per-campaign restart budget (default 2)");
    eprintln!("  --sim-kill-at <k[:torn]>     (testing) simulate a process kill once the WAL");
    eprintln!("                               holds k records, tearing the next write after");
    eprintln!("                               `torn` bytes; exits with code 3");
}

fn run_pipeline<O: Objective>(
    objective: &O,
    owners: &[(String, String)],
    title: &str,
    mut methodology: Methodology,
    report_path: Option<&str>,
    db_path: Option<&str>,
) -> ExitCode {
    methodology.config.record_database |= db_path.is_some();
    let pairs: Vec<(&str, &str)> = owners
        .iter()
        .map(|(p, r)| (p.as_str(), r.as_str()))
        .collect();
    let baseline = objective.default_config();
    let default_value = objective.evaluate(&baseline).total;
    eprintln!("analyzing {title} (untuned objective: {default_value:.4})...");
    // Counts every evaluation of the run: analysis, search attempts
    // (retries included) and the final verification.
    let counted = CountingObjective::new(objective);
    let (report, exec) = match methodology.run(&counted, &pairs, &baseline) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let md = render_markdown(objective, title, &report, Some(&exec));
    println!("{md}");
    eprintln!(
        "tuned: {:.4} -> {:.4} ({:.1}% improvement, {} evaluations)",
        default_value,
        exec.final_value,
        (1.0 - exec.final_value / default_value) * 100.0,
        counted.count()
    );
    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(path, &md) {
            eprintln!("error writing report {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("report written to {path}");
    }
    if let (Some(path), Some(database)) = (db_path, &exec.database) {
        if let Err(e) = database.save(std::path::Path::new(path)) {
            eprintln!("error writing database {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("database written to {path} ({} records)", database.len());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().cloned() else {
        usage();
        return ExitCode::FAILURE;
    };
    let args = Args::parse(&raw[1..]);
    let evals_per_dim: usize = args.get("evals-per-dim", 10);
    let seed: u64 = args.get("seed", 0);
    if let Some(v) = args.get_str("threads") {
        match v.parse::<usize>() {
            Ok(n) if n >= 1 => cets::linalg::par::set_global_threads(n),
            _ => {
                eprintln!("--threads must be a positive integer, got {v:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let flaky_rate: Option<f64> = match args.get_str("inject-flaky") {
        None => None,
        Some(v) => match v.parse::<f64>() {
            Ok(p) if (0.0..=1.0).contains(&p) => (p > 0.0).then_some(p),
            _ => {
                eprintln!("--inject-flaky must be a probability in [0, 1], got {v:?}");
                return ExitCode::FAILURE;
            }
        },
    };
    let resilient = args.get_str("resilient").is_some() || flaky_rate.is_some();
    let gp_cfg = {
        let mut gp = cets::gp::GpConfig::default();
        if let Some(v) = args.get_str("gp-tier") {
            gp.tier = match v {
                "auto" => cets::gp::TierPolicy::default(),
                "exact" => cets::gp::TierPolicy::Exact,
                "sparse" => cets::gp::TierPolicy::Sparse,
                other => match other
                    .strip_prefix("auto:")
                    .and_then(|t| t.parse::<usize>().ok())
                {
                    Some(threshold) if threshold > 0 => cets::gp::TierPolicy::Auto { threshold },
                    _ => {
                        eprintln!("--gp-tier must be auto, exact, sparse or auto:<N>, got {v:?}");
                        return ExitCode::FAILURE;
                    }
                },
            };
        }
        if let Some(v) = args.get_str("inducing") {
            match v.parse::<usize>() {
                Ok(m) if m > 0 => gp.sparse.m_inducing = m,
                _ => {
                    eprintln!("--inducing must be a positive integer, got {v:?}");
                    return ExitCode::FAILURE;
                }
            }
        }
        gp
    };

    match cmd.as_str() {
        "synthetic" => {
            let case_no: usize = args.get("case", 3);
            if !(1..=5).contains(&case_no) {
                eprintln!("--case must be 1..5");
                return ExitCode::FAILURE;
            }
            let case = SyntheticCase::all()[case_no - 1];
            let cutoff: f64 = args.get("cutoff", 0.25);
            // Analysis on the raw routine scale, execution on the log
            // objective (see cets-synthetic docs).
            let analysis = SyntheticFunction::new(case).with_seed(seed).as_raw();
            let owners = SyntheticFunction::owners();
            let m = Methodology::new(MethodologyConfig {
                cutoff,
                variation_policy: VariationPolicy::Multiplicative {
                    count: 30,
                    factor: 0.1,
                },
                bo: BoConfig {
                    seed,
                    gp: gp_cfg.clone(),
                    ..Default::default()
                },
                evals_per_dim,
                resilience: resilient.then(ResilienceConfig::default),
                ..Default::default()
            });
            // Analyze on the raw routine scale, execute against the
            // paper's log-scale objective.
            let exec_f = SyntheticFunction::new(case).with_seed(seed);
            let pairs = SyntheticFunction::owner_pairs(&owners);
            let baseline = match analysis.space().decode(&[0.6; 20]) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("error building the analysis baseline: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let default_value = exec_f.evaluate(&exec_f.default_config()).total;
            eprintln!(
                "analyzing {} (untuned objective: {default_value:.4})...",
                case.name()
            );
            let report = match m.analyze(&analysis, &pairs, &baseline) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let exec = match flaky_rate {
                Some(rate) => {
                    // Demo of graceful degradation: a seeded fraction of
                    // evaluations panics or returns NaN; the resilient layer
                    // contains both. The default panic hook would spam a
                    // backtrace per injected crash, so silence it.
                    std::panic::set_hook(Box::new(|_| {}));
                    let plan = FaultPlan {
                        flaky_rate: rate,
                        seed,
                        ..Default::default()
                    };
                    let faulty = FaultyObjective::new(&exec_f, plan, Arc::new(SystemClock::new()));
                    let out = m.execute(&faulty, &report);
                    eprintln!(
                        "fault injection: {} of {} evaluations sabotaged",
                        faulty.injected(),
                        faulty.evaluations()
                    );
                    out.map(|e| (e, faulty.evaluations()))
                }
                None => {
                    let counted = CountingObjective::new(&exec_f);
                    m.execute(&counted, &report).map(|e| (e, counted.count()))
                }
            };
            let (exec, executed) = match exec {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let md = render_markdown(&exec_f, &case.name(), &report, Some(&exec));
            println!("{md}");
            eprintln!(
                "tuned: {:.4} -> {:.4} ({:.1}% improvement, {} evaluations)",
                default_value,
                exec.final_value,
                (1.0 - exec.final_value / default_value) * 100.0,
                // The analysis ran on the clean objective: its cost is
                // exactly the pre-pass's observation count.
                report.scores.observation_cost() + executed
            );
            if let Some(path) = args.get_str("report") {
                if let Err(e) = std::fs::write(path, &md) {
                    eprintln!("error writing report {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("report written to {path}");
            }
            ExitCode::SUCCESS
        }
        "tddft" => {
            let case_no: usize = args.get("case", 1);
            let case = match case_no {
                1 => CaseStudy::case1(),
                2 => CaseStudy::case2(),
                _ => {
                    eprintln!("--case must be 1 or 2");
                    return ExitCode::FAILURE;
                }
            };
            let cutoff: f64 = args.get("cutoff", 0.10);
            let sim = TddftSimulator::new(case)
                .with_seed(seed)
                .with_expert_constraints();
            let owners = TddftSimulator::owners();
            let m = Methodology::new(MethodologyConfig {
                cutoff,
                bo: BoConfig {
                    seed,
                    gp: gp_cfg.clone(),
                    ..Default::default()
                },
                evals_per_dim,
                resilience: resilient.then(ResilienceConfig::default),
                ..TddftSimulator::methodology_config()
            });
            run_pipeline(
                &sim,
                &owners,
                &sim.case().name.clone(),
                m,
                args.get_str("report"),
                args.get_str("db"),
            )
        }
        "lint" | "analyze" => {
            let analyze_mode = cmd == "analyze";
            if analyze_mode {
                if let Some(code) = args.get_str("explain") {
                    match cets::lint::explain(code) {
                        Some(entry) => {
                            print!("{}", cets::lint::render_explain(entry));
                            return ExitCode::SUCCESS;
                        }
                        None => {
                            eprintln!("unknown diagnostic code: {code:?} (expected S/G/N/A codes like A009)");
                            return ExitCode::from(2);
                        }
                    }
                }
            }
            let Some(path) = raw.get(1).filter(|p| !p.starts_with("--")) else {
                eprintln!(
                    "usage: cets {cmd} <plan.json> [--format human|json|sarif] [--deny-warnings]{}",
                    if analyze_mode {
                        " [--domain interval|octagon|product] [--contract [out.json]] \
                         [--explain <CODE>]"
                    } else {
                        ""
                    }
                );
                return ExitCode::from(2);
            };
            let src = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            let bundle = match cets::lint::load_str(&src) {
                Ok(mut b) => {
                    b.spans.file = Some(path.clone());
                    b
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            let options = match args.get_str("domain").unwrap_or("product") {
                "product" => cets::lint::AnalysisOptions::default(),
                "octagon" => cets::lint::AnalysisOptions {
                    domain: cets::lint::Domain::Octagon,
                    ..Default::default()
                },
                "interval" => cets::lint::AnalysisOptions {
                    domain: cets::lint::Domain::Interval,
                    ..Default::default()
                },
                other => {
                    eprintln!("unknown --domain {other} (expected interval, octagon or product)");
                    return ExitCode::from(2);
                }
            };
            let report = if analyze_mode {
                cets::lint::analyze_with(&bundle, options)
            } else {
                cets::lint::lint(&bundle)
            };
            let rendered = match args.get_str("format").unwrap_or("human") {
                "json" => cets::lint::render_json(&report),
                "sarif" => cets::lint::render_sarif(&report),
                "human" => cets::lint::render_human(&report),
                other => {
                    eprintln!("unknown --format {other} (expected human, json or sarif)");
                    return ExitCode::from(2);
                }
            };
            match analyze_mode.then(|| args.get_str("contract")).flatten() {
                None => println!("{rendered}"),
                Some(out_path) => {
                    let analysis = cets::lint::analyze_space_with(&bundle, &options);
                    let contracted = match cets::lint::rewrite_contracted(&src, &analysis) {
                        Ok(c) => c,
                        Err(e) => {
                            eprintln!("error: {e}");
                            return ExitCode::from(2);
                        }
                    };
                    if out_path.is_empty() {
                        // Plan to stdout (pipe-friendly), report to stderr.
                        eprintln!("{rendered}");
                        println!("{contracted}");
                    } else {
                        if let Err(e) = std::fs::write(out_path, format!("{contracted}\n")) {
                            eprintln!("error writing {out_path}: {e}");
                            return ExitCode::from(2);
                        }
                        println!("{rendered}");
                        eprintln!("contracted plan written to {out_path}");
                    }
                }
            }
            let deny_warnings = raw.iter().any(|a| a == "--deny-warnings");
            let denied = report.errors() > 0 || (deny_warnings && report.warnings() > 0);
            if denied {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "serve" => {
            let Some(data) = args.get_str("data") else {
                eprintln!(
                    "usage: cets serve --data <dir> [--spool <dir>] [--fsync always|never] \
                     [--max-restarts n] [--sim-kill-at k[:torn]]"
                );
                return ExitCode::from(2);
            };
            let fsync = match args.get_str("fsync").unwrap_or("always") {
                "always" => cets::serve::FsyncPolicy::Always,
                "never" => cets::serve::FsyncPolicy::Never,
                other => {
                    eprintln!("--fsync must be `always` or `never`, got {other:?}");
                    return ExitCode::from(2);
                }
            };
            let kill = match args.get_str("sim-kill-at") {
                None => None,
                Some(v) => {
                    let (k, torn) = match v.split_once(':') {
                        Some((k, t)) => (k.parse::<usize>(), t.parse::<usize>()),
                        None => (v.parse::<usize>(), Ok(0)),
                    };
                    match (k, torn) {
                        (Ok(after_records), Ok(torn_bytes)) => Some(cets::serve::KillSpec {
                            after_records,
                            torn_bytes,
                        }),
                        _ => {
                            eprintln!("--sim-kill-at must be <k> or <k:torn>, got {v:?}");
                            return ExitCode::from(2);
                        }
                    }
                }
            };
            let mut config = cets::serve::ServeConfig::new(data);
            config.spool_dir = args.get_str("spool").map(std::path::PathBuf::from);
            config.fsync = fsync;
            config.restart.max_restarts = args.get("max-restarts", 2);
            config.kill = kill;
            // Injected faults and contained panics are expected service
            // traffic; keep the default hook from spamming backtraces.
            std::panic::set_hook(Box::new(|_| {}));
            let mut svc = match cets::serve::Service::open(config) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error opening service: {e}");
                    return ExitCode::from(2);
                }
            };
            if let Some(reason) = &svc.recovery.truncated {
                eprintln!("wal: repaired torn tail ({reason})");
            }
            eprintln!(
                "wal: recovered {} records, {} campaigns",
                svc.recovery.records,
                svc.state().campaigns.len()
            );
            match svc.intake_spool() {
                Ok((accepted, rejected)) => {
                    if accepted + rejected > 0 {
                        eprintln!("spool: accepted {accepted}, rejected {rejected}");
                    }
                }
                // A simulated kill can fire while logging the intake
                // itself — same exit code as a kill mid-campaign, so the
                // chaos matrix can sweep every record count uniformly.
                Err(cets::serve::ServeError::SimulatedCrash { records }) => {
                    eprintln!("simulated kill fired with {records} records durable");
                    return ExitCode::from(3);
                }
                Err(e) => {
                    eprintln!("error scanning spool: {e}");
                    return ExitCode::from(2);
                }
            }
            match svc.run_until_drained() {
                Ok(summary) => {
                    print!("{}", summary.render());
                    if summary.any_failed() {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(cets::serve::ServeError::SimulatedCrash { records }) => {
                    eprintln!("simulated kill fired with {records} records durable");
                    ExitCode::from(3)
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            }
        }
        "help" | "--help" | "-h" => {
            usage();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command: {other}\n");
            usage();
            ExitCode::FAILURE
        }
    }
}
