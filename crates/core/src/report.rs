//! Human-readable tuning reports.
//!
//! A tuning campaign produces a lot of structured evidence — sensitivity
//! scores, the influence DAG, the search plan, per-search traces, the
//! final configuration. [`render_markdown`] assembles it into one markdown
//! document a performance engineer can attach to a PR or ticket, which is
//! how tuning results actually circulate in practice.

use crate::methodology::{MethodologyReport, PlanExecution, SearchDisposition};
use crate::objective::Objective;
use std::fmt::Write as _;

// `write!` into a `String` is infallible; `let _ =` states that without a
// reachable-in-theory panic path at every call site.

/// Render a full campaign report (analysis + execution) as markdown.
pub fn render_markdown<O: Objective + ?Sized>(
    objective: &O,
    title: &str,
    report: &MethodologyReport,
    exec: Option<&PlanExecution>,
) -> String {
    let mut md = String::new();
    let space = objective.space();
    let _ = writeln!(md, "# Tuning report: {title}\n");
    let _ = writeln!(
        md,
        "- **Search space**: {} parameters, {} constraints",
        space.dim(),
        space.constraints().len()
    );
    let _ = writeln!(
        md,
        "- **Routines**: {}",
        objective.routine_names().join(", ")
    );
    let failed = match report.failed_variations {
        0 => String::new(),
        n => format!(", {n} failed"),
    };
    let _ = writeln!(
        md,
        "- **Sensitivity cost**: {} evaluations ({} variations/parameter{failed})",
        report.scores.observation_cost(),
        report.scores.variations()
    );
    let _ = writeln!(
        md,
        "- **Cut-off**: {:.0}%\n",
        report.partition.cutoff() * 100.0
    );

    let _ = writeln!(md, "## Search space\n");
    let _ = writeln!(md, "{}", space.describe_markdown());

    // Top sensitivities per routine.
    let _ = writeln!(md, "## Sensitivity analysis\n");
    for routine in objective.routine_names() {
        if let Some(table) = report.scores.top_k(&routine, 5) {
            let _ = writeln!(md, "**{routine}** (top 5):\n");
            let _ = writeln!(md, "| Parameter | Variability |");
            let _ = writeln!(md, "|---|---|");
            for (name, v) in &table.rows {
                let _ = writeln!(md, "| {name} | {:.1}% |", v * 100.0);
            }
            let _ = writeln!(md);
        }
    }

    // Interdependencies that survived the cut-off.
    let _ = writeln!(md, "## Detected interdependencies\n");
    let cross = report
        .graph
        .cross_edges(report.partition.cutoff())
        .unwrap_or_default();
    if cross.is_empty() {
        let _ = writeln!(
            md,
            "None above the cut-off — all routines tune independently.\n"
        );
    } else {
        let _ = writeln!(md, "| Parameter | From | Influences | Score |");
        let _ = writeln!(md, "|---|---|---|---|");
        for e in &cross {
            let _ = writeln!(
                md,
                "| {} | {} | {} | {:.0}% |",
                report.graph.params()[e.param],
                e.from
                    .map(|r| report.graph.routines()[r].as_str())
                    .unwrap_or("-"),
                report.graph.routines()[e.to],
                e.score * 100.0
            );
        }
        let _ = writeln!(md);
    }

    // The plan.
    let _ = writeln!(md, "## Search plan\n");
    let _ = writeln!(md, "```text\n{}```\n", report.plan.describe());
    let _ = writeln!(
        md,
        "Total budget: **{} evaluations** across {} searches.\n",
        report.plan.total_budget(),
        report.plan.searches().count()
    );

    // Execution results.
    if let Some(exec) = exec {
        let _ = writeln!(md, "## Results\n");
        let _ = writeln!(md, "| Search | Evals | Best value | Wall time |");
        let _ = writeln!(md, "|---|---|---|---|");
        for (name, o) in &exec.searches {
            let _ = writeln!(
                md,
                "| {name} | {} | {:.6} | {:.2?} |",
                o.n_evals, o.best_value, o.wall_time
            );
        }
        let _ = writeln!(md);
        let _ = writeln!(
            md,
            "**Final objective: {:.6}** after {} evaluations ({:.2?}).\n",
            exec.final_value, exec.total_evals, exec.wall_time
        );

        // Failure ledger. Every execution keeps one, and a clean run still
        // lists its per-search entries — "nothing failed" is evidence worth
        // recording, not an absence of information.
        if !exec.ledger.entries.is_empty() {
            let _ = writeln!(md, "### Failure ledger\n");
            let _ = writeln!(
                md,
                "{} of {} searches degraded; {} failed evaluations in total.\n",
                exec.ledger.n_degraded(),
                exec.ledger.entries.len(),
                exec.ledger.total_failures()
            );
            let _ = writeln!(
                md,
                "| Search | Stage | Ok | Failed | Budget | Disposition |"
            );
            let _ = writeln!(md, "|---|---|---|---|---|---|");
            for e in &exec.ledger.entries {
                let disposition = match &e.disposition {
                    SearchDisposition::Completed => "completed".to_string(),
                    SearchDisposition::Degraded(reason) => format!("degraded: {reason}"),
                };
                let _ = writeln!(
                    md,
                    "| {} | {} | {} | {} | {:.2} | {} |",
                    e.search, e.stage, e.n_ok, e.n_failed, e.budget_spent, disposition
                );
            }
            let _ = writeln!(md);
        }

        let _ = writeln!(md, "### Final configuration\n");
        let _ = writeln!(md, "```text");
        for part in space.format_config(&exec.final_config).split(", ") {
            let _ = writeln!(md, "{part}");
        }
        let _ = writeln!(md, "```");
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bo::BoConfig;
    use crate::methodology::{Methodology, MethodologyConfig};
    use crate::objective::test_objectives::CoupledSphere;
    use crate::sensitivity::VariationPolicy;

    #[test]
    fn report_contains_all_sections() {
        let obj = CoupledSphere::new();
        let m = Methodology::new(MethodologyConfig {
            cutoff: 0.10,
            variation_policy: VariationPolicy::Spread { count: 4 },
            bo: BoConfig {
                n_init: 4,
                n_candidates: 32,
                n_local: 4,
                seed: 1,
                ..Default::default()
            },
            evals_per_dim: 4,
            ..Default::default()
        });
        let owners = [("x0", "r0"), ("x1", "r0"), ("x2", "r1")];
        let (report, exec) = m.run(&obj, &owners, &obj.default_config()).unwrap();
        let md = render_markdown(&obj, "coupled sphere", &report, Some(&exec));
        for needle in [
            "# Tuning report: coupled sphere",
            "## Search space",
            "## Sensitivity analysis",
            "## Detected interdependencies",
            "## Search plan",
            "## Results",
            "Final configuration",
            "| x1 |", // the cross-influencing parameter appears
        ] {
            assert!(md.contains(needle), "missing section: {needle}\n{md}");
        }
        // Every execution keeps a failure ledger, a run without resilience
        // options included: one entry per search plus the final check.
        assert!(md.contains("### Failure ledger"), "{md}");
        assert!(md.contains("| final |"), "{md}");
    }

    #[test]
    fn report_without_execution_omits_results() {
        let obj = CoupledSphere::new();
        let m = Methodology::new(MethodologyConfig {
            variation_policy: VariationPolicy::Spread { count: 3 },
            ..Default::default()
        });
        let owners = [("x0", "r0"), ("x1", "r0"), ("x2", "r1")];
        let report = m.analyze(&obj, &owners, &obj.default_config()).unwrap();
        let md = render_markdown(&obj, "analysis only", &report, None);
        assert!(md.contains("## Search plan"));
        assert!(!md.contains("## Results"));
    }

    #[test]
    fn independent_case_reports_no_interdependencies() {
        use crate::objective::test_objectives::SplitSphere;
        let obj = SplitSphere::new();
        let m = Methodology::new(MethodologyConfig {
            variation_policy: VariationPolicy::Spread { count: 3 },
            ..Default::default()
        });
        let owners = [("x0", "r0"), ("x1", "r0"), ("x2", "r1")];
        let report = m.analyze(&obj, &owners, &obj.default_config()).unwrap();
        let md = render_markdown(&obj, "split", &report, None);
        assert!(md.contains("None above the cut-off"));
    }

    #[test]
    fn resilient_run_report_includes_failure_ledger() {
        use crate::objective::test_objectives::SplitSphere;
        use crate::resilience::ResilienceConfig;
        let obj = SplitSphere::new();
        let m = Methodology::new(MethodologyConfig {
            variation_policy: VariationPolicy::Spread { count: 4 },
            bo: BoConfig {
                n_init: 4,
                n_candidates: 32,
                n_local: 4,
                seed: 1,
                ..Default::default()
            },
            evals_per_dim: 4,
            resilience: Some(ResilienceConfig::default()),
            ..Default::default()
        });
        let owners = [("x0", "r0"), ("x1", "r0"), ("x2", "r1")];
        let (report, exec) = m.run(&obj, &owners, &obj.default_config()).unwrap();
        let md = render_markdown(&obj, "resilient split", &report, Some(&exec));
        assert!(md.contains("### Failure ledger"), "{md}");
        assert!(md.contains("| final |"), "{md}");
        assert!(md.contains("0 of"), "clean run: zero degraded\n{md}");
    }
}
