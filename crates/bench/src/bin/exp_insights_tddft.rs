//! X1 — In-text insights (paper Section VIII, "Insights about
//! parameters"): overall-runtime sensitivity ranking, random-forest
//! feature importance, Pearson correlations, one-in-ten rule and runtime
//! spread for both TDDFT case studies.
//!
//! Paper reference points: CS1 sensitivity led by nstb (21.7%), then
//! nkpb, nbatches, nstreams...; CS1 feature importance led by nstb
//! (79.5%); tb/tb_sm pairs correlate at ~0.6 via the occupancy
//! constraint; sampled runtimes spread ~an order of magnitude.

use cets_bench::{banner, ExpArgs};
use cets_core::{gather_insights, routine_sensitivity, InsightsConfig, Objective, VariationPolicy};
use cets_tddft::{CaseStudy, TddftSimulator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = ExpArgs::parse(1);
    banner("X1", "Parameter insights for RT-TDDFT (paper Section VIII)");
    let n_samples = args.budget(100);

    for case in [CaseStudy::case1(), CaseStudy::case2()] {
        let sim = TddftSimulator::new(case).with_expert_constraints();
        println!("=== {} ===\n", sim.case().name);

        // Overall-runtime sensitivity (5 variations/param).
        let scores = routine_sensitivity(
            &sim,
            &sim.default_config(),
            &VariationPolicy::Spread { count: 5 },
        )?;
        println!("Overall-runtime sensitivity (top 8):");
        print!("{}", scores.top_k("total", 8).ok_or("no total scores")?);

        // Feature importance + Pearson over sampled evaluations.
        let insights = gather_insights(
            &sim,
            &InsightsConfig {
                n_samples,
                seed: 7,
                correlation_threshold: 0.4,
                ..Default::default()
            },
        )?;

        println!("\nRandom-forest feature importance (top 8, {n_samples} samples):");
        for (name, v) in insights.ranked_importance().into_iter().take(8) {
            println!("  {name:<14} {:>6.1}%", v * 100.0);
        }
        if let Some(r2) = insights.model_r2 {
            println!("  (OOB R² of the importance model: {r2:.2})");
        }

        println!(
            "\nOne-in-ten rule ({} samples, {} dims): {}",
            n_samples,
            sim.space().dim(),
            if insights.one_in_ten {
                "satisfied"
            } else {
                "NOT satisfied"
            }
        );

        println!("\nCorrelated parameter pairs (|r| >= 0.4):");
        if insights.correlated.is_empty() {
            println!("  (none above threshold)");
        }
        for (a, b, r) in insights.correlated.iter().take(8) {
            println!("  {a:<14} {b:<14} r = {r:+.2}");
        }

        let s = &insights.runtime_summary;
        println!(
            "\nSampled runtime distribution: min {:.4}s / median {:.4}s / max {:.4}s (dynamic range {:.1}x)\n",
            s.min,
            s.median,
            s.max,
            s.dynamic_range()
        );
    }
    Ok(())
}
