//! F6 — Figure 6: progression of the optimal configuration found by the
//! BO searches over the number of evaluated candidates, for both case
//! studies; Case Study 2 uses transfer learning from Case Study 1's
//! configuration database (paper Section VIII).
//!
//! Output: one CSV series per search (evaluations, incumbent) suitable for
//! plotting.

use cets_bench::{banner, paper_bo, sparkline, ExpArgs};
use cets_core::{BoSearch, Methodology, MethodologyConfig, Objective, TransferSeed};
use cets_space::Subspace;
use cets_tddft::{CaseStudy, TddftSimulator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = ExpArgs::parse(1);
    banner(
        "F6",
        "BO search progression, both case studies (paper Figure 6)",
    );
    let evals_per_dim = if args.quick { 3 } else { 10 };

    let make_methodology = || {
        Methodology::new(MethodologyConfig {
            bo: paper_bo(6),
            evals_per_dim,
            ..TddftSimulator::methodology_config()
        })
    };

    // --- Case Study 1: cold search.
    let cs1 = TddftSimulator::new(CaseStudy::case1()).with_expert_constraints();
    let owners = TddftSimulator::owners();
    let pairs = TddftSimulator::owner_pairs(&owners);
    let m = make_methodology();
    let (report1, exec1) = m.run(&cs1, &pairs, &cs1.default_config())?;

    println!("# Case Study 1 (cold start)");
    for (name, outcome) in &exec1.searches {
        println!("series,cs1,{name}  {}", sparkline(&outcome.incumbent_trace));
        for (i, v) in outcome.incumbent_trace.iter().enumerate() {
            println!("{},{:.6}", i + 1, v);
        }
    }
    println!(
        "# CS1 final: {:.4}s after {} evaluations\n",
        exec1.final_value, exec1.total_evals
    );

    // --- Case Study 2: the merged G2+G3 search is warm-started with CS1's
    // configuration database (the paper's transfer-learning step).
    let cs2 = TddftSimulator::new(CaseStudy::case2()).with_expert_constraints();
    let merged_name = report1
        .plan
        .searches()
        .find(|s| s.name.contains('+'))
        .ok_or("CS1 plan has no merged search")?
        .name
        .clone();
    let (_, merged_outcome) = exec1
        .searches
        .iter()
        .find(|(n, _)| *n == merged_name)
        .ok_or("CS1 merged search has no outcome")?;
    let merged_params: Vec<&str> = report1
        .plan
        .searches()
        .find(|s| s.name == merged_name)
        .ok_or("CS1 merged search vanished")?
        .params
        .iter()
        .map(|p| p.as_str())
        .collect();

    // Prior pool from CS1's merged search.
    let sub1 = Subspace::new(cs1.space(), &merged_params, exec1.final_config.clone())?;
    let seed_pool = TransferSeed::from_outcome(&sub1, merged_outcome)?;

    // CS2 cold run for every stage, but the merged search warm-started.
    let m2 = make_methodology();
    let report2 = m2.analyze(&cs2, &pairs, &cs2.default_config())?;
    let exec2 = m2.execute(&cs2, &report2)?;

    // Warm-started merged search on CS2 (same budget).
    let merged2 = report2
        .plan
        .searches()
        .find(|s| s.name.contains('+'))
        .ok_or("CS2 plan has no merged search")?;
    let mp2: Vec<&str> = merged2.params.iter().map(|p| p.as_str()).collect();
    let sub2 = Subspace::new(cs2.space(), &mp2, exec2.final_config.clone())?;
    let g2g3 = |cfg: &cets_space::Config| {
        let o = cs2.evaluate(cfg);
        o.routines[1] + o.routines[2]
    };
    let warm_history = seed_pool.seed_history(&sub2, g2g3, 5);
    let warm = BoSearch::new({
        let mut b = paper_bo(61);
        b.max_evals = merged2.budget;
        b
    })
    .run_with_history(&sub2, g2g3, warm_history)?;

    println!("# Case Study 2 (cold stages + transfer-seeded merged search)");
    for (name, outcome) in &exec2.searches {
        println!(
            "series,cs2-cold,{name}  {}",
            sparkline(&outcome.incumbent_trace)
        );
        for (i, v) in outcome.incumbent_trace.iter().enumerate() {
            println!("{},{:.6}", i + 1, v);
        }
    }
    println!(
        "series,cs2-transfer,{merged_name}  {}",
        sparkline(&warm.incumbent_trace)
    );
    for (i, v) in warm.incumbent_trace.iter().enumerate() {
        println!("{},{:.6}", i + 1, v);
    }

    let cold_merged = exec2
        .searches
        .iter()
        .find(|(n, _)| n.contains('+'))
        .map(|(_, o)| o.best_value)
        .ok_or("CS2 cold run has no merged search")?;
    println!(
        "\n# CS2 merged-search best: cold {:.5} vs transfer-seeded {:.5} ({}{:.1}%)",
        cold_merged,
        warm.best_value,
        if warm.best_value <= cold_merged {
            "-"
        } else {
            "+"
        },
        (warm.best_value / cold_merged - 1.0).abs() * 100.0
    );
    Ok(())
}
