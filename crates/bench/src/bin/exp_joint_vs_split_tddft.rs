//! X2 — In-text result (paper Section VIII): the joint Group 2+3 search
//! (N = 100) vs independent Group 2 (N = 30) and Group 3 (N = 100)
//! searches on the TDDFT simulator.
//!
//! Paper: the joint search wins by ~1% on Case Study 1 and ~4.6% on Case
//! Study 2, *while consuming fewer evaluations* (100 vs 130).
//!
//! Flags: `--reps N` (default 5), `--quick`.

use cets_bench::{banner, mean_std, paper_bo, ExpArgs};
use cets_core::{execute_plan, Objective, PlannedSearch, SearchPlan, SearchTarget};
use cets_linalg::par;
use cets_tddft::{CaseStudy, TddftSimulator};

fn group_params(prefixes: &[&str]) -> Vec<String> {
    prefixes
        .iter()
        .flat_map(|k| ["u", "tb", "tb_sm"].iter().map(move |f| format!("{f}_{k}")))
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = ExpArgs::parse(5);
    banner(
        "X2",
        "Joint Group 2+3 search vs independent Group 2 / Group 3 (paper in-text)",
    );

    // Parameter sets as the paper uses them: Group 2 = pairwise kernel
    // (3 params); Group 3 = zcopy + dscal + zvec kernels (9 params, no cap
    // needed: "an independent search for Group 3 ... precisely amounting
    // to 10 parameters" counts u_zvec too; we include all 9 kernel params
    // + u_pair's cache-coupled partner is in G2).
    let g2 = group_params(&["pair"]);
    let g3 = group_params(&["zcopy", "dscal", "zvec"]);
    let mut joint = g2.clone();
    joint.extend(g3.clone());

    let joint_budget = args.budget(100);
    let g2_budget = args.budget(30);
    let g3_budget = args.budget(100);

    for case in [CaseStudy::case1(), CaseStudy::case2()] {
        let sim = TddftSimulator::new(case).with_expert_constraints();
        println!("--- {} ---", sim.case().name);
        let mut joint_vals = Vec::new();
        let mut split_vals = Vec::new();
        for rep in 0..args.reps {
            let seed = 300 + rep as u64;
            // Joint Group 2+3, one N=100 search minimizing G2+G3 runtime.
            let joint_plan = SearchPlan {
                stages: vec![vec![PlannedSearch {
                    name: "G2+G3".into(),
                    params: joint.clone(),
                    dropped: vec![],
                    target: SearchTarget::Routines(vec!["G2".into(), "G3".into()]),
                    budget: joint_budget,
                }]],
            };
            let je = execute_plan(&sim, &joint_plan, &paper_bo(seed), 1, None, false)?;

            // Independent: G2 with N=30, G3 with N=100, in parallel.
            let split_plan = SearchPlan {
                stages: vec![vec![
                    PlannedSearch {
                        name: "G2".into(),
                        params: g2.clone(),
                        dropped: vec![],
                        target: SearchTarget::Routines(vec!["G2".into()]),
                        budget: g2_budget,
                    },
                    PlannedSearch {
                        name: "G3".into(),
                        params: g3.clone(),
                        dropped: vec![],
                        target: SearchTarget::Routines(vec!["G3".into()]),
                        budget: g3_budget,
                    },
                ]],
            };
            let se = execute_plan(
                &sim,
                &split_plan,
                &paper_bo(seed),
                par::global_threads(),
                None,
                false,
            )?;

            // Compare on the joint G2+G3 runtime of the final configs
            // (noise-free evaluation for a clean comparison).
            let clean = TddftSimulator::new(sim.case().clone())
                .with_expert_constraints()
                .with_noise(0.0);
            let jv = {
                let o = clean.evaluate(&je.final_config);
                o.routines[1] + o.routines[2]
            };
            let sv = {
                let o = clean.evaluate(&se.final_config);
                o.routines[1] + o.routines[2]
            };
            joint_vals.push(jv);
            split_vals.push(sv);
        }
        let (jm, js) = mean_std(&joint_vals);
        let (sm, ss) = mean_std(&split_vals);
        println!(
            "  joint G2+G3 (N={joint_budget}):            {:.6}s ± {:.6}",
            jm, js
        );
        println!(
            "  split G2 (N={g2_budget}) + G3 (N={g3_budget}): {:.6}s ± {:.6}",
            sm, ss
        );
        println!(
            "  joint is {:.1}% {} at {:.0}% of the evaluations ({} vs {})\n",
            (1.0 - jm / sm).abs() * 100.0,
            if jm <= sm { "better" } else { "worse" },
            joint_budget as f64 / (g2_budget + g3_budget) as f64 * 100.0,
            joint_budget,
            g2_budget + g3_budget
        );
    }
    println!("Paper reference: joint better by ~1% (CS1) and ~4.6% (CS2) with 100 vs 130 evals.");
    Ok(())
}
