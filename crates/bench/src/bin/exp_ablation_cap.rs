//! A2 — Ablation: (a) the 10-dimension cap and (b) the acquisition
//! function, on synthetic Case 4's merged G3+G4 search.
//!
//! The paper caps every search at 10 dimensions "grounded in the
//! feasibility of conducting outstanding BO searches within a manageable
//! number of iterations". Here we tune a deliberately over-wide merged
//! search (all 20 parameters targeting G3+G4's joint value) under caps of
//! 5 / 10 / 20 at a *fixed total budget*, and separately compare EI / LCB
//! / PI acquisitions on the paper's 10-dim merged search.
//!
//! Flags: `--reps N` (default 3), `--quick`.

use cets_bench::{banner, mean_std, paper_bo, ExpArgs};
use cets_core::{execute_plan, Acquisition, PlannedSearch, SearchPlan, SearchTarget};
use cets_synthetic::{SyntheticCase, SyntheticFunction};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = ExpArgs::parse(3);
    let budget = if args.quick { 30 } else { 100 };
    banner(
        "A2",
        "Ablation: dimension cap and acquisition function (Case 4)",
    );
    println!(
        "reps = {}, fixed budget = {budget} evaluations per search\n",
        args.reps
    );

    let owners = SyntheticFunction::owners();
    // Importance proxy: G3/G4 parameters first (x10..x19), then the rest.
    let ranked: Vec<String> = (10..20).chain(0..10).map(|i| format!("x{i}")).collect();

    println!("--- (a) dimension cap at fixed budget ---");
    println!("{:>6} {:>12} {:>10}", "cap", "minimum", "±std");
    for cap in [5usize, 10, 20] {
        let mut minima = Vec::new();
        for rep in 0..args.reps {
            let f = SyntheticFunction::new(SyntheticCase::Case4).with_seed(rep as u64);
            let params: Vec<String> = ranked.iter().take(cap).cloned().collect();
            let plan = SearchPlan {
                stages: vec![vec![PlannedSearch {
                    name: format!("G3+G4 cap{cap}"),
                    params,
                    dropped: ranked.iter().skip(cap).cloned().collect(),
                    target: SearchTarget::Routines(vec!["G3".into(), "G4".into()]),
                    budget,
                }]],
            };
            let exec = execute_plan(&f, &plan, &paper_bo(700 + rep as u64), 1, None, false)?;
            minima.push(exec.final_value);
        }
        let (m, s) = mean_std(&minima);
        println!("{:>6} {:>12.2} {:>10.2}", cap, m, s);
    }
    let _ = &owners;

    println!("\n--- (b) acquisition function on the 10-dim merged search ---");
    println!("{:>28} {:>12} {:>10}", "acquisition", "minimum", "±std");
    let acquisitions: Vec<(&str, Acquisition)> = vec![
        (
            "ExpectedImprovement(0.01)",
            Acquisition::ExpectedImprovement { xi: 0.01 },
        ),
        (
            "LowerConfidenceBound(2.0)",
            Acquisition::LowerConfidenceBound { beta: 2.0 },
        ),
        (
            "ProbabilityOfImprovement",
            Acquisition::ProbabilityOfImprovement { xi: 0.01 },
        ),
    ];
    for (name, acq) in acquisitions {
        let mut minima = Vec::new();
        for rep in 0..args.reps {
            let f = SyntheticFunction::new(SyntheticCase::Case4).with_seed(rep as u64);
            let params: Vec<String> = (10..20).map(|i| format!("x{i}")).collect();
            let plan = SearchPlan {
                stages: vec![vec![PlannedSearch {
                    name: "G3+G4".into(),
                    params,
                    dropped: vec![],
                    target: SearchTarget::Routines(vec!["G3".into(), "G4".into()]),
                    budget,
                }]],
            };
            let mut bo = paper_bo(800 + rep as u64);
            bo.acquisition = acq;
            let exec = execute_plan(&f, &plan, &bo, 1, None, false)?;
            minima.push(exec.final_value);
        }
        let (m, s) = mean_std(&minima);
        println!("{:>28} {:>12.2} {:>10.2}", name, m, s);
    }
    println!("\nExpected shape: cap 10 ≈ cap 20 or better at this budget (the extra");
    println!("dimensions cost more than they contribute), cap 5 loses access to half");
    println!("the coupled variables; acquisition choice is second-order.");
    Ok(())
}
