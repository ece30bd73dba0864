//! R1 — Related-work comparison (paper Section II): the high-dimensional
//! BO strategies the paper surveys — random-embedding BO (REMBO family)
//! and dropout BO — against the methodology's decomposition, on the
//! synthetic cases, at equal evaluation budget.
//!
//! Paper's qualitative claims to verify: embeddings suffer projection
//! distortions; dropout converges more slowly; the interdependence-aware
//! decomposition navigates best.
//!
//! Flags: `--reps N` (default 3), `--quick`.

use cets_bench::{banner, mean_std, paper_bo, ExpArgs};
use cets_core::{dropout_bo, rembo, run_strategy, Strategy};
use cets_synthetic::{SyntheticCase, SyntheticFunction};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = ExpArgs::parse(3);
    let evals_per_dim = if args.quick { 3 } else { 10 };
    let budget = 20 * evals_per_dim; // equal total budget for every method
    banner(
        "R1",
        "Related-work baselines: REMBO / dropout vs the methodology (Section II)",
    );
    println!(
        "equal budget: {budget} evaluations per method, reps = {}\n",
        args.reps
    );

    println!(
        "{:<8} {:<26} {:>14} {:>10}",
        "Case", "Method", "Minimum ±std", "Time (s)"
    );
    for case in [
        SyntheticCase::Case3,
        SyntheticCase::Case4,
        SyntheticCase::Case5,
    ] {
        let owners = SyntheticFunction::owners();
        let pairs = SyntheticFunction::owner_pairs(&owners);

        type Runner<'a> = Box<dyn Fn(u64) -> cets_core::Result<(f64, f64)> + 'a>;
        let methods: Vec<(&str, Runner)> = vec![
            (
                "REMBO (d=6 embedding)",
                Box::new(|seed: u64| {
                    let f = SyntheticFunction::new(case).with_seed(seed);
                    let mut bo = paper_bo(900 + seed);
                    bo.max_evals = budget;
                    let o = rembo(&f, 6, &bo)?;
                    Ok((o.best_value, o.wall_time.as_secs_f64()))
                }),
            ),
            (
                "Dropout BO (d=10/iter)",
                Box::new(|seed: u64| {
                    let f = SyntheticFunction::new(case).with_seed(seed);
                    let mut bo = paper_bo(910 + seed);
                    bo.max_evals = budget;
                    let o = dropout_bo(&f, 10, &bo)?;
                    Ok((o.best_value, o.wall_time.as_secs_f64()))
                }),
            ),
            (
                "Methodology (G1,G2,G3+G4)",
                Box::new(|seed: u64| {
                    let f = SyntheticFunction::new(case).with_seed(seed);
                    let r = run_strategy(
                        &f,
                        &pairs,
                        &Strategy::Groups(vec![
                            vec!["G1".into()],
                            vec!["G2".into()],
                            vec!["G3".into(), "G4".into()],
                        ]),
                        &paper_bo(920 + seed),
                        evals_per_dim,
                    )?;
                    Ok((r.final_value, r.time_s))
                }),
            ),
        ];

        for (label, run) in &methods {
            let mut minima = Vec::new();
            let mut times = Vec::new();
            for rep in 0..args.reps {
                let (m, t) = run(rep as u64)?;
                minima.push(m);
                times.push(t);
            }
            let (mm, ms) = mean_std(&minima);
            let (tm, _) = mean_std(&times);
            println!(
                "{:<8} {:<26} {:>8.2} ±{:<5.2} {:>10.2}",
                case.name(),
                label,
                mm,
                ms,
                tm
            );
        }
        println!();
    }
    println!("Expected shape (paper Section II): the decomposition finds the best");
    println!("minima; REMBO's clipped projections distort the landscape; dropout's");
    println!("random per-iteration subsets converge more slowly at equal budget.");
    Ok(())
}
