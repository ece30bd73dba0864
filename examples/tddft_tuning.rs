//! Tune the simulated GPU-offloaded RT-TDDFT application (paper Sections
//! V-VIII): expert-constrained space, per-routine sensitivity, the Table
//! VII search plan (Iterations → MPI grid → Group 1 ∥ Group 2+3), and the
//! BO progression (Figure 6's data).
//!
//! ```text
//! cargo run --release --example tddft_tuning [1|2]
//! ```

use cets::core::{BoConfig, Methodology, MethodologyConfig, Objective};
use cets::tddft::{CaseStudy, TddftSimulator};

fn main() {
    let which: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1);
    let case = if which == 2 {
        CaseStudy::case2()
    } else {
        CaseStudy::case1()
    };
    println!("=== Tuning {} ===", case.name);
    println!(
        "{} spin(s), {} k-point(s), {} bands, {:.1}M-element FFT\n",
        case.nspin,
        case.nkpoints,
        case.nbands,
        case.fft_size as f64 / 1e6
    );

    let sim = TddftSimulator::new(case).with_expert_constraints();
    let default_time = sim.evaluate(&sim.default_config()).total;
    println!("untuned application time: {default_time:.3}s (simulated)\n");

    let methodology = Methodology::new(MethodologyConfig {
        bo: BoConfig {
            seed: 1,
            ..Default::default()
        },
        evals_per_dim: 10,
        ..TddftSimulator::methodology_config()
    });

    let owners = TddftSimulator::owners();
    let pairs = TddftSimulator::owner_pairs(&owners);

    let report = methodology
        .analyze(&sim, &pairs, &sim.default_config())
        .expect("analysis");

    for routine in ["G1", "G2", "G3", "Slater"] {
        println!("Top-5 sensitive parameters for {routine} (cf. paper Tables V/VI):");
        print!("{}", report.scores.top_k(routine, 5).unwrap());
        println!();
    }

    println!(
        "Search plan (cf. paper Table VII):\n{}",
        report.plan.describe()
    );

    let exec = methodology.execute(&sim, &report).expect("execution");
    println!("search progressions (cf. paper Figure 6):");
    for (name, outcome) in &exec.searches {
        let trace = &outcome.incumbent_trace;
        let milestones: Vec<String> = [0, trace.len() / 4, trace.len() / 2, trace.len() - 1]
            .iter()
            .map(|&i| format!("{:.4}@{}", trace[i], i + 1))
            .collect();
        println!(
            "  {:<10} {} evals: {}",
            name,
            outcome.n_evals,
            milestones.join(" -> ")
        );
    }

    println!(
        "\ntuned application time: {:.3}s  ({:.1}% faster, {} evaluations, {:?})",
        exec.final_value,
        (1.0 - exec.final_value / default_time) * 100.0,
        exec.total_evals,
        exec.wall_time
    );
    println!(
        "best configuration:\n  {}",
        sim.space()
            .format_config(&exec.final_config)
            .replace(", ", "\n  ")
    );
}
