//! F5 — Figure 5: the dependency diagram of the resulting TDDFT searches
//! after the 10% cut-off — nbatches linking to all GPU groups, the Group 2
//! → Group 3 cache edge, and the precedence of the Iterations and MPI
//! searches.

use cets_bench::banner;
use cets_core::{BoConfig, Methodology, MethodologyConfig, Objective};
use cets_tddft::{CaseStudy, TddftSimulator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner(
        "F5",
        "Dependency diagram of the resulting searches (paper Figure 5)",
    );
    let sim = TddftSimulator::new(CaseStudy::case1()).with_expert_constraints();
    let owners = TddftSimulator::owners();
    let pairs = TddftSimulator::owner_pairs(&owners);

    let m = Methodology::new(MethodologyConfig {
        bo: BoConfig::default(),
        evals_per_dim: 10,
        ..TddftSimulator::methodology_config()
    });
    let report = m.analyze(&sim, &pairs, &sim.default_config())?;

    println!("-- Influence DAG (10% cut-off) --\n");
    println!("{}", report.graph.to_dot(0.10)?);

    println!("-- Cross-edges driving the diagram --");
    for e in report.graph.cross_edges(0.10)? {
        println!(
            "  {:<12} ({} -> {})  {:.0}%",
            report.graph.params()[e.param],
            e.from
                .map(|r| report.graph.routines()[r].as_str())
                .unwrap_or("-"),
            report.graph.routines()[e.to],
            e.score * 100.0
        );
    }

    println!("\n-- Search clusters (precedence + merged groups) --\n");
    println!("{}", report.partition.to_dot(&report.graph));
    Ok(())
}
