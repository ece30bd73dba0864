//! F2 — Figure 2: the influence DAG for synthetic Case 3 after applying
//! the 25% cut-off (Graphviz DOT on stdout, plus the adjacency summary).

use cets_bench::banner;
use cets_core::{build_graph, routine_sensitivity, Objective, VariationPolicy};
use cets_synthetic::{SyntheticCase, SyntheticFunction};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner(
        "F2",
        "Influence DAG for Case 3 at 25% cut-off (paper Figure 2)",
    );
    let f = SyntheticFunction::new(SyntheticCase::Case3).as_raw();
    let owners = SyntheticFunction::owners();
    let pairs = SyntheticFunction::owner_pairs(&owners);
    let baseline = f.space().decode(&[0.6; 20])?;

    let scores = routine_sensitivity(
        &f,
        &baseline,
        &VariationPolicy::Multiplicative {
            count: 30,
            factor: 0.10,
        },
    )?;
    let graph = build_graph(&f, &pairs, &scores)?;

    let cutoff = 0.25;
    println!("-- DOT (feed to graphviz: dot -Tpng) --\n");
    println!("{}", graph.to_dot(cutoff)?);

    println!("-- Adjacency at {:.0}% cut-off --", cutoff * 100.0);
    for e in graph.cross_edges(cutoff)? {
        println!(
            "  {} (owned by {}) --{:.0}%--> {}   [CROSS: forces merge]",
            graph.params()[e.param],
            e.from.map(|r| graph.routines()[r].as_str()).unwrap_or("-"),
            e.score * 100.0,
            graph.routines()[e.to]
        );
    }

    let part = graph.partition(cutoff, &[])?;
    println!("\n-- Resulting partition --");
    for g in part.groups() {
        let names: Vec<&str> = g
            .routines
            .iter()
            .map(|&r| graph.routines()[r].as_str())
            .collect();
        println!(
            "  search over {{{}}} with {} parameters",
            names.join(", "),
            g.params.len()
        );
    }
    println!("\n{}", part.to_dot(&graph));
    Ok(())
}
