//! T2 — Table II: variability of Group 3's output for the five synthetic
//! cases, top-10 sensitive variables.
//!
//! Protocol (paper Section IV-B): one random baseline configuration, then
//! 100 individual variations per parameter, each increasing the value by
//! 10% relative to the preceding iteration. Variability on the raw Group 3
//! output (the scale Table II reports).

use cets_bench::{banner, ExpArgs};
use cets_core::{routine_sensitivity, Objective, VariationPolicy};
use cets_space::draw_feasible;
use cets_synthetic::{SyntheticCase, SyntheticFunction};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = ExpArgs::parse(1);
    banner(
        "T2",
        "Group 3 output variability per synthetic case (paper Table II)",
    );
    let count = args.budget(100);

    // One table per paper layout: rows x10..x19, columns Case 1..5.
    let mut columns: Vec<Vec<(String, f64)>> = Vec::new();
    for case in SyntheticCase::all() {
        let f = SyntheticFunction::new(case).as_raw();
        // Random baseline (paper: "a baseline configuration was randomly
        // selected") — fixed seed for reproducibility.
        let mut rng = StdRng::seed_from_u64(2024);
        let space = f.space();
        let cube = vec![vec![(0.0, 1.0)]; space.dim()];
        let baseline = draw_feasible(&cube, &mut rng, |u| {
            space.decode(&u).ok().filter(|c| space.is_valid(c))
        })?;
        let scores = routine_sensitivity(
            &f,
            &baseline,
            &VariationPolicy::Multiplicative {
                count,
                factor: 0.10,
            },
        )?;
        let table = scores.top_k("G3", 10).ok_or("no G3 scores")?;
        columns.push(table.rows);
    }

    println!("Top-10 sensitive variables for Group 3's output ({count} variations/parameter):\n");
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "Feature", "Case 1", "Case 2", "Case 3", "Case 4", "Case 5"
    );
    // Row set: union of all columns' features, ordered x10..x19 like the
    // paper's table.
    for p in 10..20 {
        let name = format!("x{p}");
        let mut cells = Vec::new();
        for col in &columns {
            let v = col
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| format!("{:.2}%", v * 100.0))
                .unwrap_or_else(|| "-".to_string());
            cells.push(v);
        }
        println!(
            "{:<10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            name, cells[0], cells[1], cells[2], cells[3], cells[4]
        );
    }

    println!("\nExpected shape (paper): Cases 1-2 dominated by x10-x14 (own variables);");
    println!("Case 3 balanced; Cases 4-5 dominated by x15-x19 (Group 4 variables).");

    // Verify the shape programmatically and report it.
    let mean_of = |col: &Vec<(String, f64)>, lo: usize, hi: usize| -> f64 {
        let vals: Vec<f64> = col
            .iter()
            .filter(|(n, _)| {
                let idx: usize = n[1..].parse().unwrap_or(0);
                idx >= lo && idx < hi
            })
            .map(|(_, v)| *v)
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    println!(
        "\n{:<8} {:>16} {:>16} {:>10}",
        "Case", "own (x10-14)", "cross (x15-19)", "ratio"
    );
    for (case, col) in SyntheticCase::all().iter().zip(&columns) {
        let own = mean_of(col, 10, 15);
        let cross = mean_of(col, 15, 20);
        println!(
            "{:<8} {:>15.1}% {:>15.1}% {:>10.2}",
            case.name(),
            own * 100.0,
            cross * 100.0,
            cross / own.max(1e-12)
        );
    }
    Ok(())
}
