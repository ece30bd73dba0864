//! The configuration-database workflow: tune Case Study 1, persist every
//! evaluation to a JSON database, then warm-start Case Study 2's merged
//! kernel search from it — the paper's transfer-learning setup as a
//! day-to-day workflow.
//!
//! ```text
//! cargo run --release --example database_transfer
//! ```

use cets::core::{BoConfig, BoSearch, Database, Methodology, MethodologyConfig, Objective};
use cets::space::Subspace;
use cets::tddft::{CaseStudy, TddftSimulator};

fn main() {
    let db_path = std::env::temp_dir().join("cets_cs1_database.json");

    // --- Session 1: tune Case Study 1 and persist its database.
    let cs1 = TddftSimulator::new(CaseStudy::case1()).with_expert_constraints();
    let methodology = Methodology::new(MethodologyConfig {
        bo: BoConfig {
            seed: 17,
            ..Default::default()
        },
        evals_per_dim: 6,
        record_database: true,
        ..TddftSimulator::methodology_config()
    });
    let owners = TddftSimulator::owners();
    let pairs = TddftSimulator::owner_pairs(&owners);
    let (_, exec) = methodology
        .run(&cs1, &pairs, &cs1.default_config())
        .expect("CS1 tuning");
    let database = exec.database.expect("recorded database");
    database.save(&db_path).expect("persist database");
    println!(
        "session 1: tuned {} to {:.4}s with {} evaluations; database saved ({} records)",
        cs1.case().name,
        exec.final_value,
        exec.total_evals,
        database.len()
    );

    // --- Session 2 (could be days later / another process): load the
    // database and warm-start Case Study 2's merged kernel search.
    let cs2 = TddftSimulator::new(CaseStudy::case2()).with_expert_constraints();
    let db = Database::load(&db_path, Some(&cs1)).expect("load database");
    println!(
        "session 2: loaded {} records; best prior total {:.4}s",
        db.len(),
        db.best().expect("non-empty").total
    );

    let kernel_params = [
        "u_pair",
        "tb_pair",
        "tb_sm_pair",
        "u_zcopy",
        "tb_zcopy",
        "tb_sm_zcopy",
        "u_dscal",
        "tb_dscal",
        "tb_sm_dscal",
        "u_zvec",
    ];
    let sub2 =
        Subspace::new(cs2.space(), &kernel_params, cs2.default_config()).expect("CS2 subspace");
    let g2g3 = |cfg: &cets::space::Config| {
        let o = cs2.evaluate(cfg);
        o.routines[1] + o.routines[2]
    };
    let seed_pool = db.to_transfer_seed();
    let warm_history = seed_pool.seed_history(&sub2, g2g3, 5);
    println!(
        "re-evaluated {} prior champions on {}",
        warm_history.len(),
        cs2.case().name
    );

    let warm = BoSearch::new(BoConfig {
        max_evals: 60,
        seed: 18,
        ..Default::default()
    })
    .run_with_history(&sub2, g2g3, warm_history)
    .expect("warm search");

    // Cold search at the same budget for reference.
    let cold = BoSearch::new(BoConfig {
        max_evals: 60,
        seed: 18,
        ..Default::default()
    })
    .run(&sub2, g2g3)
    .expect("cold search");

    println!(
        "CS2 merged kernel search (60 evals): warm {:.5}s vs cold {:.5}s",
        warm.best_value, cold.best_value
    );
    std::fs::remove_file(&db_path).ok();
}
