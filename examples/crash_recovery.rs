//! Crash recovery: interrupt a BO search, then resume it from its
//! checkpoint log without repeating any application evaluation — the
//! GPTune feature the paper relied on, reproduced in CETS.
//!
//! ```text
//! cargo run --release --example crash_recovery
//! ```

use cets::core::{BoCheckpoint, BoConfig, BoSearch, Objective};
use cets::space::Subspace;
use cets::synthetic::{SyntheticCase, SyntheticFunction};

fn main() {
    let f = SyntheticFunction::new(SyntheticCase::Case2);
    let sub = Subspace::full(f.space(), f.default_config()).expect("subspace");
    let ckpt_path = std::env::temp_dir().join("cets_crash_recovery_demo.ckpt");

    // Phase 1: a search configured for 60 evaluations "crashes" after 20
    // (we emulate the crash by giving it a 20-eval budget; the checkpoint
    // log gains one synced frame per evaluation either way, so a real
    // crash would leave every finished evaluation in it).
    println!("phase 1: running with checkpointing, interrupting after 20 evaluations...");
    let interrupted = BoSearch::new(BoConfig {
        max_evals: 20,
        seed: 2024,
        checkpoint_path: Some(ckpt_path.clone()),
        ..Default::default()
    })
    .run(&sub, |cfg| f.evaluate(cfg).total)
    .expect("phase 1");
    println!(
        "  incumbent after interruption: {:.3} ({} evals)",
        interrupted.best_value, interrupted.n_evals
    );

    // Phase 2: a fresh process would load the checkpoint and continue,
    // appending to the same log.
    let ckpt = BoCheckpoint::load(&ckpt_path).expect("checkpoint exists");
    println!(
        "phase 2: loaded checkpoint with {} completed evaluations, resuming to 60...",
        ckpt.n_evals()
    );
    let resumed = BoSearch::new(BoConfig {
        max_evals: 60,
        seed: 2024,
        checkpoint_path: Some(ckpt_path.clone()),
        ..Default::default()
    })
    .resume(&sub, |cfg| f.evaluate(cfg).total, &ckpt)
    .expect("phase 2");

    println!(
        "  final best: {:.3} ({} total evals, {} new)",
        resumed.best_value,
        resumed.n_evals,
        resumed.n_evals - ckpt.n_evals()
    );
    assert!(resumed.best_value <= interrupted.best_value);
    std::fs::remove_file(&ckpt_path).ok();
    println!("done: no evaluation was repeated, the incumbent only improved.");
}
