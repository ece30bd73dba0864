//! T7 — Table VII: the final lower-dimensional search set generated by the
//! methodology for both TDDFT case studies.
//!
//! Expected structure (paper): MPI Grid (3 params), Iterations (2),
//! Group 1 (3: the cuVec2Zvec parameters), Group 2+3 (10: pair + zcopy +
//! dscal + zvec minus two parameters dropped by the 10-dim cap).

use cets_bench::banner;
use cets_core::{BoConfig, Methodology, MethodologyConfig, Objective};
use cets_tddft::{CaseStudy, TddftSimulator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner(
        "T7",
        "Final set of lower-dimensional searches (paper Table VII)",
    );
    for case in [CaseStudy::case1(), CaseStudy::case2()] {
        let sim = TddftSimulator::new(case).with_expert_constraints();
        println!("--- {} ---", sim.case().name);
        let owners = TddftSimulator::owners();
        let pairs = TddftSimulator::owner_pairs(&owners);
        let m = Methodology::new(MethodologyConfig {
            bo: BoConfig::default(),
            evals_per_dim: 10,
            ..TddftSimulator::methodology_config()
        });
        let report = m.analyze(&sim, &pairs, &sim.default_config())?;
        println!("{}", report.plan.describe());
        println!(
            "total budget: {} evaluations across {} searches\n",
            report.plan.total_budget(),
            report.plan.searches().count()
        );
    }
    println!("Paper Table VII for reference:");
    println!("  MPI Grid    3   nstb, nkpb, nspb");
    println!("  Iterations  2   nbatches, nstreams");
    println!("  Group 1     3   u_VEC, tb_sm_VEC, tb_VEC");
    println!("  Group 2+3  10   u_PAIR, tb_sm_PAIR, tb_PAIR, u_ZCOPY, tb_ZCOPY,");
    println!("                  tb_sm_ZCOPY, u_DSCAL, tb_DSCAL, tb_sm_DSCAL, u_ZVEC");
    println!("                  (tb_zvec, tb_sm_zvec dropped by the 10-dim cap)");
    Ok(())
}
