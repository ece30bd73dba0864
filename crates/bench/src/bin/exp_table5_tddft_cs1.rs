//! T5 — Table V: per-routine sensitivity (top-10) on RT-TDDFT Case Study 1
//! (Mg-porphyrin): Group 1, Group 2, Group 3 and the Slater-determinant
//! region.
//!
//! Protocol (paper Section VIII): fixed baseline, five individual
//! variations per parameter spread across each parameter's domain.

use cets_bench::{banner, tddft_sensitivity_table};
use cets_tddft::{CaseStudy, TddftSimulator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner(
        "T5",
        "Per-routine sensitivity, TDDFT Case Study 1 (paper Table V)",
    );
    tddft_sensitivity_table(TddftSimulator::new(CaseStudy::case1()))
}
