//! T6 — Table VI: per-routine sensitivity (top-10) on RT-TDDFT Case
//! Study 2 (hBN slab). Same protocol as Table V; the k-point-rich system
//! shifts weight toward `nkpb`/`nbatches` in the Slater column.

use cets_bench::{banner, tddft_sensitivity_table};
use cets_tddft::{CaseStudy, TddftSimulator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner(
        "T6",
        "Per-routine sensitivity, TDDFT Case Study 2 (paper Table VI)",
    );
    tddft_sensitivity_table(TddftSimulator::new(CaseStudy::case2()))
}
