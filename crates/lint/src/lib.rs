//! # cets-lint — static analysis for CETS tuning plans
//!
//! The methodology of the paper front-loads *cheap* analysis (sensitivity,
//! influence graphs, staged plans) before any *expensive* objective
//! evaluation. This crate extends that philosophy to correctness: it
//! statically validates a whole plan bundle — search space, influence DAG,
//! staged search plan, constraints, and GP kernel configuration — **before**
//! a single HPC run is spent, and reports problems as stable, documented
//! diagnostic codes.
//!
//! ## Diagnostic code families
//!
//! | Family | Concern | Codes |
//! |--------|---------|-------|
//! | `S0xx` | search **s**pace   | `S001` duplicates, `S002` invalid domains, `S003` defaults outside domains, `S004` unsatisfiable-looking constraints, `S005` unknown references |
//! | `G0xx` | influence **g**raph / plan | `G001` dependency cycles, `G002` cut-off-orphaned tuned parameters, `G003` dimension cap violations, `G004` shared-parameter ownership |
//! | `N0xx` | **n**umerics | `N001` PSD-fragile kernels, `N002` non-finite inputs, `N003` zero-variance dimensions |
//! | `A0xx` | **a**bstract interpretation | `A001` proved-unsat plans, `A002` tautological constraints, `A003` rejection-sampling thrash risk, `A004` contractible bounds, `A005` contraction not converged, `A006` inferred relational bounds, `A007` disjoint feasible slabs, `A008` disjunctive split cap, `A009` congruence-contracted bounds, `A010` dead ordinal/categorical options, `A011` parameter forced to a single value |
//!
//! The `A`-codes come from the relational analysis engine in [`absint`]
//! (forward constraint classification, HC4-revise backward bound
//! contraction, an octagon domain for two-parameter relations,
//! disjunctive branch-and-prune over `or` constraints, and the reduced
//! product with congruence and finite-set domains) and are opt-in:
//! [`analyze`] /
//! [`Registry::with_analysis_rules`] run them, the plain [`lint`] entry
//! point does not — `A004` is advice about *optimizable* bounds, not a
//! defect, so the default gate stays quiet about it.
//!
//! See the individual modules under [`rules`] for the full story behind
//! each code, and `DESIGN.md` for the user-facing diagnostics reference.
//!
//! ## Typical use
//!
//! ```no_run
//! use cets_lint::{lint, load_path, render_human};
//!
//! let bundle = load_path(std::path::Path::new("plan.json")).unwrap();
//! let report = lint(&bundle);
//! println!("{}", render_human(&report));
//! if !report.is_clean() {
//!     std::process::exit(1);
//! }
//! ```
//!
//! ## Guarantees
//!
//! - **Total**: linting never panics, whatever the bundle contains
//!   (property-tested). Structurally broken *files* fail at
//!   [`load_str`]/[`load_path`] with `Err`, not at lint time.
//! - **Pure**: [`lint`] does no I/O and is deterministic — the same bundle
//!   always yields the same report, byte for byte.
//! - **Stable**: codes are append-only; a code is never reused for a
//!   different condition.
//!
//! ## Extending
//!
//! New rules are one file each: implement [`Lint`], add the module under
//! [`rules`], and register it in [`Registry::with_default_rules`].

pub mod absint;
pub mod bundle;
pub mod campaign;
pub mod diag;
pub mod explain;
pub mod expr;
pub mod loader;
pub mod registry;
pub mod reporter;
pub mod rules;
pub mod span;

pub use absint::Congruence;
pub use absint::{
    analyze_space, analyze_space_with, apply_contraction, wilson_interval, AnalysisOptions,
    ConstraintClass, Domain, Interval, Relation, RelationKind, SpaceAnalysis,
};
pub use bundle::{
    ConstraintSpec, KernelSpec, ParamSpec, PlanBundle, PlanSpec, SearchSpec, UnresolvedRef,
};
pub use campaign::{validate_campaign, CAMPAIGN_CODES};
pub use diag::{Diagnostic, Location, Severity};
pub use explain::{explain, render_explain, CodeEntry, CODES};
pub use loader::{load_path, load_str, rewrite_contracted};
pub use registry::{analyze, analyze_with, lint, Lint, Registry, Report};
pub use reporter::{render_human, render_json, render_sarif};
pub use span::{index_spans, Span, SpanTable};
