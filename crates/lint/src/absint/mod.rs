//! Abstract-interpretation feasibility engine.
//!
//! The paper's Step 1 constrains the search space with domain knowledge
//! *before* spending any compute budget. This module answers the semantic
//! questions the structural linter cannot: is the constrained space
//! actually non-empty, which constraints are dead weight, and how much can
//! the box bounds be tightened statically?
//!
//! The layers:
//!
//! * [`interval`] — the interval domain with NaN-poisoning;
//! * [`mod@contract`] — forward evaluation over [`crate::expr::Expr`] and
//!   HC4-revise backward bound contraction to a fixpoint;
//! * [`octagon`] — the relational octagon domain (`±x ± y ≤ c`
//!   difference-bound matrices with closure), which proves joint
//!   emptiness and two-variable bounds the interval domain cannot see;
//! * [`congruence`] — the Granger congruence domain (`x ≡ r mod m`),
//!   reduced against the intervals so divisor constraints like
//!   `n % nb == 0` snap bounds to the multiples grid;
//! * the finite-set pass (this module) — exact feasible value subsets
//!   for `Ordinal`/`Categorical` parameters, probing each declared
//!   value against every disjunctive branch;
//! * [`split`] — disjunctive branch-and-prune over `Or` nodes, joining
//!   per-branch fixpoints into unions of feasible slabs;
//! * this module — the [`analyze_space`] / [`analyze_space_with`] driver
//!   that classifies every constraint (*proved-unsat* / *tautological* /
//!   *contingent*), runs the contraction in the configured [`Domain`],
//!   estimates the feasible fraction, and derives tightened
//!   [`ParamDef`]s for the `--contract` rewriting and the `cets-core`
//!   pre-pass.
//!
//! The findings surface as diagnostics `A001`–`A011` via
//! [`crate::rules::feasibility`] and the `cets analyze` subcommand.

pub mod congruence;
pub mod contract;
pub mod interval;
pub mod octagon;
pub mod split;

pub use congruence::Congruence;
pub use contract::{
    contract, contract_from, eval_expr, initial_interval, snap, Contraction, CONVERGENCE_EPS,
    ITER_CAP,
};
pub use interval::Interval;
pub use octagon::{octagonal_atoms, OctAtom, Octagon};
pub use split::{dnf_branches, SPLIT_CAP};

use crate::bundle::PlanBundle;
use crate::expr;
use cets_space::ParamDef;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Which abstract domain the analysis runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Domain {
    /// Non-relational interval contraction only — the PR 2 behaviour,
    /// kept as an escape hatch and comparison axis (`--domain interval`).
    Interval,
    /// Relational analysis: interval contraction per disjunctive branch,
    /// refined by the octagon domain, joined into slab unions.
    Octagon,
    /// The reduced product: octagon-refined branches further reduced by
    /// the congruence domain (divisor grids) and the finite-set pass
    /// (exact ordinal/categorical value subsets).
    #[default]
    Product,
}

impl Domain {
    /// CLI / report label.
    pub fn label(&self) -> &'static str {
        match self {
            Domain::Interval => "interval",
            Domain::Octagon => "octagon",
            Domain::Product => "product",
        }
    }

    /// Does this domain split disjunctions and run the octagon closure?
    fn relational(&self) -> bool {
        matches!(self, Domain::Octagon | Domain::Product)
    }
}

/// Knobs for [`analyze_space_with`].
#[derive(Debug, Clone, Copy)]
pub struct AnalysisOptions {
    /// Abstract domain (default: [`Domain::Product`]).
    pub domain: Domain,
    /// Branch cap for disjunctive splitting (default: [`SPLIT_CAP`]).
    pub split_cap: usize,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            domain: Domain::default(),
            split_cap: SPLIT_CAP,
        }
    }
}

/// The two relation shapes the octagon domain reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RelationKind {
    /// `a + b` bounded.
    Sum,
    /// `a - b` bounded.
    Diff,
}

/// A proven two-variable bound that is strictly tighter than what the
/// contracted per-variable boxes already imply.
#[derive(Debug, Clone)]
pub struct Relation {
    /// First parameter name.
    pub a: String,
    /// Second parameter name.
    pub b: String,
    /// Sum or difference.
    pub kind: RelationKind,
    /// `true`: `a ∘ b ≤ bound`; `false`: `a ∘ b ≥ bound`.
    pub upper: bool,
    /// The proven bound.
    pub bound: f64,
    /// `true` when the bound was *inferred* (closure combination, product
    /// relaxation) rather than restated from a literal linear constraint;
    /// only inferred relations surface as `A006`.
    pub inferred: bool,
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.kind {
            RelationKind::Sum => "+",
            RelationKind::Diff => "-",
        };
        let cmp = if self.upper { "<=" } else { ">=" };
        // The stored bound carries the directed-rounding slack of the
        // closure; displaying `544.0000000010884` for an exactly-integral
        // relation is noise, so shave sub-slack dust off the rendering
        // (the stored value stays sound).
        let b = self.bound;
        let rounded = b.round();
        let shown = if (b - rounded).abs() <= 1e-6 * rounded.abs().max(1.0) {
            rounded
        } else {
            b
        };
        write!(f, "{} {op} {} {cmp} {}", self.a, self.b, shown)
    }
}

/// Forward classification of one constraint over the original box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintClass {
    /// No point of the box satisfies it: the plan is dead on arrival.
    ProvedUnsat,
    /// Every point of the box satisfies it: the constraint is dead weight.
    Tautology,
    /// Satisfied by some points and not others (the interesting case).
    Contingent,
}

impl ConstraintClass {
    /// Human label used in diagnostics and reports.
    pub fn label(&self) -> &'static str {
        match self {
            ConstraintClass::ProvedUnsat => "proved-unsat",
            ConstraintClass::Tautology => "tautological",
            ConstraintClass::Contingent => "contingent",
        }
    }
}

/// Per-parameter outcome of the contraction.
#[derive(Debug, Clone)]
pub struct ParamInterval {
    /// Parameter name.
    pub name: String,
    /// Interval spanned by the declared domain.
    pub original: Interval,
    /// Interval after backward contraction (always ⊆ `original`).
    pub contracted: Interval,
    /// The feasible region as a sorted union of disjoint slabs — the
    /// branch-and-prune join before hulling. Always covers `contracted`'s
    /// endpoints; a single entry equal to `contracted` when no
    /// disjunction splits this parameter; empty when the box is proved
    /// empty.
    pub slabs: Vec<Interval>,
    /// A tightened domain definition, when the contraction strictly
    /// narrowed this parameter *and* the narrowing is expressible.
    /// Ordinal value lists shrink to the exact surviving subset;
    /// categorical option lists are only rewritten when the surviving
    /// indices form a *prefix* of the declared list (dropping a tail
    /// never renumbers the indices constraints refer to — anything else
    /// would); degenerate real intervals cannot form a valid `Real`
    /// domain.
    pub tightened: Option<ParamDef>,
    /// Congruence fact proved for this (integer) parameter under
    /// [`Domain::Product`]: the feasible values lie on the grid
    /// `m·ℤ + r`, stride `m ≥ 2`. Drives the `A009` diagnostic.
    pub stride: Option<(u64, u64)>,
    /// Exact feasible value subset (indices into the declared
    /// ordinal-value / categorical-option list) proved by the finite-set
    /// pass under [`Domain::Product`]; `None` for non-finite kinds,
    /// other domains, or lists past the probe cap. Drives `A010`/`A011`
    /// and the set-restricted slab machinery.
    pub kept: Option<Vec<usize>>,
}

impl ParamInterval {
    /// Did contraction strictly shrink this parameter's interval?
    pub fn narrowed(&self) -> bool {
        !self.contracted.is_empty_range()
            && (self.contracted.lo > self.original.lo || self.contracted.hi < self.original.hi)
    }
}

/// Per-constraint outcome.
#[derive(Debug, Clone)]
pub struct ConstraintAnalysis {
    /// Constraint name.
    pub name: String,
    /// Forward classification over the original box.
    pub class: ConstraintClass,
    /// Forward value interval over the original box.
    pub value: Interval,
}

/// Deterministic Monte-Carlo cross-check of the feasible fraction.
///
/// The interval product [`SpaceAnalysis::feasible_fraction`] is a sound
/// *upper bound* per axis but forgets correlations between constraints; a
/// few thousand fixed-seed probes give an unbiased point estimate with a
/// quantified uncertainty. The [`wilson_interval`] bounds are what the
/// `A003` diagnostic reports, so a CI gate near the threshold can judge
/// whether the estimate is precise enough to act on rather than flapping
/// on a bare point value. Probing is seeded with a constant
/// ([SplitMix64](https://prng.di.unimi.it/splitmix64.c) stream), so the
/// estimate is a pure function of the bundle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct McFeasibility {
    /// Number of uniform probes drawn from the declared box.
    pub probes: u64,
    /// Probes satisfying every analyzable constraint.
    pub hits: u64,
    /// Point estimate `hits / probes`.
    pub estimate: f64,
    /// Lower 95 % Wilson bound.
    pub ci_lo: f64,
    /// Upper 95 % Wilson bound.
    pub ci_hi: f64,
}

/// The full result of [`analyze_space`].
#[derive(Debug, Clone)]
pub struct SpaceAnalysis {
    /// False when the bundle is in `S001`/`S002` error territory
    /// (duplicate parameters or invalid domains): interval analysis over
    /// a malformed box would be meaningless, so everything else is empty.
    pub analyzed: bool,
    /// Per-parameter intervals, in declaration order.
    pub params: Vec<ParamInterval>,
    /// Per-constraint classification, in declaration order (only
    /// constraints that parse and reference declared parameters).
    pub constraints: Vec<ConstraintAnalysis>,
    /// Constraints skipped as unparseable or with unknown references
    /// (those belong to `S004`/`S005`).
    pub skipped_constraints: usize,
    /// The constraint conjunction has no satisfying point in the box.
    pub proved_empty: bool,
    /// Fixpoint passes executed by the contraction.
    pub iterations: usize,
    /// Did the contraction converge before [`ITER_CAP`]?
    pub converged: bool,
    /// Contracted box volume / original box volume (product of per-axis
    /// measure ratios; `0` when proved empty, `1` with no contraction).
    /// A tiny value predicts rejection-sampling thrash.
    pub feasible_fraction: f64,
    /// The abstract domain the analysis ran in.
    pub domain: Domain,
    /// Two-variable bounds proved by the octagon domain that are strictly
    /// tighter than the contracted boxes imply. Empty under
    /// [`Domain::Interval`].
    pub relations: Vec<Relation>,
    /// Disjunctive branches explored (1 when nothing split).
    pub split_branches: usize,
    /// Did branch expansion hit the [`AnalysisOptions::split_cap`]? When
    /// true some disjunction was analysed with the sound-but-loose hull
    /// (diagnostic `A008`).
    pub split_capped: bool,
}

impl SpaceAnalysis {
    /// The tightened domain of `name`, when contraction narrowed it.
    pub fn tightened_def(&self, name: &str) -> Option<&ParamDef> {
        self.params
            .iter()
            .find(|p| p.name == name)
            .and_then(|p| p.tightened.as_ref())
    }

    /// Any parameter strictly narrowed?
    pub fn any_narrowed(&self) -> bool {
        self.params.iter().any(|p| p.narrowed())
    }
}

/// Measure of a snapped interval under a domain: width for reals, value
/// count for discrete domains. Used for the feasible-fraction estimate.
fn measure(def: &ParamDef, iv: &Interval) -> f64 {
    if iv.is_empty_range() {
        return 0.0;
    }
    match def {
        ParamDef::Real { .. } => iv.width(),
        ParamDef::Integer { .. } | ParamDef::Categorical { .. } => {
            (iv.hi.floor() - iv.lo.ceil() + 1.0).max(0.0)
        }
        ParamDef::Ordinal { values } => values.iter().filter(|v| iv.contains(**v)).count() as f64,
    }
}

/// Derive a tightened [`ParamDef`] from a contracted interval and (for
/// finite kinds) the finite-set pass's surviving indices, when the
/// narrowing is expressible. See [`ParamInterval::tightened`].
fn tightened_def(
    def: &ParamDef,
    contracted: &Interval,
    kept: Option<&[usize]>,
) -> Option<ParamDef> {
    if contracted.is_empty_range() {
        return None;
    }
    match def {
        ParamDef::Real { .. } => {
            if contracted.lo < contracted.hi
                && contracted.lo.is_finite()
                && contracted.hi.is_finite()
            {
                Some(ParamDef::Real {
                    lo: contracted.lo,
                    hi: contracted.hi,
                })
            } else {
                None // degenerate: a point is not a valid Real domain
            }
        }
        ParamDef::Integer { .. } => Some(ParamDef::Integer {
            lo: contracted.lo as i64,
            hi: contracted.hi as i64,
        }),
        ParamDef::Ordinal { values } => {
            // Ordinal constraints are by *value*, so any subset is
            // expressible: the exact surviving set when the finite-set
            // pass ran, the contracted hull's members otherwise.
            let survivors: Vec<f64> = match kept {
                Some(idx) => idx.iter().filter_map(|&k| values.get(k).copied()).collect(),
                None => values
                    .iter()
                    .copied()
                    .filter(|v| contracted.contains(*v))
                    .collect(),
            };
            if survivors.is_empty() {
                None
            } else {
                Some(ParamDef::Ordinal { values: survivors })
            }
        }
        // Categorical constraints are by option *index*: only dropping a
        // suffix keeps the surviving indices stable, so rewrite exactly
        // when the finite-set pass proved the survivors form a prefix.
        ParamDef::Categorical { options } => {
            let idx = kept?;
            if idx.is_empty() || idx.len() >= options.len() {
                return None;
            }
            if idx.iter().enumerate().any(|(pos, &k)| pos != k) {
                return None; // holes would renumber survivors
            }
            Some(ParamDef::Categorical {
                options: options[..idx.len()].to_vec(),
            })
        }
    }
}

/// Largest finite domain the finite-set pass probes exhaustively. Each
/// value costs one contraction per branch; tuning enums are small, so a
/// cap of 32 covers them all without risking quadratic blowup.
pub const FINITE_PROBE_CAP: usize = 32;

/// The declared value list of a finite parameter kind: ordinal values as
/// written, categorical options as indices `0..k`. `None` for the
/// unbounded kinds (Real, Integer).
fn finite_values(def: &ParamDef) -> Option<Vec<f64>> {
    match def {
        ParamDef::Ordinal { values } => Some(values.clone()),
        ParamDef::Categorical { options } => Some((0..options.len()).map(|i| i as f64).collect()),
        ParamDef::Real { .. } | ParamDef::Integer { .. } => None,
    }
}

/// Count the integers in `iv` congruent to `r` mod `m` — the counting
/// measure of a strided integer slab.
fn count_congruent(iv: &Interval, m: u64, r: u64) -> f64 {
    let t = Congruence::Grid { m, r }.tighten(iv);
    if t.is_empty_range() {
        return 0.0;
    }
    ((t.hi - t.lo) / m as f64).floor() + 1.0
}

/// [`analyze_space_with`] under [`AnalysisOptions::default`] — the
/// reduced product of octagons, congruences, and finite sets, with
/// disjunctive branch-and-prune.
pub fn analyze_space(bundle: &PlanBundle) -> SpaceAnalysis {
    analyze_space_with(bundle, &AnalysisOptions::default())
}

/// Run the feasibility analysis over a bundle: classify every analyzable
/// constraint forward, contract the box backward (per disjunctive branch,
/// octagon-refined under [`Domain::Octagon`]), and estimate the feasible
/// fraction. Total and deterministic; does no I/O.
pub fn analyze_space_with(bundle: &PlanBundle, opts: &AnalysisOptions) -> SpaceAnalysis {
    let mut out = SpaceAnalysis {
        analyzed: true,
        params: Vec::new(),
        constraints: Vec::new(),
        skipped_constraints: 0,
        proved_empty: false,
        iterations: 0,
        converged: true,
        feasible_fraction: 1.0,
        domain: opts.domain,
        relations: Vec::new(),
        split_branches: 1,
        split_capped: false,
    };

    // Bail out of S001/S002 territory: duplicate names or invalid domains
    // make the box meaningless.
    let mut seen = BTreeSet::new();
    for p in &bundle.params {
        if !seen.insert(p.name.as_str()) || initial_interval(&p.def).is_none() {
            out.analyzed = false;
            return out;
        }
    }

    // Parse what we can; unknown references belong to S005, parse
    // failures to nobody (the linter only reasons about what it
    // understands).
    let mut exprs: Vec<(&str, expr::Expr)> = Vec::new();
    for c in &bundle.constraints {
        match expr::parse(&c.expr) {
            Ok(e) if e.vars().iter().all(|v| bundle.has_param(v)) => {
                exprs.push((c.name.as_str(), e));
            }
            _ => out.skipped_constraints += 1,
        }
    }

    // Initial box.
    let param_refs: Vec<(&str, &ParamDef)> = bundle
        .params
        .iter()
        .map(|p| (p.name.as_str(), &p.def))
        .collect();
    let initial: Vec<Interval> = bundle
        .params
        .iter()
        .map(|p| initial_interval(&p.def).unwrap_or_else(Interval::top))
        .collect();

    // Forward classification over the original box.
    let env0: std::collections::BTreeMap<String, Interval> = bundle
        .params
        .iter()
        .zip(&initial)
        .map(|(p, iv)| (p.name.clone(), *iv))
        .collect();
    let mut any_unsat = false;
    for (name, e) in &exprs {
        let v = eval_expr(e, &env0);
        let class = if !v.can_be_nonzero_real() {
            any_unsat = true;
            ConstraintClass::ProvedUnsat
        } else if !v.maybe_nan && !v.can_be_zero() {
            ConstraintClass::Tautology
        } else {
            ConstraintClass::Contingent
        };
        out.constraints.push(ConstraintAnalysis {
            name: (*name).to_string(),
            class,
            value: v,
        });
    }

    // Backward contraction, per disjunctive branch (an unsat constraint
    // empties the box at once; a branch that contracts to empty is
    // pruned; the survivors join into slab unions).
    let expr_refs: Vec<&expr::Expr> = exprs.iter().map(|(_, e)| e).collect();
    let (branches, capped) = if opts.domain.relational() {
        split::dnf_branches(&expr_refs, opts.split_cap.max(1))
    } else {
        (
            vec![expr_refs.iter().map(|e| (*e).clone()).collect::<Vec<_>>()],
            false,
        )
    };
    out.split_capped = capped;
    out.split_branches = branches.len();

    let name_idx: BTreeMap<&str, usize> = bundle
        .params
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name.as_str(), i))
        .collect();
    let mut branch_data: Vec<(Vec<&expr::Expr>, BTreeMap<String, Interval>)> = Vec::new();
    let mut branch_congs: Vec<BTreeMap<String, Congruence>> = Vec::new();
    let mut joined_oct: Option<Octagon> = None;
    let mut stated: BTreeMap<StatedKey, f64> = BTreeMap::new();
    let mut all_converged = true;
    for br in &branches {
        let refs: Vec<&expr::Expr> = br.iter().collect();
        let c = contract(&param_refs, &refs);
        out.iterations = out.iterations.max(c.iterations);
        all_converged &= c.converged;
        if c.proved_empty {
            continue;
        }
        let mut env = c.env;
        if opts.domain.relational() {
            match octagon_refine(&param_refs, &name_idx, &refs, env, &mut stated) {
                Some((refined, oct)) => {
                    env = refined;
                    match &mut joined_oct {
                        Some(j) => j.join_with(&oct),
                        None => joined_oct = Some(oct),
                    }
                }
                None => continue, // octagon proved the branch empty
            }
        }
        let congs = if opts.domain == Domain::Product {
            match congruence::refine_branch(&param_refs, &refs, &mut env) {
                Some(f) => f,
                None => continue, // no residue fits the branch box
            }
        } else {
            BTreeMap::new()
        };
        branch_congs.push(congs);
        branch_data.push((refs, env));
    }
    out.converged = all_converged;
    out.proved_empty = any_unsat || branch_data.is_empty();

    // Finite-set pass (product domain only): probe every declared
    // ordinal value / categorical option against every surviving branch.
    // A value survives a branch when pinning it there neither empties
    // the interval contraction nor the congruence reduction. A
    // parameter left with no surviving value proves the space empty.
    let mut kept_sets: Vec<Option<Vec<usize>>> = vec![None; bundle.params.len()];
    if opts.domain == Domain::Product && !out.proved_empty {
        for (pi, p) in bundle.params.iter().enumerate() {
            let Some(values) = finite_values(&p.def) else {
                continue;
            };
            if values.is_empty() || values.len() > FINITE_PROBE_CAP {
                continue;
            }
            let referenced = exprs.iter().any(|(_, e)| e.vars().contains(&p.name));
            let mut alive = vec![false; values.len()];
            for (refs, env) in &branch_data {
                let biv = env.get(&p.name).copied().unwrap_or_else(Interval::top);
                for (k, &v) in values.iter().enumerate() {
                    if alive[k] || !biv.contains(v) {
                        continue;
                    }
                    if !referenced {
                        alive[k] = true;
                        continue;
                    }
                    let mut probe = env.clone();
                    probe.insert(p.name.clone(), Interval::point(v));
                    let c = contract_from(probe, &param_refs, refs);
                    if c.proved_empty {
                        continue;
                    }
                    let mut cenv = c.env;
                    if congruence::refine_branch(&param_refs, refs, &mut cenv).is_none() {
                        continue;
                    }
                    alive[k] = true;
                }
            }
            let idx: Vec<usize> = (0..values.len()).filter(|&k| alive[k]).collect();
            if idx.is_empty() {
                out.proved_empty = true;
            }
            kept_sets[pi] = Some(idx);
        }
    }

    // Per-parameter outcomes + feasible fraction (slab-union measures:
    // disjoint slabs of one axis sum, so `a <= 1 || a >= 9` over {0..10}
    // measures 4/11, not the vacuous 1).
    let mut fraction = 1.0;
    for (pi, (p, orig)) in bundle.params.iter().zip(&initial).enumerate() {
        let kept = if out.proved_empty {
            None
        } else {
            kept_sets[pi].take()
        };
        let mut slabs = if out.proved_empty {
            Vec::new()
        } else {
            split::merge_slabs(
                Some(&p.def),
                branch_data
                    .iter()
                    .map(|(_, env)| env.get(&p.name).copied().unwrap_or(*orig))
                    .collect(),
            )
        };
        // Set-restricted slabs: when strictly fewer values survive than
        // the merged slabs admit, the feasible region is the union of
        // the surviving points. (The strictness gate keeps analyses
        // without finite-set facts producing byte-identical slabs.)
        if let Some(idx) = &kept {
            if let Some(values) = finite_values(&p.def) {
                let admitted = values
                    .iter()
                    .filter(|v| slabs.iter().any(|s| s.contains(**v)))
                    .count();
                if idx.len() < admitted {
                    slabs = split::merge_slabs(
                        Some(&p.def),
                        idx.iter().map(|&k| Interval::point(values[k])).collect(),
                    );
                }
            }
        }
        let contracted = slabs
            .iter()
            .fold(Interval::bottom(), |acc, iv| acc.join(iv));
        // Congruence stride for integer parameters: the join of every
        // surviving branch's fact (sound for the union of branches).
        let stride = if matches!(p.def, ParamDef::Integer { .. }) && !out.proved_empty {
            branch_congs
                .iter()
                .map(|f| f.get(&p.name).copied().unwrap_or(Congruence::Top))
                .reduce(|a, b| a.join(&b))
                .and_then(|c| c.as_stride())
        } else {
            None
        };
        let m_orig = measure(&p.def, orig);
        let m_new: f64 = match stride {
            // A stride counts only the congruent points of each slab —
            // `n % 256 == 0` over [1, 100000] measures 390, not 99585.
            Some((m, r)) => slabs.iter().map(|s| count_congruent(s, m, r)).sum(),
            None => slabs.iter().map(|s| measure(&p.def, s)).sum(),
        };
        if m_orig > 0.0 {
            fraction *= (m_new / m_orig).clamp(0.0, 1.0);
        } else if m_new == 0.0 {
            fraction = 0.0;
        }
        let kept_strict = kept
            .as_ref()
            .zip(finite_values(&p.def))
            .is_some_and(|(idx, values)| idx.len() < values.len());
        let tightened = if !out.proved_empty
            && ((contracted.lo > orig.lo || contracted.hi < orig.hi) || kept_strict)
        {
            tightened_def(&p.def, &contracted, kept.as_deref())
        } else {
            None
        };
        out.params.push(ParamInterval {
            name: p.name.clone(),
            original: *orig,
            contracted,
            slabs,
            tightened,
            stride,
            kept,
        });
    }
    out.feasible_fraction = if out.proved_empty { 0.0 } else { fraction };

    // Relational findings: pair bounds from the joined octagon that beat
    // what the contracted boxes already imply.
    if let Some(oct) = &joined_oct {
        if !out.proved_empty {
            out.relations = build_relations(oct, &out.params, &stated);
        }
    }
    out
}

/// Fixed-seed Monte-Carlo estimate of the fraction of the declared box
/// satisfying every analyzable constraint, with its Wilson confidence
/// interval — the cross-check diagnostic `A003` reports when it fires.
/// `None` when there is no analyzable constraint to probe (the fraction
/// is then exactly `1`) or some domain is invalid (`S002` territory).
pub(crate) fn mc_feasibility(bundle: &PlanBundle) -> Option<McFeasibility> {
    if bundle
        .params
        .iter()
        .any(|p| initial_interval(&p.def).is_none())
    {
        return None;
    }
    let exprs: Vec<expr::Expr> = bundle
        .constraints
        .iter()
        .filter_map(|c| expr::parse(&c.expr).ok())
        .filter(|e| e.vars().iter().all(|v| bundle.has_param(v)))
        .collect();
    if exprs.is_empty() {
        return None;
    }
    let defs: Vec<(&str, &ParamDef)> = bundle
        .params
        .iter()
        .map(|p| (p.name.as_str(), &p.def))
        .collect();
    Some(mc_feasible_fraction(&defs, &exprs, MC_PROBES))
}

/// Canonical key for a directly-stated two-variable bound:
/// `(lower-index param, higher-index param, kind, is-upper-bound)`.
type StatedKey = (usize, usize, RelationKind, bool);

/// Record a literally-stated (non-derived) two-variable atom in canonical
/// form, keeping the tightest bound per direction. Used to distinguish
/// *inferred* relations (reportable as `A006`) from restatements.
fn record_stated(stated: &mut BTreeMap<StatedKey, f64>, atom: &OctAtom) {
    let OctAtom::Two {
        i,
        si,
        j,
        sj,
        c,
        derived,
    } = *atom
    else {
        return;
    };
    if derived {
        return;
    }
    // si·x_i + sj·x_j ≤ c, canonicalised onto the (min, max) index pair.
    let (p, q, kind, upper, bound) = match (si > 0, sj > 0) {
        (true, true) => (i.min(j), i.max(j), RelationKind::Sum, true, c),
        (false, false) => (i.min(j), i.max(j), RelationKind::Sum, false, -c),
        (true, false) if i < j => (i, j, RelationKind::Diff, true, c),
        (true, false) => (j, i, RelationKind::Diff, false, -c),
        (false, true) if j < i => (j, i, RelationKind::Diff, true, c),
        (false, true) => (i, j, RelationKind::Diff, false, -c),
    };
    let slot = stated.entry((p, q, kind, upper)).or_insert(if upper {
        f64::INFINITY
    } else {
        f64::NEG_INFINITY
    });
    *slot = if upper {
        slot.min(bound)
    } else {
        slot.max(bound)
    };
}

/// One branch's octagon pass: encode the branch box and its octagonal
/// atoms, close, and meet the derived per-variable intervals back into
/// the interval environment. `None` when the octagon proves the branch
/// empty.
fn octagon_refine(
    param_refs: &[(&str, &ParamDef)],
    name_idx: &BTreeMap<&str, usize>,
    exprs: &[&expr::Expr],
    mut env: BTreeMap<String, Interval>,
    stated: &mut BTreeMap<StatedKey, f64>,
) -> Option<(BTreeMap<String, Interval>, Octagon)> {
    let bounds: Vec<Interval> = param_refs
        .iter()
        .map(|(n, _)| env.get(*n).copied().unwrap_or_else(Interval::top))
        .collect();
    let mut oct = Octagon::from_box(&bounds);
    for e in exprs {
        for atom in octagonal_atoms(e, name_idx, &bounds) {
            record_stated(stated, &atom);
            oct.add_atom(&atom);
        }
    }
    oct.close();
    if oct.is_empty() {
        return None;
    }
    for (k, (name, def)) in param_refs.iter().enumerate() {
        if let Some(slot) = env.get_mut(*name) {
            let refined = snap(def, slot.meet(&oct.var_interval(k)));
            if refined.is_empty_range() {
                return None;
            }
            *slot = refined;
        }
    }
    Some((env, oct))
}

/// Relative tolerance for "strictly tighter" comparisons between derived
/// and implied bounds (absorbs the outward soundness slack).
fn rel_tol(x: f64) -> f64 {
    1e-9 * x.abs().max(1.0)
}

/// Extract the pair relations of the joined octagon that are strictly
/// tighter than the contracted per-variable boxes imply.
fn build_relations(
    oct: &Octagon,
    params: &[ParamInterval],
    stated: &BTreeMap<StatedKey, f64>,
) -> Vec<Relation> {
    let mut out = Vec::new();
    let n = params.len().min(oct.vars());
    for p in 0..n {
        for q in (p + 1)..n {
            let (bp, bq) = (&params[p].contracted, &params[q].contracted);
            if bp.is_empty_range() || bq.is_empty_range() {
                continue;
            }
            let mut push = |kind: RelationKind, upper: bool, bound: f64, implied: f64| {
                if !bound.is_finite() {
                    return;
                }
                let tighter_than_implied = if upper {
                    bound < implied - rel_tol(implied)
                } else {
                    bound > implied + rel_tol(implied)
                };
                if !tighter_than_implied {
                    return;
                }
                let inferred = match stated.get(&(p, q, kind, upper)) {
                    Some(s) if upper => bound < s - rel_tol(*s),
                    Some(s) => bound > s + rel_tol(*s),
                    None => true,
                };
                out.push(Relation {
                    a: params[p].name.clone(),
                    b: params[q].name.clone(),
                    kind,
                    upper,
                    bound,
                    inferred,
                });
            };
            let sum = oct.sum_bound(p, q);
            push(RelationKind::Sum, true, sum.hi, bp.hi + bq.hi);
            push(RelationKind::Sum, false, sum.lo, bp.lo + bq.lo);
            let diff = oct.diff_bound(p, q);
            push(RelationKind::Diff, true, diff.hi, bp.hi - bq.lo);
            push(RelationKind::Diff, false, diff.lo, bp.lo - bq.hi);
        }
    }
    out
}

/// Probes drawn by the Monte-Carlo cross-check ([`mc_feasibility`]).
pub(crate) const MC_PROBES: u64 = 4096;

/// SplitMix64 — a tiny, seedable, allocation-free generator, so the
/// linter's probe streams need no RNG dependency and are identical on
/// every run.
pub(crate) struct SplitMix64(pub(crate) u64);

impl SplitMix64 {
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)` on the 53-bit grid.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Fixed-seed Monte-Carlo estimate of the fraction of the declared box
/// satisfying every constraint in `exprs`. Deterministic — the probe
/// stream is a constant SplitMix64 sequence — and exact in its counting: a
/// probe is a point environment, so interval evaluation degenerates to
/// ordinary arithmetic (NaN counts as unsatisfied, matching the runtime
/// rejection test).
fn mc_feasible_fraction(
    params: &[(&str, &ParamDef)],
    exprs: &[expr::Expr],
    probes: u64,
) -> McFeasibility {
    let mut rng = SplitMix64(0x5EED_CE75_F3A5_1B0E);
    let mut env: std::collections::BTreeMap<String, Interval> = std::collections::BTreeMap::new();
    let mut hits = 0u64;
    for _ in 0..probes {
        for (name, def) in params {
            let v = def.decode(rng.next_f64()).as_f64();
            env.insert((*name).to_string(), Interval::point(v));
        }
        let ok = exprs.iter().all(|e| {
            let v = eval_expr(e, &env);
            !v.maybe_nan && !v.can_be_zero() && !v.is_empty_range()
        });
        hits += ok as u64;
    }
    let (ci_lo, ci_hi) = wilson_interval(hits, probes, 1.96);
    McFeasibility {
        probes,
        hits,
        estimate: hits as f64 / probes.max(1) as f64,
        ci_lo,
        ci_hi,
    }
}

/// The Wilson score interval for a binomial proportion: `hits` successes
/// out of `n` trials at normal quantile `z` (1.96 ≈ 95 %).
///
/// Unlike the naive normal approximation `p̂ ± z √(p̂(1−p̂)/n)`, the Wilson
/// interval stays inside `[0, 1]` and keeps honest coverage at the extreme
/// proportions the `A003` thrash gate cares about (zero observed hits
/// still yields a strictly positive upper bound ≈ `z²/(n+z²)`).
pub fn wilson_interval(hits: u64, n: u64, z: f64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    let n = n as f64;
    let p = hits as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = z / denom * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Mirror of the `S003` membership test: does `default` live inside
/// `def`? Used to refuse a rewrite that would orphan a declared default
/// (a default may sit inside the declared domain yet violate a
/// constraint, in which case the contracted domain excludes it).
fn default_fits(def: &ParamDef, default: f64) -> bool {
    use cets_space::ParamValue;
    if !default.is_finite() {
        return true; // N002 territory; not ours to worsen
    }
    let value = match def {
        ParamDef::Real { .. } | ParamDef::Ordinal { .. } => ParamValue::Real(default),
        ParamDef::Integer { .. } => ParamValue::Int(default.round() as i64),
        ParamDef::Categorical { .. } => ParamValue::Index(default.round().max(0.0) as usize),
    };
    def.contains(&value)
}

/// A copy of `bundle` with every tightened domain applied — what
/// `cets analyze --contract` re-lints and what the methodology's
/// `contract_bounds` pre-pass builds its narrowed space from.
///
/// A parameter keeps its declared domain when the tightened one would
/// exclude its declared default: the contraction proved the default
/// violates a constraint, and silently moving the baseline is worse than
/// leaving the bound loose.
pub fn apply_contraction(bundle: &PlanBundle, analysis: &SpaceAnalysis) -> PlanBundle {
    let mut out = bundle.clone();
    if !analysis.analyzed || analysis.proved_empty {
        return out;
    }
    for p in &mut out.params {
        if let Some(t) = analysis.tightened_def(&p.name) {
            if p.default.is_none_or(|d| default_fits(t, d)) {
                p.def = t.clone();
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{ConstraintSpec, ParamSpec};

    fn param(name: &str, def: ParamDef) -> ParamSpec {
        ParamSpec {
            name: name.into(),
            def,
            default: None,
        }
    }

    fn constraint(name: &str, expr: &str) -> ConstraintSpec {
        ConstraintSpec {
            name: name.into(),
            expr: expr.into(),
        }
    }

    fn bundle(params: Vec<ParamSpec>, constraints: Vec<ConstraintSpec>) -> PlanBundle {
        PlanBundle {
            params,
            constraints,
            ..Default::default()
        }
    }

    #[test]
    fn classifies_unsat_tautology_contingent() {
        let b = bundle(
            vec![param("a", ParamDef::Integer { lo: 1, hi: 8 })],
            vec![
                constraint("dead", "a > 100"),
                constraint("trivial", "a >= 0"),
                constraint("real", "a <= 4"),
            ],
        );
        let s = analyze_space(&b);
        assert!(s.analyzed);
        assert_eq!(s.constraints[0].class, ConstraintClass::ProvedUnsat);
        assert_eq!(s.constraints[1].class, ConstraintClass::Tautology);
        assert_eq!(s.constraints[2].class, ConstraintClass::Contingent);
        assert!(s.proved_empty, "an unsat constraint kills the plan");
        assert_eq!(s.feasible_fraction, 0.0);
    }

    #[test]
    fn contraction_and_fraction() {
        let b = bundle(
            vec![
                param("a", ParamDef::Integer { lo: 0, hi: 99 }),
                param("r", ParamDef::Real { lo: 0.0, hi: 10.0 }),
            ],
            vec![constraint("cap", "a <= 24"), constraint("rcap", "r <= 5")],
        );
        let s = analyze_space(&b);
        assert!(!s.proved_empty);
        assert!(s.converged);
        let a = &s.params[0];
        assert_eq!((a.contracted.lo, a.contracted.hi), (0.0, 24.0));
        assert!(a.narrowed());
        assert_eq!(a.tightened, Some(ParamDef::Integer { lo: 0, hi: 24 }));
        // fraction = 25/100 * (5+slack)/10 ≈ 0.125
        assert!(
            (s.feasible_fraction - 0.125).abs() < 1e-3,
            "{}",
            s.feasible_fraction
        );
    }

    #[test]
    fn skips_malformed_bundles() {
        let b = bundle(
            vec![
                param("a", ParamDef::Real { lo: 0.0, hi: 1.0 }),
                param("a", ParamDef::Real { lo: 0.0, hi: 1.0 }),
            ],
            vec![],
        );
        assert!(
            !analyze_space(&b).analyzed,
            "duplicate params: S001 territory"
        );
        let b = bundle(
            vec![param("a", ParamDef::Real { lo: 1.0, hi: 0.0 })],
            vec![],
        );
        assert!(
            !analyze_space(&b).analyzed,
            "invalid domain: S002 territory"
        );
    }

    #[test]
    fn skips_unparseable_and_unknown_constraints() {
        let b = bundle(
            vec![param("a", ParamDef::Real { lo: 0.0, hi: 1.0 })],
            vec![
                constraint("garbage", "?!?"),
                constraint("foreign", "zz <= 1"),
                constraint("fine", "a <= 2"),
            ],
        );
        let s = analyze_space(&b);
        assert_eq!(s.skipped_constraints, 2);
        assert_eq!(s.constraints.len(), 1);
    }

    #[test]
    fn categorical_prefix_rewritten_holes_kept_unsliced() {
        // `impl <= 1` kills a suffix: the survivors {0, 1} are a prefix,
        // so the option list is sliced without renumbering anything.
        let b = bundle(
            vec![param(
                "impl",
                ParamDef::Categorical {
                    options: vec!["a".into(), "b".into(), "c".into(), "d".into()],
                },
            )],
            vec![constraint("cap", "impl <= 1")],
        );
        let s = analyze_space(&b);
        let p = &s.params[0];
        assert!(p.narrowed(), "index interval narrows");
        assert_eq!(p.kept.as_deref(), Some(&[0usize, 1][..]));
        assert_eq!(
            p.tightened,
            Some(ParamDef::Categorical {
                options: vec!["a".into(), "b".into()],
            })
        );
        assert!((s.feasible_fraction - 0.5).abs() < 1e-9);

        // `impl != 1` punches a hole: slicing would renumber `c`/`d`,
        // so the finite-set fact is reported but the def is untouched.
        let b = bundle(
            vec![param(
                "impl",
                ParamDef::Categorical {
                    options: vec!["a".into(), "b".into(), "c".into(), "d".into()],
                },
            )],
            vec![constraint("hole", "impl != 1")],
        );
        let s = analyze_space(&b);
        let p = &s.params[0];
        assert_eq!(p.kept.as_deref(), Some(&[0usize, 2, 3][..]));
        assert!(p.tightened.is_none(), "holes never slice the option list");
        assert!((s.feasible_fraction - 0.75).abs() < 1e-9, "3 of 4 options");
    }

    #[test]
    fn apply_contraction_rewrites_defs() {
        let b = bundle(
            vec![param("a", ParamDef::Integer { lo: 0, hi: 99 })],
            vec![constraint("cap", "a <= 9")],
        );
        let s = analyze_space(&b);
        let nb = apply_contraction(&b, &s);
        assert_eq!(nb.params[0].def, ParamDef::Integer { lo: 0, hi: 9 });
        // Re-analysis of the contracted bundle finds nothing to narrow:
        // the cap is now tautological.
        let s2 = analyze_space(&nb);
        assert!(!s2.any_narrowed());
        assert_eq!(s2.constraints[0].class, ConstraintClass::Tautology);
    }

    #[test]
    fn empty_bundle_is_trivially_full() {
        let s = analyze_space(&PlanBundle::default());
        assert!(s.analyzed);
        assert!(!s.proved_empty);
        assert_eq!(s.feasible_fraction, 1.0);
        assert!(s.converged);
        assert!(
            mc_feasibility(&PlanBundle::default()).is_none(),
            "nothing to probe"
        );
    }

    #[test]
    fn wilson_interval_known_values() {
        // Zero successes: lower bound 0, upper ≈ z²/(n+z²).
        let (lo, hi) = wilson_interval(0, 100, 1.96);
        assert_eq!(lo, 0.0);
        let expect_hi = 1.96_f64.powi(2) / (100.0 + 1.96_f64.powi(2));
        assert!((hi - expect_hi).abs() < 1e-12, "{hi} vs {expect_hi}");
        // All successes mirrors it.
        let (lo, hi) = wilson_interval(100, 100, 1.96);
        assert!((hi - 1.0).abs() < 1e-12, "{hi}");
        assert!((lo - (1.0 - expect_hi)).abs() < 1e-12);
        // Half-and-half: symmetric around 0.5, inside (0, 1).
        let (lo, hi) = wilson_interval(50, 100, 1.96);
        assert!(((lo + hi) / 2.0 - 0.5).abs() < 1e-12);
        assert!(lo > 0.4 && hi < 0.6);
        // Degenerate trial count: the vacuous interval.
        assert_eq!(wilson_interval(0, 0, 1.96), (0.0, 1.0));
    }

    #[test]
    fn wilson_tightens_with_more_trials() {
        let w = |n| {
            let (lo, hi) = wilson_interval(n / 2, n, 1.96);
            hi - lo
        };
        assert!(w(1000) < w(100) && w(100) < w(10));
    }

    #[test]
    fn mc_estimate_matches_known_fraction() {
        // a <= 24 over {0..99}: exactly 25 % feasible.
        let b = bundle(
            vec![param("a", ParamDef::Integer { lo: 0, hi: 99 })],
            vec![constraint("cap", "a <= 24")],
        );
        let mc = mc_feasibility(&b).expect("probed");
        assert_eq!(mc.probes, MC_PROBES);
        assert!(
            (mc.estimate - 0.25).abs() < 0.03,
            "estimate {} too far from 0.25",
            mc.estimate
        );
        assert!(mc.ci_lo < 0.25 && 0.25 < mc.ci_hi, "{mc:?}");
        // Deterministic: same bundle, same counts.
        let again = mc_feasibility(&b).expect("probed");
        assert_eq!(mc, again);
    }

    #[test]
    fn disjunctive_branching_recovers_slabs() {
        // `a <= 1 || a >= 9` over {0..10}: the hull is vacuous, the slab
        // union is the point. 4 of 11 values are feasible.
        let b = bundle(
            vec![param("a", ParamDef::Integer { lo: 0, hi: 10 })],
            vec![constraint("gap", "a <= 1 || a >= 9")],
        );
        let s = analyze_space(&b);
        assert_eq!(s.domain, Domain::Product);
        assert_eq!(s.split_branches, 2);
        assert!(!s.split_capped);
        let a = &s.params[0];
        assert_eq!((a.contracted.lo, a.contracted.hi), (0.0, 10.0), "hull");
        assert_eq!(a.slabs.len(), 2, "{:?}", a.slabs);
        assert_eq!((a.slabs[0].lo, a.slabs[0].hi), (0.0, 1.0));
        assert_eq!((a.slabs[1].lo, a.slabs[1].hi), (9.0, 10.0));
        assert!(
            (s.feasible_fraction - 4.0 / 11.0).abs() < 1e-9,
            "{}",
            s.feasible_fraction
        );
        // The interval domain keeps the vacuous single slab.
        let si = analyze_space_with(
            &b,
            &AnalysisOptions {
                domain: Domain::Interval,
                ..Default::default()
            },
        );
        assert_eq!(si.params[0].slabs.len(), 1);
        assert!((si.feasible_fraction - 1.0).abs() < 1e-9);
        assert!(si.relations.is_empty());
    }

    #[test]
    fn product_reports_stride_and_counts_congruent_points() {
        // `n % 256 == 0` over [1, 100000]: the grid has 390 members and
        // the bounds snap to the outermost multiples.
        let b = bundle(
            vec![param("n", ParamDef::Integer { lo: 1, hi: 100_000 })],
            vec![constraint("blk", "n % 256 == 0")],
        );
        let s = analyze_space(&b);
        let n = &s.params[0];
        assert_eq!(n.stride, Some((256, 0)));
        assert_eq!((n.contracted.lo, n.contracted.hi), (256.0, 99_840.0));
        assert_eq!(
            n.tightened,
            Some(ParamDef::Integer {
                lo: 256,
                hi: 99_840,
            })
        );
        assert!(
            (s.feasible_fraction - 390.0 / 100_000.0).abs() < 1e-9,
            "{}",
            s.feasible_fraction
        );
        // The non-product domains see no stride and keep the full box.
        let so = analyze_space_with(
            &b,
            &AnalysisOptions {
                domain: Domain::Octagon,
                ..Default::default()
            },
        );
        assert_eq!(so.params[0].stride, None);
    }

    #[test]
    fn product_proves_congruence_emptiness() {
        // n ≡ 1 (mod 6) forces n odd while n ≡ 0 (mod 4) forces n even:
        // the CRT meet is ⊥. Interval iteration shaves ~12 units per
        // round and gives up at ITER_CAP on a 10^9 box; the octagon adds
        // nothing relational. Only the congruence meet sees it.
        let b = bundle(
            vec![param(
                "n",
                ParamDef::Integer {
                    lo: 0,
                    hi: 1_000_000_000,
                },
            )],
            vec![
                constraint("six", "n % 6 == 1"),
                constraint("four", "n % 4 == 0"),
            ],
        );
        let s = analyze_space(&b);
        assert!(s.proved_empty);
        assert_eq!(s.feasible_fraction, 0.0);
        let so = analyze_space_with(
            &b,
            &AnalysisOptions {
                domain: Domain::Octagon,
                ..Default::default()
            },
        );
        assert!(!so.proved_empty, "octagon alone cannot prove this");
    }

    #[test]
    fn finite_set_prunes_ordinal_values_on_divisor_link() {
        // `n % nb == 0` with n pinned: only divisors of n survive in nb.
        let b = bundle(
            vec![
                param("n", ParamDef::Integer { lo: 768, hi: 768 }),
                param(
                    "nb",
                    ParamDef::Ordinal {
                        values: vec![96.0, 128.0, 144.0, 192.0, 256.0],
                    },
                ),
            ],
            vec![constraint("blk", "n % nb == 0")],
        );
        let s = analyze_space(&b);
        let nb = &s.params[1];
        // 768 = 2^8 * 3: 96, 128, 192, 256 divide it; 144 does not.
        assert_eq!(nb.kept.as_deref(), Some(&[0usize, 1, 3, 4][..]));
        assert_eq!(
            nb.tightened,
            Some(ParamDef::Ordinal {
                values: vec![96.0, 128.0, 192.0, 256.0],
            })
        );
    }

    #[test]
    fn octagon_tightens_per_var_beyond_interval() {
        // a + b <= 10 and a - b <= 2 imply a <= 6; HC4 stops at a <= 10.
        let b = bundle(
            vec![
                param("a", ParamDef::Integer { lo: 0, hi: 100 }),
                param("b", ParamDef::Integer { lo: 0, hi: 100 }),
            ],
            vec![
                constraint("sum", "a + b <= 10"),
                constraint("diff", "a - b <= 2"),
            ],
        );
        let s = analyze_space(&b);
        assert_eq!(s.params[0].contracted.hi, 6.0, "octagon closure");
        let si = analyze_space_with(
            &b,
            &AnalysisOptions {
                domain: Domain::Interval,
                ..Default::default()
            },
        );
        assert_eq!(si.params[0].contracted.hi, 10.0, "interval hull");
    }

    #[test]
    fn octagon_proves_joint_emptiness_interval_cannot() {
        // x - y <= -10 and y - x <= -10: a negative cycle. The interval
        // fixpoint shrinks the box 20 units per pass and gives up at
        // ITER_CAP; the octagon closure detects it instantly.
        let b = bundle(
            vec![
                param(
                    "x",
                    ParamDef::Integer {
                        lo: 0,
                        hi: 1_000_000_000,
                    },
                ),
                param(
                    "y",
                    ParamDef::Integer {
                        lo: 0,
                        hi: 1_000_000_000,
                    },
                ),
            ],
            vec![
                constraint("fwd", "x - y <= -10"),
                constraint("bwd", "y - x <= -10"),
            ],
        );
        let s = analyze_space(&b);
        assert!(s.proved_empty, "octagon proves the negative cycle");
        assert_eq!(s.feasible_fraction, 0.0);
        let si = analyze_space_with(
            &b,
            &AnalysisOptions {
                domain: Domain::Interval,
                ..Default::default()
            },
        );
        assert!(!si.proved_empty, "interval domain cannot prove this");
    }

    #[test]
    fn x_minus_x_regression() {
        // The motivating unsoundness-adjacent weakness: intervals forget
        // that both `a`s are the same variable, so `a - a` evaluates to
        // the hull [-w, w] and `a - a >= 1` stays contingent. (On a small
        // box HC4 happens to grind the hull empty one unit per pass; the
        // wide box here defeats that, which is exactly the failure mode.)
        // The octagon domain normalises the constraint to `0 >= 1` and
        // kills it regardless of box width.
        let b = bundle(
            vec![param(
                "a",
                ParamDef::Integer {
                    lo: 0,
                    hi: 1_000_000,
                },
            )],
            vec![constraint("impossible", "a - a >= 1")],
        );
        let s = analyze_space(&b);
        assert!(s.proved_empty, "octagon: a - a is exactly [0, 0]");
        let si = analyze_space_with(
            &b,
            &AnalysisOptions {
                domain: Domain::Interval,
                ..Default::default()
            },
        );
        assert!(
            !si.proved_empty,
            "interval hull: a - a in [-100, 100], still contingent"
        );
        // Forward classification documents the hull behaviour.
        assert_eq!(si.constraints[0].class, ConstraintClass::Contingent);
    }

    #[test]
    fn product_relaxation_yields_inferred_relation() {
        // The exemplar residency shape: g1 * zc <= 16384 over [32,1024]^2
        // contracts both vars to [32, 512] (exact projection) and infers
        // g1 + zc <= 544 — strictly below the box-implied 1024.
        let b = bundle(
            vec![
                param("g1", ParamDef::Integer { lo: 32, hi: 1024 }),
                param("zc", ParamDef::Integer { lo: 32, hi: 1024 }),
            ],
            vec![constraint("residency", "g1 * zc <= 16384")],
        );
        let s = analyze_space(&b);
        assert_eq!(s.params[0].contracted.hi, 512.0);
        assert_eq!(s.params[1].contracted.hi, 512.0);
        let rel = s
            .relations
            .iter()
            .find(|r| r.kind == RelationKind::Sum && r.upper)
            .expect("sum relation present");
        assert!(
            (rel.bound - 544.0).abs() < 1e-6,
            "relational bound {} != 544",
            rel.bound
        );
        assert!(rel.inferred, "the relaxation is inferred, not restated");
        assert!(rel.to_string().contains("<="), "{rel}");
    }

    #[test]
    fn restated_linear_relation_is_not_inferred() {
        // `a + b <= 10` is already octagonal: the joined octagon carries
        // it (tighter than the box-implied 20) but it is a restatement,
        // so A006 must not fire on it.
        let b = bundle(
            vec![
                param("a", ParamDef::Integer { lo: 0, hi: 10 }),
                param("b", ParamDef::Integer { lo: 0, hi: 10 }),
            ],
            vec![constraint("budget", "a + b <= 10")],
        );
        let s = analyze_space(&b);
        let rel = s
            .relations
            .iter()
            .find(|r| r.kind == RelationKind::Sum && r.upper)
            .expect("sum relation recorded");
        assert!(!rel.inferred, "restated bound must not count as inferred");
    }

    #[test]
    fn mc_skipped_when_proved_empty() {
        // A proved-empty box raises A001, not the thrash warning whose
        // cross-check the probes feed, so no probe is drawn.
        let b = bundle(
            vec![param("a", ParamDef::Integer { lo: 1, hi: 8 })],
            vec![constraint("dead", "a > 100")],
        );
        assert!(analyze_space(&b).proved_empty);
        let mut out = Vec::new();
        crate::Lint::check(&crate::rules::feasibility::Feasibility::new(), &b, &mut out);
        assert!(out.iter().all(|d| d.code != "A003"), "{out:?}");
    }
}
