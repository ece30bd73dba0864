//! `--explain` reference entries for every diagnostic code.
//!
//! Each code the registry can emit has one [`CodeEntry`] here: what the
//! diagnostic means, a minimal plan fragment that triggers it, and how to
//! fix it. `cets analyze --explain A009` prints the entry; the table is
//! also the single place the documented code list lives in code, so the
//! registry tests cross-check it against every rule's `codes()`.

/// One reference entry of the diagnostics documentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeEntry {
    /// Stable diagnostic code, e.g. `"A009"`.
    pub code: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// What the diagnostic means and why it matters.
    pub description: &'static str,
    /// A minimal triggering example.
    pub example: &'static str,
    /// How to resolve it.
    pub remediation: &'static str,
}

/// Every documented diagnostic code, in family-then-number order.
pub const CODES: &[CodeEntry] = &[
    CodeEntry {
        code: "S001",
        title: "duplicate parameter names",
        description: "Two parameters in the search space share one name. Every later \
                      lookup (constraints, plan stages, graph edges) is ambiguous, so all \
                      deeper analysis is skipped for the bundle.",
        example: "two `\"name\": \"nb\"` entries under `params`",
        remediation: "rename one of the parameters; names must be unique",
    },
    CodeEntry {
        code: "S002",
        title: "invalid parameter domain",
        description: "A parameter's declared domain is malformed: inverted or non-finite \
                      numeric bounds, an empty ordinal value list, or an empty categorical \
                      option list. No point can be drawn from it.",
        example: "`{\"kind\": \"integer\", \"lo\": 9, \"hi\": 1}`",
        remediation: "fix the bounds so lo <= hi and lists are non-empty",
    },
    CodeEntry {
        code: "S003",
        title: "default outside its domain",
        description: "A parameter's default value does not belong to its declared domain, \
                      so the untuned baseline configuration is invalid.",
        example: "`\"default\": 7` on an ordinal whose values are [2, 4, 8]",
        remediation: "pick a default that is a member of the domain",
    },
    CodeEntry {
        code: "S004",
        title: "constraint looks unsatisfiable",
        description: "Deterministic probing found no point satisfying a constraint. This \
                      is sampling evidence, not a proof — the A001 analysis upgrade proves \
                      it when the interval engine can.",
        example: "`a > 100` over `a` in [1, 8]",
        remediation: "widen the bounds or fix the constraint expression",
    },
    CodeEntry {
        code: "S005",
        title: "unknown reference",
        description: "A constraint, plan stage, or graph edge names a parameter that the \
                      search space does not declare.",
        example: "constraint `nx * ny <= 4096` with no `ny` parameter",
        remediation: "declare the missing parameter or fix the name",
    },
    CodeEntry {
        code: "G001",
        title: "influence graph cycle",
        description: "The influence DAG contains a dependency cycle that is not resolved \
                      by merging the cycle into one tuning stage, so no stage order exists.",
        example: "edges a -> b, b -> c, c -> a across three stages",
        remediation: "break the cycle or merge the cyclic parameters into one stage",
    },
    CodeEntry {
        code: "G002",
        title: "orphaned tuned parameter",
        description: "A parameter survives the influence cut-off but no plan stage tunes \
                      it: its influence is paid for but never exploited.",
        example: "a high-scoring parameter missing from every stage's dimension list",
        remediation: "add the parameter to a stage or lower its score below the cut-off",
    },
    CodeEntry {
        code: "G003",
        title: "dimension cap exceeded",
        description: "A plan stage tunes more dimensions than the configured cap. The \
                      paper's methodology bounds per-stage dimensionality to keep BO \
                      sample-efficient.",
        example: "a stage tuning 12 parameters under `max_dims: 8`",
        remediation: "split the stage or raise `max_dims` deliberately",
    },
    CodeEntry {
        code: "G004",
        title: "shared parameter ownership conflict",
        description: "A parameter shared between routines is tuned by a stage owned by a \
                      routine that does not own the parameter, or by several owners with \
                      no declared precedence.",
        example: "`threads` owned by Slater but tuned in an MPI stage",
        remediation: "declare the sharing (`shared_params`) or set `precedence`",
    },
    CodeEntry {
        code: "N001",
        title: "PSD-fragile kernel configuration",
        description: "The GP kernel configuration (length-scales, variance, noise floor) \
                      risks a non-positive-definite covariance matrix, which breaks the \
                      Cholesky factorization inside BO.",
        example: "`noise_floor: 0` with near-duplicate training inputs",
        remediation: "raise the noise floor or fix the degenerate hyperparameters",
    },
    CodeEntry {
        code: "N002",
        title: "non-finite numeric input",
        description: "A bound, score, or kernel field is NaN or infinite; downstream \
                      arithmetic would silently poison every derived quantity.",
        example: "`\"score\": NaN` in the influence list",
        remediation: "replace the non-finite value with a real number",
    },
    CodeEntry {
        code: "N003",
        title: "zero-variance dimension",
        description: "A tuned dimension's domain contains a single point, so BO wastes a \
                      dimension modelling a constant.",
        example: "tuning `p` with domain [4, 4]",
        remediation: "pin the parameter and drop it from the stage",
    },
    CodeEntry {
        code: "A001",
        title: "plan proved infeasible",
        description: "The abstract interpreter proved a constraint (or the conjunction of \
                      all of them) unsatisfiable over the declared domains: no feasible \
                      point exists. Unlike S004 this is a proof, so it is an error.",
        example: "`n % 512 == 0` over `n` in [513, 1023]",
        remediation: "widen the bounds or remove the conflicting constraint",
    },
    CodeEntry {
        code: "A002",
        title: "tautological constraint",
        description: "Every point of the declared box satisfies the constraint; it can \
                      never reject a candidate and only costs evaluation time.",
        example: "`a >= 0` over `a` in [1, 8]",
        remediation: "drop the constraint, or tighten the bounds it was meant to guard",
    },
    CodeEntry {
        code: "A003",
        title: "rejection-sampling thrash risk",
        description: "The statically feasible fraction of the box is below 1e-3: uniform \
                      rejection sampling will discard almost every draw. The diagnostic \
                      carries a fixed-seed Monte-Carlo cross-check with a Wilson interval.",
        example: "`a <= 0` over `a` in [0, 99999]",
        remediation: "apply `cets analyze --contract`, or use the constructive sampler",
    },
    CodeEntry {
        code: "A004",
        title: "contractible bounds",
        description: "Backward contraction (HC4-revise) tightened a parameter's bounds: \
                      the declared domain is provably larger than the feasible region.",
        example: "`a * 64 <= 49152` contracts `a` in [32, 1024] to [32, 768]",
        remediation: "run `cets analyze --contract` to rewrite the plan",
    },
    CodeEntry {
        code: "A005",
        title: "contraction not converged",
        description: "The contraction fixpoint hit its iteration cap. The reported \
                      intervals are sound but may be looser than the true fixpoint.",
        example: "slowly-shrinking mutual bounds like `x <= y - 1`, `y <= x + 0.9`",
        remediation: "informational; tighten bounds manually if precision matters",
    },
    CodeEntry {
        code: "A006",
        title: "inferred relational bound",
        description: "The octagon closure inferred a two-parameter bound (x + y <= c or \
                      x - y <= c) strictly tighter than the per-parameter boxes imply and \
                      not already stated as a constraint.",
        example: "`g1 * zc <= 16384` infers `g1 + zc <= 544` by McCormick relaxation",
        remediation: "informational; samplers ignoring constraints overdraw that corner",
    },
    CodeEntry {
        code: "A007",
        title: "disjoint feasible slabs",
        description: "Disjunctive branch-and-prune recovered a union of disjoint slabs \
                      for a parameter: the feasible set is not an interval, and the hull \
                      overstates it.",
        example: "`a <= 1 || a >= 9` over [0, 10] leaves [0,1] and [9,10]",
        remediation: "informational; constructive samplers draw from the slab union",
    },
    CodeEntry {
        code: "A008",
        title: "disjunctive split cap reached",
        description: "The disjunctive expansion hit its branch cap; un-split `or` \
                      constraints fall back to the sound interval hull.",
        example: "five independent two-way disjunctions want 32 > 16 branches",
        remediation: "informational; simplify or merge disjunctive constraints",
    },
    CodeEntry {
        code: "A009",
        title: "congruence-contracted bounds",
        description: "The congruence domain proved an integer parameter lives on a \
                      residue grid n ≡ r (mod m): bounds snap to the outermost grid \
                      members and only one value in m is feasible, which rejection \
                      sampling cannot see.",
        example: "`n % 256 == 0` over [1, 100000] snaps to [256, 99840], stride 256",
        remediation: "contract the plan, or supply a grid-aware application sampler",
    },
    CodeEntry {
        code: "A010",
        title: "dead ordinal/categorical options",
        description: "The finite-set pass proved some declared ordinal values or \
                      categorical options infeasible under every constraint branch: the \
                      sampler keeps drawing options that can never be selected.",
        example: "`bcast <= 3` over six broadcast algorithms leaves two dead",
        remediation: "run `cets analyze --contract` (prefix survivors) or prune manually",
    },
    CodeEntry {
        code: "A011",
        title: "parameter forced to a single value",
        description: "Constraints statically force a parameter to one value: it is not a \
                      search dimension at all, only a constant the constraints already \
                      determine, and BO would waste a dimension on it.",
        example: "`mode == 2` over a three-option categorical",
        remediation: "pin the parameter to the forced value and drop it from the search",
    },
];

/// Look up the reference entry for `code` (case-insensitive). Covers the
/// plan-lint catalogue and the campaign-spec (`C`) family.
pub fn explain(code: &str) -> Option<&'static CodeEntry> {
    CODES
        .iter()
        .find(|e| e.code.eq_ignore_ascii_case(code.trim()))
        .or_else(|| crate::campaign::explain_campaign(code))
}

/// Render one entry as the `--explain` page.
pub fn render_explain(entry: &CodeEntry) -> String {
    format!(
        "{code}: {title}\n\n{description}\n\nexample:\n  {example}\n\nremediation:\n  {remediation}\n",
        code = entry.code,
        title = entry.title,
        description = entry.description,
        example = entry.example,
        remediation = entry.remediation,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_case_insensitive_and_total() {
        assert_eq!(explain("a009").unwrap().code, "A009");
        assert_eq!(explain(" S001 ").unwrap().code, "S001");
        assert!(explain("Z999").is_none());
        assert!(explain("").is_none());
    }

    #[test]
    fn every_registry_code_has_an_entry_and_vice_versa() {
        use crate::registry::Registry;
        let mut emittable = Registry::with_analysis_rules().all_codes();
        emittable.sort_unstable();
        emittable.dedup();
        let documented: Vec<&str> = CODES.iter().map(|e| e.code).collect();
        for c in &emittable {
            assert!(documented.contains(c), "code {c} lacks an --explain entry");
        }
        for d in &documented {
            assert!(
                emittable.contains(d),
                "entry {d} matches no registered rule"
            );
        }
    }

    #[test]
    fn rendering_contains_all_sections() {
        let page = render_explain(explain("A010").unwrap());
        assert!(page.contains("A010"));
        assert!(page.contains("example:"));
        assert!(page.contains("remediation:"));
    }
}
