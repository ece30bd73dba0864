//! The [`Lint`] trait, the rule [`Registry`], and the [`Report`] a run
//! produces.
//!
//! Adding a new rule is one file under `src/rules/`: implement [`Lint`],
//! then register the rule in [`Registry::with_default_rules`].

use crate::bundle::PlanBundle;
use crate::diag::{Diagnostic, Severity};

/// One static-analysis rule over a [`PlanBundle`].
///
/// Rules must be pure and total: no objective evaluations, no I/O, and
/// **no panics** — a rule that cannot analyze part of a bundle (e.g. the
/// graph is missing, or a constraint does not parse) skips it silently or
/// emits a diagnostic, never unwinds. This contract is enforced by the
/// crate's property tests, which feed arbitrary bundles to the full
/// registry.
pub trait Lint {
    /// Diagnostic codes this rule can emit (for `--explain`-style docs).
    fn codes(&self) -> &'static [&'static str];

    /// Analyze the bundle, pushing findings into `out`.
    fn check(&self, bundle: &PlanBundle, out: &mut Vec<Diagnostic>);
}

/// The outcome of running a registry over a bundle.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, in rule-registration then emission order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Number of error-level findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-level findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == s).count()
    }

    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// All findings with the given code (for tests).
    pub fn with_code<'a>(&'a self, code: &'a str) -> impl Iterator<Item = &'a Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Does any finding carry `code`?
    pub fn has_code(&self, code: &str) -> bool {
        self.with_code(code).next().is_some()
    }
}

/// An ordered collection of rules.
pub struct Registry {
    rules: Vec<Box<dyn Lint>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry { rules: Vec::new() }
    }

    /// Every built-in rule, in code order.
    pub fn with_default_rules() -> Self {
        let mut r = Registry::new();
        r.register(Box::new(crate::rules::duplicate_params::DuplicateParams));
        r.register(Box::new(crate::rules::bounds::Bounds));
        r.register(Box::new(crate::rules::defaults::DefaultsInBounds));
        r.register(Box::new(
            crate::rules::constraints::ConstraintSatisfiability,
        ));
        r.register(Box::new(crate::rules::unknown_refs::UnknownRefs));
        r.register(Box::new(crate::rules::cycles::GraphCycles));
        r.register(Box::new(crate::rules::orphans::OrphanedParams));
        r.register(Box::new(crate::rules::dim_cap::DimensionCap));
        r.register(Box::new(crate::rules::shared::SharedParamOwnership));
        r.register(Box::new(crate::rules::kernel_psd::KernelPsd));
        r.register(Box::new(crate::rules::nonfinite::NonFiniteInputs));
        r.register(Box::new(crate::rules::zero_variance::ZeroVariance));
        r
    }

    /// Every default rule **plus** the abstract-interpretation
    /// feasibility rule (`A001`–`A005`). This is what `cets analyze`
    /// runs; it is not the default because `A004` (contractible bounds)
    /// fires on any plan whose bounds are not already statically minimal,
    /// which is advice, not a defect.
    pub fn with_analysis_rules() -> Self {
        Registry::with_analysis_rules_for(crate::absint::AnalysisOptions::default())
    }

    /// Like [`Registry::with_analysis_rules`], but with explicit
    /// [`crate::absint::AnalysisOptions`] — `cets analyze --domain
    /// interval` uses this to fall back to the non-relational domain.
    pub fn with_analysis_rules_for(options: crate::absint::AnalysisOptions) -> Self {
        let mut r = Registry::with_default_rules();
        r.register(Box::new(
            crate::rules::feasibility::Feasibility::with_options(options),
        ));
        r
    }

    /// Add a rule (runs after all previously registered ones).
    pub fn register(&mut self, rule: Box<dyn Lint>) {
        self.rules.push(rule);
    }

    /// Every diagnostic code a registered rule can emit, in registration
    /// order (duplicates possible when rules share a family).
    pub fn all_codes(&self) -> Vec<&'static str> {
        self.rules
            .iter()
            .flat_map(|r| r.codes().iter().copied())
            .collect()
    }

    /// Run every rule over `bundle`. Physical spans are attached
    /// centrally here: rules only name bundle locations, and any
    /// location the bundle's span table knows gains its `file:line:col`
    /// region (for SARIF `physicalLocation`s and the human `-->` arrow).
    ///
    /// Identical findings are collapsed centrally too: a disjunctive
    /// analysis that derives the same fact on several branches, or two
    /// rules proving one defect, would otherwise repeat the finding
    /// verbatim. The *first* emission survives (rule order is stable),
    /// so counts and exit codes never double-bill one defect.
    pub fn run(&self, bundle: &PlanBundle) -> Report {
        let mut diagnostics = Vec::new();
        for rule in &self.rules {
            rule.check(bundle, &mut diagnostics);
        }
        for d in &mut diagnostics {
            if d.span.is_none() {
                d.span = bundle.spans.lookup(&d.location);
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        diagnostics.retain(|d| {
            seen.insert((
                d.code,
                format!("{:?}", d.location),
                d.message.clone(),
                d.help.clone(),
            ))
        });
        Report { diagnostics }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::with_default_rules()
    }
}

/// Convenience: run the default registry over a bundle.
pub fn lint(bundle: &PlanBundle) -> Report {
    Registry::with_default_rules().run(bundle)
}

/// Convenience: run the analysis registry (defaults + feasibility
/// `A`-codes) over a bundle. This is `cets analyze`'s entry point.
pub fn analyze(bundle: &PlanBundle) -> Report {
    Registry::with_analysis_rules().run(bundle)
}

/// Convenience: run the analysis registry under explicit
/// [`crate::absint::AnalysisOptions`].
pub fn analyze_with(bundle: &PlanBundle, options: crate::absint::AnalysisOptions) -> Report {
    Registry::with_analysis_rules_for(options).run(bundle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_registry_has_every_code_family() {
        let r = Registry::with_default_rules();
        let codes: Vec<&str> = r
            .rules
            .iter()
            .flat_map(|l| l.codes().iter().copied())
            .collect();
        for c in [
            "S001", "S002", "S003", "S004", "S005", "G001", "G002", "G003", "G004", "N001", "N002",
            "N003",
        ] {
            assert!(codes.contains(&c), "missing rule for {c}");
        }
    }

    #[test]
    fn analysis_registry_adds_a_codes_only() {
        let r = Registry::with_analysis_rules();
        let codes: Vec<&str> = r
            .rules
            .iter()
            .flat_map(|l| l.codes().iter().copied())
            .collect();
        for c in [
            "A001", "A002", "A003", "A004", "A005", "A006", "A007", "A008", "A009", "A010", "A011",
        ] {
            assert!(codes.contains(&c), "missing analysis rule for {c}");
        }
        // The default registry stays free of A-codes.
        let d = Registry::with_default_rules();
        assert!(d
            .rules
            .iter()
            .flat_map(|l| l.codes().iter())
            .all(|c| !c.starts_with('A')));
    }

    #[test]
    fn empty_bundle_is_clean() {
        let report = lint(&PlanBundle::default());
        assert_eq!(report.errors(), 0, "{:?}", report.diagnostics);
    }

    #[test]
    fn identical_findings_are_collapsed() {
        use crate::diag::Location;
        struct Echo;
        impl Lint for Echo {
            fn codes(&self) -> &'static [&'static str] {
                &["S999"]
            }
            fn check(&self, _: &PlanBundle, out: &mut Vec<Diagnostic>) {
                for _ in 0..3 {
                    out.push(Diagnostic::warning("S999", Location::Plan, "same defect"));
                }
                // Different payload survives next to the collapsed one.
                out.push(Diagnostic::warning("S999", Location::Plan, "other defect"));
            }
        }
        let mut r = Registry::new();
        r.register(Box::new(Echo));
        let rep = r.run(&PlanBundle::default());
        assert_eq!(rep.diagnostics.len(), 2, "{:?}", rep.diagnostics);
        assert_eq!(rep.warnings(), 2);
    }

    #[test]
    fn report_counters() {
        use crate::diag::Location;
        let mut rep = Report::default();
        rep.diagnostics
            .push(Diagnostic::error("S001", Location::Plan, "x"));
        rep.diagnostics
            .push(Diagnostic::warning("G002", Location::Plan, "y"));
        assert_eq!(rep.errors(), 1);
        assert_eq!(rep.warnings(), 1);
        assert!(!rep.is_clean());
        assert!(rep.has_code("S001"));
        assert!(!rep.has_code("S002"));
    }
}
