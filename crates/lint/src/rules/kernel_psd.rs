//! `N001`: PSD-fragile GP kernel configuration.
//!
//! The BO engine Cholesky-factorizes `K + σ_n² I` at every fit. With a
//! zero noise floor the matrix is only positive *semi*-definite for
//! duplicated inputs (which staged tuning produces routinely: the
//! incumbent is re-evaluated in every search), leaving the factorization
//! to survive on jitter alone. Non-positive length-scales or signal
//! variance make the kernel outright invalid.

use crate::bundle::PlanBundle;
use crate::diag::{Diagnostic, Location};
use crate::registry::Lint;

/// See the module docs.
pub struct KernelPsd;

impl Lint for KernelPsd {
    fn codes(&self) -> &'static [&'static str] {
        &["N001"]
    }

    fn check(&self, bundle: &PlanBundle, out: &mut Vec<Diagnostic>) {
        let Some(k) = &bundle.kernel else { return };
        if !k.noise_floor.is_finite() || k.noise_floor < 0.0 {
            out.push(
                Diagnostic::error(
                    "N001",
                    Location::Kernel,
                    format!(
                        "noise floor {} is not a finite non-negative value",
                        k.noise_floor
                    ),
                )
                .with_help("set a small positive noise floor, e.g. 1e-6"),
            );
        } else if k.noise_floor == 0.0 {
            out.push(
                Diagnostic::warning(
                    "N001",
                    Location::Kernel,
                    "noise floor is 0 — the covariance matrix is PSD-fragile under duplicated \
                     inputs and the Cholesky factorization will depend on jitter alone",
                )
                .with_help("HPC runtimes are noisy; a floor like 1e-6 also regularizes the fit"),
            );
        }
        for (i, &l) in k.length_scales.iter().enumerate() {
            if !l.is_finite() || l <= 0.0 {
                out.push(
                    Diagnostic::error(
                        "N001",
                        Location::Kernel,
                        format!(
                            "length-scale #{i} is {l}; length-scales must be positive and finite"
                        ),
                    )
                    .with_help("fix the kernel hyperparameters or let the fit optimize them"),
                );
            }
        }
        if let Some(v) = k.signal_variance {
            if !v.is_finite() || v <= 0.0 {
                out.push(Diagnostic::error(
                    "N001",
                    Location::Kernel,
                    format!("signal variance {v} must be positive and finite"),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::KernelSpec;

    fn bundle(k: KernelSpec) -> PlanBundle {
        PlanBundle {
            kernel: Some(k),
            ..Default::default()
        }
    }

    fn run(b: &PlanBundle) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        KernelPsd.check(b, &mut out);
        out
    }

    #[test]
    fn zero_noise_floor_warns() {
        let out = run(&bundle(KernelSpec {
            noise_floor: 0.0,
            length_scales: vec![],
            signal_variance: None,
        }));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, crate::Severity::Warning);
    }

    #[test]
    fn negative_noise_floor_errors() {
        let out = run(&bundle(KernelSpec {
            noise_floor: -1.0,
            length_scales: vec![],
            signal_variance: None,
        }));
        assert_eq!(out[0].severity, crate::Severity::Error);
    }

    #[test]
    fn bad_length_scale_and_variance_error() {
        let out = run(&bundle(KernelSpec {
            noise_floor: 1e-6,
            length_scales: vec![0.5, 0.0, f64::NAN],
            signal_variance: Some(-2.0),
        }));
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|d| d.severity == crate::Severity::Error));
    }

    #[test]
    fn healthy_kernel_clean() {
        let out = run(&bundle(KernelSpec {
            noise_floor: 1e-6,
            length_scales: vec![0.3, 0.7],
            signal_variance: Some(1.0),
        }));
        assert!(out.is_empty());
    }

    #[test]
    fn no_kernel_no_check() {
        assert!(run(&PlanBundle::default()).is_empty());
    }
}
