//! Parameter definitions and values.

use serde::{Deserialize, Serialize};

/// The domain of a single tuning parameter.
///
/// The four kinds cover everything in the paper's two evaluations:
///
/// * [`ParamDef::Real`] — the synthetic functions' `x_i ∈ [-50, 50]`;
/// * [`ParamDef::Integer`] — GPU threadblock counts, stream counts;
/// * [`ParamDef::Ordinal`] — explicit value lists with a meaningful order,
///   e.g. the unroll factor `u ∈ {1, 2, 4, 8}` or `nstb` restricted to the
///   divisors of the band count (the paper's expert constraint);
/// * [`ParamDef::Categorical`] — unordered choices (kept for completeness;
///   encoded by index like ordinals but *perturbed* by resampling, not by
///   stepping).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamDef {
    /// Continuous value in `[lo, hi]`.
    Real { lo: f64, hi: f64 },
    /// Integer in `[lo, hi]` inclusive.
    Integer { lo: i64, hi: i64 },
    /// One of an explicit, ordered list of numeric values.
    Ordinal { values: Vec<f64> },
    /// One of an explicit list of unordered labels.
    Categorical { options: Vec<String> },
}

impl ParamDef {
    /// Number of distinct values; `None` for continuous parameters.
    pub fn cardinality(&self) -> Option<usize> {
        match self {
            ParamDef::Real { .. } => None,
            ParamDef::Integer { lo, hi } => Some((hi - lo + 1).max(0) as usize),
            ParamDef::Ordinal { values } => Some(values.len()),
            ParamDef::Categorical { options } => Some(options.len()),
        }
    }

    /// Check definition consistency (non-empty range / option list).
    pub fn validate(&self) -> std::result::Result<(), String> {
        match self {
            ParamDef::Real { lo, hi } => {
                if !(lo.is_finite() && hi.is_finite()) {
                    Err("bounds must be finite".into())
                } else if lo >= hi {
                    Err(format!("empty range [{lo}, {hi}]"))
                } else {
                    Ok(())
                }
            }
            ParamDef::Integer { lo, hi } => {
                if lo > hi {
                    Err(format!("empty range [{lo}, {hi}]"))
                } else {
                    Ok(())
                }
            }
            ParamDef::Ordinal { values } => {
                if values.is_empty() {
                    Err("empty value list".into())
                } else if values.iter().any(|v| !v.is_finite()) {
                    Err("non-finite ordinal value".into())
                } else {
                    Ok(())
                }
            }
            ParamDef::Categorical { options } => {
                if options.is_empty() {
                    Err("empty option list".into())
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Does `v` lie in this parameter's domain?
    pub fn contains(&self, v: &ParamValue) -> bool {
        match (self, v) {
            (ParamDef::Real { lo, hi }, ParamValue::Real(x)) => {
                x.is_finite() && *x >= *lo && *x <= *hi
            }
            (ParamDef::Integer { lo, hi }, ParamValue::Int(x)) => x >= lo && x <= hi,
            (ParamDef::Ordinal { values }, ParamValue::Real(x)) => values.iter().any(|v| v == x),
            (ParamDef::Categorical { options }, ParamValue::Index(i)) => *i < options.len(),
            _ => false,
        }
    }

    /// Map a unit-interval coordinate `u ∈ [0, 1]` to a domain value.
    ///
    /// Discrete parameters partition `[0, 1]` into equal bins, the standard
    /// BO treatment for mixed spaces; the GP sees a continuous coordinate,
    /// the objective sees a snapped value.
    pub fn decode(&self, u: f64) -> ParamValue {
        let u = u.clamp(0.0, 1.0);
        match self {
            ParamDef::Real { lo, hi } => ParamValue::Real(lo + u * (hi - lo)),
            ParamDef::Integer { lo, hi } => {
                let n = (hi - lo + 1) as f64;
                let k = (u * n).floor().min(n - 1.0) as i64;
                ParamValue::Int(lo + k)
            }
            ParamDef::Ordinal { values } => {
                let n = values.len() as f64;
                let k = (u * n).floor().min(n - 1.0) as usize;
                ParamValue::Real(values[k])
            }
            ParamDef::Categorical { options } => {
                let n = options.len() as f64;
                let k = (u * n).floor().min(n - 1.0) as usize;
                ParamValue::Index(k)
            }
        }
    }

    /// The unit-interval bin `[k/n, (k+1)/n)` of the `k`-th declared
    /// value (ordinal) or option (categorical) — the exact pre-image of
    /// that choice under [`ParamDef::decode`]. `None` for the unbounded
    /// kinds, or when `k` is out of range. Set-restricted samplers use
    /// this to draw from surviving choices only.
    pub fn unit_bin(&self, k: usize) -> Option<(f64, f64)> {
        let n = match self {
            ParamDef::Ordinal { values } => values.len(),
            ParamDef::Categorical { options } => options.len(),
            ParamDef::Real { .. } | ParamDef::Integer { .. } => return None,
        };
        if k >= n {
            return None;
        }
        let n = n as f64;
        Some((k as f64 / n, (k + 1) as f64 / n))
    }

    /// Map a domain value back to the **center** of its unit-interval bin.
    ///
    /// `decode(encode(v)) == v` for every in-domain value (round-trip tested
    /// by property tests); the reverse composition snaps to bin centers.
    pub fn encode(&self, v: &ParamValue) -> std::result::Result<f64, String> {
        match (self, v) {
            (ParamDef::Real { lo, hi }, ParamValue::Real(x)) => {
                if x < lo || x > hi {
                    return Err(format!("{x} outside [{lo}, {hi}]"));
                }
                Ok((x - lo) / (hi - lo))
            }
            (ParamDef::Integer { lo, hi }, ParamValue::Int(x)) => {
                if x < lo || x > hi {
                    return Err(format!("{x} outside [{lo}, {hi}]"));
                }
                let n = (hi - lo + 1) as f64;
                Ok(((x - lo) as f64 + 0.5) / n)
            }
            (ParamDef::Ordinal { values }, ParamValue::Real(x)) => {
                let k = values
                    .iter()
                    .position(|v| v == x)
                    .ok_or_else(|| format!("{x} not an ordinal value"))?;
                Ok((k as f64 + 0.5) / values.len() as f64)
            }
            (ParamDef::Categorical { options }, ParamValue::Index(i)) => {
                if *i >= options.len() {
                    return Err(format!("index {i} out of {} options", options.len()));
                }
                Ok((*i as f64 + 0.5) / options.len() as f64)
            }
            _ => Err("value kind does not match parameter kind".into()),
        }
    }
}

/// A concrete value of one parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamValue {
    /// Real-valued (also carries ordinal values, which are numeric).
    Real(f64),
    /// Integer-valued.
    Int(i64),
    /// Categorical option index.
    Index(usize),
}

impl ParamValue {
    /// Numeric view: real as-is, int cast, categorical index cast.
    ///
    /// Sensitivity analysis and the GP treat everything numerically; this is
    /// the single conversion point.
    pub fn as_f64(&self) -> f64 {
        match self {
            ParamValue::Real(x) => *x,
            ParamValue::Int(x) => *x as f64,
            ParamValue::Index(i) => *i as f64,
        }
    }

    /// Integer view; rounds reals.
    pub fn as_i64(&self) -> i64 {
        match self {
            ParamValue::Real(x) => x.round() as i64,
            ParamValue::Int(x) => *x,
            ParamValue::Index(i) => *i as i64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_decode_endpoints() {
        let p = ParamDef::Real {
            lo: -50.0,
            hi: 50.0,
        };
        assert_eq!(p.decode(0.0), ParamValue::Real(-50.0));
        assert_eq!(p.decode(1.0), ParamValue::Real(50.0));
        assert_eq!(p.decode(0.5), ParamValue::Real(0.0));
        // Out-of-range unit coords clamp.
        assert_eq!(p.decode(2.0), ParamValue::Real(50.0));
        assert_eq!(p.decode(-1.0), ParamValue::Real(-50.0));
    }

    #[test]
    fn integer_decode_covers_all_bins() {
        let p = ParamDef::Integer { lo: 1, hi: 4 };
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..100 {
            if let ParamValue::Int(v) = p.decode(i as f64 / 99.0) {
                seen.insert(v);
            }
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn ordinal_decode_snaps_to_values() {
        let p = ParamDef::Ordinal {
            values: vec![1.0, 2.0, 4.0, 8.0],
        };
        assert_eq!(p.decode(0.1), ParamValue::Real(1.0));
        assert_eq!(p.decode(0.9), ParamValue::Real(8.0));
    }

    #[test]
    fn encode_decode_roundtrip_discrete() {
        let p = ParamDef::Integer { lo: 32, hi: 1024 };
        for v in [32, 33, 500, 1024] {
            let u = p.encode(&ParamValue::Int(v)).unwrap();
            assert_eq!(p.decode(u), ParamValue::Int(v));
        }
        let o = ParamDef::Ordinal {
            values: vec![1.0, 2.0, 4.0, 8.0],
        };
        for v in [1.0, 2.0, 4.0, 8.0] {
            let u = o.encode(&ParamValue::Real(v)).unwrap();
            assert_eq!(o.decode(u), ParamValue::Real(v));
        }
    }

    #[test]
    fn encode_rejects_out_of_domain() {
        let p = ParamDef::Real { lo: 0.0, hi: 1.0 };
        assert!(p.encode(&ParamValue::Real(2.0)).is_err());
        assert!(p.encode(&ParamValue::Int(0)).is_err());
        let o = ParamDef::Ordinal {
            values: vec![1.0, 2.0],
        };
        assert!(o.encode(&ParamValue::Real(3.0)).is_err());
    }

    #[test]
    fn validate_catches_bad_defs() {
        assert!(ParamDef::Real { lo: 1.0, hi: 1.0 }.validate().is_err());
        assert!(ParamDef::Real {
            lo: 0.0,
            hi: f64::INFINITY
        }
        .validate()
        .is_err());
        assert!(ParamDef::Integer { lo: 5, hi: 4 }.validate().is_err());
        assert!(ParamDef::Ordinal { values: vec![] }.validate().is_err());
        assert!(ParamDef::Ordinal {
            values: vec![f64::NAN]
        }
        .validate()
        .is_err());
        assert!(ParamDef::Categorical { options: vec![] }
            .validate()
            .is_err());
        assert!(ParamDef::Real { lo: 0.0, hi: 1.0 }.validate().is_ok());
    }

    #[test]
    fn contains_checks_domain_and_kind() {
        let p = ParamDef::Integer { lo: 0, hi: 10 };
        assert!(p.contains(&ParamValue::Int(5)));
        assert!(!p.contains(&ParamValue::Int(11)));
        assert!(!p.contains(&ParamValue::Real(5.0)));
        let r = ParamDef::Real { lo: 0.0, hi: 1.0 };
        assert!(!r.contains(&ParamValue::Real(f64::NAN)));
    }

    #[test]
    fn cardinality() {
        assert_eq!(ParamDef::Real { lo: 0.0, hi: 1.0 }.cardinality(), None);
        assert_eq!(ParamDef::Integer { lo: 1, hi: 32 }.cardinality(), Some(32));
        assert_eq!(
            ParamDef::Ordinal {
                values: vec![1.0, 2.0, 4.0, 8.0]
            }
            .cardinality(),
            Some(4)
        );
    }

    #[test]
    fn unit_bin_is_the_decode_preimage() {
        let o = ParamDef::Ordinal {
            values: vec![1.0, 2.0, 4.0, 8.0],
        };
        let (lo, hi) = o.unit_bin(2).unwrap();
        assert_eq!((lo, hi), (0.5, 0.75));
        assert_eq!(o.decode(lo), ParamValue::Real(4.0));
        assert_eq!(o.decode(hi - 1e-9), ParamValue::Real(4.0));
        let c = ParamDef::Categorical {
            options: vec!["a".into(), "b".into()],
        };
        assert_eq!(c.unit_bin(1), Some((0.5, 1.0)));
        assert_eq!(c.unit_bin(2), None);
        assert_eq!(ParamDef::Integer { lo: 0, hi: 9 }.unit_bin(0), None);
    }

    #[test]
    fn value_numeric_views() {
        assert_eq!(ParamValue::Real(2.6).as_i64(), 3);
        assert_eq!(ParamValue::Int(-2).as_i64(), -2);
        assert_eq!(ParamValue::Index(3).as_f64(), 3.0);
    }
}
