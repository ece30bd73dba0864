//! Property-based tests for search-space encoding, sampling and
//! subspaces.

use cets_space::{draw_feasible, Constraint, ParamDef, SearchSpace, Subspace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn mixed_space() -> SearchSpace {
    SearchSpace::builder()
        .real("x", -50.0, 50.0)
        .integer("tb", 32, 1024)
        .ordinal("u", vec![1.0, 2.0, 4.0, 8.0])
        .categorical("mode", vec!["a".into(), "b".into(), "c".into()])
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn decode_always_in_domain(u in proptest::collection::vec(-0.5..1.5f64, 4)) {
        // Even out-of-range unit coords clamp into the domain.
        let s = mixed_space();
        let cfg = s.decode(&u).unwrap();
        for (def, v) in s.defs().iter().zip(&cfg) {
            prop_assert!(def.contains(v), "{def:?} does not contain {v:?}");
        }
    }

    #[test]
    fn encode_decode_roundtrip(u in proptest::collection::vec(0.0..1.0f64, 4)) {
        let s = mixed_space();
        let cfg = s.decode(&u).unwrap();
        let enc = s.encode(&cfg).unwrap();
        let cfg2 = s.decode(&enc).unwrap();
        // decode∘encode is the identity on decoded configs (bin centers).
        prop_assert_eq!(cfg, cfg2);
    }

    #[test]
    fn encoded_coords_in_unit_cube(u in proptest::collection::vec(0.0..1.0f64, 4)) {
        let s = mixed_space();
        let cfg = s.decode(&u).unwrap();
        for e in s.encode(&cfg).unwrap() {
            prop_assert!((0.0..=1.0).contains(&e));
        }
    }

    #[test]
    fn uniform_sampling_valid(seed in 0u64..10_000) {
        let s = SearchSpace::builder()
            .integer("a", 0, 31)
            .integer("b", 0, 31)
            .constraint(Constraint::new("sum", "a+b <= 40", |s, c| {
                s.get_i64(c, "a").unwrap() + s.get_i64(c, "b").unwrap() <= 40
            }))
            .build();
        let mut rng = StdRng::seed_from_u64(seed);
        let cube = vec![vec![(0.0, 1.0)]; s.dim()];
        let cfg = draw_feasible(&cube, &mut rng, |u| {
            s.decode(&u).ok().filter(|c| s.is_valid(c))
        })
        .unwrap();
        prop_assert!(s.is_valid(&cfg));
    }

    #[test]
    fn subspace_lift_project_roundtrip(u in proptest::collection::vec(0.0..1.0f64, 2)) {
        let s = mixed_space();
        let defaults = s.decode(&[0.5, 0.5, 0.5, 0.5]).unwrap();
        let sub = Subspace::new(&s, &["x", "u"], defaults.clone()).unwrap();
        let cfg = sub.lift(&u).unwrap();
        // Frozen params untouched.
        prop_assert_eq!(&cfg[1], &defaults[1]);
        prop_assert_eq!(&cfg[3], &defaults[3]);
        // Roundtrip: project then lift is the identity on lifted configs.
        let u2 = sub.project(&cfg).unwrap();
        prop_assert_eq!(sub.lift(&u2).unwrap(), cfg);
    }

    #[test]
    fn config_from_pairs_consistent(u in proptest::collection::vec(0.0..1.0f64, 4)) {
        let s = mixed_space();
        let cfg = s.decode(&u).unwrap();
        let pairs: Vec<(&str, f64)> = s
            .names()
            .iter()
            .zip(&cfg)
            .map(|(n, v)| (n.as_str(), v.as_f64()))
            .collect();
        let rebuilt = s.config_from_pairs(&pairs).unwrap();
        prop_assert_eq!(rebuilt, cfg);
    }

    #[test]
    fn integer_bins_unbiased_at_edges(lo in -10i64..0, hi_off in 1i64..20) {
        let hi = lo + hi_off;
        let def = ParamDef::Integer { lo, hi };
        // First and last bins decode to the endpoints.
        prop_assert_eq!(def.decode(0.0).as_i64(), lo);
        prop_assert_eq!(def.decode(1.0 - 1e-12).as_i64(), hi);
    }

    #[test]
    fn format_config_mentions_every_param(u in proptest::collection::vec(0.0..1.0f64, 4)) {
        let s = mixed_space();
        let cfg = s.decode(&u).unwrap();
        let txt = s.format_config(&cfg);
        for name in s.names() {
            prop_assert!(txt.contains(name.as_str()));
        }
    }
}
