//! Pinned output bits of GP training.
//!
//! [`Gp::train`] on fixed seeded datasets at `(n, d)` = (50, 5), (95, 10)
//! and (125, 20), at one and two workers, and [`SparseGp::train`] at
//! n = 300, d = 20 and at n = 150, d = 7 with 45 inducing points, must
//! reproduce recorded constants bit for bit: the log marginal likelihood
//! (or ELBO), every kernel log-parameter and the noise variance. Every BO
//! trajectory and result table is built on these bits, so a change to the
//! per-element floating-point order of the kernel build, the likelihood
//! or its gradient fails here instead of silently moving them. The
//! constants were recorded when the kernel build still read a cached
//! per-dimension pair tensor, and the n = 150 pin while the ELBO kernels
//! were still scalar loops.

use cets_gp::{Gp, GpConfig, Kernel, ParConfig, SparseGp, SparseOptions};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// `n` uniform points in `[0, 1]^d` and a smooth function of the first
/// half of the coordinates, one interaction and a little noise.
fn dataset(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.random::<f64>()).collect())
        .collect();
    let y = x
        .iter()
        .map(|v| {
            let smooth: f64 = v
                .iter()
                .take(d.div_ceil(2))
                .enumerate()
                .map(|(k, &t)| ((k + 2) as f64 * t).sin() / (k + 1) as f64)
                .sum();
            smooth + v[0] * v[d - 1] + 0.05 * (rng.random::<f64>() - 0.5)
        })
        .collect();
    (x, y)
}

/// `[evidence, ln σ², ln ℓ₁.., ln ℓ_d, σ_n²]` as bit patterns.
fn bits(evidence: f64, kernel: &Kernel, noise: f64) -> Vec<u64> {
    let mut b = vec![evidence.to_bits()];
    b.extend(kernel.to_log_params().iter().map(|v| v.to_bits()));
    b.push(noise.to_bits());
    b
}

fn check_exact(n: usize, d: usize, seed: u64, expected: &[u64]) {
    let (x, y) = dataset(n, d, seed);
    for workers in [1, 2] {
        let cfg = GpConfig {
            seed,
            par: ParConfig::fixed(workers),
            ..GpConfig::default()
        };
        let gp = Gp::train(&x, &y, &cfg).unwrap();
        assert_eq!(
            bits(gp.lml(), gp.kernel(), gp.noise()),
            expected,
            "n = {n}, d = {d}, {workers} worker(s)"
        );
    }
}

#[test]
fn exact_n50_d5() {
    check_exact(
        50,
        5,
        5,
        &[
            0x4040247136dc135d,
            0x4016e824151ebf58,
            0x3ffa47eb9064ba4f,
            0x3ffbfd968ae8b97a,
            0x3ff8f65b4582d0e0,
            0x4020000000000000,
            0x4005a4c08aaf2d27,
            0x3f40585681050db1,
        ],
    );
}

#[test]
fn exact_n95_d10() {
    check_exact(
        95,
        10,
        10,
        &[
            0x400639ba92e60100,
            0x401bab0988b2087c,
            0x400071b89fd0cecb,
            0x40011c66e3fb7c7f,
            0x40007a5de384fdb4,
            0x3ff76900f766a7c5,
            0x3ff6cb66c96ba02f,
            0x4020000000000000,
            0x401f0f78e5b4b3f5,
            0x401eb3b78f57e1c9,
            0x4020000000000000,
            0x40091702e7a75b58,
            0x3eb0c6f7a0b5ed8f,
        ],
    );
}

#[test]
fn exact_n125_d20() {
    check_exact(
        125,
        20,
        20,
        &[
            0xc05092adf1f29636,
            0x3fe36f1f18fbc37c,
            0xbfa8438ff79d7523,
            0xbfbbe95062de65f9,
            0x3fca2d9f0946c409,
            0xbfb3b12e2e284b72,
            0x3ff4886a3f7b6d86,
            0x3ffb6deaa2776f07,
            0x4019d3479ce6ff76,
            0x401a5c209400ebda,
            0x4020000000000000,
            0x4020000000000000,
            0x3ff557821b7c155e,
            0x4001823c9be02a4f,
            0x4000c990e27255e4,
            0x4020000000000000,
            0x4020000000000000,
            0x4019847164709ef1,
            0x4020000000000000,
            0x4020000000000000,
            0x401f43e490666d26,
            0x3fd23003c790e29d,
            0x3fa431e91b88bf3c,
        ],
    );
}

#[test]
fn sparse_n300_d20() {
    let (x, y) = dataset(300, 20, 300);
    let cfg = GpConfig {
        seed: 300,
        par: ParConfig::fixed(1),
        ..GpConfig::default()
    };
    let sp = SparseGp::train(&x, &y, &cfg).unwrap();
    assert_eq!(
        bits(sp.elbo(), sp.kernel(), sp.noise()),
        [
            0xc0ce6047271720fe,
            0xbfea07745aae1e68,
            0xbff4b024bb500d5e,
            0xbfe7075e7292ce9b,
            0xbfee7926620c0146,
            0xbff874de4fa66afc,
            0xbff318a596e72f3c,
            0xbffdbb902100f00b,
            0xbff857010afb18bb,
            0xbff25a891c97dc3c,
            0xbff7fea0c22a0e95,
            0xbffb2080336b1bec,
            0xbff0332605592edb,
            0xbff148847943b268,
            0xbff77981ea935662,
            0xc000ee91909cfad8,
            0xc00058bdc4e73dd4,
            0x3fc8277c50e83e8d,
            0x3ff29cea757b19a6,
            0xbff2592329bad7a9,
            0xc00049058a365994,
            0xbffb13fdb97fbc9b,
            0x3f86b19f00b430f6,
        ]
    );
}

/// The shape the vector kernels split least evenly: neither `d` nor the
/// inducing count is a multiple of four, and at two workers the forward
/// solve runs in column stripes.
#[test]
fn sparse_n150_d7_m45() {
    let (x, y) = dataset(150, 7, 150);
    for workers in [1, 2] {
        let cfg = GpConfig {
            seed: 150,
            par: ParConfig::fixed(workers),
            sparse: SparseOptions {
                m_inducing: 45,
                ..SparseOptions::default()
            },
            ..GpConfig::default()
        };
        let sp = SparseGp::train(&x, &y, &cfg).unwrap();
        assert_eq!(sp.n_inducing(), 45);
        assert_eq!(
            bits(sp.elbo(), sp.kernel(), sp.noise()),
            [
                0xc06a89a606162d6e,
                0xc008d5ede6242332,
                0xc008c0ad3bdb104d,
                0x3fc6ae7fd3d5defe,
                0xbff8da93b01f148f,
                0xbff52edded8db1a1,
                0xbf7668ecbc2c093f,
                0xbff2316997d46eda,
                0xbff20e124c10000a,
                0x3fed1f2c29c3e1e1,
            ],
            "{workers} worker(s)"
        );
    }
}
