//! # cets-tddft
//!
//! A discrete **performance simulator** of the paper's GPU-offloaded
//! RT-TDDFT application (QBox-based, Section V): the recurrent Slater
//! Determinant computation with five tunable CUDA kernels, a batched 3D
//! cuFFT, CUDA-stream overlap, host↔device transfers, and a 3-dimensional
//! MPI grid — 20 tuning parameters in total (paper Table IV).
//!
//! ## Why a simulator (substitution note, see DESIGN.md §2)
//!
//! The paper measures on Perlmutter A100 nodes. This crate replaces the
//! machine with an analytic cost model that exhibits the *same qualitative
//! sensitivity structure* the paper reports (Tables V & VI), which is all
//! the methodology consumes:
//!
//! * `nbatches` dominates the per-invocation time of every GPU kernel
//!   group (it scales the work per launch) — paper: 320-357% variability;
//! * `nstb` dominates the Slater-region time (it sets the local band count
//!   and hence the loop trip count);
//! * the occupancy rule `tb · tb_sm ≤ 2048` constrains every kernel;
//! * Group 2's `tb_PAIR`/`tb_sm_PAIR` influence **Group 3** through an L2
//!   cache-residency interference term — the paper's "unexpected"
//!   interdependence attributed to GPU-cache effects;
//! * the MPI grid contributes load imbalance (non-divisor decompositions)
//!   and a log-P reduction cost.
//!
//! ## Structure
//!
//! * [`GpuArch`] — A100-like occupancy/bandwidth model ([`gpu`]);
//! * [`KernelId`], kernel cost models ([`kernels`]);
//! * [`CaseStudy`] — the two material systems of Section VII;
//! * [`TddftSimulator`] — the [`Objective`] implementation, exposing the
//!   routine observables `G1`, `G2`, `G3` (mean per-invocation group
//!   times), `Slater` (the full region) and `MPI` (total application
//!   time).

pub mod cpu;
pub mod gpu;
pub mod kernels;

pub use cpu::{CpuArch, CpuBreakdown, CpuQbox};
pub use gpu::GpuArch;
pub use kernels::{KernelCost, KernelId, KernelParams};

use cets_core::{MethodologyConfig, Objective, Observation, VariationPolicy};
use cets_space::{Config, Constraint, SearchSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A physical system to simulate (paper Section VII).
#[derive(Debug, Clone, PartialEq)]
pub struct CaseStudy {
    /// Display name.
    pub name: String,
    /// Number of spin channels.
    pub nspin: usize,
    /// Number of k-points.
    pub nkpoints: usize,
    /// Number of electron bands.
    pub nbands: usize,
    /// FFT size in double-complex elements per band.
    pub fft_size: usize,
    /// Maximum MPI ranks (paper: 10 nodes × 4 GPU-bound ranks).
    pub max_ranks: usize,
}

impl CaseStudy {
    /// Case Study 1: magnesium-porphyrin molecule — 1 spin, 1 k-point,
    /// 64 bands, 3M-element FFT.
    pub fn case1() -> Self {
        CaseStudy {
            name: "Case Study 1 (Mg-porphyrin)".into(),
            nspin: 1,
            nkpoints: 1,
            nbands: 64,
            fft_size: 3_000_000,
            max_ranks: 40,
        }
    }

    /// Case Study 2: 4×4 hexagonal boron-nitride slab — 1 spin, 36
    /// k-points, 64 bands, 620k-element FFT.
    pub fn case2() -> Self {
        CaseStudy {
            name: "Case Study 2 (hBN slab)".into(),
            nspin: 1,
            nkpoints: 36,
            nbands: 64,
            fft_size: 620_000,
            max_ranks: 40,
        }
    }
}

/// The RT-TDDFT application simulator.
#[derive(Debug, Clone)]
pub struct TddftSimulator {
    case: CaseStudy,
    gpu: GpuArch,
    space: SearchSpace,
    noise_sigma: f64,
    seed: u64,
}

/// The five custom kernels in space order, with their routine group.
const KERNELS: [(KernelId, &str); 5] = [
    (KernelId::Dscal, "G3"),
    (KernelId::Pairwise, "G2"),
    (KernelId::Zcopy, "G1"), // shared with G3; reassigned by step 5
    (KernelId::Vec2Zvec, "G1"),
    (KernelId::Zvec2Vec, "G3"),
];

impl TddftSimulator {
    /// Build the simulator for a case study with default noise (2%).
    pub fn new(case: CaseStudy) -> Self {
        let space = Self::build_space(&case, false);
        TddftSimulator {
            case,
            gpu: GpuArch::a100(),
            space,
            noise_sigma: 0.02,
            seed: 0,
        }
    }

    /// Apply the paper's expert constraints: `nstb` restricted to divisors
    /// of the band count, `nkpb` to divisors of the k-point count, and
    /// `nspb` to divisors of the spin count (work balance; Section VIII).
    pub fn with_expert_constraints(mut self) -> Self {
        self.space = Self::build_space(&self.case, true);
        self
    }

    /// Override measurement-noise magnitude (0 disables noise).
    pub fn with_noise(mut self, sigma: f64) -> Self {
        self.noise_sigma = sigma;
        self
    }

    /// Override the noise seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The simulated case study.
    pub fn case(&self) -> &CaseStudy {
        &self.case
    }

    /// The GPU architecture model.
    pub fn gpu(&self) -> &GpuArch {
        &self.gpu
    }

    /// Parameter→routine ownership for the methodology:
    /// kernel parameters to their group (cuZcopy initially to G1 — it is
    /// *shared* with G3 and is expected to be reassigned by methodology
    /// step 5), `nbatches`/`nstreams` to the Slater region, MPI grid
    /// parameters to the application level.
    pub fn owners() -> Vec<(String, String)> {
        let mut v = Vec::new();
        for (name, group) in [
            ("nstb", "MPI"),
            ("nkpb", "MPI"),
            ("nspb", "MPI"),
            ("nbatches", "Slater"),
            ("nstreams", "Slater"),
        ] {
            v.push((name.to_string(), group.to_string()));
        }
        for (k, group) in KERNELS {
            for field in ["u", "tb", "tb_sm"] {
                v.push((format!("{field}_{}", k.short()), group.to_string()));
            }
        }
        v
    }

    /// [`TddftSimulator::owners`] as the borrowed `(param, routine)` pairs
    /// `Methodology::analyze` and `run` take.
    pub fn owner_pairs(owners: &[(String, String)]) -> Vec<(&str, &str)> {
        owners
            .iter()
            .map(|(p, r)| (p.as_str(), r.as_str()))
            .collect()
    }

    /// The paper's RT-TDDFT analysis settings (Sections VII–VIII): the 10 %
    /// influence cut-off, five spread variations per parameter, the
    /// Iterations (Slater) → MPI precedence and the shared cuZcopy group
    /// ([`TddftSimulator::shared_params`]). Callers set `bo`,
    /// `evals_per_dim`, `resilience` and `par`.
    pub fn methodology_config() -> MethodologyConfig {
        MethodologyConfig {
            cutoff: 0.10,
            variation_policy: VariationPolicy::Spread { count: 5 },
            precedence: vec!["Slater".into(), "MPI".into()],
            shared_params: Self::shared_params(),
            ..Default::default()
        }
    }

    /// The paper's shared kernel (used in several routines, must keep one
    /// value everywhere): cuZcopy appears in both Group 1 and Group 3, so
    /// its three parameters form one shared group that methodology step 5
    /// reassigns as a unit.
    pub fn shared_params() -> Vec<Vec<String>> {
        vec![vec![
            "u_zcopy".to_string(),
            "tb_zcopy".to_string(),
            "tb_sm_zcopy".to_string(),
        ]]
    }

    fn build_space(case: &CaseStudy, expert: bool) -> SearchSpace {
        let mut b = SearchSpace::builder();
        if expert {
            b = b
                .ordinal("nstb", divisors(case.nbands))
                .ordinal("nkpb", divisors(case.nkpoints))
                .ordinal("nspb", divisors(case.nspin));
        } else {
            b = b
                .integer("nstb", 1, case.nbands as i64)
                .integer("nkpb", 1, case.nkpoints as i64)
                .integer("nspb", 1, case.nspin as i64);
        }
        b = b.integer("nbatches", 1, 32).integer("nstreams", 1, 32);
        for (k, _) in KERNELS {
            let s = k.short();
            b = b
                .ordinal(format!("u_{s}"), vec![1.0, 2.0, 4.0, 8.0])
                .ordinal(
                    format!("tb_{s}"),
                    (1..=32).map(|w| (w * 32) as f64).collect(),
                )
                .integer(format!("tb_sm_{s}"), 1, 32);
        }
        let max_ranks = case.max_ranks as i64;
        b = b.constraint(Constraint::new(
            "mpi-ranks",
            "nstb·nkpb·nspb <= allocated ranks",
            move |s, c| {
                s.get_i64(c, "nstb").unwrap_or(i64::MAX)
                    * s.get_i64(c, "nkpb").unwrap_or(1)
                    * s.get_i64(c, "nspb").unwrap_or(1)
                    <= max_ranks
            },
        ));
        for (k, _) in KERNELS {
            let s = k.short();
            let (tb, tbsm) = (format!("tb_{s}"), format!("tb_sm_{s}"));
            b = b.constraint(Constraint::new(
                format!("occupancy-{s}"),
                format!("{tb}·{tbsm} <= max active threads per SM"),
                move |sp, c| {
                    sp.get_i64(c, &tb).unwrap_or(i64::MAX) * sp.get_i64(c, &tbsm).unwrap_or(1)
                        <= 2048
                },
            ));
        }
        b.build()
    }

    /// The kernel parameters of `k` in a config; `None` when it lacks one.
    fn kernel_params(&self, cfg: &Config, k: KernelId) -> Option<KernelParams> {
        let s = k.short();
        Some(KernelParams {
            unroll: self.space.get_f64(cfg, &format!("u_{s}")).ok()? as u32,
            tb: self.space.get_f64(cfg, &format!("tb_{s}")).ok()? as u32,
            tb_sm: self.space.get_i64(cfg, &format!("tb_sm_{s}")).ok()? as u32,
        })
    }

    /// Deterministic simulation of one configuration, returning
    /// `(g1, g2, g3, slater, total)` in seconds — `g1..g3` are mean
    /// per-invocation group times, `slater` the per-rank region time,
    /// `total` the application time including MPI communication — or NaN
    /// in every field for a config that lacks a parameter.
    pub fn simulate(&self, cfg: &Config) -> SimBreakdown {
        self.try_simulate(cfg).unwrap_or(SimBreakdown {
            g1: f64::NAN,
            g2: f64::NAN,
            g3: f64::NAN,
            slater: f64::NAN,
            total: f64::NAN,
        })
    }

    /// [`TddftSimulator::simulate`]; `None` when `cfg` lacks a parameter.
    fn try_simulate(&self, cfg: &Config) -> Option<SimBreakdown> {
        let sp = &self.space;
        let gpu = &self.gpu;
        let count = |name: &str| sp.get_i64(cfg, name).ok().map(|v| v.max(1) as usize);
        let nstb = count("nstb")?;
        let nkpb = count("nkpb")?;
        let nspb = count("nspb")?;
        let nbatches = count("nbatches")?;
        let nstreams = count("nstreams")?;
        // Every kernel's parameters, decoded once; `params[k as usize]` is
        // kernel `k`'s (`KernelId::all` is in declaration order).
        let [a, b, c, d, e] = KernelId::all().map(|k| self.kernel_params(cfg, k));
        let params = [a?, b?, c?, d?, e?];

        // ---- MPI decomposition: ceil-split => max local counts drive time.
        let local_bands = self.case.nbands.div_ceil(nstb);
        let local_kpoints = self.case.nkpoints.div_ceil(nkpb);
        let local_spins = self.case.nspin.div_ceil(nspb);
        let ranks = nstb * nkpb * nspb;

        // ---- Per-kernel per-invocation costs for a full batch.
        let n = self.case.fft_size;
        let pair = params[KernelId::Pairwise as usize];
        // Group 2's L2 interference on Group 3 (the paper's cache effect):
        // the pairwise kernel's resident working set scales with its active
        // threads per SM; what it evicts, Group 3 kernels reload.
        let pair_occ = gpu.occupancy(pair.tb, pair.tb_sm);
        let g3_cache_penalty = 1.0 + 0.9 * pair_occ;

        let kt = |k: KernelId, batch: usize, cache_penalty: f64| -> f64 {
            KernelCost::new(gpu, k, params[k as usize]).time(n * batch) * cache_penalty
        };

        // FFT: only nbatches (work size / batching efficiency) matters
        // (paper: "the only tuning parameters impacting the cuFFT routine
        // are nbatches and nstreams").
        let fft = |batch: usize| -> f64 { gpu.fft_3d_time(n, batch) };
        // Host<->device transfer of a batch (double complex, both ways
        // accounted separately).
        let h2d = |batch: usize| -> f64 { (n * batch * 16) as f64 / gpu.pcie_bw };

        let group_times = |batch: usize| -> [f64; 3] {
            // Group 1: memcpy-in + cuVec2Zvec + 3D-FFT backward + cuZcopy
            // + FFT backward xy.
            let g1 = kt(KernelId::Vec2Zvec, batch, 1.0)
                + fft(batch)
                + kt(KernelId::Zcopy, batch, 1.0)
                + fft(batch);
            // Group 2: pairwise multiplication.
            let g2 = kt(KernelId::Pairwise, batch, 1.0);
            // Group 3: FFT fwd + cuDscal + cuZcopy + FFT fwd + cuZvec2Vec.
            // The whole group (FFTs included) suffers the pairwise L2
            // interference: cuPairwise runs immediately before and evicts
            // the lines Group 3 reloads. The forward transpose (cuZcopy
            // here) moves padded data, so it is ~2x heavier than the
            // backward one in Group 1 — which is why the paper assigns the
            // shared kernel to Group 3 ("the region with highest impact").
            let g3 = (fft(batch)
                + kt(KernelId::Dscal, batch, 1.0)
                + 2.0 * kt(KernelId::Zcopy, batch, 1.0)
                + fft(batch)
                + kt(KernelId::Zvec2Vec, batch, 1.0))
                * g3_cache_penalty;
            [g1, g2, g3]
        };

        // ---- Loop structure: every (spin, kpoint) computes its bands in
        // batch-sized invocations; the last batch may be partial.
        let full_batches = local_bands / nbatches;
        let tail = local_bands % nbatches;
        let invocation_time = |batch: usize| -> f64 {
            let g = group_times(batch);
            let compute: f64 = g.iter().sum();
            let transfer = 2.0 * h2d(batch);
            // CUDA streams overlap transfers with compute (interior-optimum
            // curve: contention beyond a handful of streams).
            let overlap = gpu.stream_overlap(nstreams);
            let stream_overhead = 2e-6 * nstreams as f64;
            compute + transfer * overlap + stream_overhead
        };
        // Every (spin, kpoint) iteration has the same invocation profile,
        // so compute the two distinct invocation costs once.
        let per_sk = full_batches as f64 * invocation_time(nbatches)
            + if tail > 0 { invocation_time(tail) } else { 0.0 };
        let slater = (local_spins * local_kpoints) as f64 * per_sk;
        // Group observables: the per-invocation kernel-group times of a
        // *full* batch (what a profiler reports per kernel launch). Using
        // the full-batch time keeps MPI decomposition out of the per-kernel
        // observables, matching the paper's Tables V/VI where MPI
        // parameters do not appear among the GPU groups' top influences.
        let g_means = group_times(nbatches);

        // ---- MPI communication: per-(spin,kpoint) reduction of the
        // density contribution across the band ranks, plus a final
        // allreduce across everything.
        let reduce_bytes = (n * 16) as f64;
        let p = ranks.max(1) as f64;
        let allreduce = p.log2().ceil().max(0.0) * gpu.net_latency + reduce_bytes / gpu.net_bw;
        let comm = (local_spins * local_kpoints) as f64 * allreduce;

        // Idle-rank waste: ranks beyond the problem's parallelism do
        // nothing but still synchronize (captured as pure loss via the
        // ceil-splits above — e.g. nkpb > nkpoints leaves local_kpoints at
        // 1 while ranks grow, wasting allocation but not time; the paper's
        // balance constraints exist to avoid exactly this).
        // One pass of the outer loops, as the paper tunes ("to optimize
        // computational resources during the tuning search, a single
        // iteration of the outer loop is executed").
        let total = slater + comm;

        Some(SimBreakdown {
            g1: g_means[0],
            g2: g_means[1],
            g3: g_means[2],
            slater,
            total,
        })
    }

    /// Configuration-keyed multiplicative noise factor.
    fn noise_factor(&self, cfg: &Config, salt: u64) -> f64 {
        if self.noise_sigma == 0.0 {
            return 1.0;
        }
        let mut h = self.seed ^ salt ^ 0xD6E8_FEB8_6659_FD93;
        for v in cfg {
            h = h
                .rotate_left(17)
                .wrapping_mul(0xA24B_AED4_963E_E407)
                .wrapping_add(v.as_f64().to_bits());
        }
        let mut rng = StdRng::seed_from_u64(h);
        (1.0 + cets_core::normal::sample(&mut rng, 0.0, self.noise_sigma)).max(0.5)
    }
}

/// Per-region simulated times in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimBreakdown {
    /// Mean per-invocation Group 1 time (cuVec2Zvec, FFTs, cuZcopy).
    pub g1: f64,
    /// Mean per-invocation Group 2 time (cuPairwise).
    pub g2: f64,
    /// Mean per-invocation Group 3 time (FFTs, cuDscal, cuZcopy, cuZvec2Vec).
    pub g3: f64,
    /// Slater-determinant region time on the critical rank.
    pub slater: f64,
    /// Total application time (Slater + MPI communication).
    pub total: f64,
}

impl Objective for TddftSimulator {
    fn space(&self) -> &SearchSpace {
        &self.space
    }

    fn routine_names(&self) -> Vec<String> {
        vec![
            "G1".into(),
            "G2".into(),
            "G3".into(),
            "Slater".into(),
            "MPI".into(),
        ]
    }

    fn evaluate(&self, cfg: &Config) -> Observation {
        let b = self.simulate(cfg);
        let noisy = |v: f64, salt: u64| v * self.noise_factor(cfg, salt);
        let total = noisy(b.total, 4);
        Observation {
            total,
            routines: vec![
                noisy(b.g1, 0),
                noisy(b.g2, 1),
                noisy(b.g3, 2),
                noisy(b.slater, 3),
                total,
            ],
        }
    }

    /// Constructive constrained sampling: draw each kernel's `tb` first and
    /// then `tb_sm` within the occupancy headroom, and the MPI grid by
    /// rejection over just its three dimensions — every draw is valid, so
    /// full-space sampling works where blind rejection starves (see the
    /// `exp_highdim_infeasible` experiment).
    fn sample_valid(&self, rng: &mut dyn rand::Rng) -> Option<Config> {
        use rand::RngExt;
        let sp = &self.space;
        let grid = (
            sp.def_of("nstb").ok()?,
            sp.def_of("nkpb").ok()?,
            sp.def_of("nspb").ok()?,
        );
        let mut pairs: Vec<(String, f64)> = Vec::with_capacity(20);
        // MPI grid: rejection over 3 dims only (high acceptance).
        for _ in 0..1000 {
            let draw = |def: &cets_space::ParamDef, rng: &mut dyn rand::Rng| -> f64 {
                def.decode(rng.random::<f64>()).as_f64()
            };
            let nstb = draw(grid.0, rng);
            let nkpb = draw(grid.1, rng);
            let nspb = draw(grid.2, rng);
            if (nstb * nkpb * nspb) as usize <= self.case.max_ranks {
                pairs.push(("nstb".into(), nstb));
                pairs.push(("nkpb".into(), nkpb));
                pairs.push(("nspb".into(), nspb));
                break;
            }
        }
        if pairs.is_empty() {
            return None;
        }
        pairs.push(("nbatches".into(), rng.random_range(1..=32) as f64));
        pairs.push(("nstreams".into(), rng.random_range(1..=32) as f64));
        for (k, _) in KERNELS {
            let s = k.short();
            let u = [1.0, 2.0, 4.0, 8.0][rng.random_range(0..4usize)];
            let tb = (rng.random_range(1..=32) * 32) as f64;
            let max_tb_sm = ((2048.0 / tb) as i64).clamp(1, 32);
            let tb_sm = rng.random_range(1..=max_tb_sm) as f64;
            pairs.push((format!("u_{s}"), u));
            pairs.push((format!("tb_{s}"), tb));
            pairs.push((format!("tb_sm_{s}"), tb_sm));
        }
        let borrowed: Vec<(&str, f64)> = pairs.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let cfg = sp.config_from_pairs(&borrowed).ok()?;
        sp.is_valid(&cfg).then_some(cfg)
    }

    /// One rank per MPI grid dimension, 8 bands per batch, one stream and
    /// every kernel at `u = 1`, `tb = 64`, `tb_sm = 1` (in space order).
    fn default_config(&self) -> Config {
        use cets_space::ParamDef::Ordinal;
        use cets_space::ParamValue::{Int, Real};
        // The grid's divisor lists (expert constraints) hold 1 as an
        // ordinal value; otherwise the grid dimensions are integers.
        let mut cfg: Config = self.space.defs()[..3]
            .iter()
            .map(|def| match def {
                Ordinal { .. } => Real(1.0),
                _ => Int(1),
            })
            .collect();
        cfg.extend([Int(8), Int(1)]);
        for _ in KERNELS {
            cfg.extend([Real(1.0), Real(64.0), Int(1)]);
        }
        cfg
    }
}

/// All positive divisors of `n`, ascending (expert MPI-grid values).
pub fn divisors(n: usize) -> Vec<f64> {
    (1..=n)
        .filter(|d| n.is_multiple_of(*d))
        .map(|d| d as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cets_core::{routine_sensitivity, VariationPolicy};

    #[test]
    fn space_matches_table_iv() {
        let sim = TddftSimulator::new(CaseStudy::case1());
        // 3 MPI + 2 iteration + 5 kernels × 3 = 20 parameters.
        assert_eq!(sim.space().dim(), 20);
        // GPU sub-space cardinality: (4·32·32)^5 × 32 × 32 = 41,943,040 ×
        // ... the paper counts 4·32·32 per kernel and 32×32 for
        // streams/batches: check per-kernel counts.
        assert_eq!(sim.space().def_of("u_vec").unwrap().cardinality(), Some(4));
        assert_eq!(
            sim.space().def_of("tb_pair").unwrap().cardinality(),
            Some(32)
        );
        assert_eq!(
            sim.space().def_of("tb_sm_zcopy").unwrap().cardinality(),
            Some(32)
        );
        assert_eq!(
            sim.space().def_of("nbatches").unwrap().cardinality(),
            Some(32)
        );
    }

    #[test]
    fn occupancy_constraint_enforced() {
        let sim = TddftSimulator::new(CaseStudy::case1());
        let mut cfg = sim.default_config();
        let sp = sim.space();
        cfg = sp
            .with_value(&cfg, "tb_pair", cets_space::ParamValue::Real(1024.0))
            .unwrap();
        cfg = sp
            .with_value(&cfg, "tb_sm_pair", cets_space::ParamValue::Int(32))
            .unwrap();
        assert!(!sp.is_valid(&cfg));
    }

    #[test]
    fn mpi_rank_constraint_enforced() {
        let sim = TddftSimulator::new(CaseStudy::case2());
        let sp = sim.space();
        let mut cfg = sim.default_config();
        cfg = sp
            .with_value(&cfg, "nstb", cets_space::ParamValue::Int(8))
            .unwrap();
        cfg = sp
            .with_value(&cfg, "nkpb", cets_space::ParamValue::Int(6))
            .unwrap();
        // 8 × 6 × 1 = 48 > 40 ranks.
        assert!(!sp.is_valid(&cfg));
    }

    #[test]
    fn expert_constraints_restrict_to_divisors() {
        let sim = TddftSimulator::new(CaseStudy::case2()).with_expert_constraints();
        let def = sim.space().def_of("nkpb").unwrap();
        assert_eq!(def.cardinality(), Some(9)); // divisors of 36
        let nstb = sim.space().def_of("nstb").unwrap();
        assert_eq!(nstb.cardinality(), Some(7)); // divisors of 64
    }

    #[test]
    fn default_config_is_the_named_valid_default() {
        for sim in [
            TddftSimulator::new(CaseStudy::case1()),
            TddftSimulator::new(CaseStudy::case2()).with_expert_constraints(),
        ] {
            let value = |name: &str| match name {
                "nbatches" => 8.0,
                n if n.starts_with("tb_") && !n.starts_with("tb_sm_") => 64.0,
                _ => 1.0,
            };
            let names = sim.space().names();
            let pairs: Vec<(&str, f64)> = names.iter().map(|n| (n.as_str(), value(n))).collect();
            let named = sim.space().config_from_pairs(&pairs).unwrap();
            assert_eq!(sim.default_config(), named);
            assert!(sim.space().is_valid(&named));
        }
    }

    #[test]
    fn simulate_is_nan_for_a_config_that_lacks_a_parameter() {
        let sim = TddftSimulator::new(CaseStudy::case1());
        let mut cfg = sim.default_config();
        cfg.pop();
        let b = sim.simulate(&cfg);
        for v in [b.g1, b.g2, b.g3, b.slater, b.total] {
            assert!(v.is_nan(), "{b:?}");
        }
        assert!(sim.evaluate(&cfg).total.is_nan());
    }

    #[test]
    fn simulate_is_deterministic_and_finite() {
        let sim = TddftSimulator::new(CaseStudy::case1());
        let cfg = sim.default_config();
        let a = sim.simulate(&cfg);
        let b = sim.simulate(&cfg);
        assert_eq!(a, b);
        for v in [a.g1, a.g2, a.g3, a.slater, a.total] {
            assert!(v.is_finite() && v > 0.0, "{a:?}");
        }
        // Slater dominates the total; groups are per-invocation so much
        // smaller.
        assert!(a.total >= a.slater);
        assert!(a.slater > a.g1 + a.g2 + a.g3);
    }

    #[test]
    fn nbatches_scales_group_times() {
        let sim = TddftSimulator::new(CaseStudy::case1()).with_noise(0.0);
        let sp = sim.space();
        let base = sim.default_config();
        let big = sp
            .with_value(&base, "nbatches", cets_space::ParamValue::Int(32))
            .unwrap();
        let small = sp
            .with_value(&base, "nbatches", cets_space::ParamValue::Int(1))
            .unwrap();
        let b_big = sim.simulate(&big);
        let b_small = sim.simulate(&small);
        // Per-invocation group times grow strongly with the batch size.
        assert!(b_big.g1 > 8.0 * b_small.g1);
        assert!(b_big.g2 > 8.0 * b_small.g2);
        assert!(b_big.g3 > 8.0 * b_small.g3);
    }

    #[test]
    fn nstb_reduces_slater_time() {
        let sim = TddftSimulator::new(CaseStudy::case1()).with_noise(0.0);
        let sp = sim.space();
        let base = sim.default_config(); // nstb = 1
        let split = sp
            .with_value(&base, "nstb", cets_space::ParamValue::Int(8))
            .unwrap();
        let t1 = sim.simulate(&base).slater;
        let t8 = sim.simulate(&split).slater;
        assert!(
            t8 < t1 / 4.0,
            "8-way band split should cut Slater time: {t1} -> {t8}"
        );
    }

    #[test]
    fn pairwise_occupancy_perturbs_group3() {
        let sim = TddftSimulator::new(CaseStudy::case1()).with_noise(0.0);
        let sp = sim.space();
        let base = sim.default_config(); // tb_pair=64, tb_sm_pair=1 (low occ)
        let hot = sp
            .with_value(&base, "tb_sm_pair", cets_space::ParamValue::Int(32))
            .unwrap();
        let b0 = sim.simulate(&base);
        let b1 = sim.simulate(&hot);
        // Group 3 suffers; Group 1 does not (cache effect is directional).
        assert!(b1.g3 > 1.2 * b0.g3, "{} vs {}", b1.g3, b0.g3);
        assert!((b1.g1 - b0.g1).abs() < 1e-3 * b0.g1.max(1e-12));
    }

    #[test]
    fn streams_overlap_reduces_slater() {
        let sim = TddftSimulator::new(CaseStudy::case1()).with_noise(0.0);
        let sp = sim.space();
        let base = sim.default_config(); // nstreams = 1
        let s4 = sp
            .with_value(&base, "nstreams", cets_space::ParamValue::Int(4))
            .unwrap();
        let s32 = sp
            .with_value(&base, "nstreams", cets_space::ParamValue::Int(32))
            .unwrap();
        let t1 = sim.simulate(&base).slater;
        let t4 = sim.simulate(&s4).slater;
        let t32 = sim.simulate(&s32).slater;
        assert!(t4 < t1, "4 streams should beat 1: {t4} vs {t1}");
        // Diminishing returns / contention: 32 streams not better than 4.
        assert!(t32 >= t4 * 0.98, "{t32} vs {t4}");
    }

    #[test]
    fn observation_matches_simulation_without_noise() {
        let sim = TddftSimulator::new(CaseStudy::case2()).with_noise(0.0);
        let cfg = sim.default_config();
        let b = sim.simulate(&cfg);
        let obs = sim.evaluate(&cfg);
        assert_eq!(obs.total, b.total);
        assert_eq!(obs.routines, vec![b.g1, b.g2, b.g3, b.slater, b.total]);
    }

    #[test]
    fn noise_is_bounded_and_deterministic() {
        let sim = TddftSimulator::new(CaseStudy::case1());
        let cfg = sim.default_config();
        let a = sim.evaluate(&cfg);
        let b = sim.evaluate(&cfg);
        assert_eq!(a, b);
        let clean = TddftSimulator::new(CaseStudy::case1())
            .with_noise(0.0)
            .evaluate(&cfg);
        assert!((a.total / clean.total - 1.0).abs() < 0.2);
    }

    #[test]
    fn owners_cover_all_params() {
        let sim = TddftSimulator::new(CaseStudy::case1());
        let owners = TddftSimulator::owners();
        assert_eq!(owners.len(), 20);
        for name in sim.space().names() {
            assert!(
                owners.iter().any(|(p, _)| p == name),
                "missing owner for {name}"
            );
        }
    }

    /// The headline sensitivity structure of paper Tables V/VI, on Case
    /// Study 1: nbatches dominates the GPU groups, nstb dominates the
    /// Slater region, and pairwise parameters cross into Group 3.
    #[test]
    fn sensitivity_structure_matches_paper() {
        let sim = TddftSimulator::new(CaseStudy::case1()).with_noise(0.0);
        let baseline = sim.default_config();
        let scores =
            routine_sensitivity(&sim, &baseline, &VariationPolicy::Spread { count: 5 }).unwrap();

        let s = |p: &str, r: &str| scores.score_by_name(p, r).unwrap();
        // nbatches dominates per-invocation group times.
        for g in ["G1", "G2", "G3"] {
            assert!(
                s("nbatches", g) > 0.5,
                "nbatches→{g} = {}",
                s("nbatches", g)
            );
        }
        // nstb dominates the Slater region.
        assert!(
            s("nstb", "Slater") > 0.3,
            "nstb→Slater = {}",
            s("nstb", "Slater")
        );
        // Cross-influence: pairwise params on Group 3, above the paper's
        // 10% cut-off; and far above their (zero) effect on Group 1.
        assert!(
            s("tb_sm_pair", "G3") > 0.10,
            "tb_sm_pair→G3 = {}",
            s("tb_sm_pair", "G3")
        );
        assert!(s("tb_sm_pair", "G1") < 0.01);
        // Group 1 params do not influence Group 2 (weak interdependence).
        assert!(s("u_vec", "G2") < 0.01);
        // MPI params do not influence per-invocation kernel times.
        assert!(s("nstb", "G1") < 0.01);
    }

    #[test]
    fn divisors_helper() {
        assert_eq!(divisors(64).len(), 7);
        assert_eq!(
            divisors(36),
            vec![1.0, 2.0, 3.0, 4.0, 6.0, 9.0, 12.0, 18.0, 36.0]
        );
        assert_eq!(divisors(1), vec![1.0]);
    }
}
