//! Model of the *original* CPU/MPI QBox Slater-determinant computation
//! (paper Section V, Figure 3 top) — the version the GPU offload replaces.
//!
//! In the CPU code the wavefunction is distributed over a 4-dimensional
//! MPI grid `nspb × nkpb × nstb × ngb`; each band's 3D FFT is computed as
//! 2D FFTs + a **distributed matrix transpose (all-to-all over the `ngb`
//! ranks)** + 1D FFTs. The paper's profiling attributes 40-50% of the
//! runtime to communication, most of it in this transpose&padding step —
//! the number this model is calibrated to reproduce, and the motivation
//! for replacing the distributed FFT with a single-rank GPU 3D FFT
//! (`ngb = 1` in the GPU version).

use serde::{Deserialize, Serialize};

/// CPU-node and interconnect constants (Perlmutter-like CPU partition).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuArch {
    /// Sustained per-rank FFT throughput, flop/s (one EPYC core group with
    /// its OpenMP helpers).
    pub fft_flops: f64,
    /// Sustained per-rank streaming bandwidth for local packing, bytes/s.
    pub mem_bw: f64,
    /// Network point-to-point latency, seconds.
    pub net_latency: f64,
    /// Per-rank network bandwidth, bytes/s.
    pub net_bw: f64,
}

impl Default for CpuArch {
    fn default() -> Self {
        CpuArch {
            fft_flops: 25.0e9,
            mem_bw: 20.0e9,
            net_latency: 2.0e-6,
            net_bw: 6.0e9,
        }
    }
}

/// Per-region breakdown of one CPU Slater-determinant pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuBreakdown {
    /// Local FFT + pairwise compute time (per rank, seconds).
    pub compute: f64,
    /// Communication time: transpose all-to-alls + reductions (seconds).
    pub comm: f64,
    /// Total region time.
    pub total: f64,
}

impl CpuBreakdown {
    /// Fraction of the runtime spent communicating — the paper reports
    /// 40-50% for realistic configurations.
    pub fn comm_fraction(&self) -> f64 {
        if self.total > 0.0 {
            self.comm / self.total
        } else {
            0.0
        }
    }
}

/// The CPU QBox Slater-determinant model.
#[derive(Debug, Clone, Default)]
pub struct CpuQbox {
    /// Architecture constants.
    pub arch: CpuArch,
}

impl CpuQbox {
    /// Simulate one Slater-determinant pass.
    ///
    /// * `fft_size` — double-complex elements per band;
    /// * `nbands`, `nkpoints`, `nspin` — problem shape;
    /// * `nstb`, `nkpb`, `nspb`, `ngb` — the 4D MPI grid (Figure 3).
    ///
    /// Work per (spin, kpoint, band): forward + backward 3D FFT split as
    /// 2D+1D with two distributed transposes over the `ngb` plane-wave
    /// ranks, plus the pairwise multiplication.
    #[allow(clippy::too_many_arguments)]
    pub fn simulate(
        &self,
        fft_size: usize,
        nbands: usize,
        nkpoints: usize,
        nspin: usize,
        nstb: usize,
        nkpb: usize,
        nspb: usize,
        ngb: usize,
    ) -> CpuBreakdown {
        let a = &self.arch;
        let (nstb, nkpb, nspb, ngb) = (nstb.max(1), nkpb.max(1), nspb.max(1), ngb.max(1));
        let local_bands = nbands.div_ceil(nstb);
        let local_kpoints = nkpoints.div_ceil(nkpb);
        let local_spins = nspin.div_ceil(nspb);
        let iterations = (local_spins * local_kpoints * local_bands) as f64;

        let n = fft_size as f64;
        // FFT flops split across the ngb ranks; 4 FFT passes per band
        // (2D bwd, 1D bwd, 1D fwd, 2D fwd).
        let fft_per_band = 4.0 * 5.0 * n * n.log2() / (ngb as f64 * a.fft_flops);
        // Pairwise multiplication: one read-modify-write sweep.
        let pair_per_band = n * 16.0 * 2.0 / (ngb as f64 * a.mem_bw);
        let compute = iterations * (fft_per_band + pair_per_band);

        // Two distributed transposes per band: each rank exchanges its
        // slab (n/ngb elements, 16 B each) with the other ngb-1 ranks,
        // plus a local packing/padding pass.
        let slab_bytes = n * 16.0 / ngb as f64;
        // All-to-all congestion: effective bandwidth degrades ~log2(p) as
        // the exchange pattern saturates the injection links.
        let congestion = (ngb as f64).log2().max(1.0);
        let transpose = if ngb > 1 {
            2.0 * ((ngb - 1) as f64 * a.net_latency + slab_bytes * congestion / a.net_bw)
                + 2.0 * slab_bytes / a.mem_bw
        } else {
            // Single rank: the transpose degenerates to a local copy.
            2.0 * slab_bytes / a.mem_bw
        };
        // Per-kpoint reduction across band ranks.
        let p = (nstb * nkpb * nspb * ngb) as f64;
        let reduce = p.log2().ceil().max(0.0) * a.net_latency + slab_bytes / a.net_bw;
        let comm = iterations * transpose + (local_spins * local_kpoints) as f64 * reduce;

        CpuBreakdown {
            compute,
            comm,
            total: compute + comm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qbox() -> CpuQbox {
        CpuQbox::default()
    }

    #[test]
    fn breakdown_finite_positive() {
        let b = qbox().simulate(3_000_000, 64, 1, 1, 4, 1, 1, 8);
        assert!(b.compute > 0.0 && b.comm > 0.0);
        assert!((b.total - (b.compute + b.comm)).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&b.comm_fraction()));
    }

    #[test]
    fn realistic_configs_hit_paper_comm_fraction() {
        // Case-Study-1-like problem on a typical CPU decomposition: the
        // communication fraction lands in the paper's 40-50% band for some
        // realistic ngb.
        let q = qbox();
        let sweep: Vec<(usize, f64)> = [4, 8, 16, 32, 64]
            .into_iter()
            .map(|ngb| {
                let b = q.simulate(3_000_000, 64, 1, 1, 4, 1, 1, ngb);
                (ngb, b.comm_fraction())
            })
            .collect();
        let in_band = sweep
            .iter()
            .filter(|(_, f)| (0.35..=0.55).contains(f))
            .count();
        assert!(
            in_band >= 1,
            "no ngb gives the paper's 40-50% comm fraction: {sweep:?}"
        );
    }

    #[test]
    fn comm_fraction_grows_with_ngb() {
        // More plane-wave ranks shrink local FFT work but add all-to-all
        // partners: the comm fraction rises monotonically past small ngb.
        let q = qbox();
        let f8 = q.simulate(3_000_000, 64, 1, 1, 4, 1, 1, 8).comm_fraction();
        let f64_ = q.simulate(3_000_000, 64, 1, 1, 4, 1, 1, 64).comm_fraction();
        assert!(f64_ > f8, "{f64_} !> {f8}");
    }

    #[test]
    fn single_gb_rank_has_minimal_comm() {
        let q = qbox();
        let b = q.simulate(3_000_000, 64, 1, 1, 4, 1, 1, 1);
        assert!(
            b.comm_fraction() < 0.2,
            "ngb=1 should be compute-dominated: {}",
            b.comm_fraction()
        );
    }

    #[test]
    fn more_band_ranks_cut_time() {
        let q = qbox();
        let t1 = q.simulate(620_000, 64, 36, 1, 1, 1, 1, 8).total;
        let t8 = q.simulate(620_000, 64, 36, 1, 8, 1, 1, 8).total;
        assert!(t8 < t1 / 4.0);
    }
}
