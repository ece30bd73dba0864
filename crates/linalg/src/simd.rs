//! The compiled copies of the vector kernels and the run-time choice
//! between them. Not part of the API: `cets-gp` dispatches its
//! cross-covariance fill through [`Isa`], and the bit-identity properties
//! in `tests/` run each copy through [`aat`] and [`solve_lower_multi`].
//!
//! Each kernel (the panel-packed rows of [`Matrix::aat`], the forward
//! solve stripe of [`Cholesky::solve_lower_multi`] and `cets-gp`'s
//! cross-covariance fill) is one source compiled twice: for the baseline
//! target, and on x86-64 once more under `#[target_feature(enable =
//! "avx2")]`, where LLVM vectorizes the same loops at 256 bits. FMA stays
//! off in both copies, and Rust never contracts `a * b + c`, so every lane
//! performs exactly the IEEE operations of the scalar loop and the copies
//! agree bit for bit. [`Isa::detect`] picks the widest copy the CPU runs.

use crate::{Cholesky, Matrix, Result};

/// One compiled copy of the vector kernels. A value naming the AVX2 copy
/// exists only on a CPU that runs AVX2, which is what makes dispatching
/// on it sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Isa {
    avx2: bool,
}

impl Isa {
    /// The copy compiled for the baseline target.
    pub fn baseline() -> Isa {
        Isa { avx2: false }
    }

    /// The AVX2 copy, when this CPU runs it.
    pub fn avx2() -> Option<Isa> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(Isa { avx2: true });
        }
        None
    }

    /// The widest copy this CPU runs.
    pub fn detect() -> Isa {
        Isa::avx2().unwrap_or_else(Isa::baseline)
    }

    /// Whether this is the AVX2 copy (and so the CPU runs AVX2).
    pub fn is_avx2(self) -> bool {
        self.avx2
    }
}

/// [`Matrix::aat_with`] on the given copy.
pub fn aat(a: &Matrix, workers: usize, isa: Isa) -> Matrix {
    a.aat_on(workers, isa)
}

/// [`Cholesky::solve_lower_multi_with`] on the given copy.
pub fn solve_lower_multi(l: &Cholesky, b: &mut Matrix, workers: usize, isa: Isa) -> Result<()> {
    l.solve_lower_multi_on(b, workers, isa)
}
