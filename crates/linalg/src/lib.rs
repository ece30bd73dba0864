//! # cets-linalg
//!
//! Small, dependency-free dense linear algebra used by the CETS Gaussian
//! process surrogate (`cets-gp`) and the statistics toolkit (`cets-stats`).
//!
//! The crate deliberately implements only what the tuning methodology needs:
//!
//! * a dense row-major [`Matrix`] with the usual arithmetic,
//! * [`Cholesky`] factorization with automatic jitter escalation — the
//!   workhorse of Gaussian-process fitting (the `O(N^3)` cost the paper
//!   discusses comes from here),
//! * [`Lu`] (partial pivoting) for general square solves, which the
//!   statistics layer's partial correlations use,
//! * [`SymEigen`] (cyclic Jacobi) for the GP layer's kernel-conditioning
//!   diagnostic,
//! * free-function vector helpers in [`vecops`].
//!
//! Everything is `f64`; tuning problems are tiny by BLAS standards (a few
//! hundred observations), so clarity and numerical robustness are favoured
//! over cache-blocked performance. All factorizations are deterministic.
//!
//! ```
//! use cets_linalg::{Matrix, Cholesky};
//! let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
//! let ch = Cholesky::new(&a).unwrap();
//! let x = ch.solve_vec(&[2.0, 1.0]);
//! // A * x == b
//! let b = a.mat_vec(&x);
//! assert!((b[0] - 2.0).abs() < 1e-12 && (b[1] - 1.0).abs() < 1e-12);
//! ```

// Triangular solves and factorizations are written with explicit index
// loops on purpose: the ranges (k < i, strictly-lower, etc.) mirror the
// textbook algorithms, and iterator rewrites obscure them.
#![allow(clippy::needless_range_loop)]

mod cholesky;
mod eigen;
mod lu;
mod matrix;
pub mod par;
#[doc(hidden)]
pub mod simd;
pub mod vecops;

pub use cholesky::Cholesky;
pub use eigen::SymEigen;
pub use lu::Lu;
pub use matrix::Matrix;
pub use par::{ParConfig, Threads};

/// Errors produced by factorizations and shape-checked operations.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Two operands had incompatible shapes; payload is a human-readable
    /// description of the mismatch.
    ShapeMismatch(String),
    /// The matrix was not positive definite even after the maximum jitter
    /// escalation; payload is the last jitter tried.
    NotPositiveDefinite { last_jitter: f64 },
    /// The matrix is singular to working precision (LU).
    Singular,
    /// The operation requires a square matrix.
    NotSquare { rows: usize, cols: usize },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            LinalgError::NotPositiveDefinite { last_jitter } => write!(
                f,
                "matrix not positive definite (last jitter tried: {last_jitter:e})"
            ),
            LinalgError::Singular => write!(f, "matrix is singular to working precision"),
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "operation requires a square matrix, got {rows}x{cols}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
