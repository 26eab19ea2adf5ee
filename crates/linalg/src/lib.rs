//! Dense linear-algebra substrate for the Resilient Image Fusion reproduction.
//!
//! The spectral-screening PCT algorithm of Achalakul, Lee and Taylor operates
//! on *pixel vectors* (one sample per spectral band) and on the `n x n`
//! symmetric covariance matrix of the screened pixel set, where `n` is the
//! number of spectral bands (210 for the HYDICE cube used in the paper).
//!
//! This crate provides exactly the operations the eight algorithm steps need,
//! with no external numerical dependencies:
//!
//! * [`Vector`] — a dense `f64` vector with the dot products, norms and
//!   spectral-angle helpers used by step 1 (spectral screening) and step 3
//!   (mean vector); [`dot`] and [`norm`] are the same compensated kernels
//!   on slices, and [`dot_fast`] is the error-bounded plain dot the
//!   screening prefilter decides on.
//! * [`Matrix`] — a dense row-major `f64` matrix used for the transformation
//!   matrix of step 6 and the colour-mapping matrix of step 8.
//! * [`SymMatrix`] — a packed symmetric matrix used for covariance sums
//!   (steps 4–5).
//! * [`covariance`] — outer-product accumulation `C += (x - m)(x - m)^T`
//!   exactly as written in step 4 of the paper.
//! * [`eigen`] — a cyclic Jacobi eigensolver for symmetric matrices plus
//!   eigenpair sorting by descending eigenvalue (step 6).
//! * [`reduce`] — numerically robust reductions (Kahan/Neumaier summation,
//!   pairwise mean) used wherever many floating point values are folded.
//!
//! The types are deliberately simple (`Vec<f64>` storage, no lifetimes in the
//! public API) so they serialise cheaply across the message-passing layers in
//! the `scp` and `netsim` crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod covariance;
pub mod eigen;
pub mod matrix;
pub mod reduce;
#[doc(hidden)]
pub mod reference;
pub mod sym;
pub mod vector;

pub use covariance::CovarianceAccumulator;
pub use eigen::{sorted_eigenpairs, EigenDecomposition, JacobiOptions};
pub use matrix::Matrix;
pub use sym::SymMatrix;
pub use vector::{dot, dot_fast, norm, Vector};

/// Errors produced by linear-algebra operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Two operands had incompatible dimensions.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Dimension of the left operand.
        left: usize,
        /// Dimension of the right operand.
        right: usize,
    },
    /// The Jacobi sweep limit was reached before convergence.
    NotConverged {
        /// Number of sweeps performed.
        sweeps: usize,
        /// Remaining off-diagonal Frobenius norm.
        off_norm_bits: u64,
    },
    /// An operation that requires a non-empty operand received an empty one.
    Empty {
        /// Human-readable description of the operation that failed.
        op: &'static str,
    },
    /// An operation that requires finite input met a `NaN` or an infinity.
    NonFinite {
        /// Human-readable description of the operation that failed.
        op: &'static str,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, left, right } => {
                write!(f, "dimension mismatch in {op}: {left} vs {right}")
            }
            LinalgError::NotConverged {
                sweeps,
                off_norm_bits,
            } => write!(
                f,
                "Jacobi eigensolver did not converge after {sweeps} sweeps (off-diagonal norm {})",
                f64::from_bits(*off_norm_bits)
            ),
            LinalgError::Empty { op } => write!(f, "operation {op} requires a non-empty operand"),
            LinalgError::NonFinite { op } => {
                write!(
                    f,
                    "operation {op} requires finite input (found NaN or infinity)"
                )
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
