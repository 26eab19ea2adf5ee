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
//! * [`eigen`] — step 6: every eigenvalue by Householder + values-only QL,
//!   sorted descending, and the leading eigenvectors by inverse iteration.
//! * [`reduce`] — numerically robust reductions (Kahan/Neumaier summation,
//!   pairwise mean) used wherever many floating point values are folded.
//!
//! The types are deliberately simple (`Vec<f64>` storage, no lifetimes in the
//! public API) so they serialise cheaply across the message-passing layers in
//! the `scp` and `netsim` crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod covariance;
pub mod eigen;
pub mod matrix;
pub mod reduce;
#[doc(hidden)]
pub mod reference;
pub mod sym;
pub mod vector;

pub use covariance::CovarianceAccumulator;
pub use eigen::{leading_eigenpairs, sorted_eigenpairs, JacobiOptions};
pub use matrix::Matrix;
pub use sym::SymMatrix;
pub use vector::{dot, dot_fast, norm, Vector};

/// Version of the numerics of this build's kernels.  Two builds with the same
/// value return the same bits from every kernel for the same input, which is
/// what lets workers of different processes serve one job byte-identically;
/// the wire handshake refuses a peer that announces another value.  Bumped
/// by anything that can change a last bit of a kernel's output: another
/// algorithm, another summation or rotation order, a fused or reassociated
/// operation, a call into a maths library.  1: step 6 was the cyclic Jacobi
/// kept as [`reference::jacobi_eigen_reference`]; 2: Householder + QL
/// accumulating every eigenvector; 3: the solver of [`eigen`] — version 2's
/// eigenvalues bit for bit, the rows by inverse iteration (within a few
/// `1e-14` of version 2's where the eigenvalue is well separated).
pub const NUMERICS_VERSION: u32 = 3;

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
    /// The eigensolver's iteration limit was reached before convergence.
    NotConverged {
        /// Iterations performed: QL iterations on the eigenvalue that did
        /// not separate, sweeps of the Jacobi oracle.
        sweeps: usize,
        /// Bits of what was left to annihilate: the magnitude of the
        /// coupling sub-diagonal entry (of the matrix scaled to a largest
        /// entry in `[1, 2)`), the off-diagonal Frobenius norm of the oracle.
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
                "eigensolver did not converge after {sweeps} iterations (off-diagonal {} left)",
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
