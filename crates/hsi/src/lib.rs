//! Hyper-spectral imagery substrate for the Resilient Image Fusion
//! reproduction.
//!
//! The paper fuses a 210-band HYDICE cube (an airborne imaging spectrometer,
//! 400 nm – 2.5 µm, foliated scenes containing camouflaged mechanized
//! vehicles) of spatial size 320×320.  Because the HYDICE collection is not
//! redistributable, this crate provides:
//!
//! * [`HyperCube`] — the in-memory cube representation (band-interleaved by
//!   pixel) with pixel-vector access, band planes and sub-cube extraction.
//! * [`synthetic`] — a deterministic synthetic scene generator that builds a
//!   HYDICE-like cube from material spectral signatures (forest, grass,
//!   soil, road, water, vehicle paint, camouflage net), spatial layout and
//!   per-band sensor noise.  The generated cube has the same statistical
//!   structure the fusion pipeline cares about: strongly correlated bands, a
//!   handful of dominant background materials and rare, spectrally distinct
//!   targets.
//! * [`partition`] — manager-side decomposition of a cube into sub-cubes
//!   (the unit of work handed to workers) with the granularity control
//!   studied in Figure 5.
//! * [`view`] — zero-copy `Arc`-backed [`CubeView`] windows over a shared
//!   cube: what the message plane ships instead of owned sub-cube copies,
//!   plus the process-wide clone ledger that proves it (`bytes_cloned`).
//! * [`io`] — PGM/PPM writers for single bands and fused colour composites,
//!   plus a simple binary cube format for persisting synthetic scenes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod cube;
pub mod io;
pub mod partition;
pub mod rgb;
pub mod synthetic;
pub mod view;

pub use cube::{CubeDims, HyperCube};
pub use io::{CubeFileHeader, Interleave};
pub use partition::{GranularityPolicy, SubCube, SubCubeSpec};
pub use rgb::RgbImage;
pub use synthetic::{Material, SceneConfig, SceneGenerator};
pub use view::{charge_assembled_bytes, thread_cloned_bytes_total, CloneLedger, CubeView};

/// Errors produced by the hyper-spectral imagery substrate.
#[derive(Debug)]
pub enum HsiError {
    /// Requested coordinates or dimensions fall outside the cube.
    OutOfBounds {
        /// What was being accessed.
        what: &'static str,
        /// The offending index.
        index: usize,
        /// The exclusive bound.
        bound: usize,
    },
    /// The provided buffer length does not match the cube dimensions.
    ShapeMismatch {
        /// Expected number of samples.
        expected: usize,
        /// Actual number of samples.
        actual: usize,
    },
    /// A configuration value was invalid (zero dimension, empty material set…).
    InvalidConfig(String),
    /// An I/O error from reading or writing image files.
    Io(std::io::Error),
}

impl std::fmt::Display for HsiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HsiError::OutOfBounds { what, index, bound } => {
                write!(f, "{what} index {index} out of bounds (max {bound})")
            }
            HsiError::ShapeMismatch { expected, actual } => {
                write!(
                    f,
                    "shape mismatch: expected {expected} samples, got {actual}"
                )
            }
            HsiError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            HsiError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HsiError {}

impl From<std::io::Error> for HsiError {
    fn from(e: std::io::Error) -> Self {
        HsiError::Io(e)
    }
}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, HsiError>;
