//! Protocol messages exchanged by the distributed and resilient
//! implementations.
//!
//! The message set follows the eight-step decomposition directly: the manager
//! hands out screening, covariance and transform tasks; workers return unique
//! sets, partial covariance sums and colour-mapped image strips.  Heartbeats
//! and shutdown are the only control messages.
//!
//! Sub-cube payloads travel as [`CubeView`]s: `Arc`-backed windows over the
//! shared full cube, so building a task, storing it for re-issue, and
//! fanning it out to every member of a replica group are all reference-count
//! bumps instead of pixel copies.  In-process the `scp` router moves
//! messages by ownership transfer; at a true process boundary the `wire`
//! codec calls [`CubeView::copy_runs`] during serialization (charged to the
//! clone ledger), which is the only point pixels are copied.
//!
//! The `Serialize`/`Deserialize` derives document that intent against the
//! offline serde *shim* (whose traits are blanket markers).  Swapping in
//! real serde now also requires a materializing serde impl for `CubeView`
//! (encode the window as an owned sub-cube, decode into fresh storage) —
//! recorded as part of the shim-swap item in ROADMAP.md.

use hsi::CubeView;
use linalg::{Matrix, Vector};
use serde::{Deserialize, Serialize};

/// Identifier of one unit of work (one sub-cube or one covariance chunk).
pub type TaskId = usize;

/// Messages of the fusion protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PctMessage {
    /// Manager → worker: screen this sub-cube (step 1).
    ScreenTask {
        /// Work item identifier.
        task: TaskId,
        /// Zero-copy view of the sub-cube to screen.
        view: CubeView,
        /// Screening threshold in radians.
        threshold_rad: f64,
    },
    /// Worker → manager: the unique set of a screened sub-cube (step 1 → 2).
    UniqueSet {
        /// Work item identifier.
        task: TaskId,
        /// Unique pixel vectors found in the sub-cube.
        unique: Vec<Vector>,
    },
    /// Manager → worker: accumulate the covariance sum of these unique-set
    /// vectors around the broadcast mean (step 4).
    CovarianceTask {
        /// Work item identifier.
        task: TaskId,
        /// The mean vector of the merged unique set (step 3).
        mean: Vector,
        /// This worker's share of the unique set.
        pixels: Vec<Vector>,
    },
    /// Worker → manager: a packed partial covariance sum (step 4 → 5).
    CovarianceSum {
        /// Work item identifier.
        task: TaskId,
        /// Packed upper triangle of the un-normalised covariance sum.
        packed: Vec<f64>,
        /// Number of spectral bands (packed layout dimension).
        bands: usize,
        /// Number of vectors accumulated.
        count: u64,
    },
    /// Manager → worker: transform and colour-map this sub-cube (steps 7–8).
    TransformTask {
        /// Work item identifier.
        task: TaskId,
        /// Zero-copy view of the sub-cube to transform.
        view: CubeView,
        /// Mean vector of the unique set.
        mean: Vector,
        /// Rows are the leading eigenvectors (the transformation matrix A).
        transform: Matrix,
        /// Per-component `(min, max)` colour scales derived from the
        /// eigenvalues, so workers can colour-map locally.
        scales: Vec<(f64, f64)>,
    },
    /// Worker → manager: a colour-mapped strip of the final image (step 8).
    RgbStrip {
        /// Work item identifier.
        task: TaskId,
        /// First image row of the strip.
        row_start: usize,
        /// Number of rows.
        rows: usize,
        /// Strip width in pixels.
        width: usize,
        /// Interleaved RGB bytes (`rows * width * 3`).
        rgb: Vec<u8>,
    },
    /// Manager → worker: screen this sub-cube's pixels against an
    /// already-accepted seed set (the service layer's exact screening chain:
    /// folding consecutive sub-cubes through seeded screening reproduces
    /// whole-image screening bit-for-bit).
    ScreenSeededTask {
        /// Work item identifier.
        task: TaskId,
        /// Zero-copy view of the sub-cube to screen.
        view: CubeView,
        /// Unique vectors already accepted by earlier links of the chain.
        seed: Vec<Vector>,
        /// Screening threshold in radians.
        threshold_rad: f64,
    },
    /// Worker → manager: the vectors newly admitted by a seeded screening
    /// task, in admission order.
    SeededUnique {
        /// Work item identifier.
        task: TaskId,
        /// Newly admitted unique vectors (the seed is not echoed back).
        accepted: Vec<Vector>,
    },
    /// Manager → worker: derive the transform (steps 3–6) from the merged
    /// unique set in one pass, exactly as the sequential reference does.
    DeriveTask {
        /// Work item identifier.
        task: TaskId,
        /// The merged unique set.
        unique: Vec<Vector>,
        /// Pipeline configuration (screening angle, output components).
        config: crate::config::PctConfig,
    },
    /// Worker → manager: the derived transform specification.
    DerivedTransform {
        /// Work item identifier.
        task: TaskId,
        /// Mean vector of the unique set (step 3).
        mean: Vector,
        /// Rows are the leading eigenvectors (step 6).
        transform: Matrix,
        /// All eigenvalues, sorted descending.
        eigenvalues: Vec<f64>,
    },
    /// Worker → manager: a task could not be computed from its inputs.
    TaskFailed {
        /// Work item identifier.
        task: TaskId,
        /// Human-readable cause.
        error: String,
    },
    /// Worker → manager: liveness signal consumed by the failure detector.
    Heartbeat,
    /// Manager → worker: all phases complete, exit the worker loop.
    Shutdown,
}

impl PctMessage {
    /// A short label for traces and debugging.
    pub fn kind(&self) -> &'static str {
        match self {
            PctMessage::ScreenTask { .. } => "screen-task",
            PctMessage::UniqueSet { .. } => "unique-set",
            PctMessage::CovarianceTask { .. } => "covariance-task",
            PctMessage::CovarianceSum { .. } => "covariance-sum",
            PctMessage::TransformTask { .. } => "transform-task",
            PctMessage::RgbStrip { .. } => "rgb-strip",
            PctMessage::ScreenSeededTask { .. } => "screen-seeded-task",
            PctMessage::SeededUnique { .. } => "seeded-unique",
            PctMessage::DeriveTask { .. } => "derive-task",
            PctMessage::DerivedTransform { .. } => "derived-transform",
            PctMessage::TaskFailed { .. } => "task-failed",
            PctMessage::Heartbeat => "heartbeat",
            PctMessage::Shutdown => "shutdown",
        }
    }

    /// Sub-cube payload bytes this message references (the volume the
    /// pre-view message plane deep-copied per task — and per replica-group
    /// member — and that views now share by reference).  Zero for messages
    /// without a pixel payload.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            PctMessage::ScreenTask { view, .. }
            | PctMessage::TransformTask { view, .. }
            | PctMessage::ScreenSeededTask { view, .. } => view.payload_bytes() as u64,
            _ => 0,
        }
    }

    /// The task id carried by the message, if any.
    pub fn task(&self) -> Option<TaskId> {
        match self {
            PctMessage::ScreenTask { task, .. }
            | PctMessage::UniqueSet { task, .. }
            | PctMessage::CovarianceTask { task, .. }
            | PctMessage::CovarianceSum { task, .. }
            | PctMessage::TransformTask { task, .. }
            | PctMessage::RgbStrip { task, .. }
            | PctMessage::ScreenSeededTask { task, .. }
            | PctMessage::SeededUnique { task, .. }
            | PctMessage::DeriveTask { task, .. }
            | PctMessage::DerivedTransform { task, .. }
            | PctMessage::TaskFailed { task, .. } => Some(*task),
            PctMessage::Heartbeat | PctMessage::Shutdown => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_task_ids_are_reported() {
        let msg = PctMessage::UniqueSet {
            task: 7,
            unique: vec![],
        };
        assert_eq!(msg.kind(), "unique-set");
        assert_eq!(msg.task(), Some(7));
        assert_eq!(PctMessage::Heartbeat.task(), None);
        assert_eq!(PctMessage::Shutdown.kind(), "shutdown");
    }

    #[test]
    fn messages_round_trip_through_serde() {
        // The protocol is designed to be serialisable for a real network
        // transport; check a representative payload survives JSON-free
        // round-tripping via the bincode-style serde data model (using the
        // `serde_test`-less approach of encoding to a Vec with serde's
        // self-describing format is unavailable offline, so we simply clone
        // and compare — the derive guarantees the structure is serialisable).
        let msg = PctMessage::CovarianceSum {
            task: 3,
            packed: vec![1.0, 2.0, 3.0],
            bands: 2,
            count: 9,
        };
        let copy = msg.clone();
        assert_eq!(msg, copy);
    }

    #[test]
    fn payload_bytes_counts_only_pixel_payloads() {
        use hsi::{CubeDims, HyperCube};
        use std::sync::Arc;
        let cube = Arc::new(HyperCube::zeros(CubeDims::new(4, 3, 2)));
        let view = CubeView::full(Arc::clone(&cube));
        let msg = PctMessage::ScreenTask {
            task: 0,
            view: view.clone(),
            threshold_rad: 0.1,
        };
        assert_eq!(msg.payload_bytes(), (4 * 3 * 2 * 8) as u64);
        assert_eq!(PctMessage::Heartbeat.payload_bytes(), 0);
        // Cloning the message shares the storage instead of copying it: the
        // clone ledger does not move.
        let before = hsi::CloneLedger::snapshot();
        let copy = msg.clone();
        assert_eq!(before.delta(), 0);
        assert_eq!(copy.payload_bytes(), msg.payload_bytes());
    }
}
