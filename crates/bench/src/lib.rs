//! The rows of the paper's figures, shared by the figure-regeneration
//! binaries.
//!
//! Every table/figure of the paper's evaluation has a regenerating target:
//!
//! | Paper artefact | Binary |
//! |---|---|
//! | Figure 4 (speed-up with/without resiliency) | `cargo run -p bench --bin fig4_speedup --release` |
//! | Figure 5 (granularity control) | `cargo run -p bench --bin fig5_granularity --release` |
//! | §4 shared-memory claim (within ~5 % of linear) | `cargo run -p bench --bin smp_speedup --release` |
//! | Replication-level ablation (extension of Figure 4) | `cargo run -p bench --bin replication_levels --release` |
//!
//! The figure rows are simulated seconds — deterministic, so this crate's
//! tests pin them at 16 processors as printed (26.0 / 52.1 / 26.0).  No
//! wall-clock number of the service comes from here: `fusebench/` is the
//! one instrument for those (`sim_throughput` times the simulator's own
//! sweep, `smp_speedup` the shared-memory claim).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use pct::distributed_sim::{simulate_fusion, SimParams, SimReport};

/// The processor counts reported in Figure 4.
pub const FIGURE4_PROCESSORS: [usize; 5] = [1, 2, 4, 8, 16];

/// The processor counts reported in Figure 5.
pub const FIGURE5_PROCESSORS: [usize; 4] = [2, 4, 8, 16];

/// The granularity multipliers reported in Figure 5.
pub const FIGURE5_MULTIPLIERS: [usize; 3] = [1, 2, 3];

/// One row of the Figure 4 table: processor count, time without resiliency,
/// time with level-2 resiliency, and the derived speed-ups.
#[derive(Debug, Clone)]
pub struct Figure4Row {
    /// Number of worker processors.
    pub processors: usize,
    /// Simulated time without resiliency, seconds.
    pub plain_secs: f64,
    /// Simulated time with level-2 resiliency, seconds.
    pub resilient_secs: f64,
}

impl Figure4Row {
    /// Speed-up of the non-resilient run relative to a reference time.
    pub fn plain_speedup(&self, reference: f64) -> f64 {
        reference / self.plain_secs
    }

    /// Speed-up of the resilient run relative to a reference time.
    pub fn resilient_speedup(&self, reference: f64) -> f64 {
        reference / self.resilient_secs
    }

    /// Ratio of resilient to plain time — the paper expects roughly the
    /// replication factor (2) plus ~10 %.
    pub fn overhead_ratio(&self) -> f64 {
        self.resilient_secs / self.plain_secs
    }
}

/// Computes every row of Figure 4.
pub fn figure4_rows() -> Vec<Figure4Row> {
    FIGURE4_PROCESSORS
        .iter()
        .map(|&p| {
            let plain = simulate_fusion(&SimParams::figure4(p, false)).expect("simulation runs");
            let resilient = simulate_fusion(&SimParams::figure4(p, true)).expect("simulation runs");
            Figure4Row {
                processors: p,
                plain_secs: plain.elapsed_secs,
                resilient_secs: resilient.elapsed_secs,
            }
        })
        .collect()
}

/// One cell of the Figure 5 matrix.
#[derive(Debug, Clone)]
pub struct Figure5Cell {
    /// Number of worker processors.
    pub processors: usize,
    /// Sub-cubes per worker (1, 2 or 3 in the paper).
    pub multiplier: usize,
    /// Full simulation report.
    pub report: SimReport,
}

/// Computes every cell of Figure 5.
pub fn figure5_cells() -> Vec<Figure5Cell> {
    let mut cells = Vec::new();
    for &p in &FIGURE5_PROCESSORS {
        for &m in &FIGURE5_MULTIPLIERS {
            let report = simulate_fusion(&SimParams::figure5(p, m)).expect("simulation runs");
            cells.push(Figure5Cell {
                processors: p,
                multiplier: m,
                report,
            });
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_rows_cover_every_processor_count() {
        let rows = figure4_rows();
        assert_eq!(rows.len(), FIGURE4_PROCESSORS.len());
        for row in &rows {
            assert!(row.plain_secs > 0.0);
            assert!(row.resilient_secs > row.plain_secs);
        }
        let p8 = rows.iter().find(|r| r.processors == 8).unwrap();
        let speedup = p8.plain_speedup(rows[0].plain_secs);
        assert!(speedup > 6.0, "8-processor speed-up only {speedup}");
        // The Figure 4 row at 16 processors, as `fig4_speedup` prints it.
        let p16 = rows.last().unwrap();
        assert_eq!(p16.processors, 16);
        assert_eq!(format!("{:.1}", p16.plain_secs), "26.0");
        assert_eq!(format!("{:.1}", p16.resilient_secs), "52.1");
    }

    #[test]
    fn figure4_overhead_ratio_is_near_replication_cost() {
        let rows = figure4_rows();
        for row in rows.iter().filter(|r| r.processors >= 2) {
            let ratio = row.overhead_ratio();
            assert!(
                (1.8..=2.6).contains(&ratio),
                "ratio {ratio} at P={}",
                row.processors
            );
        }
    }

    #[test]
    fn figure5_cells_cover_the_matrix() {
        let cells = figure5_cells();
        assert_eq!(
            cells.len(),
            FIGURE5_PROCESSORS.len() * FIGURE5_MULTIPLIERS.len()
        );
        // Over-decomposition (x2) never loses to x1 at the same P.
        for &p in &FIGURE5_PROCESSORS {
            let t = |m: usize| {
                cells
                    .iter()
                    .find(|c| c.processors == p && c.multiplier == m)
                    .unwrap()
                    .report
                    .elapsed_secs
            };
            assert!(t(2) <= t(1) * 1.001, "x2 slower than x1 at P={p}");
            // The Figure 5 cell at 16 processors x 2, as `fig5_granularity`
            // prints it.
            if p == 16 {
                assert_eq!(format!("{:.1}", t(2)), "26.0");
            }
        }
    }
}
