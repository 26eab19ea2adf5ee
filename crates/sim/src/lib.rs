//! Deterministic cluster simulator: the fusion service itself, proven over
//! thousands of seeded scenarios on virtual time.
//!
//! The service's own [`service::FusionService`], admission governor and
//! scheduler run here unchanged, built by [`service::FusionService::hosted`]
//! instead of `start`: no thread, a clock the simulator owns.  A host actor
//! on node 0 turns the scheduler after every delivery and timer; every pool
//! member is a mailbox the host owns, delivered to a member actor on its own
//! [`netsim`] node that computes with the real
//! [`pct::distributed::handle_task`].  What the sweep proves is the product,
//! not a model of it.
//!
//! * [`SimClock`] — the virtual clock as a `telemetry::Clock`, so spans,
//!   event stamps and detection latencies are exact virtual time.
//! * [`Scenario`] — one seeded experiment: the pool, the jobs and what
//!   their clients do, detector parameters and the fault schedule.
//! * [`SimHarness`] — runs a scenario and judges it into a
//!   [`ScenarioReport`].
//! * [`Sweep`] — seeded enumeration over twelve families and a pass table.
//!
//! **What a scenario must satisfy.**  Every admitted job has exactly one
//! `Terminal` event; every completed output a client takes is
//! byte-identical to `SequentialPct`; cancelled and timed-out jobs end that
//! way (a timeout exactly at its deadline) and their slots come back; no
//! backlogged tenant is dequeued more than one round past its
//! deficit-round-robin share; no member is retired unless it was killed,
//! and every attacked replica member is regenerated; each job's latency and
//! the makespan stay under the scenario's bound; after the service finishes
//! nothing is left — no running job, task in flight, orphan, open span or
//! undelivered mailbox message.
//!
//! **Seed/replay contract.** Everything is a pure function of the scenario
//! (and sweep) seed: the same event order — ties pop in insertion order —
//! the same event log, trace, service counters and images.  A failing sweep
//! row is reproduced by constructing the sweep with the same seed and
//! running the named scenario alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actors;
mod clock;
mod harness;
mod scenario;
mod sweep;
mod trace;

pub use clock::SimClock;
pub use harness::{JobInput, ScenarioReport, SimFailure, SimHarness};
pub use scenario::{Boundary, Client, CubeSpec, JobPlan, Partition, Scenario};
pub use sweep::{Sweep, SweepReport};
pub use trace::{render_span_tree, TraceLog};

/// A tiny deterministic RNG (splitmix64) used for scenario generation and
/// reorder jitter.  Not cryptographic; chosen because its sequence is a
/// pure function of the seed on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; returns 0 for bound 0.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        self.next_u64() % bound
    }

    /// Uniform usize in `[lo, hi]` (inclusive).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below((hi - lo + 1) as u64) as usize
    }

    /// A coin flip with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}
