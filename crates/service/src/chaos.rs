//! Deterministic chaos injection for the resilient lane.
//!
//! Attack drills via [`crate::FusionService::inject_attack`] kill a member
//! "whenever the call happens to land", which is fine for demos but useless
//! for a reproducible kill matrix.  A [`ChaosPlan`] instead ties each kill
//! to a *scheduler event*: the dispatch of the first task of a given job's
//! given phase.  The scheduler fires the kill switch immediately before
//! sending that task, so a seeded workload plus a plan replays the exact
//! same failure at the exact same protocol point every run — the substrate
//! of the chaos test matrix (member index × phase).

use crate::job::JobId;

/// The job phase a [`PhaseKill`] is anchored to: a phase of the job's
/// [`pct::plan::Plan`], under either protocol.
pub use pct::plan::Phase as ChaosPhase;

/// One scheduled kill: when the scheduler dispatches the first task of
/// `phase` for job `job`, the member `member` is killed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseKill {
    /// The job whose phase anchors the kill (ids are assigned in submission
    /// order starting at 1).
    pub job: JobId,
    /// The phase whose first dispatched task triggers the kill.
    pub phase: ChaosPhase,
    /// Routing name of the member to kill (e.g. `rg0#1`).
    pub member: String,
}

/// A deterministic schedule of member kills, anchored to scheduler events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// The kills to perform; each fires at most once.
    pub kills: Vec<PhaseKill>,
}

impl ChaosPlan {
    /// No chaos.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan with a single phase-anchored kill.
    pub fn kill_at(job: JobId, phase: ChaosPhase, member: impl Into<String>) -> Self {
        Self {
            kills: vec![PhaseKill {
                job,
                phase,
                member: member.into(),
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_at_builds_a_single_entry_plan() {
        let plan = ChaosPlan::kill_at(3, ChaosPhase::Derive, "rg0#1");
        assert_eq!(plan.kills.len(), 1);
        assert_eq!(plan.kills[0].job, 3);
        assert_eq!(plan.kills[0].member, "rg0#1");
        assert!(ChaosPlan::none().kills.is_empty());
    }
}
