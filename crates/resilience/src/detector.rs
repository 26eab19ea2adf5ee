//! Heartbeat-based failure detection ("attack assessment").
//!
//! Members of every replica group periodically send heartbeats to a monitor.
//! A member whose heartbeat has not been seen for more than
//! `miss_threshold × heartbeat_period` is declared failed; the regeneration
//! protocol then restores the group's replication level.  The detector is
//! written against an explicit millisecond clock rather than `Instant` so
//! detection latency and false-positive behaviour are deterministic in tests
//! and in the detector-ablation benchmark.

use crate::group::MemberId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Detector tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Expected interval between heartbeats from a healthy member, in
    /// milliseconds of the monitoring clock.
    pub heartbeat_period_ms: u64,
    /// Number of consecutive missed heartbeats before a member is declared
    /// failed.  Larger values tolerate jitter but detect real failures more
    /// slowly.
    pub miss_threshold: u32,
}

impl DetectorConfig {
    /// A configuration matching the prototype described in the paper:
    /// heartbeats every 250 ms, declared failed after four misses (1 s).
    pub fn default_lan() -> Self {
        Self {
            heartbeat_period_ms: 250,
            miss_threshold: 4,
        }
    }

    /// Time after the last heartbeat at which a member is declared failed.
    pub fn failure_timeout_ms(&self) -> u64 {
        self.heartbeat_period_ms * self.miss_threshold as u64
    }
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self::default_lan()
    }
}

/// A deterministic heartbeat failure detector.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    config: DetectorConfig,
    last_heartbeat: BTreeMap<MemberId, u64>,
    declared_failed: BTreeMap<MemberId, u64>,
    telemetry: telemetry::Telemetry,
}

impl FailureDetector {
    /// Creates a detector.
    pub fn new(config: DetectorConfig) -> Self {
        Self {
            config,
            last_heartbeat: BTreeMap::new(),
            declared_failed: BTreeMap::new(),
            telemetry: telemetry::Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle: every newly declared failure is
    /// recorded as a `member_failed` instant and counted in
    /// `resilience_members_failed_total`.
    pub fn set_telemetry(&mut self, telemetry: telemetry::Telemetry) {
        self.telemetry = telemetry;
    }

    /// The detector's configuration.
    pub fn config(&self) -> DetectorConfig {
        self.config
    }

    /// Starts monitoring a member as of `now_ms` (counts as a heartbeat).
    pub fn watch(&mut self, member: MemberId, now_ms: u64) {
        self.last_heartbeat.insert(member, now_ms);
    }

    /// Stops monitoring a member (it exited cleanly or was superseded).
    pub fn unwatch(&mut self, member: &MemberId) {
        self.last_heartbeat.remove(member);
        self.declared_failed.remove(member);
    }

    /// Records a heartbeat from a member at `now_ms`.  A heartbeat from a
    /// member previously declared failed clears the declaration (it was a
    /// false positive — e.g. a transient network partition).
    pub fn heartbeat(&mut self, member: &MemberId, now_ms: u64) {
        self.last_heartbeat.insert(member.clone(), now_ms);
        self.declared_failed.remove(member);
    }

    /// Sweeps all watched members at `now_ms` and returns the members that
    /// are *newly* declared failed (each failure is reported exactly once
    /// unless a later heartbeat clears it).
    pub fn sweep(&mut self, now_ms: u64) -> Vec<MemberId> {
        let timeout = self.config.failure_timeout_ms();
        let mut newly_failed = Vec::new();
        for (member, &last) in &self.last_heartbeat {
            if now_ms.saturating_sub(last) >= timeout && !self.declared_failed.contains_key(member)
            {
                self.declared_failed.insert(member.clone(), now_ms);
                self.telemetry
                    .instant("member_failed", None, None, &member.routing_name());
                self.telemetry.count("resilience_members_failed_total", &[]);
                newly_failed.push(member.clone());
            }
        }
        newly_failed
    }

    /// The earliest `now_ms` at which [`FailureDetector::sweep`] would
    /// declare a member failed: the minimum, over watched members not yet
    /// declared, of last heartbeat + failure timeout.  `None` when nothing
    /// is watched or everything watched is already declared — the owner of
    /// the detector sleeps until this instant instead of sweeping on a tick.
    pub fn next_deadline_ms(&self) -> Option<u64> {
        let timeout = self.config.failure_timeout_ms();
        self.last_heartbeat
            .iter()
            .filter(|(member, _)| !self.declared_failed.contains_key(*member))
            .map(|(_, &last)| last.saturating_add(timeout))
            .min()
    }

    /// Number of members currently being monitored.
    pub fn watched(&self) -> usize {
        self.last_heartbeat.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member(i: usize) -> MemberId {
        MemberId::new(format!("w{i}"), 0)
    }

    #[test]
    fn healthy_member_stays_healthy_with_regular_heartbeats() {
        let mut d = FailureDetector::new(DetectorConfig::default_lan());
        d.watch(member(0), 0);
        for t in (250..5000).step_by(250) {
            d.heartbeat(&member(0), t);
            assert!(d.sweep(t).is_empty());
        }
    }

    #[test]
    fn silent_member_becomes_suspect_then_failed() {
        let config = DetectorConfig {
            heartbeat_period_ms: 100,
            miss_threshold: 4,
        };
        let mut d = FailureDetector::new(config);
        d.watch(member(1), 0);
        assert!(d.sweep(399).is_empty());
        assert_eq!(d.sweep(400), vec![member(1)]);
    }

    #[test]
    fn sweep_reports_each_failure_once() {
        let mut d = FailureDetector::new(DetectorConfig {
            heartbeat_period_ms: 100,
            miss_threshold: 2,
        });
        d.watch(member(0), 0);
        d.watch(member(1), 0);
        d.heartbeat(&member(1), 150); // member 1 stays alive longer
        let first = d.sweep(250);
        assert_eq!(first, vec![member(0)]);
        assert!(
            d.sweep(260).is_empty(),
            "already-declared failure must not repeat"
        );
        let second = d.sweep(400);
        assert_eq!(second, vec![member(1)]);
    }

    #[test]
    fn late_heartbeat_clears_a_false_positive() {
        let mut d = FailureDetector::new(DetectorConfig {
            heartbeat_period_ms: 100,
            miss_threshold: 2,
        });
        d.watch(member(0), 0);
        assert_eq!(d.sweep(250), vec![member(0)]);
        // The member was only partitioned; its heartbeat resumes.
        d.heartbeat(&member(0), 300);
        // If it goes silent again it is reported again.
        assert_eq!(d.sweep(600), vec![member(0)]);
    }

    #[test]
    fn unwatched_member_is_reported_failed_by_health_but_not_swept() {
        let mut d = FailureDetector::new(DetectorConfig::default_lan());
        assert!(d.sweep(10_000).is_empty());
        d.watch(member(9), 0);
        assert_eq!(d.watched(), 1);
        d.unwatch(&member(9));
        assert_eq!(d.watched(), 0);
    }

    #[test]
    fn next_deadline_is_the_first_instant_a_sweep_would_report() {
        let mut d = FailureDetector::new(DetectorConfig {
            heartbeat_period_ms: 100,
            miss_threshold: 2,
        });
        assert_eq!(d.next_deadline_ms(), None, "nothing watched");
        d.watch(member(0), 0);
        d.watch(member(1), 50);
        assert_eq!(d.next_deadline_ms(), Some(200));
        // It moves with the heartbeat of the member that owned it.
        d.heartbeat(&member(0), 120);
        assert_eq!(d.next_deadline_ms(), Some(250));
        assert!(d.sweep(249).is_empty());
        assert_eq!(d.sweep(250), vec![member(1)]);
        // A declared member no longer arms the timer; the other one does.
        assert_eq!(d.next_deadline_ms(), Some(320));
        assert_eq!(d.sweep(320), vec![member(0)]);
        assert_eq!(d.next_deadline_ms(), None, "everything declared");
        // A late heartbeat clears the declaration and re-arms it.
        d.heartbeat(&member(1), 400);
        assert_eq!(d.next_deadline_ms(), Some(600));
        d.unwatch(&member(1));
        assert_eq!(d.next_deadline_ms(), None, "unwatch clears it");
    }

    #[test]
    fn detection_latency_formula() {
        let d = FailureDetector::new(DetectorConfig {
            heartbeat_period_ms: 250,
            miss_threshold: 4,
        });
        assert_eq!(d.config().failure_timeout_ms(), 1000);
    }
}
