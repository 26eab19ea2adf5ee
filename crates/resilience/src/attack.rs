//! Attack emulation for live worker threads.
//!
//! The paper's threat model is an adversary who kills or subverts processes
//! ("information warfare attacks").  For drills and tests we need a way to
//! take out a running worker thread on demand; a [`KillSwitch`] is a shared
//! flag the worker polls at its reactive points (message receipt, between
//! compute phases).  When tripped, the worker stops participating — exactly
//! what a killed process looks like to the rest of the system — and the
//! failure detector / regeneration protocol takes over.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared flag that marks a thread as killed.
#[derive(Debug, Clone, Default)]
pub struct KillSwitch {
    killed: Arc<AtomicBool>,
}

impl KillSwitch {
    /// Creates an armed (not yet tripped) kill switch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the switch: the owning thread should stop at its next check.
    pub fn kill(&self) {
        self.killed.store(true, Ordering::Release);
    }

    /// Whether the switch has been tripped.
    pub fn is_killed(&self) -> bool {
        self.killed.load(Ordering::Acquire)
    }
}

/// A registry of kill switches keyed by member routing name, used by the
/// service's chaos schedules, the simulator and the tests to stage attacks
/// against specific workers.
#[derive(Debug, Default, Clone)]
pub struct AttackInjector {
    switches: Arc<RwLock<BTreeMap<String, KillSwitch>>>,
    kills: Arc<RwLock<Vec<String>>>,
}

impl AttackInjector {
    /// Creates an injector with no registered targets.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a target and returns the kill switch its thread should poll.
    pub fn register(&self, name: impl Into<String>) -> KillSwitch {
        let name = name.into();
        let switch = KillSwitch::new();
        self.switches.write().insert(name, switch.clone());
        switch
    }

    /// Removes a target: a member that never started.
    pub fn unregister(&self, name: &str) {
        self.switches.write().remove(name);
    }

    /// Attacks a target by routing name; returns `true` if the target was
    /// registered.
    pub fn attack(&self, name: &str) -> bool {
        let switches = self.switches.read();
        if let Some(s) = switches.get(name) {
            s.kill();
            self.kills.write().push(name.to_string());
            true
        } else {
            false
        }
    }

    /// Names of all registered targets, sorted.
    pub fn targets(&self) -> Vec<String> {
        self.switches.read().keys().cloned().collect()
    }

    /// The attacks launched so far, in order.
    pub fn attack_log(&self) -> Vec<String> {
        self.kills.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_switch_starts_unarmed_and_trips_once() {
        let switch = KillSwitch::new();
        assert!(!switch.is_killed());
        switch.kill();
        assert!(switch.is_killed());
        switch.kill();
        assert!(switch.is_killed());
    }

    #[test]
    fn clones_share_state() {
        let switch = KillSwitch::new();
        let observer = switch.clone();
        switch.kill();
        assert!(observer.is_killed());
    }

    #[test]
    fn injector_attacks_registered_targets_only() {
        let injector = AttackInjector::new();
        let switch = injector.register("worker0#0");
        assert!(!injector.attack("ghost"));
        assert!(!switch.is_killed());
        assert!(injector.attack("worker0#0"));
        assert!(switch.is_killed());
        assert_eq!(injector.attack_log(), vec!["worker0#0".to_string()]);
    }

    #[test]
    fn kill_switch_is_visible_across_threads() {
        let injector = AttackInjector::new();
        let switch = injector.register("w#0");
        let handle = std::thread::spawn(move || {
            // Poll until killed.
            let mut spins = 0u64;
            while !switch.is_killed() {
                std::thread::yield_now();
                spins += 1;
                if spins > 50_000_000 {
                    panic!("kill signal never observed");
                }
            }
            true
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        injector.attack("w#0");
        assert!(handle.join().unwrap());
    }

    #[test]
    fn targets_listing_is_sorted() {
        let injector = AttackInjector::new();
        injector.register("b");
        injector.register("a");
        assert_eq!(injector.targets(), vec!["a".to_string(), "b".to_string()]);
    }
}
