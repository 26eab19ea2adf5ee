//! Dynamic name-to-mailbox routing.
//!
//! The router is the mechanism behind dynamic reconfiguration: senders
//! address logical *names*, and the name-to-mailbox binding is resolved at
//! send time under a read lock.  When the resiliency layer regenerates a
//! member it registers the replacement under a fresh name and unbinds the
//! dead one; a send to a name whose mailbox is gone fails typed
//! ([`ScpError::Disconnected`] / [`ScpError::UnknownDestination`]), which is
//! the signal the loss-confirmation probes look for.

use crate::envelope::Envelope;
use crate::{Result, ScpError};
use crossbeam_channel::{Receiver, Sender};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// A logical thread name.
pub type ThreadName = String;

struct RouterInner<M> {
    bindings: RwLock<HashMap<ThreadName, Sender<Envelope<M>>>>,
}

/// A cloneable handle to the routing table shared by every thread in the
/// application.
pub struct Router<M> {
    inner: Arc<RouterInner<M>>,
}

impl<M> Clone for Router<M> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<M> Default for Router<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Router<M> {
    /// Creates an empty router.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(RouterInner {
                bindings: RwLock::new(HashMap::new()),
            }),
        }
    }

    /// Creates a mailbox bound to `name` and returns its receiving end.
    ///
    /// Fails if the name is already bound.
    pub fn register(&self, name: impl Into<ThreadName>) -> Result<Receiver<Envelope<M>>> {
        let name = name.into();
        let (tx, rx) = crossbeam_channel::unbounded();
        let mut bindings = self.inner.bindings.write();
        if bindings.contains_key(&name) {
            return Err(ScpError::DuplicateName(name));
        }
        bindings.insert(name, tx);
        Ok(rx)
    }

    /// Removes a binding entirely (the thread exited and will not return).
    pub fn unbind(&self, name: &str) -> bool {
        self.inner.bindings.write().remove(name).is_some()
    }

    /// Whether `name` is currently bound.
    pub fn is_bound(&self, name: &str) -> bool {
        self.inner.bindings.read().contains_key(name)
    }

    /// Names currently bound, sorted for deterministic iteration.
    pub fn bound_names(&self) -> Vec<ThreadName> {
        let mut names: Vec<_> = self.inner.bindings.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Sends `payload`, enveloped with the sender's name, to the thread
    /// currently bound to `to`.
    pub fn send(&self, from: impl Into<ThreadName>, to: &str, payload: M) -> Result<()> {
        let bindings = self.inner.bindings.read();
        let Some(tx) = bindings.get(to) else {
            return Err(ScpError::UnknownDestination(to.to_string()));
        };
        tx.send(Envelope::new(from, payload))
            .map_err(|_| ScpError::Disconnected(to.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_send_round_trip() {
        let router: Router<String> = Router::new();
        let rx = router.register("alice").unwrap();
        router.send("bob", "alice", "hello".to_string()).unwrap();
        let env = rx.recv().unwrap();
        assert_eq!(env.payload, "hello");
        assert_eq!(env.from, "bob");
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let router: Router<()> = Router::new();
        router.register("x").unwrap();
        assert!(matches!(
            router.register("x"),
            Err(ScpError::DuplicateName(_))
        ));
    }

    #[test]
    fn sending_to_unknown_name_fails() {
        let router: Router<()> = Router::new();
        assert!(matches!(
            router.send("a", "ghost", ()),
            Err(ScpError::UnknownDestination(_))
        ));
    }

    #[test]
    fn sending_to_dropped_mailbox_reports_disconnected() {
        let router: Router<()> = Router::new();
        let rx = router.register("x").unwrap();
        drop(rx);
        assert!(matches!(
            router.send("a", "x", ()),
            Err(ScpError::Disconnected(_))
        ));
    }

    #[test]
    fn unbind_removes_the_name() {
        let router: Router<()> = Router::new();
        let _rx = router.register("x").unwrap();
        assert!(router.is_bound("x"));
        assert!(router.unbind("x"));
        assert!(!router.is_bound("x"));
        assert!(!router.unbind("x"));
    }

    #[test]
    fn bound_names_are_sorted() {
        let router: Router<()> = Router::new();
        let _a = router.register("zeta").unwrap();
        let _b = router.register("alpha").unwrap();
        assert_eq!(
            router.bound_names(),
            vec!["alpha".to_string(), "zeta".to_string()]
        );
    }

    #[test]
    fn router_clones_share_state() {
        let router: Router<u8> = Router::new();
        let clone = router.clone();
        let rx = router.register("r").unwrap();
        clone.send("s", "r", 9).unwrap();
        assert_eq!(rx.recv().unwrap().payload, 9);
    }

    #[test]
    fn concurrent_senders_all_deliver() {
        let router: Router<u64> = Router::new();
        let rx = router.register("sink").unwrap();
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let r = router.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    r.send(format!("t{t}"), "sink", t * 1000 + i).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut count = 0;
        while rx.try_recv().is_ok() {
            count += 1;
        }
        assert_eq!(count, 800);
    }
}
