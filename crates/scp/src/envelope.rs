//! Sequence-numbered message envelopes.
//!
//! Every message carries its sender's logical name and a per-sender sequence
//! number, so a regenerated thread's peers can tell whether anything was
//! lost while communication was being reconfigured.  (Duplicate deliveries
//! from replicated senders are discarded by task id, in `pct::plan`, not by
//! sequence number here.)

use serde::{Deserialize, Serialize};

/// A per-sender monotonically increasing sequence number.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SeqNum(pub u64);

impl SeqNum {
    /// The first sequence number a sender uses.
    pub const FIRST: SeqNum = SeqNum(1);

    /// The next sequence number after this one.
    pub fn next(self) -> SeqNum {
        SeqNum(self.0 + 1)
    }
}

impl std::fmt::Display for SeqNum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A message envelope: payload plus routing and ordering metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope<M> {
    /// Logical name of the sending thread.
    pub from: String,
    /// Logical name of the destination thread (the name used at send time —
    /// useful for diagnosing messages that arrived after a rebinding).
    pub to: String,
    /// Per-sender sequence number.
    pub seq: SeqNum,
    /// Application payload.
    pub payload: M,
}

impl<M> Envelope<M> {
    /// Creates an envelope.
    pub fn new(from: impl Into<String>, to: impl Into<String>, seq: SeqNum, payload: M) -> Self {
        Self {
            from: from.into(),
            to: to.into(),
            seq,
            payload,
        }
    }

    /// Maps the payload, keeping the metadata (useful in tests and adapters).
    pub fn map<N>(self, f: impl FnOnce(M) -> N) -> Envelope<N> {
        Envelope {
            from: self.from,
            to: self.to,
            seq: self.seq,
            payload: f(self.payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_num_ordering_and_successor() {
        assert!(SeqNum(2) > SeqNum(1));
        assert_eq!(SeqNum(1).next(), SeqNum(2));
    }

    #[test]
    fn envelope_map_preserves_metadata() {
        let e = Envelope::new("a", "b", SeqNum(5), 10u32);
        let mapped = e.map(|v| v * 2);
        assert_eq!(mapped.payload, 20);
        assert_eq!(mapped.from, "a");
        assert_eq!(mapped.to, "b");
        assert_eq!(mapped.seq, SeqNum(5));
    }
}
