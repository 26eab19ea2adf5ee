//! Message envelopes.
//!
//! Every message carries its sender's logical name, which is what the
//! reactive protocols key on: a reply is matched to the member it came from,
//! a stale one is recognised by a name no longer in the pool.  (Duplicate
//! deliveries from replicated senders are discarded by task id, in
//! `pct::plan`, not here.)

use serde::{Deserialize, Serialize};

/// A message envelope: payload plus the sender's name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope<M> {
    /// Logical name of the sending thread.
    pub from: String,
    /// Application payload.
    pub payload: M,
}

impl<M> Envelope<M> {
    /// Creates an envelope.
    pub fn new(from: impl Into<String>, payload: M) -> Self {
        Self {
            from: from.into(),
            payload,
        }
    }

    /// Maps the payload, keeping the sender (useful in tests and adapters).
    pub fn map<N>(self, f: impl FnOnce(M) -> N) -> Envelope<N> {
        Envelope {
            from: self.from,
            payload: f(self.payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_map_preserves_metadata() {
        let mapped = Envelope::new("a", 10u32).map(|v| v * 2);
        assert_eq!(mapped.payload, 20);
        assert_eq!(mapped.from, "a");
    }
}
