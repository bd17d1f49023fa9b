//! Execution transcripts: per-round message traces for debugging and
//! regression testing.
//!
//! A [`Transcript`] records, for every round, who sent how many bits to
//! whom. It is collected by [`crate::Simulator::run_traced`] and supports
//! structural queries (per-round message counts, per-node send totals,
//! quiet detection) plus a compact digest for golden-transcript
//! regression tests: two executions of the same seeded protocol must have
//! identical digests.

use arbmis_graph::NodeId;
use serde::{Deserialize, Serialize};

/// One delivered message: `(round, from, to, bits)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Round in which the message was sent.
    pub round: u64,
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Encoded size in bits.
    pub bits: usize,
}

/// A full message trace of one execution.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transcript {
    entries: Vec<TraceEntry>,
}

impl Transcript {
    /// Creates an empty transcript.
    pub fn new() -> Self {
        Transcript::default()
    }

    /// Records a message.
    pub(crate) fn record(&mut self, round: u64, from: NodeId, to: NodeId, bits: usize) {
        self.entries.push(TraceEntry {
            round,
            from,
            to,
            bits,
        });
    }

    /// All entries, in send order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Total messages recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was sent.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Per-round message counts up to the last active round.
    pub fn round_profile(&self) -> Vec<usize> {
        let last = self.entries.iter().map(|e| e.round).max();
        match last {
            None => Vec::new(),
            Some(last) => {
                let mut counts = vec![0usize; last as usize + 1];
                for e in &self.entries {
                    counts[e.round as usize] += 1;
                }
                counts
            }
        }
    }

    /// An order-sensitive 64-bit digest of the whole trace. Two
    /// executions of the same protocol/graph/seed must produce the same
    /// digest; use as a golden value in regression tests.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for e in &self.entries {
            mix(e.round);
            mix(e.from as u64);
            mix(e.to as u64);
            mix(e.bits as u64);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Transcript {
        let mut t = Transcript::new();
        t.record(0, 0, 1, 8);
        t.record(0, 1, 0, 8);
        t.record(2, 0, 1, 16);
        t
    }

    #[test]
    fn counting_queries() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.round_profile(), vec![2, 0, 1]);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = sample();
        let mut b = Transcript::new();
        b.record(0, 1, 0, 8);
        b.record(0, 0, 1, 8);
        b.record(2, 0, 1, 16);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), sample().digest());
    }

    #[test]
    fn empty_transcript() {
        let t = Transcript::new();
        assert!(t.is_empty());
        assert!(t.round_profile().is_empty());
    }
}
