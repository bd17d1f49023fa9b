//! Execution metrics: rounds, messages, and bandwidth accounting.

use serde::{Deserialize, Serialize};

/// Counters collected over one protocol execution.
///
/// All sizes are `u64` (not `usize`) so serialized artifacts have the
/// same width on every target.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metrics {
    /// Number of synchronous rounds executed.
    pub rounds: u64,
    /// Total messages delivered (a broadcast over d edges counts d).
    pub messages: u64,
    /// Total bits delivered.
    pub bits: u64,
    /// Largest single message, in bits.
    pub max_message_bits: u64,
    /// The bandwidth budget that was enforced (bits per message).
    pub budget_bits: u64,
}

impl Metrics {
    /// Records one delivered message of `bits` bits.
    pub(crate) fn record_message(&mut self, bits: usize) {
        self.messages += 1;
        self.bits += bits as u64;
        self.max_message_bits = self.max_message_bits.max(bits as u64);
    }

    /// Records a broadcast delivered as `copies` identical messages of
    /// `bits` bits each — one accounting update for the whole
    /// neighborhood instead of one per edge. Equivalent to `copies`
    /// calls to [`record_message`](Self::record_message).
    pub(crate) fn record_broadcast(&mut self, bits: usize, copies: usize) {
        if copies == 0 {
            return;
        }
        self.messages += copies as u64;
        self.bits += (bits * copies) as u64;
        self.max_message_bits = self.max_message_bits.max(bits as u64);
    }

    /// Average bits per message (0.0 if no messages).
    pub fn avg_message_bits(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.bits as f64 / self.messages as f64
        }
    }

    /// Whether every message respected the budget.
    pub fn within_budget(&self) -> bool {
        self.max_message_bits <= self.budget_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut m = Metrics::default();
        m.record_message(8);
        m.record_message(24);
        assert_eq!(m.messages, 2);
        assert_eq!(m.bits, 32);
        assert_eq!(m.max_message_bits, 24);
        assert!((m.avg_message_bits() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn record_broadcast_equals_per_copy_records() {
        let mut per_copy = Metrics::default();
        for _ in 0..5 {
            per_copy.record_message(24);
        }
        let mut batched = Metrics::default();
        batched.record_broadcast(24, 5);
        assert_eq!(batched, per_copy);
        // Zero copies (isolated sender) leaves everything untouched.
        batched.record_broadcast(1024, 0);
        assert_eq!(batched, per_copy);
    }

    #[test]
    fn budget_check() {
        let mut m = Metrics {
            budget_bits: 16,
            ..Metrics::default()
        };
        m.record_message(8);
        assert!(m.within_budget());
        m.record_message(17);
        assert!(!m.within_budget());
    }

    #[test]
    fn empty_metrics_average() {
        assert_eq!(Metrics::default().avg_message_bits(), 0.0);
    }
}
