#![warn(missing_docs)]
//! A synchronous CONGEST-model simulator.
//!
//! The CONGEST model (Peleg) is a synchronous message-passing network: in
//! each round every node may send one message of `O(log n)` bits along each
//! incident edge, receive its neighbors' messages, and update local state.
//! The paper's round-complexity claims are all stated in this model, so the
//! simulator's job is to make *round counts and message sizes* exact, not
//! to model wall-clock time.
//!
//! Pieces:
//!
//! * [`protocol::Protocol`] — a distributed algorithm as a per-node state
//!   machine (init / round / termination predicate).
//! * [`simulator::Simulator`] — drives a protocol over a graph until every
//!   node terminates, collecting [`metrics::Metrics`]. It is
//!   single-threaded: threads would change wall-clock only, never a
//!   round count.
//! * [`message::Message`] — wire encoding with per-message bit accounting,
//!   checked against the CONGEST budget `B = 16 · ⌈log₂ max(n, 4)⌉`.
//! * [`rng`] — counter-based per-node randomness, so a protocol execution
//!   and a centralized "fast path" re-implementation of the same algorithm
//!   can draw *identical* random bits and be compared transcript-for-
//!   transcript.
//! * [`parallel`] — [`execute_indexed`], the deterministic index-ordered
//!   work-stealing executor behind the flat engine's sweeps, the read-k
//!   Monte-Carlo driver, and the experiment scheduler, plus its
//!   [`Parallelism`] policy.
//!
//! # Example
//!
//! ```
//! use arbmis_congest::prelude::*;
//! use arbmis_graph::gen;
//!
//! // One round of "send your id to all neighbors; remember the max".
//! struct MaxId;
//! #[derive(Clone, Debug)]
//! struct St { best: u64, done: bool }
//! impl Protocol for MaxId {
//!     type State = St;
//!     type Msg = u64;
//!     fn init(&self, node: &NodeInfo) -> St {
//!         St { best: node.id as u64, done: false }
//!     }
//!     fn round(&self, st: &mut St, node: &NodeInfo, inbox: &Inbox<u64>) -> Outgoing<u64> {
//!         match node.round {
//!             0 => Outgoing::Broadcast(node.id as u64),
//!             _ => {
//!                 for (_, &id) in inbox.iter() {
//!                     st.best = st.best.max(id);
//!                 }
//!                 st.done = true;
//!                 Outgoing::Halt
//!             }
//!         }
//!     }
//!     fn is_done(&self, st: &St) -> bool { st.done }
//! }
//!
//! let g = gen::complete(5);
//! let run = Simulator::new(&g, 42).run(&MaxId, 10).unwrap();
//! assert_eq!(run.metrics.rounds, 2);
//! assert!(run.states.iter().all(|s| s.best == 4));
//! ```

pub mod bitmask;
pub mod frontier;
pub mod message;
pub mod metrics;
pub mod parallel;
pub mod protocol;
pub mod rng;
pub mod simulator;
pub mod transcript;

pub use bitmask::BitMask;
pub use frontier::{Every, Frontier, WordFilter};
pub use message::{DecodeError, Message};
pub use metrics::Metrics;
pub use parallel::{default_parallelism, execute_indexed, set_default_parallelism, Parallelism};
pub use protocol::{Inbox, NodeInfo, Outgoing, Protocol};
pub use simulator::{Simulator, SimulatorError, SimulatorRun, Stepper};

/// Convenient glob import for protocol implementations.
pub mod prelude {
    pub use crate::message::{DecodeError, Message};
    pub use crate::metrics::Metrics;
    pub use crate::parallel::Parallelism;
    pub use crate::protocol::{Inbox, NodeInfo, Outgoing, Protocol};
    pub use crate::rng;
    pub use crate::simulator::{Simulator, SimulatorError, SimulatorRun};
}
