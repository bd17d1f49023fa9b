#![warn(missing_docs)]
//! Distributed MIS algorithms: the Pemmaraju–Riaz shattering pipeline and
//! its baselines.
//!
//! The centerpiece is [`bounded_arb::BoundedArbConfig`] /
//! [`bounded_arb::bounded_arb_independent_set`] — Algorithm 1 of the paper
//! (*BoundedArbIndependentSet*, a parameter-rescaled version of the
//! Barenboim–Elkin–Pettie–Schneider `TreeIndependentSet`) — and
//! [`arb_mis::arb_mis`] — Algorithm 2, the full MIS pipeline that finishes
//! up the residual active set and the "bad" set.
//!
//! Baselines (§1 of the paper):
//!
//! * [`luby`] — Luby's Algorithm B (degree-based marking), O(log n) whp.
//! * [`metivier`] — the Métivier et al. priority algorithm, the inner loop
//!   of Algorithm 1.
//! * [`ghaffari`] — Ghaffari's SODA 2016 desire-level algorithm,
//!   O(log Δ) + 2^O(√(log log n)).
//! * [`greedy`] — sequential greedy MIS (correctness oracle, not
//!   distributed).
//!
//! Finishing machinery (§3.3):
//!
//! * [`forest_decomp`] — Barenboim–Elkin H-partition and the derived
//!   ≤ (2+ε)α-forest decomposition.
//! * [`cole_vishkin`] — deterministic coin tossing: O(log* n) forest
//!   3-coloring and the color-sweep MIS for small components.
//!
//! Luby, Métivier, Ghaffari and Algorithm 1 each have two
//! interchangeable executions drawing *identical* random bits:
//!
//! 1. the **flat engine** ([`FlatBackend`]) — centralized frontier sweeps
//!    over the CSR arrays. It is the only centralized implementation:
//!    [`luby::run`], [`metivier::run`] (and its region and partial
//!    variants), [`ghaffari::run`] and
//!    [`bounded_arb::bounded_arb_independent_set`] are short drivers over it that report *schedule* rounds (3 per
//!    iteration, 2 per scale end); and
//! 2. the **CONGEST protocol** [`protocols::MisProtocol`]`(algo)` — one
//!    protocol that takes the algorithm as a [`FlatAlgo`] value, as the
//!    flat engine does; it runs on [`arbmis_congest::Simulator`] with
//!    real message passing and per-message bit accounting.
//!
//! [`backend::MisBackend`] is the round-steppable surface both share
//! (the simulator adapter lives in `arbmis-flat`); tests assert the two
//! are round-identical.

pub mod arb_mis;
pub mod backend;
pub mod bounded_arb;
pub mod cole_vishkin;
mod flat_backend;
pub mod forest_decomp;
pub mod ghaffari;
pub mod greedy;
pub mod luby;
pub mod metivier;
pub mod params;
pub mod protocols;
pub mod result;
pub mod trace;
pub mod tree_mis;
pub mod verify;

pub use arb_mis::{arb_mis, ArbMisConfig, ArbMisOutcome, PhaseRounds};
pub use backend::{BackendError, BackendRun, CoinFlip, FlatAlgo, MisBackend};
pub use bounded_arb::{bounded_arb_independent_set, BoundedArbConfig, ShatterOutcome};
pub use flat_backend::FlatBackend;
pub use params::{ArbParams, ParamMode};
pub use result::MisRun;
pub use verify::{check_mis, is_independent, is_maximal, is_valid_mis, MisError};
