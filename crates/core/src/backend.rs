//! The engine contract shared by every MIS execution: the
//! [`MisBackend`] trait, the algorithm selector, and the coin
//! and joiner digests that make flight records comparable across
//! engines.
//!
//! [`crate::FlatBackend`] implements the trait here; the CONGEST-backed
//! implementation lives in `arbmis-flat`, which re-exports everything in
//! this module.

use crate::{bounded_arb, ghaffari, luby, metivier, ArbParams};
use arbmis_congest::{rng, BitMask, SimulatorError};
use arbmis_graph::digest::Fnv128;
use arbmis_graph::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which MIS algorithm a backend executes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FlatAlgo {
    /// Luby's Algorithm B: mark with probability `1/2d`, higher
    /// `(degree, id)` wins among marked neighbors.
    Luby,
    /// Métivier et al. priority competition: higher `(priority, id)` wins.
    Metivier,
    /// Ghaffari's desire levels: mark with probability `2^-e`, a marked
    /// node with no marked active neighbor wins, and `e` rises or falls
    /// with the effective degree `Σ 2^-e_u`.
    Ghaffari,
    /// `BoundedArbIndependentSet` (Algorithm 1): Θ scales of Λ Métivier
    /// iterations with the ρ_k opt-out, plus per-scale bad exits.
    BoundedArb {
        /// The instantiated parameter schedule.
        params: ArbParams,
        /// Whether the ρ_k competitiveness cutoff is active.
        rho_cutoff: bool,
    },
    /// ArbMIS's degree-reduction phase: Métivier's decide step among the
    /// *competitors* only, the active nodes whose active degree exceeds
    /// `target` plus their active neighbors. Every node halts once no
    /// active node is above `target`; the output is not maximal. Flat
    /// engine only.
    DegreeReduction {
        /// The active degree above which a node and its neighbors compete.
        target: f64,
    },
}

impl FlatAlgo {
    /// Short stable name for logs and labels.
    pub fn label(&self) -> &'static str {
        match self {
            FlatAlgo::Luby => "luby",
            FlatAlgo::Metivier => "metivier",
            FlatAlgo::Ghaffari => "ghaffari",
            FlatAlgo::BoundedArb { .. } => "bounded_arb",
            FlatAlgo::DegreeReduction { .. } => "degree_reduction",
        }
    }
}

/// Why a backend run failed.
#[derive(Debug)]
pub enum BackendError {
    /// The underlying CONGEST simulator rejected the execution (budget
    /// violation etc.). Only the CONGEST-backed adapter produces this.
    Congest(SimulatorError),
    /// `run` exceeded its round limit before every node finished.
    RoundLimitExceeded {
        /// The limit that was hit.
        limit: u64,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Congest(e) => write!(f, "congest backend: {e}"),
            BackendError::RoundLimitExceeded { limit } => {
                write!(f, "backend exceeded round limit {limit}")
            }
        }
    }
}

impl std::error::Error for BackendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BackendError::Congest(e) => Some(e),
            BackendError::RoundLimitExceeded { .. } => None,
        }
    }
}

impl From<SimulatorError> for BackendError {
    fn from(e: SimulatorError) -> Self {
        BackendError::Congest(e)
    }
}

/// Summary of a completed [`MisBackend::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackendRun {
    /// CONGEST rounds executed (identical across backends for the same
    /// graph, seed, and algorithm).
    pub rounds: u64,
}

/// A round-steppable MIS execution.
///
/// The contract that makes backends interchangeable:
///
/// * [`round`](MisBackend::round) counts CONGEST rounds; one
///   [`step_round`](MisBackend::step_round) call executes exactly one.
/// * [`joiners`](MisBackend::joiners) is the ascending list of nodes
///   that entered the MIS during the *last executed* round — empty on
///   rounds where the protocol does not admit joiners.
/// * [`is_done`](MisBackend::is_done) mirrors the simulator's
///   termination test (`pending == 0`): true once every node has
///   halted, so total round counts agree across backends.
/// * [`init`](MisBackend::init) rewinds to round 0, reusing internal
///   buffers (no steady-state allocation on re-runs).
pub trait MisBackend {
    /// Resets to round 0 on the same graph/seed/algorithm.
    fn init(&mut self);

    /// Executes one CONGEST round.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures for the CONGEST-backed adapter;
    /// the flat engine never fails.
    fn step_round(&mut self) -> Result<(), BackendError>;

    /// Nodes that joined the MIS in the last executed round, ascending.
    fn joiners(&self) -> &[NodeId];

    /// True once every node has terminated.
    fn is_done(&self) -> bool;

    /// Current MIS membership mask (word-packed, length `n`).
    fn mis(&self) -> &BitMask;

    /// CONGEST rounds executed so far.
    fn round(&self) -> u64;

    /// Runs from a fresh [`init`](MisBackend::init) to completion.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::RoundLimitExceeded`] if the execution is
    /// still pending after `max_rounds`, or any error from
    /// [`step_round`](MisBackend::step_round).
    fn run(&mut self, max_rounds: u64) -> Result<BackendRun, BackendError> {
        self.init();
        while !self.is_done() {
            if self.round() >= max_rounds {
                return Err(BackendError::RoundLimitExceeded { limit: max_rounds });
            }
            self.step_round()?;
        }
        Ok(BackendRun {
            rounds: self.round(),
        })
    }
}

/// An injected single-coin perturbation, for divergence-tooling tests
/// and fault drills: "what if node `node`'s coin in iteration
/// `iteration` had come out differently?"
///
/// Only [`crate::FlatBackend`] honors coin flips (the CONGEST backend is the
/// pristine reference). The flip applies at the decide step of the
/// matching iteration, to the matching node, only while it is active:
///
/// * Métivier / BoundedArb: the drawn priority `p` becomes
///   `(p ^ xor) | 1` (the low bit keeps the value a valid nonzero
///   priority).
/// * Luby / Ghaffari: the mark bit is toggled when `xor != 0`.
///
/// A flip with `xor == 0` is a no-op for the priority protocols; use an
/// odd `xor` to guarantee a change.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoinFlip {
    /// The perturbed node.
    pub node: NodeId,
    /// The protocol iteration (not round) whose coin is perturbed.
    pub iteration: u64,
    /// XOR mask applied to the drawn value.
    pub xor: u64,
}

/// Folds an FNV-1a 128 digest to the 64-bit fingerprint stored in
/// flight records.
fn fold(d: u128) -> u64 {
    (d as u64) ^ ((d >> 64) as u64)
}

/// FNV-1a fingerprint of an ascending joiner list (0 when empty).
pub fn joiner_digest(joiners: &[NodeId]) -> u64 {
    if joiners.is_empty() {
        return 0;
    }
    let mut h = Fnv128::new();
    for &v in joiners {
        h.write_u64(v as u64);
    }
    fold(h.finish())
}

/// CONGEST rounds per iteration of every algorithm here: announce,
/// decide, exit.
pub const ROUNDS_PER_ITERATION: u64 = 3;

/// CONGEST rounds of a BoundedArb scale end (Algorithm 1 step 2(b)):
/// degree exchange, then bad exits.
const ROUNDS_PER_SCALE_END: u64 = 2;

/// Schedule rounds of `iterations` iterations and `scale_ends` BoundedArb
/// scale ends. A whole BoundedArb run is `Θ·Λ` iterations and `Θ` scale
/// ends; the other algorithms have no scale ends.
pub fn schedule_rounds(iterations: u64, scale_ends: u32) -> u64 {
    iterations * ROUNDS_PER_ITERATION + u64::from(scale_ends) * ROUNDS_PER_SCALE_END
}

/// What one CONGEST round does on an algorithm's oblivious schedule.
/// [`slot`] is the one decoder of round numbers: the flat engine, the
/// CONGEST protocols and the coin digests all read the timeline from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// First round of iteration `iter`: nodes that left in the previous
    /// round halt, and the active ones announce their coins.
    Announce {
        /// The iteration, counted across scales.
        iter: u64,
        /// The 1-based BoundedArb scale; 0 for the unscaled algorithms.
        scale: u32,
        /// Whether this round opens a BoundedArb scale.
        scale_start: bool,
    },
    /// Second round: each active node decides from its neighbors'
    /// announcements whether it joins.
    Decide {
        /// The iteration whose coins decide.
        iter: u64,
        /// As in [`Slot::Announce`].
        scale: u32,
    },
    /// Third round: winners join the MIS, and they and their neighbors
    /// leave.
    Exit,
    /// First round of a BoundedArb scale end: nodes that left halt, and
    /// the active ones announce their active degrees.
    DegreeExchange,
    /// Second round of a scale end: active nodes with too many
    /// high-degree active neighbors exit to the bad set.
    BadExit {
        /// The scale that ends.
        scale: u32,
    },
    /// Past BoundedArb's last scale: every node halts.
    End,
}

/// The slot of `round` in `algo`'s schedule.
///
/// Luby, Métivier, Ghaffari and degree reduction repeat
/// announce/decide/exit until every node halts. BoundedArb runs Θ scales
/// of Λ such iterations, each followed by a degree exchange and a bad
/// exit, and then ends.
pub fn slot(algo: &FlatAlgo, round: u64) -> Slot {
    let (scale, first_iter, within) = match algo {
        FlatAlgo::BoundedArb { params, .. } => {
            let per_scale = schedule_rounds(params.lambda, 1);
            let done = round / per_scale;
            if done >= u64::from(params.theta) {
                return Slot::End;
            }
            let (scale, within) = (done as u32 + 1, round % per_scale);
            let body = schedule_rounds(params.lambda, 0);
            if within == body {
                return Slot::DegreeExchange;
            } else if within > body {
                return Slot::BadExit { scale };
            }
            (scale, done * params.lambda, within)
        }
        _ => (0, 0, round),
    };
    let iter = first_iter + within / ROUNDS_PER_ITERATION;
    match within % ROUNDS_PER_ITERATION {
        0 => Slot::Announce {
            iter,
            scale,
            scale_start: scale > 0 && within == 0,
        },
        1 => Slot::Decide { iter, scale },
        _ => Slot::Exit,
    }
}

/// The protocol iteration whose coins are consumed at `round`, or `None`
/// when `round` is not a decide round for `algo`.
pub fn decide_iteration(algo: &FlatAlgo, round: u64) -> Option<u64> {
    match slot(algo, round) {
        Slot::Decide { iter, .. } => Some(iter),
        _ => None,
    }
}

/// FNV-1a fingerprint of the coin stream consumed at `round`: the
/// `(node, coin)` pairs of every active node in ascending order. Returns
/// 0 on non-decide rounds or when no node is active.
///
/// The digested coin is the **pure** per-node draw — `draw(TAG_MARK)`
/// for Luby and Ghaffari (before it meets the degree or desire
/// threshold), `draw_priority` for Métivier/BoundedArb/degree reduction
/// (ignoring the ρ_k cutoff and who competes) — so the digest is a function of `(seed, algo, round,
/// active set)` only, identical across backends at every decide round.
/// An injected [`CoinFlip`] XORs the matching node's coin, which is
/// exactly how a perturbed flat run's flight log reveals *where* its
/// coins diverged from the pristine reference.
pub fn coin_digest(
    algo: &FlatAlgo,
    seed: u64,
    n: usize,
    round: u64,
    active: impl Fn(NodeId) -> bool,
    flip: Option<CoinFlip>,
) -> u64 {
    let Some(iter) = decide_iteration(algo, round) else {
        return 0;
    };
    let mut h = Fnv128::new();
    let mut any = false;
    for v in 0..n {
        if !active(v) {
            continue;
        }
        any = true;
        let mut coin = match algo {
            FlatAlgo::Luby => rng::draw(seed, v, iter, luby::TAG_MARK),
            FlatAlgo::Ghaffari => rng::draw(seed, v, iter, ghaffari::TAG_MARK),
            FlatAlgo::Metivier | FlatAlgo::DegreeReduction { .. } => {
                rng::draw_priority(seed, v, iter, metivier::TAG_PRIORITY, n)
            }
            FlatAlgo::BoundedArb { .. } => {
                rng::draw_priority(seed, v, iter, bounded_arb::TAG_PRIORITY, n)
            }
        };
        if let Some(f) = flip {
            if f.node == v && f.iteration == iter {
                coin ^= f.xor;
            }
        }
        h.write_u64(v as u64);
        h.write_u64(coin);
    }
    if !any {
        return 0;
    }
    fold(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arb(theta: u32, lambda: u64) -> FlatAlgo {
        FlatAlgo::BoundedArb {
            params: ArbParams {
                theta,
                lambda,
                ..ArbParams::new(2, 1000, Default::default())
            },
            rho_cutoff: true,
        }
    }

    fn announce(iter: u64, scale: u32, scale_start: bool) -> Slot {
        Slot::Announce {
            iter,
            scale,
            scale_start,
        }
    }

    fn decide(iter: u64, scale: u32) -> Slot {
        Slot::Decide { iter, scale }
    }

    /// Asserts the slots of rounds `0..want.len()`, and that
    /// `decide_iteration` reads its iterations off them.
    fn assert_slots(algo: &FlatAlgo, want: &[Slot]) {
        for (round, &want) in (0u64..).zip(want) {
            assert_eq!(slot(algo, round), want, "{} round {round}", algo.label());
            let iter = match want {
                Slot::Decide { iter, .. } => Some(iter),
                _ => None,
            };
            assert_eq!(decide_iteration(algo, round), iter);
        }
    }

    /// One row per iteration or scale end.
    #[rustfmt::skip]
    #[test]
    fn decide_iteration_schedules() {
        use Slot::{BadExit, DegreeExchange, End, Exit};
        let three_round = [
            announce(0, 0, false), decide(0, 0), Exit,
            announce(1, 0, false), decide(1, 0), Exit,
            announce(2, 0, false), decide(2, 0),
        ];
        for algo in [
            FlatAlgo::Luby,
            FlatAlgo::Metivier,
            FlatAlgo::Ghaffari,
            FlatAlgo::DegreeReduction { target: 8.0 },
        ] {
            assert_slots(&algo, &three_round);
        }
        // Θ = 2 scales of Λ = 2 iterations, each followed by a scale end.
        assert_slots(&arb(2, 2), &[
            announce(0, 1, true), decide(0, 1), Exit,
            announce(1, 1, false), decide(1, 1), Exit,
            DegreeExchange, BadExit { scale: 1 },
            announce(2, 2, true), decide(2, 2), Exit,
            announce(3, 2, false), decide(3, 2), Exit,
            DegreeExchange, BadExit { scale: 2 },
            End,
        ]);
        assert_eq!(schedule_rounds(4, 2), 16, "the rounds before End");
        assert_eq!(slot(&arb(2, 2), u64::MAX), End);
        // Θ = 0: the schedule is empty.
        assert_slots(&arb(0, 2), &[End, End]);
        // Λ = 0: each scale is its scale end alone.
        assert_slots(&arb(2, 0), &[
            DegreeExchange, BadExit { scale: 1 },
            DegreeExchange, BadExit { scale: 2 },
            End,
        ]);
        assert_eq!(schedule_rounds(0, 2), 4);
        assert_eq!(schedule_rounds(5, 0), 15);
    }

    #[test]
    fn coin_digest_zero_off_decide_rounds_and_flip_changes_it() {
        let algo = FlatAlgo::Metivier;
        let active = |_v: NodeId| true;
        assert_eq!(coin_digest(&algo, 1, 8, 0, active, None), 0);
        let base = coin_digest(&algo, 1, 8, 1, active, None);
        assert_ne!(base, 0);
        let flip = CoinFlip {
            node: 3,
            iteration: 0,
            xor: 0xff,
        };
        assert_ne!(coin_digest(&algo, 1, 8, 1, active, Some(flip)), base);
        // A flip for a later iteration leaves round 1 untouched.
        let later = CoinFlip {
            node: 3,
            iteration: 2,
            xor: 0xff,
        };
        assert_eq!(coin_digest(&algo, 1, 8, 1, active, Some(later)), base);
        // No active nodes → 0.
        assert_eq!(coin_digest(&algo, 1, 8, 1, |_| false, None), 0);
    }
}
