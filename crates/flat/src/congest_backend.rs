//! The reference backend: a thin adapter over the CONGEST simulator.

use crate::{divergence, BackendError, FlatAlgo, MisBackend};
use arbmis_congest::{BitMask, Simulator, Stepper};
use arbmis_core::protocols::{MisNodeState, MisProtocol};
use arbmis_graph::{Graph, NodeId};
use arbmis_obs::{FlightRecorder, RoundRecord};

/// [`MisBackend`] over the real message-passing simulator.
///
/// Each [`step_round`](MisBackend::step_round) runs one simulator round
/// (messages, budget checks, frontier bookkeeping included) and diffs
/// `in_mis` across node states to report joiners. This is the oracle the
/// flat engine is verified against.
///
/// With a flight recorder attached, every round leaves **two** records:
/// the simulator's own `"congest"` record (messages/bits/frontier) and
/// this adapter's `"congest-backend"` record carrying the joiner/coin
/// digests, whose `(round, joiners, joiner_digest, coin_digest)` columns
/// are directly comparable to a [`crate::FlatBackend`]'s `"flat"`
/// records.
pub struct CongestBackend<'g> {
    sim: Simulator<'g>,
    algo: FlatAlgo,
    stepper: Stepper<'g, MisProtocol>,
    mis: BitMask,
    joiners: Vec<NodeId>,
}

impl<'g> CongestBackend<'g> {
    /// A congest backend for `algo` on `g` under `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `algo` is [`FlatAlgo::DegreeReduction`], which has no
    /// CONGEST protocol.
    pub fn new(g: &'g Graph, seed: u64, algo: FlatAlgo) -> Self {
        assert!(
            !matches!(algo, FlatAlgo::DegreeReduction { .. }),
            "degree reduction has no CONGEST protocol; it runs on the flat engine only"
        );
        let sim = Simulator::new(g, seed);
        CongestBackend {
            stepper: sim.stepper(MisProtocol(algo)),
            sim,
            algo,
            mis: BitMask::new(g.n()),
            joiners: Vec::new(),
        }
    }

    /// Forwards the simulator's full-scan knob (activate every node
    /// every round instead of frontier-driven scheduling). Both modes
    /// must produce identical executions; the equivalence suite checks
    /// the backend against each.
    #[must_use]
    pub fn with_full_scan(mut self, full_scan: bool) -> Self {
        self.sim = self.sim.with_full_scan(full_scan);
        self.stepper = self.sim.stepper(MisProtocol(self.algo));
        self
    }

    /// Routes per-round flight records (both the simulator's and this
    /// adapter's) through `flight` instead of the global ring.
    #[must_use]
    pub fn with_flight(mut self, flight: FlightRecorder) -> Self {
        self.sim = self.sim.with_flight(flight);
        self.stepper = self.sim.stepper(MisProtocol(self.algo));
        self
    }

    /// The flight recorder this backend writes to.
    pub fn flight(&self) -> &FlightRecorder {
        self.sim.flight()
    }

    /// The per-node protocol states (for oracle tests that compare
    /// `active` / `bad` flags beyond the MIS mask).
    pub fn states(&self) -> &[MisNodeState] {
        self.stepper.states()
    }
}

impl MisBackend for CongestBackend<'_> {
    fn init(&mut self) {
        self.stepper = self.sim.stepper(MisProtocol(self.algo));
        self.mis.clear_all();
        self.joiners.clear();
    }

    fn step_round(&mut self) -> Result<(), BackendError> {
        self.joiners.clear();
        let r = self.round();
        // Flight capture needs the active set *entering* the round; the
        // O(n) state scan only runs with a recorder attached, and reads
        // protocol state without touching it (observation only).
        let (frontier, coin_digest) = if self.flight().enabled() {
            let states = self.stepper.states();
            let frontier = states.iter().filter(|s| s.active).count() as u64;
            let coin = divergence::coin_digest(
                &self.algo,
                self.sim.seed(),
                states.len(),
                r,
                |v| states[v].active,
                None,
            );
            (frontier, coin)
        } else {
            (0, 0)
        };
        self.stepper.step()?;
        for (v, s) in self.stepper.states().iter().enumerate() {
            if s.in_mis && !self.mis.test(v) {
                self.mis.set(v);
                self.joiners.push(v);
            }
        }
        if self.flight().enabled() {
            self.flight().record(RoundRecord {
                engine: "congest-backend",
                round: r,
                frontier,
                joiners: self.joiners.len() as u64,
                joiner_digest: divergence::joiner_digest(&self.joiners),
                coin_digest,
                messages: 0,
                bits: 0,
                scan: "-",
                span_seq: 0,
            });
        }
        Ok(())
    }

    fn joiners(&self) -> &[NodeId] {
        &self.joiners
    }

    fn is_done(&self) -> bool {
        self.stepper.is_done()
    }

    fn mis(&self) -> &BitMask {
        &self.mis
    }

    fn round(&self) -> u64 {
        self.stepper.round()
    }
}
