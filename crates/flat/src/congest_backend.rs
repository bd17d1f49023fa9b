//! The reference backend: a thin adapter over the CONGEST simulator.

use crate::{divergence, BackendError, FlatAlgo, MisBackend};
use arbmis_congest::{BitMask, Simulator, Stepper};
use arbmis_core::protocols::{
    BoundedArbProtocol, GhaffariProtocol, LubyProtocol, MetivierProtocol, MisNodeState,
};
use arbmis_graph::{Graph, NodeId};
use arbmis_obs::{FlightRecorder, RoundRecord};

/// All four MIS protocols share `MisNodeState`, so the adapter only
/// needs to dispatch the stepper calls.
enum Inner<'g> {
    Luby(Stepper<'g, LubyProtocol>),
    Metivier(Stepper<'g, MetivierProtocol>),
    Ghaffari(Stepper<'g, GhaffariProtocol>),
    BoundedArb(Stepper<'g, BoundedArbProtocol>),
}

macro_rules! dispatch {
    ($inner:expr, $st:ident => $body:expr) => {
        match $inner {
            Inner::Luby($st) => $body,
            Inner::Metivier($st) => $body,
            Inner::Ghaffari($st) => $body,
            Inner::BoundedArb($st) => $body,
        }
    };
}

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
    g: &'g Graph,
    seed: u64,
    algo: FlatAlgo,
    full_scan: bool,
    flight: FlightRecorder,
    inner: Inner<'g>,
    mis: BitMask,
    joiners: Vec<NodeId>,
}

fn build<'g>(
    g: &'g Graph,
    seed: u64,
    algo: FlatAlgo,
    full_scan: bool,
    flight: &FlightRecorder,
) -> Inner<'g> {
    let sim = Simulator::new(g, seed)
        .with_full_scan(full_scan)
        .with_flight(flight.clone());
    match algo {
        FlatAlgo::Luby => Inner::Luby(sim.stepper(LubyProtocol)),
        FlatAlgo::Metivier => Inner::Metivier(sim.stepper(MetivierProtocol)),
        FlatAlgo::Ghaffari => Inner::Ghaffari(sim.stepper(GhaffariProtocol)),
        FlatAlgo::BoundedArb { params, rho_cutoff } => {
            Inner::BoundedArb(sim.stepper(BoundedArbProtocol { params, rho_cutoff }))
        }
        FlatAlgo::DegreeReduction { .. } => {
            panic!("degree reduction has no CONGEST protocol; it runs on the flat engine only")
        }
    }
}

impl<'g> CongestBackend<'g> {
    /// A congest backend for `algo` on `g` under `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `algo` is [`FlatAlgo::DegreeReduction`], which has no
    /// CONGEST protocol.
    pub fn new(g: &'g Graph, seed: u64, algo: FlatAlgo) -> Self {
        let flight = arbmis_obs::global_flight();
        CongestBackend {
            g,
            seed,
            algo,
            full_scan: false,
            inner: build(g, seed, algo, false, &flight),
            flight,
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
        self.full_scan = full_scan;
        self.inner = build(self.g, self.seed, self.algo, full_scan, &self.flight);
        self
    }

    /// Routes per-round flight records (both the simulator's and this
    /// adapter's) through `flight` instead of the global ring.
    #[must_use]
    pub fn with_flight(mut self, flight: FlightRecorder) -> Self {
        self.flight = flight;
        self.inner = build(self.g, self.seed, self.algo, self.full_scan, &self.flight);
        self
    }

    /// The flight recorder this backend writes to.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The per-node protocol states (for oracle tests that compare
    /// `active` / `bad` flags beyond the MIS mask).
    pub fn states(&self) -> &[MisNodeState] {
        dispatch!(&self.inner, st => st.states())
    }
}

impl MisBackend for CongestBackend<'_> {
    fn init(&mut self) {
        self.inner = build(self.g, self.seed, self.algo, self.full_scan, &self.flight);
        self.mis.clear_all();
        self.joiners.clear();
    }

    fn step_round(&mut self) -> Result<(), BackendError> {
        self.joiners.clear();
        let r = self.round();
        // Flight capture needs the active set *entering* the round; the
        // O(n) state scan only runs with a recorder attached, and reads
        // protocol state without touching it (observation only).
        let (frontier, coin_digest) = if self.flight.enabled() {
            let states = dispatch!(&self.inner, st => st.states());
            let frontier = states.iter().filter(|s| s.active).count() as u64;
            let coin = divergence::coin_digest(
                &self.algo,
                self.seed,
                self.g.n(),
                r,
                |v| states[v].active,
                None,
            );
            (frontier, coin)
        } else {
            (0, 0)
        };
        let states = dispatch!(&mut self.inner, st => {
            st.step()?;
            st.states()
        });
        for (v, s) in states.iter().enumerate() {
            if s.in_mis && !self.mis.test(v) {
                self.mis.set(v);
                self.joiners.push(v);
            }
        }
        if self.flight.enabled() {
            self.flight.record(RoundRecord {
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
        dispatch!(&self.inner, st => st.is_done())
    }

    fn mis(&self) -> &BitMask {
        &self.mis
    }

    fn round(&self) -> u64 {
        dispatch!(&self.inner, st => st.round())
    }
}
