//! The round-driving engine.

use crate::frontier::Frontier;
use crate::message::Message;
use crate::metrics::Metrics;
use crate::protocol::{Inbox, NodeInfo, Outgoing, Protocol};
use arbmis_graph::{Graph, NodeId};
use arbmis_obs::{FlightRecorder, Histogram, Recorder, RoundRecord};
use std::fmt;
use std::time::Instant;

/// Errors a simulation can end with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimulatorError {
    /// The protocol did not terminate within the round limit.
    RoundLimitExceeded {
        /// The limit that was hit.
        limit: u64,
        /// How many nodes were still not done.
        pending: usize,
    },
    /// A message exceeded the CONGEST bandwidth budget.
    BandwidthExceeded {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Offending message size in bits.
        bits: usize,
        /// The enforced budget in bits.
        budget: usize,
    },
    /// A node unicast to a non-neighbor.
    NotANeighbor {
        /// Sending node.
        from: NodeId,
        /// Intended recipient.
        to: NodeId,
    },
}

impl fmt::Display for SimulatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulatorError::RoundLimitExceeded { limit, pending } => {
                write!(
                    f,
                    "round limit {limit} exceeded with {pending} nodes pending"
                )
            }
            SimulatorError::BandwidthExceeded {
                from,
                to,
                bits,
                budget,
            } => write!(
                f,
                "message {from}->{to} of {bits} bits exceeds budget {budget} bits"
            ),
            SimulatorError::NotANeighbor { from, to } => {
                write!(f, "node {from} unicast to non-neighbor {to}")
            }
        }
    }
}

impl std::error::Error for SimulatorError {}

/// The result of a completed simulation.
#[derive(Clone, Debug)]
pub struct SimulatorRun<S> {
    /// Final per-node states, indexed by node id.
    pub states: Vec<S>,
    /// Round/message/bit counters.
    pub metrics: Metrics,
}

/// `⌈log₂ max(n, 4)⌉`, the unit of the bandwidth budget: at least 2, and
/// `⌈log₂ n⌉` for every `n ≥ 3`.
fn log_n_bits(n: usize) -> usize {
    ((n.max(4) - 1).ilog2() + 1) as usize
}

/// Drives a [`Protocol`] over a [`Graph`] in synchronous rounds.
///
/// The CONGEST bandwidth budget defaults to `16 · ⌈log₂ max(n, 4)⌉` bits
/// per message (a generous but honest `O(log n)`; our encodings are byte
/// granular, so a handful of log-sized fields fit). The floor of 4 keeps
/// two-node graphs, whose protocols send the same 24-bit messages as on
/// three or four nodes, within budget.
#[derive(Clone, Debug)]
pub struct Simulator<'g> {
    graph: &'g Graph,
    seed: u64,
    budget_bits: usize,
    recorder: Recorder,
    flight: FlightRecorder,
    full_scan: bool,
}

impl<'g> Simulator<'g> {
    /// Creates a simulator over `graph` with master randomness `seed`.
    pub fn new(graph: &'g Graph, seed: u64) -> Self {
        Simulator {
            graph,
            seed,
            budget_bits: 16 * log_n_bits(graph.n()),
            recorder: arbmis_obs::global(),
            flight: arbmis_obs::global_flight(),
            full_scan: false,
        }
    }

    /// The master randomness seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Diagnostic knob: disables quiescence-based frontier shrinking, so
    /// every non-halted node is stepped every round (the pre-frontier
    /// behaviour). Results are identical either way — the differential
    /// suites use this to prove it; it is never needed for correctness.
    pub fn with_full_scan(mut self, full_scan: bool) -> Self {
        self.full_scan = full_scan;
        self
    }

    /// Attaches an observability [`Recorder`]. The default is the
    /// process-wide recorder ([`arbmis_obs::global`]), which is disabled
    /// unless a binary installed one. Recording never changes results:
    /// metrics, transcripts, and final states are bit-identical with the
    /// recorder enabled or disabled (see DESIGN.md §8).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The attached recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Attaches a per-round [`FlightRecorder`]. The default is the
    /// process-wide one ([`arbmis_obs::global_flight`]), disabled unless
    /// a binary installed it. Like the metric recorder, flight capture
    /// never changes results (DESIGN.md §8).
    pub fn with_flight(mut self, flight: FlightRecorder) -> Self {
        self.flight = flight;
        self
    }

    /// The attached flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The enforced per-message budget in bits.
    pub fn budget_bits(&self) -> usize {
        self.budget_bits
    }

    /// Runs `protocol` until every node is done (or has halted), up to
    /// `max_rounds` rounds.
    ///
    /// # Errors
    ///
    /// [`SimulatorError::RoundLimitExceeded`] if termination is not
    /// reached; [`SimulatorError::BandwidthExceeded`] /
    /// [`SimulatorError::NotANeighbor`] on protocol misbehaviour.
    pub fn run<P: Protocol>(
        &self,
        protocol: &P,
        max_rounds: u64,
    ) -> Result<SimulatorRun<P::State>, SimulatorError> {
        self.run_impl(protocol, max_rounds, None)
    }

    /// Like [`run`](Self::run), but additionally records a full
    /// per-message [`crate::transcript::Transcript`] (who sent how many
    /// bits to whom, each round).
    ///
    /// # Errors
    ///
    /// Same conditions as [`run`](Self::run).
    pub fn run_traced<P: Protocol>(
        &self,
        protocol: &P,
        max_rounds: u64,
    ) -> Result<(SimulatorRun<P::State>, crate::transcript::Transcript), SimulatorError> {
        let mut transcript = crate::transcript::Transcript::new();
        let run = self.run_impl(protocol, max_rounds, Some(&mut transcript))?;
        Ok((run, transcript))
    }

    /// Creates an incremental round driver over `protocol`: the caller
    /// owns the loop and advances one synchronous round per
    /// [`Stepper::step`]. [`run`](Self::run) is exactly this followed by
    /// stepping until [`Stepper::is_done`]; external drivers use the
    /// same engine when they need to observe per-round state (e.g. the
    /// per-round joiner sets in the backend-equivalence suite).
    pub fn stepper<P: Protocol>(&self, protocol: P) -> Stepper<'g, P> {
        let g = self.graph;
        let n = g.n();
        let states: Vec<P::State> = (0..n)
            .map(|v| {
                let info = NodeInfo {
                    id: v,
                    n,
                    neighbors: g.neighbors(v),
                    round: 0,
                    seed: self.seed,
                };
                protocol.init(&info)
            })
            .collect();
        // Frontier bookkeeping (DESIGN.md §10): `done` caches `is_done`
        // per node (state only changes inside `round`, so the cache is
        // exact), `pending` counts nodes that are neither done nor halted
        // — termination detection is O(1) instead of an O(n) scan. The
        // double-buffered frontiers hold the nodes to step: survivors of
        // this round that are not quiescent, plus every node a message
        // woke. Halted nodes are never members.
        let mut done = vec![false; n];
        let mut pending = 0usize;
        let mut cur_frontier = Frontier::new(n);
        for v in 0..n {
            done[v] = protocol.is_done(&states[v]);
            if !done[v] {
                pending += 1;
            }
            if self.full_scan || !protocol.is_quiescent(&states[v]) {
                cur_frontier.insert(v);
            }
        }
        Stepper {
            graph: g,
            seed: self.seed,
            budget_bits: self.budget_bits,
            full_scan: self.full_scan,
            recorder: self.recorder.clone(),
            flight: self.flight.clone(),
            protocol,
            states,
            halted: vec![false; n],
            done,
            pending,
            cur_frontier,
            next_frontier: Frontier::new(n),
            // Double-buffered message plane: `cur` is read this round,
            // `next` is filled for the next one; both keep their
            // allocations across rounds (steady-state rounds allocate
            // nothing).
            cur: Plane::new(n),
            next: Plane::new(n),
            metrics: Metrics {
                budget_bits: self.budget_bits as u64,
                ..Metrics::default()
            },
            msg_bits_hist: Histogram::new(),
            round: 0,
        }
    }

    fn run_impl<P: Protocol>(
        &self,
        protocol: &P,
        max_rounds: u64,
        mut transcript: Option<&mut crate::transcript::Transcript>,
    ) -> Result<SimulatorRun<P::State>, SimulatorError> {
        let mut st = self.stepper(protocol);
        for _ in 0..max_rounds {
            if st.is_done() {
                return Ok(st.finish());
            }
            st.step_traced(transcript.as_deref_mut())?;
        }
        if st.is_done() {
            return Ok(st.finish());
        }
        Err(SimulatorError::RoundLimitExceeded {
            limit: max_rounds,
            pending: st.pending(),
        })
    }
}

/// One in-flight simulation: per-node states, halt flags,
/// frontier bookkeeping, and the double-buffered message plane, advanced
/// one synchronous round per [`step`](Stepper::step).
///
/// Obtained from [`Simulator::stepper`]. Semantics are identical to
/// [`Simulator::run`] — same wake rules, same metrics, same
/// observability stream — the only difference is who owns the loop.
pub struct Stepper<'g, P: Protocol> {
    graph: &'g Graph,
    seed: u64,
    budget_bits: usize,
    full_scan: bool,
    recorder: Recorder,
    flight: FlightRecorder,
    protocol: P,
    states: Vec<P::State>,
    halted: Vec<bool>,
    done: Vec<bool>,
    pending: usize,
    cur_frontier: Frontier,
    next_frontier: Frontier,
    cur: Plane<P::Msg>,
    next: Plane<P::Msg>,
    metrics: Metrics,
    msg_bits_hist: Histogram,
    round: u64,
}

impl<P: Protocol> Stepper<'_, P> {
    /// Whether every node is done or halted — [`Simulator::run`] would
    /// stop here. Checked *before* a step: a fresh stepper can already be
    /// done (0-round run).
    pub fn is_done(&self) -> bool {
        self.pending == 0
    }

    /// Number of nodes that are neither done nor halted.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Per-node states, indexed by node id.
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// Metrics accumulated so far. `rounds` stays 0 until
    /// [`finish`](Self::finish) stamps it.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Executes one synchronous round.
    ///
    /// # Errors
    ///
    /// [`SimulatorError::BandwidthExceeded`] /
    /// [`SimulatorError::NotANeighbor`] on protocol misbehaviour; the
    /// stepper must not be stepped again after an error (matching
    /// [`Simulator::run`], which aborts the run).
    pub fn step(&mut self) -> Result<(), SimulatorError> {
        self.step_traced(None)
    }

    /// Like [`step`](Self::step), recording per-message transcript
    /// events.
    ///
    /// # Errors
    ///
    /// Same conditions as [`step`](Self::step).
    pub fn step_traced(
        &mut self,
        mut transcript: Option<&mut crate::transcript::Transcript>,
    ) -> Result<(), SimulatorError> {
        let g = self.graph;
        let n = g.n();
        let seed = self.seed;
        let budget = self.budget_bits;
        let full_scan = self.full_scan;
        let obs = self.recorder.enabled();
        let timing = self.recorder.timing();
        let round = self.round;
        let Self {
            recorder,
            flight,
            protocol,
            states,
            halted,
            done,
            pending,
            cur_frontier,
            next_frontier,
            cur,
            next,
            metrics,
            msg_bits_hist,
            ..
        } = self;
        let (round_msgs0, round_bits0) = (metrics.messages, metrics.bits);
        let round_t0 = timing.then(Instant::now);
        // Nodes stepped this round (= the frontier size; the [`Frontier`]
        // keeps no count, so tally during iteration). Deterministic
        // class: a pure function of the run.
        let mut stepped: u64 = 0;
        for v in cur_frontier.iter() {
            stepped += 1;
            let nbrs = g.neighbors(v);
            let info = NodeInfo {
                id: v,
                n,
                neighbors: nbrs,
                round,
                seed,
            };
            let inbox = cur.inbox(v, nbrs.as_slice());
            let out = protocol.round(&mut states[v], &info, &inbox);
            let was_pending = !done[v];
            match out {
                Outgoing::Silent => {}
                Outgoing::Halt => {
                    halted[v] = true;
                    // An earlier sender may have woken it this round.
                    next_frontier.remove(v);
                }
                Outgoing::Broadcast(msg) => {
                    if !nbrs.is_empty() {
                        let bits = msg.bit_size();
                        // Every copy has the same size: one budget
                        // check for the whole neighborhood, reporting
                        // the first neighbor (= the edge the per-edge
                        // loop would have failed on).
                        check_bits(budget, v, nbrs.as_slice()[0] as NodeId, bits)?;
                        metrics.record_broadcast(bits, nbrs.len());
                        if obs {
                            msg_bits_hist.observe_n(bits as u64, nbrs.len() as u64);
                        }
                        if let Some(t) = transcript.as_deref_mut() {
                            for u in nbrs {
                                t.record(round, v, u, bits);
                            }
                        }
                        // The payload is stored once and the sender's
                        // slot points at it; receivers find it by
                        // scanning their neighbor lists — no per-edge
                        // delivery work at all. The wake loop below is
                        // the only per-edge cost, within the
                        // "messages delivered" budget.
                        for u in nbrs {
                            if !halted[u] {
                                next_frontier.insert(u);
                            }
                        }
                        next.push_broadcast(v, msg);
                    }
                }
                Outgoing::Unicast(list) => {
                    for (u, msg) in list {
                        if !g.has_edge(v, u) {
                            return Err(SimulatorError::NotANeighbor { from: v, to: u });
                        }
                        let bits = msg.bit_size();
                        check_bits(budget, v, u, bits)?;
                        metrics.record_message(bits);
                        if obs {
                            msg_bits_hist.observe(bits as u64);
                        }
                        if let Some(t) = transcript.as_deref_mut() {
                            t.record(round, v, u, bits);
                        }
                        if !halted[u] {
                            next_frontier.insert(u);
                        }
                        next.push_unicast(v, u, msg);
                    }
                }
            }
            if !halted[v] && (full_scan || !protocol.is_quiescent(&states[v])) {
                next_frontier.insert(v);
            }
            done[v] = protocol.is_done(&states[v]);
            let now_pending = !done[v] && !halted[v];
            match (was_pending, now_pending) {
                (true, false) => *pending -= 1,
                (false, true) => *pending += 1,
                _ => {}
            }
        }
        if obs {
            observe_round(
                recorder,
                stepped,
                metrics.messages - round_msgs0,
                metrics.bits - round_bits0,
                round_t0,
            );
        }
        if flight.enabled() {
            flight.record(RoundRecord {
                engine: "congest",
                round,
                frontier: stepped,
                joiners: 0,
                joiner_digest: 0,
                coin_digest: 0,
                messages: metrics.messages - round_msgs0,
                bits: metrics.bits - round_bits0,
                scan: if full_scan { "full" } else { "frontier" },
                span_seq: recorder.seq(),
            });
        }
        std::mem::swap(cur, next);
        next.clear();
        std::mem::swap(cur_frontier, next_frontier);
        next_frontier.clear();
        // No per-round sort: the ascending frontier iteration above
        // pushes into every inbox in ascending sender order already.
        debug_assert!(cur.is_sorted_by_sender(), "inbox delivery out of order");
        self.round += 1;
        Ok(())
    }

    /// Completes the run: stamps `metrics.rounds` and flushes the
    /// run-level observability counters, exactly like [`Simulator::run`]
    /// does on termination.
    pub fn finish(mut self) -> SimulatorRun<P::State> {
        self.metrics.rounds = self.round;
        flush_run_obs(&self.recorder, &self.metrics, &self.msg_bits_hist);
        SimulatorRun {
            states: self.states,
            metrics: self.metrics,
        }
    }
}

fn check_bits(budget: usize, from: NodeId, to: NodeId, bits: usize) -> Result<(), SimulatorError> {
    if bits > budget {
        return Err(SimulatorError::BandwidthExceeded {
            from,
            to,
            bits,
            budget,
        });
    }
    Ok(())
}

/// One side of the engine's double-buffered message plane.
///
/// A broadcast costs the engine O(1): the payload is pushed into
/// `barena` once and the sender's slot in `bidx` records its index — no
/// per-edge writes at all. Receivers discover broadcasts lazily by
/// scanning their own (sorted) neighbor list against `bidx` while
/// iterating the [`Inbox`]. Unicasts go through explicit per-receiver
/// `(sender, arena index)` entry lists backed by `uarena`;
/// `unicast_touched` remembers which lists are non-empty so clearing is
/// O(#receivers-with-unicasts), not O(n). All buffers persist across
/// rounds, so steady-state rounds reuse the grown capacity instead of
/// reallocating.
struct Plane<M> {
    /// Per-sender broadcast slot ([`protocol::NO_BROADCAST`] = none).
    bidx: Vec<u32>,
    /// Broadcast payloads, one per broadcasting sender.
    barena: Vec<M>,
    /// Senders whose `bidx` slot is set this round (so clearing touches
    /// only dirty slots, not all n).
    bsenders: Vec<NodeId>,
    /// Per-receiver unicast entry lists.
    uentries: Vec<Vec<(NodeId, u32)>>,
    /// Unicast payloads.
    uarena: Vec<M>,
    /// Receivers whose `uentries` list is non-empty this round.
    unicast_touched: Vec<NodeId>,
}

impl<M> Plane<M> {
    fn new(n: usize) -> Self {
        Plane {
            bidx: vec![crate::protocol::NO_BROADCAST; n],
            barena: Vec::new(),
            bsenders: Vec::new(),
            uentries: vec![Vec::new(); n],
            uarena: Vec::new(),
            unicast_touched: Vec::new(),
        }
    }

    /// Records a broadcast from `from`: one arena push + one slot write.
    fn push_broadcast(&mut self, from: NodeId, msg: M) {
        let idx = u32::try_from(self.barena.len()).expect("round arena exceeds u32::MAX messages");
        self.barena.push(msg);
        self.bidx[from] = idx;
        self.bsenders.push(from);
    }

    /// Records a unicast `from → to`.
    fn push_unicast(&mut self, from: NodeId, to: NodeId, msg: M) {
        let idx = u32::try_from(self.uarena.len()).expect("round arena exceeds u32::MAX messages");
        self.uarena.push(msg);
        if self.uentries[to].is_empty() {
            self.unicast_touched.push(to);
        }
        self.uentries[to].push((from, idx));
    }

    /// The receiver-side [`Inbox`] view for node `v` with neighbor list
    /// `nbrs`.
    fn inbox<'a>(&'a self, v: NodeId, nbrs: &'a [u32]) -> Inbox<'a, M> {
        Inbox::from_plane(
            nbrs,
            &self.bidx,
            &self.barena,
            &self.uentries[v],
            &self.uarena,
        )
    }

    /// Empties the plane, keeping every allocation. Cost is proportional
    /// to the traffic the plane held, never n.
    fn clear(&mut self) {
        for v in self.bsenders.drain(..) {
            self.bidx[v] = crate::protocol::NO_BROADCAST;
        }
        self.barena.clear();
        for v in self.unicast_touched.drain(..) {
            self.uentries[v].clear();
        }
        self.uarena.clear();
    }

    /// Whether every unicast entry list is ascending by sender — true by
    /// construction (the emission loop visits senders in ascending
    /// order); asserted (debug builds) instead of re-sorting. The
    /// broadcast part is sorted by construction too: receivers scan
    /// their already-sorted neighbor lists.
    fn is_sorted_by_sender(&self) -> bool {
        self.uentries
            .iter()
            .all(|e| e.windows(2).all(|w| w[0].0 <= w[1].0))
    }
}

/// Run-level accumulation: called once per
/// successful run, folding the run's totals and its message-size
/// histogram into the recorder.
fn flush_run_obs(rec: &Recorder, metrics: &Metrics, msg_bits: &Histogram) {
    if !rec.enabled() {
        return;
    }
    rec.add("congest_runs", 1);
    rec.add("congest_rounds", metrics.rounds);
    rec.add("congest_messages", metrics.messages);
    rec.add("congest_bits", metrics.bits);
    rec.merge_histogram("congest_message_bits", msg_bits);
}

/// Per-round observations. `frontier` is the
/// number of nodes stepped this round; `t0` is `Some` only when
/// wall-clock timing is on (timing class, name `*_ns`).
fn observe_round(rec: &Recorder, frontier: u64, msgs: u64, bits: u64, t0: Option<Instant>) {
    rec.observe("congest_round_frontier", frontier);
    rec.observe("congest_round_messages", msgs);
    rec.observe("congest_round_bits", bits);
    if let Some(t0) = t0 {
        rec.observe("congest_round_time_ns", t0.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbmis_graph::gen;

    /// Each node floods the max id it has seen; terminates after `k`
    /// rounds (enough on a path of diameter < k).
    struct FloodMax {
        rounds: u64,
    }

    #[derive(Clone, Debug)]
    struct FloodState {
        best: u64,
        done: bool,
    }

    impl Protocol for FloodMax {
        type State = FloodState;
        type Msg = u64;

        fn init(&self, node: &NodeInfo) -> FloodState {
            FloodState {
                best: node.id as u64,
                done: false,
            }
        }

        fn round(
            &self,
            state: &mut FloodState,
            node: &NodeInfo,
            inbox: &Inbox<u64>,
        ) -> Outgoing<u64> {
            for (_, &b) in inbox {
                state.best = state.best.max(b);
            }
            if node.round >= self.rounds {
                state.done = true;
                Outgoing::Silent
            } else {
                Outgoing::Broadcast(state.best)
            }
        }

        fn is_done(&self, state: &FloodState) -> bool {
            state.done
        }
    }

    #[test]
    fn flood_max_converges_on_path() {
        let g = gen::path(10);
        let run = Simulator::new(&g, 1)
            .run(&FloodMax { rounds: 10 }, 100)
            .unwrap();
        assert!(run.states.iter().all(|s| s.best == 9));
        assert_eq!(run.metrics.rounds, 11);
        assert!(run.metrics.within_budget());
    }

    #[test]
    fn round_limit_error() {
        let g = gen::path(4);
        let err = Simulator::new(&g, 1)
            .run(&FloodMax { rounds: 50 }, 5)
            .unwrap_err();
        match err {
            SimulatorError::RoundLimitExceeded { limit, pending } => {
                assert_eq!(limit, 5);
                assert_eq!(pending, 4);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn message_accounting() {
        let g = gen::star(5); // hub degree 4
        let run = Simulator::new(&g, 1)
            .run(&FloodMax { rounds: 1 }, 10)
            .unwrap();
        // Round 0: every node broadcasts once -> 2m = 8 messages.
        assert_eq!(run.metrics.messages, 8);
        assert!(run.metrics.max_message_bits <= 8);
    }

    /// A protocol that always sends an oversized message.
    struct Oversize;
    impl Protocol for Oversize {
        type State = ();
        type Msg = BigMsg;
        fn init(&self, _node: &NodeInfo) {}
        fn round(&self, _s: &mut (), _n: &NodeInfo, _i: &Inbox<BigMsg>) -> Outgoing<BigMsg> {
            Outgoing::Broadcast(BigMsg)
        }
        fn is_done(&self, _s: &()) -> bool {
            false
        }
    }

    #[derive(Clone, Debug)]
    struct BigMsg;
    impl Message for BigMsg {
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&[0u8; 1024]);
        }
        fn decode(buf: &mut &[u8]) -> Result<Self, crate::message::DecodeError> {
            if buf.len() < 1024 {
                return Err(crate::message::DecodeError::UnexpectedEof);
            }
            *buf = &buf[1024..];
            Ok(BigMsg)
        }
    }

    #[test]
    fn budget_unit_is_ceil_log2_of_n_floored_at_4() {
        for (n, bits) in [
            (0, 2),
            (1, 2),
            (2, 2),
            (3, 2),
            (4, 2),
            (5, 3),
            (8, 3),
            (9, 4),
        ] {
            assert_eq!(log_n_bits(n), bits, "n = {n}");
        }
        for n in (3..5000).chain([(1 << 32) - 1, 1 << 32, (1 << 32) + 1]) {
            assert_eq!(log_n_bits(n), (n as f64).log2().ceil() as usize, "n = {n}");
        }
        let g = gen::path(2);
        assert_eq!(Simulator::new(&g, 0).budget_bits(), 32);
    }

    #[test]
    fn bandwidth_violation_detected() {
        let g = gen::path(4);
        let err = Simulator::new(&g, 1).run(&Oversize, 3).unwrap_err();
        assert!(matches!(err, SimulatorError::BandwidthExceeded { .. }));
    }

    /// Unicast to a non-neighbor must be rejected.
    struct BadUnicast;
    impl Protocol for BadUnicast {
        type State = ();
        type Msg = u64;
        fn init(&self, _node: &NodeInfo) {}
        fn round(&self, _s: &mut (), node: &NodeInfo, _i: &Inbox<u64>) -> Outgoing<u64> {
            if node.id == 0 {
                Outgoing::Unicast(vec![(node.n - 1, 7u64)])
            } else {
                Outgoing::Silent
            }
        }
        fn is_done(&self, _s: &()) -> bool {
            false
        }
    }

    #[test]
    fn non_neighbor_unicast_detected() {
        let g = gen::path(5);
        let err = Simulator::new(&g, 1).run(&BadUnicast, 3).unwrap_err();
        assert_eq!(err, SimulatorError::NotANeighbor { from: 0, to: 4 });
    }

    #[test]
    fn determinism_same_seed() {
        use rand::SeedableRng;
        let g = gen::gnp(50, 0.1, &mut rand::rngs::StdRng::seed_from_u64(9));
        let r1 = Simulator::new(&g, 77)
            .run(&FloodMax { rounds: 8 }, 50)
            .unwrap();
        let r2 = Simulator::new(&g, 77)
            .run(&FloodMax { rounds: 8 }, 50)
            .unwrap();
        assert_eq!(r1.metrics, r2.metrics);
        let b1: Vec<u64> = r1.states.iter().map(|s| s.best).collect();
        let b2: Vec<u64> = r2.states.iter().map(|s| s.best).collect();
        assert_eq!(b1, b2);
    }

    #[test]
    fn halt_stops_simulation() {
        struct HaltNow;
        impl Protocol for HaltNow {
            type State = ();
            type Msg = u64;
            fn init(&self, _n: &NodeInfo) {}
            fn round(&self, _s: &mut (), _n: &NodeInfo, _i: &Inbox<u64>) -> Outgoing<u64> {
                Outgoing::Halt
            }
            fn is_done(&self, _s: &()) -> bool {
                false
            }
        }
        let g = gen::path(4);
        let run = Simulator::new(&g, 1).run(&HaltNow, 10).unwrap();
        assert_eq!(run.metrics.rounds, 1);
        assert_eq!(run.metrics.messages, 0);
    }

    #[test]
    fn traced_run_matches_untraced() {
        let g = gen::cycle(12);
        let plain = Simulator::new(&g, 3)
            .run(&FloodMax { rounds: 8 }, 50)
            .unwrap();
        let (traced, transcript) = Simulator::new(&g, 3)
            .run_traced(&FloodMax { rounds: 8 }, 50)
            .unwrap();
        assert_eq!(plain.metrics, traced.metrics);
        assert_eq!(transcript.len() as u64, plain.metrics.messages);
        // Round profile sums to the message count.
        assert_eq!(
            transcript.round_profile().iter().sum::<usize>() as u64,
            plain.metrics.messages
        );
        // Deterministic: same seed, same digest.
        let (_, t2) = Simulator::new(&g, 3)
            .run_traced(&FloodMax { rounds: 8 }, 50)
            .unwrap();
        assert_eq!(transcript.digest(), t2.digest());
    }

    #[test]
    fn error_display() {
        let e = SimulatorError::RoundLimitExceeded {
            limit: 3,
            pending: 2,
        };
        assert!(e.to_string().contains("round limit"));
    }
}
