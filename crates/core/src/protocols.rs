//! CONGEST protocol implementations of the randomized MIS algorithms.
//!
//! Each protocol is the message-passing twin of a fast-path function in
//! this crate, drawing randomness from the *same counter-based generator*
//! ([`arbmis_congest::rng`]) indexed by the same iteration numbers — so a
//! protocol execution and its fast path produce **bit-identical**
//! independent sets under the same seed. Tests in this module and the
//! workspace integration suite assert exactly that.
//!
//! All protocols share a three-sub-round iteration skeleton:
//!
//! 1. **announce** — process exit notices from the previous iteration,
//!    then broadcast this iteration's competition payload (priority /
//!    mark / desire level);
//! 2. **decide** — compare against the inbox, broadcast a join bit;
//! 3. **exit** — nodes that joined or were dominated broadcast an exit
//!    notice and leave.
//!
//! `BoundedArbIndependentSet` adds two per-scale rounds for step 2(b)
//! (degree exchange + bad exits), at schedule positions derived from the
//! round number — the algorithm is oblivious, so every node tracks the
//! scale/iteration structure without coordination.

use crate::params::ArbParams;
use crate::{bounded_arb, ghaffari, luby, metivier};
use arbmis_congest::prelude::*;
use arbmis_graph::NodeId;

/// Wire messages shared by the MIS protocols.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MisMsg {
    /// A (possibly 0 = non-competitive) priority.
    Priority(u64),
    /// Luby announce: current active degree and mark bit.
    LubyMark {
        /// Sender's active degree.
        degree: u64,
        /// Whether the sender marked itself.
        marked: bool,
    },
    /// Ghaffari announce: desire exponent and mark bit.
    GhaffariMark {
        /// Sender's desire exponent (`p = 2^-e`).
        exponent: u32,
        /// Whether the sender marked itself.
        marked: bool,
    },
    /// Decide sub-round: whether the sender joins the MIS.
    Join(bool),
    /// Exit sub-round: whether the sender leaves the computation.
    Exit(bool),
    /// Scale-end degree announcement (Algorithm 1 step 2(b)).
    Degree(u64),
}

impl Message for MisMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        use arbmis_congest::message::put_varint;
        match self {
            MisMsg::Priority(p) => {
                buf.push(0);
                put_varint(buf, *p);
            }
            MisMsg::LubyMark { degree, marked } => {
                buf.push(1);
                put_varint(buf, *degree);
                buf.push(u8::from(*marked));
            }
            MisMsg::GhaffariMark { exponent, marked } => {
                buf.push(2);
                put_varint(buf, u64::from(*exponent));
                buf.push(u8::from(*marked));
            }
            MisMsg::Join(b) => {
                buf.push(3);
                buf.push(u8::from(*b));
            }
            MisMsg::Exit(b) => {
                buf.push(4);
                buf.push(u8::from(*b));
            }
            MisMsg::Degree(d) => {
                buf.push(5);
                put_varint(buf, *d);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        use arbmis_congest::message::{get_u8, get_varint};
        let decode_flag = |buf: &mut &[u8]| match get_u8(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Invalid("flag byte not 0/1")),
        };
        match get_u8(buf)? {
            0 => Ok(MisMsg::Priority(get_varint(buf)?)),
            1 => Ok(MisMsg::LubyMark {
                degree: get_varint(buf)?,
                marked: decode_flag(buf)?,
            }),
            2 => Ok(MisMsg::GhaffariMark {
                exponent: u32::try_from(get_varint(buf)?)
                    .map_err(|_| DecodeError::Invalid("exponent overflows u32"))?,
                marked: decode_flag(buf)?,
            }),
            3 => Ok(MisMsg::Join(decode_flag(buf)?)),
            4 => Ok(MisMsg::Exit(decode_flag(buf)?)),
            5 => Ok(MisMsg::Degree(get_varint(buf)?)),
            _ => Err(DecodeError::Invalid("unknown MisMsg tag")),
        }
    }

    fn bit_size(&self) -> usize {
        use arbmis_congest::message::varint_len;
        let bytes = match self {
            MisMsg::Priority(p) => 1 + varint_len(*p),
            MisMsg::LubyMark { degree, .. } => 1 + varint_len(*degree) + 1,
            MisMsg::GhaffariMark { exponent, .. } => 1 + varint_len(u64::from(*exponent)) + 1,
            MisMsg::Join(_) | MisMsg::Exit(_) => 2,
            MisMsg::Degree(d) => 1 + varint_len(*d),
        };
        bytes * 8
    }
}

/// Common per-node bookkeeping for the three-phase skeleton.
#[derive(Clone, Debug)]
pub struct MisNodeState {
    /// Still competing.
    pub active: bool,
    /// Joined the MIS.
    pub in_mis: bool,
    /// Finished (output fixed).
    pub done: bool,
    /// Sorted ids of neighbors still active.
    pub active_nbrs: Vec<NodeId>,
    /// Whether this node decided to join in the current iteration.
    wins: bool,
    /// Scratch for Ghaffari's deferred exponent update.
    exponent: u32,
    pending_exponent: u32,
    /// Scratch for Algorithm 1: marked bad at scale end.
    pub bad: bool,
}

impl MisNodeState {
    fn new(node: &NodeInfo) -> Self {
        MisNodeState {
            active: true,
            in_mis: false,
            done: false,
            active_nbrs: node.neighbors.to_vec(),
            wins: false,
            exponent: 1,
            pending_exponent: 1,
            bad: false,
        }
    }

    fn process_exits(&mut self, inbox: &Inbox<MisMsg>) {
        for (s, m) in inbox {
            if matches!(m, MisMsg::Exit(true)) {
                if let Ok(pos) = self.active_nbrs.binary_search(&s) {
                    self.active_nbrs.remove(pos);
                }
            }
        }
    }
}

/// Shared decide/exit handling. Returns the outgoing message for the
/// phase.
fn decide_phase(state: &mut MisNodeState, wins: bool) -> Outgoing<MisMsg> {
    state.wins = wins;
    Outgoing::Broadcast(MisMsg::Join(wins))
}

fn exit_phase(state: &mut MisNodeState, inbox: &Inbox<MisMsg>) -> Outgoing<MisMsg> {
    let dominated = inbox.iter().any(|(_, m)| matches!(m, MisMsg::Join(true)));
    if state.wins {
        state.in_mis = true;
    }
    if state.wins || dominated {
        state.active = false;
        Outgoing::Broadcast(MisMsg::Exit(true))
    } else {
        Outgoing::Broadcast(MisMsg::Exit(false))
    }
}

// ---------------------------------------------------------------- Métivier

/// CONGEST twin of [`crate::metivier::run`].
#[derive(Clone, Copy, Debug, Default)]
pub struct MetivierProtocol;

impl Protocol for MetivierProtocol {
    type State = MisNodeState;
    type Msg = MisMsg;

    fn init(&self, node: &NodeInfo) -> MisNodeState {
        MisNodeState::new(node)
    }

    fn round(
        &self,
        state: &mut MisNodeState,
        node: &NodeInfo,
        inbox: &Inbox<MisMsg>,
    ) -> Outgoing<MisMsg> {
        let iter = node.round / 3;
        match node.round % 3 {
            0 => {
                state.process_exits(inbox);
                if !state.active {
                    state.done = true;
                    return Outgoing::Halt;
                }
                let (p, _) = metivier::priority(node.seed, node.id, iter, node.n);
                Outgoing::Broadcast(MisMsg::Priority(p))
            }
            1 => {
                let pv = metivier::priority(node.seed, node.id, iter, node.n);
                let wins = inbox.iter().all(|(s, m)| match m {
                    MisMsg::Priority(p) => pv > (*p, s),
                    _ => true,
                });
                decide_phase(state, wins)
            }
            _ => exit_phase(state, inbox),
        }
    }

    fn is_done(&self, state: &MisNodeState) -> bool {
        state.done
    }
}

// ------------------------------------------------------------------- Luby

/// CONGEST twin of [`crate::luby::run`].
#[derive(Clone, Copy, Debug, Default)]
pub struct LubyProtocol;

impl Protocol for LubyProtocol {
    type State = MisNodeState;
    type Msg = MisMsg;

    fn init(&self, node: &NodeInfo) -> MisNodeState {
        MisNodeState::new(node)
    }

    fn round(
        &self,
        state: &mut MisNodeState,
        node: &NodeInfo,
        inbox: &Inbox<MisMsg>,
    ) -> Outgoing<MisMsg> {
        let iter = node.round / 3;
        match node.round % 3 {
            0 => {
                state.process_exits(inbox);
                if !state.active {
                    state.done = true;
                    return Outgoing::Halt;
                }
                let d = state.active_nbrs.len();
                let marked = d > 0 && luby::is_marked(node.seed, node.id, iter, d);
                Outgoing::Broadcast(MisMsg::LubyMark {
                    degree: d as u64,
                    marked,
                })
            }
            1 => {
                let d = state.active_nbrs.len();
                let wins = if d == 0 {
                    true
                } else if luby::is_marked(node.seed, node.id, iter, d) {
                    let key = (d as u64, node.id);
                    inbox.iter().all(|(s, m)| match m {
                        MisMsg::LubyMark { degree, marked } => !*marked || (*degree, s) < key,
                        _ => true,
                    })
                } else {
                    false
                };
                decide_phase(state, wins)
            }
            _ => exit_phase(state, inbox),
        }
    }

    fn is_done(&self, state: &MisNodeState) -> bool {
        state.done
    }
}

// --------------------------------------------------------------- Ghaffari

/// CONGEST twin of [`crate::ghaffari::run`]. Only the desire *exponent*
/// crosses the wire — `O(log log Δ)` bits.
#[derive(Clone, Copy, Debug, Default)]
pub struct GhaffariProtocol;

impl Protocol for GhaffariProtocol {
    type State = MisNodeState;
    type Msg = MisMsg;

    fn init(&self, node: &NodeInfo) -> MisNodeState {
        MisNodeState::new(node)
    }

    fn round(
        &self,
        state: &mut MisNodeState,
        node: &NodeInfo,
        inbox: &Inbox<MisMsg>,
    ) -> Outgoing<MisMsg> {
        let iter = node.round / 3;
        match node.round % 3 {
            0 => {
                state.process_exits(inbox);
                if !state.active {
                    state.done = true;
                    return Outgoing::Halt;
                }
                let marked = ghaffari::is_marked(node.seed, node.id, iter, state.exponent);
                Outgoing::Broadcast(MisMsg::GhaffariMark {
                    exponent: state.exponent,
                    marked,
                })
            }
            1 => {
                let marked = ghaffari::is_marked(node.seed, node.id, iter, state.exponent);
                let any_marked_nbr = inbox
                    .iter()
                    .any(|(_, m)| matches!(m, MisMsg::GhaffariMark { marked: true, .. }));
                let wins = marked && !any_marked_nbr;
                // Effective degree from announced exponents (pre-removal
                // neighborhood, matching the fast path).
                let d: f64 = inbox
                    .iter()
                    .filter_map(|(_, m)| match m {
                        MisMsg::GhaffariMark { exponent, .. } => Some(ghaffari::desire(*exponent)),
                        _ => None,
                    })
                    .sum();
                state.pending_exponent = ghaffari::next_exponent(state.exponent, d);
                decide_phase(state, wins)
            }
            _ => {
                state.exponent = state.pending_exponent;
                exit_phase(state, inbox)
            }
        }
    }

    fn is_done(&self, state: &MisNodeState) -> bool {
        state.done
    }
}

// ----------------------------------------------------- BoundedArbIndepSet

/// CONGEST twin of [`crate::bounded_arb::bounded_arb_independent_set`].
///
/// The schedule is oblivious: every node derives `(scale, iteration,
/// sub-round)` from the global round number; after the last scale all
/// nodes stop simultaneously, leaving the residual `VIB` in their states.
#[derive(Clone, Copy, Debug)]
pub struct BoundedArbProtocol {
    /// The instantiated parameter schedule (must be built from the *same*
    /// graph the protocol runs on).
    pub params: ArbParams,
    /// Whether the ρ_k opt-out is active (ablation switch).
    pub rho_cutoff: bool,
}

impl BoundedArbProtocol {
    /// Rounds per scale: 3 per iteration plus the two step-2(b) rounds.
    pub fn rounds_per_scale(&self) -> u64 {
        3 * self.params.lambda + 2
    }

    /// Total protocol rounds.
    pub fn total_rounds(&self) -> u64 {
        u64::from(self.params.theta) * self.rounds_per_scale()
    }
}

impl Protocol for BoundedArbProtocol {
    type State = MisNodeState;
    type Msg = MisMsg;

    fn init(&self, node: &NodeInfo) -> MisNodeState {
        MisNodeState::new(node)
    }

    fn round(
        &self,
        state: &mut MisNodeState,
        node: &NodeInfo,
        inbox: &Inbox<MisMsg>,
    ) -> Outgoing<MisMsg> {
        if node.round >= self.total_rounds() {
            state.done = true;
            return Outgoing::Halt;
        }
        let rps = self.rounds_per_scale();
        let scale = (node.round / rps) as u32 + 1;
        let within = node.round % rps;
        let iter_body = within < 3 * self.params.lambda;

        if iter_body {
            let global_iter = u64::from(scale - 1) * self.params.lambda + within / 3;
            match within % 3 {
                0 => {
                    state.process_exits(inbox);
                    if !state.active {
                        state.done = true;
                        return Outgoing::Halt;
                    }
                    let p = self.my_priority(state, node, scale, global_iter);
                    Outgoing::Broadcast(MisMsg::Priority(p))
                }
                1 => {
                    let p = self.my_priority(state, node, scale, global_iter);
                    let wins = p > 0
                        && inbox.iter().all(|(s, m)| match m {
                            MisMsg::Priority(q) => (p, node.id) > (*q, s),
                            _ => true,
                        });
                    decide_phase(state, wins)
                }
                _ => exit_phase(state, inbox),
            }
        } else {
            match within - 3 * self.params.lambda {
                0 => {
                    state.process_exits(inbox);
                    if !state.active {
                        state.done = true;
                        return Outgoing::Halt;
                    }
                    Outgoing::Broadcast(MisMsg::Degree(state.active_nbrs.len() as u64))
                }
                _ => {
                    let hd = self.params.high_degree_threshold(scale);
                    let bad_thr = self.params.bad_threshold(scale);
                    let high_count = inbox
                        .iter()
                        .filter(|(_, m)| matches!(m, MisMsg::Degree(d) if *d as f64 > hd))
                        .count();
                    if high_count as f64 > bad_thr {
                        state.bad = true;
                        state.active = false;
                        Outgoing::Broadcast(MisMsg::Exit(true))
                    } else {
                        Outgoing::Broadcast(MisMsg::Exit(false))
                    }
                }
            }
        }
    }

    fn is_done(&self, state: &MisNodeState) -> bool {
        state.done
    }
}

impl BoundedArbProtocol {
    fn my_priority(
        &self,
        state: &MisNodeState,
        node: &NodeInfo,
        scale: u32,
        global_iter: u64,
    ) -> u64 {
        let competitive =
            !self.rho_cutoff || (state.active_nbrs.len() as f64) <= self.params.rho(scale);
        if competitive {
            rng::draw_priority(
                node.seed,
                node.id,
                global_iter,
                bounded_arb::TAG_PRIORITY,
                node.n,
            )
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded_arb::{bounded_arb_independent_set, BoundedArbConfig};
    use crate::verify::check_mis;
    use arbmis_graph::{gen, Graph};
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn extract_mis(states: &[MisNodeState]) -> Vec<bool> {
        states.iter().map(|s| s.in_mis).collect()
    }

    #[test]
    fn metivier_protocol_matches_fast_path() {
        let mut r = rng(1);
        for (seed, g) in [
            (3u64, gen::gnp(80, 0.08, &mut r)),
            (4, gen::random_tree_prufer(120, &mut r)),
            (5, gen::complete(15)),
            (6, gen::cycle(40)),
        ] {
            let fast = metivier::run(&g, seed);
            let run = Simulator::new(&g, seed)
                .run(&MetivierProtocol, 10_000)
                .unwrap();
            assert_eq!(extract_mis(&run.states), fast.in_mis, "graph {g}");
            assert!(run.metrics.within_budget(), "budget on {g}");
            assert!(check_mis(&g, &extract_mis(&run.states)).is_ok());
        }
    }

    #[test]
    fn luby_protocol_matches_fast_path() {
        let mut r = rng(2);
        for (seed, g) in [
            (7u64, gen::gnp(80, 0.1, &mut r)),
            (8, gen::star(40)),
            (9, gen::barabasi_albert(100, 2, &mut r)),
        ] {
            let fast = luby::run(&g, seed);
            let run = Simulator::new(&g, seed).run(&LubyProtocol, 10_000).unwrap();
            assert_eq!(extract_mis(&run.states), fast.in_mis, "graph {g}");
            assert!(run.metrics.within_budget());
        }
    }

    #[test]
    fn ghaffari_protocol_matches_fast_path() {
        let mut r = rng(3);
        for (seed, g) in [
            (11u64, gen::gnp(70, 0.1, &mut r)),
            (12, gen::grid(9, 9)),
            (13, gen::random_ktree(90, 2, &mut r)),
        ] {
            let fast = ghaffari::run(&g, seed);
            let run = Simulator::new(&g, seed)
                .run(&GhaffariProtocol, 20_000)
                .unwrap();
            assert_eq!(extract_mis(&run.states), fast.in_mis, "graph {g}");
            assert!(run.metrics.within_budget());
        }
    }

    #[test]
    fn bounded_arb_protocol_matches_fast_path() {
        let mut r = rng(4);
        for (seed, alpha, g) in [
            (21u64, 2usize, gen::random_ktree(150, 2, &mut r)),
            (22, 3, gen::apollonian(150, &mut r)),
            (23, 2, gen::forest_union(200, 2, &mut r)),
        ] {
            let cfg = BoundedArbConfig::new(alpha, seed);
            let fast = bounded_arb_independent_set(&g, &cfg);
            let proto = BoundedArbProtocol {
                params: fast.params,
                rho_cutoff: true,
            };
            let run = Simulator::new(&g, seed)
                .run(&proto, proto.total_rounds() + 2)
                .unwrap();
            let mis: Vec<bool> = run.states.iter().map(|s| s.in_mis).collect();
            let bad: Vec<bool> = run.states.iter().map(|s| s.bad).collect();
            let active: Vec<bool> = run.states.iter().map(|s| s.active).collect();
            assert_eq!(mis, fast.in_mis, "I mismatch on {g}");
            assert_eq!(bad, fast.bad, "B mismatch on {g}");
            assert_eq!(active, fast.active, "VIB mismatch on {g}");
            assert!(run.metrics.within_budget());
        }
    }

    #[test]
    fn bounded_arb_ablation_equivalence_without_cutoff() {
        let mut r = rng(6);
        let g = gen::barabasi_albert(150, 2, &mut r);
        let cfg = BoundedArbConfig {
            rho_cutoff: false,
            ..BoundedArbConfig::new(2, 31)
        };
        let fast = bounded_arb_independent_set(&g, &cfg);
        let proto = BoundedArbProtocol {
            params: fast.params,
            rho_cutoff: false,
        };
        let run = Simulator::new(&g, 31)
            .run(&proto, proto.total_rounds() + 2)
            .unwrap();
        assert_eq!(
            run.states.iter().map(|s| s.in_mis).collect::<Vec<_>>(),
            fast.in_mis
        );
        assert_eq!(
            run.states.iter().map(|s| s.bad).collect::<Vec<_>>(),
            fast.bad
        );
    }

    #[test]
    fn message_sizes_are_logarithmic() {
        let mut r = rng(5);
        let g = gen::gnp(200, 0.05, &mut r);
        let run = Simulator::new(&g, 31)
            .run(&MetivierProtocol, 10_000)
            .unwrap();
        let budget = Simulator::new(&g, 31).budget_bits().unwrap() as u64;
        assert!(run.metrics.max_message_bits <= budget);
        // Priorities dominate: 4·⌈log₂ 200⌉ = 32 bits ≈ 5 bytes + tag.
        assert!(run.metrics.max_message_bits <= 8 * 7);
    }

    #[test]
    fn protocol_on_empty_graph() {
        let g = Graph::empty(5);
        let run = Simulator::new(&g, 1).run(&MetivierProtocol, 100).unwrap();
        assert!(extract_mis(&run.states).iter().all(|&b| b));
    }

    #[test]
    fn msg_encoding_roundtrip_sizes() {
        let msgs = [
            MisMsg::Priority(0),
            MisMsg::Priority(u64::MAX >> 4),
            MisMsg::LubyMark {
                degree: 5,
                marked: true,
            },
            MisMsg::GhaffariMark {
                exponent: 3,
                marked: false,
            },
            MisMsg::Join(true),
            MisMsg::Exit(false),
            MisMsg::Degree(1000),
        ];
        for m in msgs {
            assert!(m.bit_size() >= 8, "{m:?} must at least carry its tag");
            assert!(m.bit_size() <= 96, "{m:?} too large");
            // The arithmetic bit_size override must agree with the wire
            // encoding it claims to measure.
            let mut buf = Vec::new();
            m.encode(&mut buf);
            assert_eq!(m.bit_size(), buf.len() * 8, "{m:?} bit_size mismatch");
        }
    }
}
