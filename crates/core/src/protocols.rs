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
//! (degree exchange + bad exits). Every node reads its round's slot off
//! the round number with [`backend::slot`], the decoder the flat engine
//! uses too — the algorithm is oblivious, so every node tracks the
//! scale/iteration structure without coordination.

use crate::backend::{self, FlatAlgo, Slot};
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
    /// Ghaffari's desire exponent (`p = 2^-e`).
    exponent: u32,
    /// Scratch for Algorithm 1: marked bad at scale end.
    pub bad: bool,
}

impl MisNodeState {
    fn new(node: &NodeInfo) -> Self {
        MisNodeState {
            active: true,
            in_mis: false,
            done: false,
            active_nbrs: node.neighbors.iter().collect(),
            wins: false,
            exponent: 1,
            bad: false,
        }
    }

    /// The start of an announce-type round: drops the neighbors whose
    /// exit notices arrived, then halts if this node left, or else
    /// broadcasts `announce`'s message.
    fn announce(
        &mut self,
        inbox: &Inbox<MisMsg>,
        announce: impl FnOnce(&mut Self) -> MisMsg,
    ) -> Outgoing<MisMsg> {
        for (s, m) in inbox {
            if matches!(m, MisMsg::Exit(true)) {
                if let Ok(pos) = self.active_nbrs.binary_search(&s) {
                    self.active_nbrs.remove(pos);
                }
            }
        }
        if self.active {
            Outgoing::Broadcast(announce(self))
        } else {
            self.halt()
        }
    }

    fn halt(&mut self) -> Outgoing<MisMsg> {
        self.done = true;
        Outgoing::Halt
    }

    /// Leaves the computation if `exits`, and tells the neighbors.
    fn exit(&mut self, exits: bool) -> Outgoing<MisMsg> {
        self.active &= !exits;
        Outgoing::Broadcast(MisMsg::Exit(exits))
    }
}

/// One round of a MIS protocol for `algo`, at the slot of `node.round`
/// on its schedule. Announce and degree-exchange rounds first drop the
/// neighbors that exited and halt a node that left; a decide round
/// broadcasts join bits; an exit round removes the winners and the nodes
/// they dominate; a bad-exit round exiles the nodes with too many
/// high-degree neighbors (Algorithm 1 step 2(b)).
fn mis_round(
    algo: &FlatAlgo,
    state: &mut MisNodeState,
    node: &NodeInfo,
    inbox: &Inbox<MisMsg>,
) -> Outgoing<MisMsg> {
    match backend::slot(algo, node.round) {
        Slot::Announce { iter, scale, .. } => {
            state.announce(inbox, |state| announcement(algo, state, node, iter, scale))
        }
        Slot::Decide { iter, scale } => {
            let own = announcement(algo, state, node, iter, scale);
            state.wins = wins(state, own, node.id, inbox);
            Outgoing::Broadcast(MisMsg::Join(state.wins))
        }
        Slot::Exit => {
            let dominated = inbox.iter().any(|(_, m)| matches!(m, MisMsg::Join(true)));
            state.in_mis |= state.wins;
            state.exit(state.wins || dominated)
        }
        Slot::DegreeExchange => {
            state.announce(
                inbox,
                |state| MisMsg::Degree(state.active_nbrs.len() as u64),
            )
        }
        Slot::BadExit { scale } => {
            let FlatAlgo::BoundedArb { params, .. } = algo else {
                unreachable!("only BoundedArb has scale ends")
            };
            let hd = params.high_degree_threshold(scale);
            let high_count = inbox
                .iter()
                .filter(|(_, m)| matches!(m, MisMsg::Degree(d) if *d as f64 > hd))
                .count();
            let bad = high_count as f64 > params.bad_threshold(scale);
            state.bad |= bad;
            state.exit(bad)
        }
        Slot::End => state.halt(),
    }
}

/// What an active node announces in iteration `iter` of `scale`: its
/// Métivier priority; its Luby degree and mark; its Ghaffari desire
/// exponent and mark; or its BoundedArb priority, 0 when the ρ_k opt-out
/// takes it out of the competition.
fn announcement(
    algo: &FlatAlgo,
    state: &MisNodeState,
    node: &NodeInfo,
    iter: u64,
    scale: u32,
) -> MisMsg {
    let (seed, id) = (node.seed, node.id);
    let d = state.active_nbrs.len();
    match *algo {
        FlatAlgo::Metivier => MisMsg::Priority(metivier::priority(seed, id, iter, node.n).0),
        FlatAlgo::Luby => MisMsg::LubyMark {
            degree: d as u64,
            marked: d > 0 && luby::is_marked(seed, id, iter, d),
        },
        FlatAlgo::Ghaffari => MisMsg::GhaffariMark {
            exponent: state.exponent,
            marked: ghaffari::is_marked(seed, id, iter, state.exponent),
        },
        FlatAlgo::BoundedArb { params, rho_cutoff } => {
            MisMsg::Priority(if !rho_cutoff || d as f64 <= params.rho(scale) {
                rng::draw_priority(seed, id, iter, bounded_arb::TAG_PRIORITY, node.n)
            } else {
                0
            })
        }
        FlatAlgo::DegreeReduction { .. } => {
            unreachable!("degree reduction has no CONGEST protocol")
        }
    }
}

/// Whether node `id`, having announced `own`, wins against its active
/// neighbors' announcements in `inbox`. A priority wins when it is
/// nonzero and `(priority, id)`-maximal. A Luby mark wins when the node
/// has no active neighbor, or when it is marked and `(degree,
/// id)`-maximal among the marked. A Ghaffari mark wins when no neighbor
/// is marked; the node also moves to its next desire exponent, from the
/// announced ones (the exit round reads no exponent).
fn wins(state: &mut MisNodeState, own: MisMsg, id: NodeId, inbox: &Inbox<MisMsg>) -> bool {
    match own {
        MisMsg::Priority(p) => {
            p > 0
                && inbox.iter().all(|(s, m)| match m {
                    MisMsg::Priority(q) => (p, id) > (*q, s),
                    _ => true,
                })
        }
        MisMsg::LubyMark { degree, marked } => {
            let key = (degree, id);
            degree == 0
                || (marked
                    && inbox.iter().all(|(s, m)| match *m {
                        MisMsg::LubyMark { degree, marked } => !marked || (degree, s) < key,
                        _ => true,
                    }))
        }
        MisMsg::GhaffariMark { exponent, marked } => {
            let mut d = 0.0;
            let mut blocked = false;
            for (_, m) in inbox {
                if let MisMsg::GhaffariMark {
                    exponent: e,
                    marked: nbr_marked,
                } = *m
                {
                    d += ghaffari::desire(e);
                    blocked |= nbr_marked;
                }
            }
            state.exponent = ghaffari::next_exponent(exponent, d);
            marked && !blocked
        }
        _ => unreachable!("announcements are priorities or marks"),
    }
}

/// Implements [`Protocol`] for MIS protocols: every node keeps a
/// [`MisNodeState`] and runs [`mis_round`] for the protocol's `algo()`.
macro_rules! mis_protocol {
    ($($protocol:ty),*) => {$(
        impl Protocol for $protocol {
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
                mis_round(&self.algo(), state, node, inbox)
            }

            fn is_done(&self, state: &MisNodeState) -> bool {
                state.done
            }
        }
    )*};
}

mis_protocol!(
    MetivierProtocol,
    LubyProtocol,
    GhaffariProtocol,
    BoundedArbProtocol
);

/// CONGEST twin of [`crate::metivier::run`].
#[derive(Clone, Copy, Debug, Default)]
pub struct MetivierProtocol;

impl MetivierProtocol {
    fn algo(&self) -> FlatAlgo {
        FlatAlgo::Metivier
    }
}

/// CONGEST twin of [`crate::luby::run`].
#[derive(Clone, Copy, Debug, Default)]
pub struct LubyProtocol;

impl LubyProtocol {
    fn algo(&self) -> FlatAlgo {
        FlatAlgo::Luby
    }
}

/// CONGEST twin of [`crate::ghaffari::run`]. Only the desire *exponent*
/// crosses the wire — `O(log log Δ)` bits.
#[derive(Clone, Copy, Debug, Default)]
pub struct GhaffariProtocol;

impl GhaffariProtocol {
    fn algo(&self) -> FlatAlgo {
        FlatAlgo::Ghaffari
    }
}

/// CONGEST twin of [`crate::bounded_arb::bounded_arb_independent_set`].
///
/// The schedule is oblivious: every node reads its slot off the global
/// round number ([`backend::slot`]); after the last scale all nodes stop
/// simultaneously, leaving the residual `VIB` in their states.
#[derive(Clone, Copy, Debug)]
pub struct BoundedArbProtocol {
    /// The instantiated parameter schedule (must be built from the *same*
    /// graph the protocol runs on).
    pub params: ArbParams,
    /// Whether the ρ_k opt-out is active (ablation switch).
    pub rho_cutoff: bool,
}

impl BoundedArbProtocol {
    fn algo(&self) -> FlatAlgo {
        FlatAlgo::BoundedArb {
            params: self.params,
            rho_cutoff: self.rho_cutoff,
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
                .run(&proto, fast.rounds + 2)
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
        let run = Simulator::new(&g, 31).run(&proto, fast.rounds + 2).unwrap();
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
