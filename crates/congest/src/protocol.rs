//! The protocol abstraction: a distributed algorithm as a per-node state
//! machine.

use crate::message::Message;
use arbmis_graph::NodeId;

/// Immutable per-node context handed to every callback.
///
/// Mirrors what a CONGEST node knows locally: its id, its degree and
/// neighbor ids (port numbering), the network size `n` (standard
/// assumption), the global round number, and the RNG seed from which it
/// derives private randomness via [`crate::rng`].
#[derive(Clone, Debug)]
pub struct NodeInfo<'a> {
    /// This node's id.
    pub id: NodeId,
    /// Total number of nodes in the network.
    pub n: usize,
    /// Sorted neighbor ids.
    pub neighbors: &'a [NodeId],
    /// Current round (0-based; `round` 0 is the first invocation after
    /// `init`).
    pub round: u64,
    /// Master seed; combine with `id`/`round` via [`crate::rng::draw`].
    pub seed: u64,
}

impl NodeInfo<'_> {
    /// Degree of this node.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Private uniform `u64` for this `(node, round, tag)`.
    pub fn draw(&self, tag: u64) -> u64 {
        crate::rng::draw(self.seed, self.id, self.round, tag)
    }

    /// Private uniform `f64` in `[0,1)` for this `(node, round, tag)`.
    pub fn draw_unit(&self, tag: u64) -> f64 {
        crate::rng::draw_unit(self.seed, self.id, self.round, tag)
    }
}

/// Sentinel in a per-sender broadcast slot table: "did not broadcast".
pub(crate) const NO_BROADCAST: u32 = u32::MAX;

/// Messages received this round: `(sender, payload)` pairs sorted by
/// sender id, as a borrowed view into the engine's per-round message
/// arenas.
///
/// A broadcast payload is stored **once** and shared by every receiver —
/// iterating an inbox yields `(NodeId, &M)`, never an owned message. The
/// view has two parts, merged on the fly in ascending sender order:
///
/// * a *broadcast* part: the receiver's sorted neighbor list plus a
///   per-sender slot table (`bidx[u] != NO_BROADCAST` ⇔ neighbor `u`
///   broadcast this round, payload at `barena[bidx[u]]`). Delivering a
///   broadcast is O(1) for the engine — no per-edge writes at all; the
///   receiver discovers it by scanning its own neighbors.
/// * an *explicit* part: `(sender, arena index)` entries (unicasts in the
///   engine; all traffic in an [`InboxBuf`]).
///
/// Because senders emit either a broadcast or unicasts in a round (never
/// both) the two parts never collide, and the merge is a strict
/// ascending interleave. The view is `Copy` and only valid for the
/// duration of one [`Protocol::round`] call; protocols that need to keep
/// a payload across rounds clone it into their state.
///
/// [`len`](Inbox::len) / [`is_empty`](Inbox::is_empty) /
/// [`get`](Inbox::get) cost up to O(degree), not O(1): the broadcast
/// part is discovered by scanning.
#[derive(Debug)]
pub struct Inbox<'a, M> {
    /// The receiver's sorted neighbor ids (broadcast part domain).
    nbrs: &'a [NodeId],
    /// Per-sender broadcast slot table ([`NO_BROADCAST`] = none). Indexed
    /// by the ids in `nbrs`; empty when there is no broadcast part.
    bidx: &'a [u32],
    /// Broadcast payload arena.
    barena: &'a [M],
    /// `(sender, arena index)` explicit entries, ascending by sender.
    entries: &'a [(NodeId, u32)],
    /// The arena the explicit entries point into.
    arena: &'a [M],
}

impl<M> Clone for Inbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Inbox<'_, M> {}

impl<'a, M> Inbox<'a, M> {
    /// Assembles an explicit-entries-only view. Engine-internal:
    /// `entries` indices must be in bounds for `arena` and sorted by
    /// sender.
    pub(crate) fn from_parts(entries: &'a [(NodeId, u32)], arena: &'a [M]) -> Self {
        Inbox {
            nbrs: &[],
            bidx: &[],
            barena: &[],
            entries,
            arena,
        }
    }

    /// Assembles the serial engine's dual view: lazy broadcast part over
    /// the receiver's neighbors plus explicit unicast entries.
    /// Engine-internal: `bidx` must cover every id in `nbrs`, non-sentinel
    /// slots must be in bounds for `barena`, and `entries` must be sorted
    /// by sender.
    pub(crate) fn from_plane(
        nbrs: &'a [NodeId],
        bidx: &'a [u32],
        barena: &'a [M],
        entries: &'a [(NodeId, u32)],
        arena: &'a [M],
    ) -> Self {
        Inbox {
            nbrs,
            bidx,
            barena,
            entries,
            arena,
        }
    }

    /// An inbox with no messages.
    pub fn empty() -> Inbox<'static, M> {
        Inbox {
            nbrs: &[],
            bidx: &[],
            barena: &[],
            entries: &[],
            arena: &[],
        }
    }

    /// Number of messages received. Costs up to O(degree).
    pub fn len(&self) -> usize {
        self.broadcast_count() + self.entries.len()
    }

    /// Whether nothing was received. Costs up to O(degree).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.broadcast_count() == 0
    }

    fn broadcast_count(&self) -> usize {
        self.nbrs
            .iter()
            .filter(|&&u| self.bidx[u] != NO_BROADCAST)
            .count()
    }

    /// The `i`-th message in sender order. Costs up to O(degree).
    pub fn get(&self, i: usize) -> Option<(NodeId, &'a M)> {
        self.iter().nth(i)
    }

    /// The first message (smallest sender id), if any.
    pub fn first(&self) -> Option<(NodeId, &'a M)> {
        self.iter().next()
    }

    /// Iterates `(sender, &payload)` in ascending sender order.
    pub fn iter(&self) -> InboxIter<'a, M> {
        InboxIter {
            nbrs: self.nbrs.iter(),
            bidx: self.bidx,
            barena: self.barena,
            entries: self.entries,
            arena: self.arena,
            pending: None,
        }
    }
}

impl<'a, M> IntoIterator for Inbox<'a, M> {
    type Item = (NodeId, &'a M);
    type IntoIter = InboxIter<'a, M>;
    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

impl<'a, M> IntoIterator for &Inbox<'a, M> {
    type Item = (NodeId, &'a M);
    type IntoIter = InboxIter<'a, M>;
    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

/// Iterator over an [`Inbox`], yielding `(sender, &payload)` in
/// ascending sender order: a strict merge of the lazily-scanned
/// broadcast part and the explicit entry list.
#[derive(Clone, Debug)]
pub struct InboxIter<'a, M> {
    nbrs: std::slice::Iter<'a, NodeId>,
    bidx: &'a [u32],
    barena: &'a [M],
    entries: &'a [(NodeId, u32)],
    arena: &'a [M],
    /// Next broadcast item, already scanned but not yet merged out.
    pending: Option<(NodeId, u32)>,
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = (NodeId, &'a M);

    fn next(&mut self) -> Option<(NodeId, &'a M)> {
        if self.pending.is_none() {
            for &u in self.nbrs.by_ref() {
                let idx = self.bidx[u];
                if idx != NO_BROADCAST {
                    self.pending = Some((u, idx));
                    break;
                }
            }
        }
        match (self.pending, self.entries.first()) {
            (Some((bu, bidx)), Some(&(eu, eidx))) => {
                if bu < eu {
                    self.pending = None;
                    Some((bu, &self.barena[bidx as usize]))
                } else {
                    self.entries = &self.entries[1..];
                    Some((eu, &self.arena[eidx as usize]))
                }
            }
            (Some((bu, bidx)), None) => {
                self.pending = None;
                Some((bu, &self.barena[bidx as usize]))
            }
            (None, Some(&(eu, eidx))) => {
                self.entries = &self.entries[1..];
                Some((eu, &self.arena[eidx as usize]))
            }
            (None, None) => None,
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let pending = usize::from(self.pending.is_some());
        let lower = self.entries.len() + pending;
        (lower, Some(lower + self.nbrs.len()))
    }
}

/// An owned inbox buffer: builds the arena-backed [`Inbox`] view outside
/// the engines, for driving [`Protocol::round`] directly in unit tests
/// or custom harnesses.
#[derive(Clone, Debug, Default)]
pub struct InboxBuf<M> {
    arena: Vec<M>,
    entries: Vec<(NodeId, u32)>,
}

impl<M> InboxBuf<M> {
    /// An empty buffer.
    pub fn new() -> Self {
        InboxBuf {
            arena: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Builds a buffer from `(sender, payload)` pairs (must already be in
    /// ascending sender order, like engine-delivered inboxes).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (NodeId, M)>) -> Self {
        let mut buf = InboxBuf::new();
        for (from, msg) in pairs {
            buf.push(from, msg);
        }
        buf
    }

    /// Appends one message.
    pub fn push(&mut self, from: NodeId, msg: M) {
        let idx = u32::try_from(self.arena.len()).expect("inbox arena exceeds u32::MAX entries");
        self.arena.push(msg);
        self.entries.push((from, idx));
    }

    /// Empties the buffer, keeping its allocations.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.entries.clear();
    }

    /// Number of buffered messages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The borrowed [`Inbox`] view over the buffered messages.
    pub fn as_inbox(&self) -> Inbox<'_, M> {
        Inbox::from_parts(&self.entries, &self.arena)
    }
}

/// What a node emits at the end of a round.
#[derive(Clone, Debug)]
pub enum Outgoing<M> {
    /// Send nothing this round.
    Silent,
    /// Send the same message to every neighbor (one copy per edge — each
    /// copy is accounted against the bandwidth budget).
    Broadcast(M),
    /// Send distinct messages to selected neighbors.
    Unicast(Vec<(NodeId, M)>),
    /// Send nothing, and mark that this node will never send again. Once
    /// every node has halted the simulation stops even if `is_done` is
    /// still false for some (useful for passive states).
    Halt,
}

/// A distributed algorithm in the CONGEST model.
///
/// The simulator calls [`init`](Protocol::init) once per node, then
/// repeatedly: deliver the previous round's messages via `inbox`, call
/// [`round`](Protocol::round), and route the returned [`Outgoing`].
/// Execution stops when every node satisfies
/// [`is_done`](Protocol::is_done) (or has halted).
pub trait Protocol {
    /// Per-node local state.
    type State;
    /// Message type exchanged on edges.
    type Msg: Message;

    /// Creates node-local state before round 0. No messages yet.
    fn init(&self, node: &NodeInfo) -> Self::State;

    /// One synchronous round: consume `inbox` (a borrowed view of the
    /// messages sent in the previous round), update state, emit
    /// messages. Payloads are received by reference — see [`Inbox`].
    fn round(
        &self,
        state: &mut Self::State,
        node: &NodeInfo,
        inbox: &Inbox<'_, Self::Msg>,
    ) -> Outgoing<Self::Msg>;

    /// Whether this node has produced its final output.
    fn is_done(&self, state: &Self::State) -> bool;

    /// Whether a node in `state` is *quiescent*: given an **empty**
    /// inbox, [`round`](Protocol::round) is guaranteed to emit nothing
    /// and leave the state unchanged (observably a no-op), **at every
    /// round number**. The engines skip quiescent nodes that have no
    /// pending messages and wake them when a message targets them, so
    /// per-round cost tracks the active frontier instead of `n` — see
    /// DESIGN.md §10 for the full contract.
    ///
    /// Soundness rules for overriding:
    ///
    /// * The guarantee must hold for *any* round number, because a
    ///   skipped node does not observe rounds passing. Protocols that act
    ///   at a specific round (e.g. "halt at round `R`") must **not**
    ///   declare such states quiescent.
    /// * A state whose next activation would return [`Outgoing::Halt`]
    ///   may only be quiescent if [`is_done`](Protocol::is_done) already
    ///   holds (the halt is then unobservable: the node is skipped
    ///   forever and already counts toward termination).
    ///
    /// The default — `is_done` — is sound for every protocol whose done
    /// states are inert on an empty inbox, which all in-tree protocols
    /// satisfy: they set `done` together with halting or becoming silent.
    fn is_quiescent(&self, state: &Self::State) -> bool {
        self.is_done(state)
    }
}

/// A shared reference to a protocol is itself a protocol. Lets owning
/// drivers (e.g. [`crate::simulator::Stepper`]) and borrowing callers
/// (`Simulator::run(&proto, ..)`) share one code path.
impl<P: Protocol + ?Sized> Protocol for &P {
    type State = P::State;
    type Msg = P::Msg;

    fn init(&self, node: &NodeInfo) -> Self::State {
        (**self).init(node)
    }

    fn round(
        &self,
        state: &mut Self::State,
        node: &NodeInfo,
        inbox: &Inbox<'_, Self::Msg>,
    ) -> Outgoing<Self::Msg> {
        (**self).round(state, node, inbox)
    }

    fn is_done(&self, state: &Self::State) -> bool {
        (**self).is_done(state)
    }

    // Must forward explicitly: the default would collapse to `is_done`
    // and silently change frontier behavior for overriding protocols.
    fn is_quiescent(&self, state: &Self::State) -> bool {
        (**self).is_quiescent(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_info_accessors() {
        let nbrs = [1usize, 2, 3];
        let info = NodeInfo {
            id: 0,
            n: 4,
            neighbors: &nbrs,
            round: 5,
            seed: 9,
        };
        assert_eq!(info.degree(), 3);
        assert_eq!(info.draw(0), crate::rng::draw(9, 0, 5, 0));
        let u = info.draw_unit(1);
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn inbox_view_shares_payloads() {
        let buf = InboxBuf::from_pairs([(2usize, 10u64), (5, 20), (9, 30)]);
        let inbox = buf.as_inbox();
        assert_eq!(inbox.len(), 3);
        assert!(!inbox.is_empty());
        assert_eq!(inbox.first(), Some((2, &10)));
        assert_eq!(inbox.get(2), Some((9, &30)));
        assert_eq!(inbox.get(3), None);
        let collected: Vec<(usize, u64)> = inbox.iter().map(|(s, &m)| (s, m)).collect();
        assert_eq!(collected, vec![(2, 10), (5, 20), (9, 30)]);
        // Both by-value and by-ref IntoIterator forms work, and the view
        // is Copy: using it twice is fine.
        let senders: Vec<usize> = inbox.into_iter().map(|(s, _)| s).collect();
        assert_eq!(senders, vec![2, 5, 9]);
        assert_eq!(inbox.iter().count(), 3);
    }

    #[test]
    fn inbox_merges_broadcast_and_explicit_parts() {
        // Receiver has neighbors {1, 3, 4, 6}; 3 and 6 broadcast, 1 and 4
        // unicast. The merged view must interleave in sender order.
        let nbrs = [1usize, 3, 4, 6];
        let mut bidx = vec![NO_BROADCAST; 8];
        let barena = vec![30u64, 60];
        bidx[3] = 0;
        bidx[6] = 1;
        let entries = [(1usize, 0u32), (4, 1)];
        let arena = vec![10u64, 40];
        let inbox = Inbox::from_plane(&nbrs, &bidx, &barena, &entries, &arena);
        let collected: Vec<(usize, u64)> = inbox.iter().map(|(s, &m)| (s, m)).collect();
        assert_eq!(collected, vec![(1, 10), (3, 30), (4, 40), (6, 60)]);
        assert_eq!(inbox.len(), 4);
        assert!(!inbox.is_empty());
        assert_eq!(inbox.first(), Some((1, &10)));
        assert_eq!(inbox.get(2), Some((4, &40)));
        assert_eq!(inbox.get(4), None);
        // Broadcast-only view (no explicit entries).
        let bonly = Inbox::from_plane(&nbrs, &bidx, &barena, &[], &arena);
        let senders: Vec<usize> = bonly.iter().map(|(s, _)| s).collect();
        assert_eq!(senders, vec![3, 6]);
        assert_eq!(bonly.len(), 2);
        // Neighbors none of whom broadcast: empty.
        let quiet = Inbox::from_plane(&nbrs[..1], &bidx, &barena, &[], &arena);
        assert!(quiet.is_empty());
        assert_eq!(quiet.first(), None);
    }

    #[test]
    fn empty_inbox() {
        let inbox = Inbox::<u64>::empty();
        assert!(inbox.is_empty());
        assert_eq!(inbox.len(), 0);
        assert_eq!(inbox.first(), None);
        assert_eq!(inbox.iter().count(), 0);
        let mut buf = InboxBuf::from_pairs([(0usize, 1u64)]);
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.len(), 0);
        assert!(buf.as_inbox().is_empty());
    }

    #[test]
    fn outgoing_debug_impls() {
        let o: Outgoing<u64> = Outgoing::Broadcast(3);
        assert!(format!("{o:?}").contains("Broadcast"));
        let s: Outgoing<u64> = Outgoing::Silent;
        assert!(format!("{s:?}").contains("Silent"));
    }
}
