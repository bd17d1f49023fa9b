//! A mutable adjacency overlay over an immutable CSR [`Graph`].
//!
//! The static pipeline consumes CSR graphs, but a live service sees the
//! graph as a *stream* of edge/node inserts and deletes. [`OverlayGraph`]
//! keeps an immutable CSR base plus one sorted delta record per node
//! (`added` neighbors not in the base, then `removed` base neighbors) and
//! an `alive` mask for node churn, so adjacency queries see the mutated
//! graph without ever rebuilding the CSR.
//!
//! Every delta record lives in one arena of 32-bit ids: a node's 16-byte
//! record `(start, cap, added, removed)` addresses `cap` reserved slots
//! holding its `added` sorted ids followed by its `removed` sorted ids.
//! An edit in either part shifts the rest of the record; an insert into
//! a full record relocates it to the arena's end with doubled capacity
//! (or grows it in place when it already ends the arena), and
//! [`compact`](OverlayGraph::compact) clears the arena. A node's first
//! delta therefore allocates nothing of its own: the arena grows
//! geometrically, so `k` first touches cost `O(log k)` allocations. An
//! edge insert looks the base edge up once, in the first endpoint's CSR
//! row, and the symmetric base answers for both halves. With 32-bit
//! degrees and a one-byte alive flag, a node costs 21 bytes beside its
//! base row.
//!
//! Node ids are **stable**: inserting a node appends id `n`, removing a
//! node marks it dead (its slot is never reused), and
//! [`compact`](OverlayGraph::compact) folds the deltas back into a fresh
//! CSR base *without renumbering* — dead nodes simply become isolated in
//! the new base. That stability is what lets an incremental MIS layer
//! keep per-node state (membership masks, scratch tables) across
//! arbitrarily long update streams. Ids fit 32 bits, as in the CSR:
//! [`insert_node`](OverlayGraph::insert_node) refuses id 2³².
//!
//! Compaction is deterministic: it is a pure function of the update
//! sequence (no clocks, no allocator addresses), so two replicas applying
//! the same updates hold byte-identical structures at every step.

use crate::builder::check_width;
use crate::graph::{Graph, NodeId};
use crate::GraphBuilder;

/// A CSR base graph plus per-node sorted delta records and an alive mask.
///
/// # Example
///
/// ```
/// use arbmis_graph::{gen, OverlayGraph};
///
/// let mut g = OverlayGraph::new(gen::path(4)); // 0-1-2-3
/// assert!(g.insert_edge(0, 3));
/// assert!(g.remove_edge(1, 2));
/// let v = g.insert_node(&[2]);
/// assert_eq!(v, 4);
/// assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![1, 3]);
/// assert_eq!(g.degree(2), 2); // 3 and the new node
/// g.remove_node(1);
/// assert_eq!(g.degree(0), 1);
/// ```
#[derive(Clone, Debug)]
pub struct OverlayGraph {
    /// Immutable CSR snapshot; adjacency truth is `base − removed + added`.
    base: Graph,
    /// Backing store of every delta record.
    arena: Vec<u32>,
    /// Per-node delta record: the sorted neighbor ids present in the
    /// overlay but not the base (for nodes `>= base.n()`, the entire
    /// adjacency), then the sorted base-neighbor ids the overlay deleted.
    delta: Vec<Delta>,
    /// `alive[v]` — dead nodes have no incident edges and reject updates.
    alive: Vec<bool>,
    /// Incrementally-maintained degree (live edges only).
    deg: Vec<u32>,
    /// Live undirected edge count.
    m: usize,
    /// Live node count (`alive.iter().filter(|a| **a).count()`).
    alive_count: usize,
    /// Directed delta-entry count (`Σ added + removed` over the
    /// records) — the compaction trigger's input.
    delta_entries: usize,
    /// Reused buffer for the neighbors [`remove_node`](Self::remove_node)
    /// detaches.
    scratch: Vec<NodeId>,
}

/// One node's delta record: `cap` slots at `arena[start..]`, holding
/// `added` sorted overlay-only neighbors, then `removed` sorted deleted
/// base neighbors. A `removed: bool` argument picks the part.
#[derive(Clone, Copy, Debug, Default)]
struct Delta {
    start: u32,
    cap: u32,
    added: u32,
    removed: u32,
}

impl Delta {
    /// Arena index of the part's first id.
    #[inline]
    fn offset(self, removed: bool) -> usize {
        self.start as usize + if removed { self.added as usize } else { 0 }
    }

    /// Arena index one past the record's last id.
    #[inline]
    fn end(self) -> usize {
        self.start as usize + self.added as usize + self.removed as usize
    }

    /// The part's length.
    #[inline]
    fn count(&mut self, removed: bool) -> &mut u32 {
        if removed {
            &mut self.removed
        } else {
            &mut self.added
        }
    }

    /// The part's sorted ids.
    #[inline]
    fn ids(self, arena: &[u32], removed: bool) -> &[u32] {
        let len = if removed { self.removed } else { self.added };
        &arena[self.offset(removed)..][..len as usize]
    }

    /// Inserts `v` in sorted position in the part; `false` if already
    /// present.
    fn insert(&mut self, arena: &mut Vec<u32>, removed: bool, v: u32) -> bool {
        let Err(i) = self.ids(arena, removed).binary_search(&v) else {
            return false;
        };
        if self.added + self.removed == self.cap {
            self.grow(arena);
        }
        let at = self.offset(removed) + i;
        arena.copy_within(at..self.end(), at + 1);
        arena[at] = v;
        *self.count(removed) += 1;
        true
    }

    /// Removes `v` from the part; `false` if absent. The record keeps
    /// its capacity.
    fn remove(&mut self, arena: &mut [u32], removed: bool, v: u32) -> bool {
        let Ok(i) = self.ids(arena, removed).binary_search(&v) else {
            return false;
        };
        let at = self.offset(removed) + i;
        arena.copy_within(at + 1..self.end(), at);
        *self.count(removed) -= 1;
        true
    }

    /// Doubles the capacity: in place when the record ends the arena,
    /// else by relocating it to the end. The abandoned slots are
    /// reclaimed by the next compaction.
    fn grow(&mut self, arena: &mut Vec<u32>) {
        let (s, end, cap) = (self.start as usize, self.end(), self.cap as usize);
        let in_place = s + cap == arena.len();
        let start = if in_place { s } else { arena.len() };
        let new_cap = (2 * cap).max(2);
        assert!(
            u32::try_from(start + new_cap).is_ok(),
            "overlay arena exceeds u32 slots"
        );
        arena.resize(start + new_cap, 0);
        if !in_place {
            arena.copy_within(s..end, start);
        }
        self.start = start as u32;
        self.cap = new_cap as u32;
    }
}

impl OverlayGraph {
    /// Wraps `base` with an empty overlay (every node alive).
    pub fn new(base: Graph) -> Self {
        let n = base.n();
        OverlayGraph {
            // Degrees are below n ≤ 2³², so they fit 32 bits.
            deg: (0..n).map(|v| base.degree(v) as u32).collect(),
            m: base.m(),
            alive_count: n,
            arena: Vec::new(),
            delta: vec![Delta::default(); n],
            alive: vec![true; n],
            delta_entries: 0,
            scratch: Vec::new(),
            base,
        }
    }

    /// Total node slots, dead ones included (ids are `0..n`).
    #[inline]
    pub fn n(&self) -> usize {
        self.alive.len()
    }

    /// Number of alive nodes.
    #[inline]
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Number of live undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Whether node `v` is alive.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.n()`.
    #[inline]
    pub fn is_alive(&self, v: NodeId) -> bool {
        self.alive[v]
    }

    /// Live degree of `v` (0 for dead nodes).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.deg[v] as usize
    }

    /// Directed delta entries currently held (0 right after
    /// [`compact`](Self::compact)); the compaction-policy input.
    #[inline]
    pub fn delta_entries(&self) -> usize {
        self.delta_entries
    }

    /// Undirected edge count of the CSR base snapshot.
    #[inline]
    pub fn base_m(&self) -> usize {
        self.base.m()
    }

    /// Whether the live edge `{u, v}` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let Ok(w) = u32::try_from(v) else {
            return false;
        };
        let d = self.delta[u];
        if d.ids(&self.arena, false).binary_search(&w).is_ok() {
            return true;
        }
        self.in_base(u, v) && d.ids(&self.arena, true).binary_search(&w).is_err()
    }

    /// Iterates the live neighbors of `v` in ascending order
    /// (base minus removed, merged with added).
    pub fn neighbors(&self, v: NodeId) -> OverlayNeighbors<'_> {
        let base = if v < self.base.n() {
            self.base.neighbors(v).as_slice()
        } else {
            &[]
        };
        let d = self.delta[v];
        OverlayNeighbors {
            base,
            removed: d.ids(&self.arena, true),
            added: d.ids(&self.arena, false),
            bi: 0,
            ai: 0,
        }
    }

    /// Inserts the undirected edge `{u, v}`; returns whether the graph
    /// changed (`false` if the edge already existed).
    ///
    /// # Panics
    ///
    /// Panics on self loops, out-of-range ids, or dead endpoints.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(u != v, "self loop on node {u} rejected");
        assert!(
            self.alive[u] && self.alive[v],
            "edge ({u},{v}) touches a dead node"
        );
        // One base lookup: the base is symmetric, so it answers for
        // both halves. A base edge is absent only if `removed` holds it
        // (undelete it); any other edge only if `added` lacks it.
        let in_base = self.in_base(u, v);
        if !self.edit_pair(u, v, in_base, !in_base) {
            return false;
        }
        self.deg[u] += 1;
        self.deg[v] += 1;
        self.m += 1;
        true
    }

    /// Removes the undirected edge `{u, v}`; returns whether the graph
    /// changed (`false` if the edge was absent).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range ids or dead endpoints.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(
            self.alive[u] && self.alive[v],
            "edge ({u},{v}) touches a dead node"
        );
        // An overlay-only edge leaves `added`; else a present base edge
        // enters `removed`.
        let removed = u != v
            && (self.edit_pair(u, v, false, false)
                || (self.in_base(u, v) && self.edit_pair(u, v, true, true)));
        if !removed {
            return false;
        }
        self.deg[u] -= 1;
        self.deg[v] -= 1;
        self.m -= 1;
        true
    }

    /// Appends a new alive node wired to `neighbors` (duplicates merged)
    /// and returns its id, which is always the previous [`n`](Self::n).
    ///
    /// # Panics
    ///
    /// Panics if a listed neighbor is out of range or dead, or if the new
    /// id is 2³²: node ids must fit 32 bits.
    pub fn insert_node(&mut self, neighbors: &[NodeId]) -> NodeId {
        let v = self.n();
        if let Err(err) = check_width(v + 1) {
            panic!("{err}");
        }
        self.delta.push(Delta::default());
        self.alive.push(true);
        self.deg.push(0);
        self.alive_count += 1;
        for &u in neighbors {
            assert!(u < v, "neighbor {u} out of range for new node {v}");
            self.insert_edge(v, u);
        }
        v
    }

    /// Removes node `v`: deletes all its incident edges, then marks it
    /// dead. Its id is never reused; updates touching it panic.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or already dead.
    pub fn remove_node(&mut self, v: NodeId) {
        assert!(self.alive[v], "node {v} is already dead");
        let mut nbrs = std::mem::take(&mut self.scratch);
        nbrs.clear();
        nbrs.extend(self.neighbors(v));
        for &u in &nbrs {
            self.remove_edge(v, u);
        }
        self.scratch = nbrs;
        self.alive[v] = false;
        self.alive_count -= 1;
    }

    /// Folds the deltas into a fresh CSR base (node ids unchanged, dead
    /// nodes isolated) and clears the overlay and its arena.
    /// Deterministic: the new base depends only on the live edge set.
    pub fn compact(&mut self) {
        self.base = self.to_graph();
        self.arena.clear();
        self.delta.fill(Delta::default());
        self.delta_entries = 0;
        debug_assert_eq!(self.base.m(), self.m);
    }

    /// Materializes the live structure as a standalone CSR [`Graph`] on
    /// the same ids (dead nodes isolated), leaving the overlay untouched.
    pub fn to_graph(&self) -> Graph {
        let n = self.n();
        let mut b = GraphBuilder::with_capacity(n, self.m);
        for v in 0..n {
            for u in self.neighbors(v) {
                if u > v {
                    b.add_edge(v, u);
                }
            }
        }
        b.build()
    }

    /// Whether the CSR base holds `{u, v}` (a search of `u`'s row).
    #[inline]
    fn in_base(&self, u: NodeId, v: NodeId) -> bool {
        u < self.base.n() && v < self.base.n() && self.base.has_edge(u, v)
    }

    /// Inserts (`insert`) or removes both directed halves of `{u, v}`
    /// in the `removed` (`in_removed`) or `added` part of the endpoints'
    /// records, keeping the delta count. Returns `false`, changing
    /// nothing, if `u`'s record already agreed; `v`'s always mirrors it.
    /// Both endpoints are below [`n`](Self::n) ≤ 2³², so they fit the
    /// arena's 32-bit entries.
    fn edit_pair(&mut self, u: NodeId, v: NodeId, in_removed: bool, insert: bool) -> bool {
        let arena = &mut self.arena;
        let mut edit = |d: &mut Delta, w: NodeId| {
            if insert {
                d.insert(arena, in_removed, w as u32)
            } else {
                d.remove(arena, in_removed, w as u32)
            }
        };
        if !edit(&mut self.delta[u], v) {
            return false;
        }
        let mirrored = edit(&mut self.delta[v], u);
        assert!(mirrored, "delta records of ({u},{v}) out of sync");
        if insert {
            self.delta_entries += 2;
        } else {
            self.delta_entries -= 2;
        }
        true
    }
}

/// Ascending merge of `(base − removed) ∪ added` for one node. Created
/// by [`OverlayGraph::neighbors`].
#[derive(Clone, Debug)]
pub struct OverlayNeighbors<'a> {
    base: &'a [u32],
    removed: &'a [u32],
    added: &'a [u32],
    bi: usize,
    ai: usize,
}

impl Iterator for OverlayNeighbors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            let b = self.base.get(self.bi).copied();
            let a = self.added.get(self.ai).copied();
            match (b, a) {
                (Some(bv), av) if av.is_none_or(|av| bv < av) => {
                    self.bi += 1;
                    // `removed` is sorted like `base`; membership test is
                    // a binary search over the (short) removal list.
                    if self.removed.binary_search(&bv).is_err() {
                        return Some(bv as NodeId);
                    }
                }
                (_, Some(av)) => {
                    self.ai += 1;
                    return Some(av as NodeId);
                }
                (Some(_) | None, None) => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::BTreeSet;

    #[test]
    fn insert_and_remove_edges() {
        let mut g = OverlayGraph::new(gen::path(4)); // 0-1, 1-2, 2-3
        assert!(g.insert_edge(0, 2));
        assert!(!g.insert_edge(2, 0), "duplicate insert is a no-op");
        assert!(g.has_edge(0, 2));
        assert_eq!(g.m(), 4);
        assert_eq!(g.degree(2), 3);
        assert!(g.remove_edge(1, 2));
        assert!(!g.remove_edge(1, 2), "double remove is a no-op");
        assert!(!g.has_edge(1, 2));
        assert_eq!(g.m(), 3);
        assert_eq!(g.neighbors(2).collect::<Vec<_>>(), vec![0, 3]);
        // Re-inserting a removed base edge undeletes it.
        assert!(g.insert_edge(1, 2));
        assert_eq!(g.delta_entries(), 2); // only the overlay edge {0,2}
    }

    #[test]
    fn node_churn() {
        let mut g = OverlayGraph::new(gen::cycle(4));
        let v = g.insert_node(&[0, 2]);
        assert_eq!(v, 4);
        assert_eq!(g.degree(v), 2);
        assert_eq!(g.alive_count(), 5);
        g.remove_node(0);
        assert!(!g.is_alive(0));
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.degree(v), 1);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![2]);
        assert_eq!(g.alive_count(), 4);
        // The dead slot stays: new nodes append after it.
        assert_eq!(g.insert_node(&[]), 5);
    }

    #[test]
    #[should_panic]
    fn dead_node_rejects_updates() {
        let mut g = OverlayGraph::new(gen::path(3));
        g.remove_node(1);
        g.insert_edge(0, 1);
    }

    #[test]
    fn compact_preserves_structure_and_ids() {
        let mut g = OverlayGraph::new(gen::path(5));
        g.insert_edge(0, 4);
        g.remove_edge(1, 2);
        g.remove_node(3);
        let before = g.to_graph();
        let (n, m) = (g.n(), g.m());
        g.compact();
        assert_eq!(g.delta_entries(), 0);
        assert_eq!((g.n(), g.m()), (n, m));
        assert_eq!(g.to_graph(), before, "compaction must not change edges");
        assert!(!g.is_alive(3), "alive mask survives compaction");
        // Post-compaction updates work against the new base.
        assert!(g.remove_edge(0, 4));
        assert!(g.insert_edge(1, 2));
    }

    /// A naively-maintained edge set plus the edge set of the overlay's
    /// current base, which together predict adjacency and delta count.
    struct Model {
        edges: BTreeSet<(usize, usize)>,
        base: BTreeSet<(usize, usize)>,
    }

    impl Model {
        fn new(base: &Graph) -> Self {
            let edges: BTreeSet<(usize, usize)> = base.edges().collect();
            Model {
                base: edges.clone(),
                edges,
            }
        }

        fn compact(&mut self, g: &mut OverlayGraph) {
            g.compact();
            self.base = self.edges.clone();
        }

        /// Asserts the overlay's adjacency, degrees, edge count and delta
        /// entries against the model.
        fn check(&self, g: &OverlayGraph, step: usize) {
            assert_eq!(g.m(), self.edges.len(), "step {step}");
            let delta = 2 * self.edges.symmetric_difference(&self.base).count();
            assert_eq!(g.delta_entries(), delta, "step {step} delta entries");
            for v in 0..g.n() {
                let got: Vec<usize> = g.neighbors(v).collect();
                let want: Vec<usize> = self
                    .edges
                    .iter()
                    .filter_map(|&(a, b)| (a == v).then_some(b).or((b == v).then_some(a)))
                    .collect();
                assert_eq!(got, want, "step {step} node {v}");
                assert_eq!(g.degree(v), want.len(), "step {step} node {v} degree");
            }
        }
    }

    /// Randomized differential: overlay adjacency must always equal a
    /// naively-maintained edge set.
    #[test]
    fn matches_naive_edge_set_under_random_churn() {
        let mut rng = StdRng::seed_from_u64(42);
        let base = gen::gnp(30, 0.1, &mut rng);
        let mut g = OverlayGraph::new(base.clone());
        let mut model = Model::new(&base);
        let mut alive: Vec<bool> = vec![true; 30];
        for step in 0..600 {
            let op = rng.gen_range(0u32..100);
            let n = g.n();
            if op < 40 {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u != v && alive[u] && alive[v] {
                    let key = (u.min(v), u.max(v));
                    assert_eq!(g.insert_edge(u, v), model.edges.insert(key), "step {step}");
                }
            } else if op < 80 {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u != v && alive[u] && alive[v] {
                    let key = (u.min(v), u.max(v));
                    assert_eq!(g.remove_edge(u, v), model.edges.remove(&key), "step {step}");
                }
            } else if op < 90 {
                let nbrs: Vec<usize> = (0..n).filter(|&u| alive[u] && rng.gen_bool(0.1)).collect();
                let v = g.insert_node(&nbrs);
                alive.push(true);
                for &u in &nbrs {
                    model.edges.insert((u, v));
                }
            } else if op < 95 {
                let v = rng.gen_range(0..n);
                if alive[v] {
                    g.remove_node(v);
                    alive[v] = false;
                    model.edges.retain(|&(a, b)| a != v && b != v);
                }
            } else {
                model.compact(&mut g);
            }
            model.check(&g, step);
        }
    }

    /// Arena records: a hub's `added` part fills and relocates its record
    /// several times while its spokes' first touches land behind it,
    /// empties when the fan is torn down, regrows on the next attach, and
    /// survives compactions between flaps. The base edges the hub loses
    /// fill its `removed` part of the same record.
    #[test]
    fn arena_runs_relocate_empty_and_regrow() {
        let mut rng = StdRng::seed_from_u64(7);
        let base = gen::gnp(40, 0.1, &mut rng);
        let mut g = OverlayGraph::new(base.clone());
        let mut model = Model::new(&base);
        let mut step = 0;
        let mut starts = BTreeSet::new();
        let mut emptied = 0;
        for flap in 0..6 {
            let mut spokes: Vec<usize> = (1..40).filter(|_| rng.gen_bool(0.7)).collect();
            for &s in &spokes {
                assert_eq!(g.insert_edge(0, s), model.edges.insert((0, s)));
                starts.insert(g.delta[0].start);
                model.check(&g, step);
                step += 1;
            }
            if flap % 2 == 1 {
                model.compact(&mut g);
                model.check(&g, step);
            }
            // Tear the fan down in a shuffled order, with unrelated
            // churn interleaved so other runs move behind the hub's.
            for i in (1..spokes.len()).rev() {
                spokes.swap(i, rng.gen_range(0..=i));
            }
            for &s in &spokes {
                assert_eq!(g.remove_edge(s, 0), model.edges.remove(&(0, s)));
                let (u, v) = (rng.gen_range(1..40usize), rng.gen_range(1..40usize));
                if u != v {
                    let key = (u.min(v), u.max(v));
                    assert_eq!(g.insert_edge(u, v), model.edges.insert(key));
                }
                model.check(&g, step);
                step += 1;
            }
            emptied += usize::from(g.delta[0].added == 0 && g.delta[0].cap > 0);
        }
        assert!(starts.len() >= 3, "hub record relocated only {starts:?}");
        assert!(
            emptied >= 2,
            "hub's added part emptied with capacity {emptied} times"
        );
    }

    /// Both parts share one record: edits in the `added` part shift the
    /// `removed` part behind it, and a full record relocates with both.
    #[test]
    fn added_and_removed_parts_share_one_record() {
        let mut g = OverlayGraph::new(gen::star(6)); // hub 0, leaves 1..=5
        assert!(g.remove_edge(0, 3));
        assert!(g.remove_edge(0, 1));
        let v = g.insert_node(&[0]);
        assert!(!g.insert_edge(0, 2), "base edge already present");
        assert!(g.remove_edge(0, 5));
        let d = g.delta[0];
        assert_eq!((d.added, d.removed), (1, 3));
        assert_eq!(d.ids(&g.arena, false), [v as u32]);
        assert_eq!(d.ids(&g.arena, true), [1, 3, 5]);
        // Undeleting a base edge shifts the removed part left; removing
        // the overlay edge empties the added part in front of it.
        assert!(g.insert_edge(3, 0));
        assert!(g.remove_edge(v, 0));
        let d = g.delta[0];
        assert_eq!(d.ids(&g.arena, false), [] as [u32; 0]);
        assert_eq!(d.ids(&g.arena, true), [1, 5]);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(g.delta_entries(), 4);
    }

    /// Per node the overlay holds a 16-byte record, a 4-byte degree and
    /// a 1-byte alive flag, and each arena entry is 4 bytes.
    #[test]
    fn delta_record_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Delta>(), 16);
    }

    #[test]
    fn neighbors_of_fresh_node_beyond_base() {
        let mut g = OverlayGraph::new(Graph::empty(2));
        let v = g.insert_node(&[0, 1]);
        assert_eq!(g.neighbors(v).collect::<Vec<_>>(), vec![0, 1]);
        assert!(g.has_edge(v, 0));
        assert!(!g.has_edge(0, 1));
    }
}
