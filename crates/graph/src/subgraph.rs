//! Induced subgraphs.
//!
//! [`InducedSubgraph`] compacts a node subset into a standalone [`Graph`]
//! for handing components to finishing algorithms; [`SubgraphScratch`]
//! does the same repeatedly without per-call `O(n)` tables.

use crate::graph::{Graph, NodeId};
use crate::GraphBuilder;

/// A compacted induced subgraph with mappings to/from the parent graph.
#[derive(Clone, Debug)]
pub struct InducedSubgraph {
    graph: Graph,
    /// `to_parent[i]` = parent id of local node `i`.
    to_parent: Vec<NodeId>,
    /// `from_parent[v]` = local id of parent node `v`, or `usize::MAX`.
    from_parent: Vec<usize>,
}

impl InducedSubgraph {
    /// Builds the subgraph of `g` induced by the nodes with
    /// `included[v] == true`.
    ///
    /// # Panics
    ///
    /// Panics if `included.len() != g.n()`.
    pub fn new(g: &Graph, included: &[bool]) -> Self {
        assert_eq!(included.len(), g.n());
        let to_parent: Vec<NodeId> = (0..g.n()).filter(|&v| included[v]).collect();
        let mut from_parent = vec![usize::MAX; g.n()];
        for (i, &v) in to_parent.iter().enumerate() {
            from_parent[v] = i;
        }
        let mut b = GraphBuilder::new(to_parent.len());
        for (i, &v) in to_parent.iter().enumerate() {
            for u in g.neighbors(v) {
                if included[u] && u > v {
                    b.add_edge(i, from_parent[u]);
                }
            }
        }
        InducedSubgraph {
            graph: b.build(),
            to_parent,
            from_parent,
        }
    }

    /// Builds the subgraph induced by an explicit node list (duplicates
    /// ignored).
    pub fn from_nodes(g: &Graph, nodes: &[NodeId]) -> Self {
        let mut included = vec![false; g.n()];
        for &v in nodes {
            included[v] = true;
        }
        Self::new(g, &included)
    }

    /// The compacted graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Parent id of local node `i`.
    pub fn to_parent(&self, i: usize) -> NodeId {
        self.to_parent[i]
    }

    /// Local id of parent node `v`, if included.
    pub fn to_local(&self, v: NodeId) -> Option<usize> {
        let i = self.from_parent[v];
        (i != usize::MAX).then_some(i)
    }

    /// Number of included nodes.
    pub fn n(&self) -> usize {
        self.to_parent.len()
    }

    /// Lifts a local boolean labelling (e.g. an MIS of the subgraph) back
    /// to parent ids.
    pub fn lift(&self, local: &[bool]) -> Vec<NodeId> {
        assert_eq!(local.len(), self.n());
        local
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(self.to_parent[i]))
            .collect()
    }
}

/// Reusable scratch for repeated induced-subgraph extraction.
///
/// [`InducedSubgraph::from_nodes`] allocates two `O(n)` vectors per call
/// (an inclusion mask and a parent→local table), which dominates when a
/// finishing phase extracts thousands of tiny components from one big
/// graph. `SubgraphScratch` keeps one 32-bit parent→local table alive
/// across calls, with `u32::MAX` marking nodes outside the extraction;
/// each extraction resets only the previous extraction's entries, so each
/// [`induce`](Self::induce) costs `O(|C| + m(C))` — proportional to the
/// component, never to `n` (beyond a one-time lazy resize, 4 bytes per
/// node, when the parent graph grows).
///
/// # Example
///
/// ```
/// use arbmis_graph::{gen, InducedSubgraph, SubgraphScratch};
///
/// let g = gen::path(6);
/// let mut scratch = SubgraphScratch::new();
/// let sub = scratch.induce(&g, &[3, 4, 5]);
/// assert_eq!(sub.n(), 3);
/// assert_eq!(sub.graph(), InducedSubgraph::from_nodes(&g, &[3, 4, 5]).graph());
/// ```
#[derive(Clone, Debug, Default)]
pub struct SubgraphScratch {
    /// `local[v]` = local id of `v` in the current extraction, or
    /// [`OUTSIDE`] (lazily sized to the parent graph).
    local: Vec<u32>,
    /// Sorted, deduplicated node list of the current extraction.
    nodes: Vec<NodeId>,
}

/// The [`SubgraphScratch`] table entry of a node outside the extraction.
/// Local ids stay below it: a parent has at most `u32::MAX` nodes.
const OUTSIDE: u32 = u32::MAX;

impl SubgraphScratch {
    /// Creates an empty scratch; tables are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the previous extraction's table entries and sizes the
    /// table for a parent id space of size `n`.
    fn begin(&mut self, n: usize) {
        assert!(n <= u32::MAX as usize, "graph too large for u32 ids");
        for &v in &self.nodes {
            self.local[v] = OUTSIDE;
        }
        if self.local.len() < n {
            self.local.resize(n, OUTSIDE);
        }
        self.nodes.clear();
    }

    /// Builds the compacted graph from the sorted `self.nodes` list. Edge
    /// insertion order matches [`InducedSubgraph::new`] exactly, so the
    /// built graphs are equal.
    fn finish(&mut self, g: &Graph) -> Graph {
        self.finish_by(|v| g.neighbors(v).iter())
    }

    /// Generic [`finish`](Self::finish): the parent adjacency is a
    /// neighbor closure instead of a CSR graph.
    fn finish_by<I>(&mut self, neighbors: impl Fn(NodeId) -> I) -> Graph
    where
        I: IntoIterator<Item = NodeId>,
    {
        for (i, &v) in self.nodes.iter().enumerate() {
            self.local[v] = i as u32;
        }
        let mut b = GraphBuilder::new(self.nodes.len());
        for (i, &v) in self.nodes.iter().enumerate() {
            for u in neighbors(v) {
                if u > v && self.local[u] != OUTSIDE {
                    b.add_edge(i, self.local[u] as usize);
                }
            }
        }
        b.build()
    }

    /// Extracts the subgraph of `g` induced by `nodes` (duplicates
    /// ignored, order irrelevant — local ids ascend by parent id, exactly
    /// as in [`InducedSubgraph::from_nodes`]).
    ///
    /// The returned view borrows the scratch; drop it before the next
    /// extraction.
    pub fn induce<'a>(&'a mut self, g: &Graph, nodes: &[NodeId]) -> ScratchSubgraph<'a> {
        self.begin(g.n());
        self.nodes.extend_from_slice(nodes);
        self.nodes.sort_unstable();
        self.nodes.dedup();
        let graph = self.finish(g);
        ScratchSubgraph {
            graph,
            scratch: self,
        }
    }

    /// Extracts the subgraph induced by `nodes` of a parent presented as
    /// a neighbor *closure* rather than a CSR [`Graph`] — the entry point
    /// for mutable overlays ([`crate::OverlayGraph`]), whose adjacency
    /// has no slice form. `n` bounds the parent id space (tables are
    /// lazily sized to it); `neighbors(v)` must yield `v`'s neighbors
    /// without duplicates, in any order. Local ids ascend by parent id,
    /// exactly as in [`induce`](Self::induce).
    pub fn induce_by<'a, I>(
        &'a mut self,
        n: usize,
        nodes: &[NodeId],
        neighbors: impl Fn(NodeId) -> I,
    ) -> ScratchSubgraph<'a>
    where
        I: IntoIterator<Item = NodeId>,
    {
        self.begin(n);
        self.nodes.extend_from_slice(nodes);
        self.nodes.sort_unstable();
        self.nodes.dedup();
        let graph = self.finish_by(neighbors);
        ScratchSubgraph {
            graph,
            scratch: self,
        }
    }
}

/// A borrowed view of one [`SubgraphScratch`] extraction: the compacted
/// graph plus parent↔local id mappings, mirroring [`InducedSubgraph`]'s
/// accessors.
#[derive(Debug)]
pub struct ScratchSubgraph<'a> {
    graph: Graph,
    scratch: &'a SubgraphScratch,
}

impl ScratchSubgraph<'_> {
    /// The compacted graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Parent id of local node `i`.
    pub fn to_parent(&self, i: usize) -> NodeId {
        self.scratch.nodes[i]
    }

    /// Local id of parent node `v`, if included.
    pub fn to_local(&self, v: NodeId) -> Option<usize> {
        let i = self.scratch.local[v];
        (i != OUTSIDE).then_some(i as usize)
    }

    /// Number of included nodes.
    pub fn n(&self) -> usize {
        self.scratch.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn induced_subgraph_of_path() {
        let g = gen::path(6);
        let sub = InducedSubgraph::new(&g, &[true, true, false, true, true, true]);
        assert_eq!(sub.n(), 5);
        // Local graph: 0-1 (from 0-1), and 3-4-5 -> locals 2-3-4 chain.
        assert_eq!(sub.graph().m(), 3);
        assert_eq!(sub.to_parent(2), 3);
        assert_eq!(sub.to_local(3), Some(2));
        assert_eq!(sub.to_local(2), None);
    }

    #[test]
    fn from_nodes_matches_mask() {
        let g = gen::cycle(6);
        let a = InducedSubgraph::from_nodes(&g, &[0, 1, 2]);
        let b = InducedSubgraph::new(&g, &[true, true, true, false, false, false]);
        assert_eq!(a.graph(), b.graph());
    }

    #[test]
    fn lift_roundtrip() {
        let g = gen::path(5);
        let sub = InducedSubgraph::new(&g, &[false, true, true, true, false]);
        let lifted = sub.lift(&[true, false, true]);
        assert_eq!(lifted, vec![1, 3]);
    }

    #[test]
    fn scratch_matches_induced_subgraph_across_extractions() {
        use rand::SeedableRng;
        let mut r = rand::rngs::StdRng::seed_from_u64(7);
        let g = gen::gnp(200, 0.05, &mut r);
        let mut scratch = SubgraphScratch::new();
        // Overlapping node sets across extractions: stale table entries
        // must never leak membership or local ids into a later one.
        let sets: Vec<Vec<usize>> = vec![
            (0..50).collect(),
            (25..120).collect(),
            vec![199, 3, 3, 77, 3, 10], // duplicates + scrambled order
            (0..200).collect(),
            vec![],
            vec![42],
        ];
        for nodes in &sets {
            let expect = InducedSubgraph::from_nodes(&g, nodes);
            let got = scratch.induce(&g, nodes);
            assert_eq!(got.graph(), expect.graph());
            assert_eq!(got.n(), expect.n());
            for i in 0..expect.n() {
                assert_eq!(got.to_parent(i), expect.to_parent(i));
            }
            for v in 0..g.n() {
                assert_eq!(got.to_local(v), expect.to_local(v), "node {v}");
            }
        }
    }

    #[test]
    fn induce_by_matches_induce() {
        use rand::SeedableRng;
        let mut r = rand::rngs::StdRng::seed_from_u64(11);
        let g = gen::gnp(80, 0.08, &mut r);
        let mut a = SubgraphScratch::new();
        let mut b = SubgraphScratch::new();
        let nodes: Vec<usize> = (10..50).collect();
        let want = a.induce(&g, &nodes);
        let got = b.induce_by(g.n(), &nodes, |v| g.neighbors(v).iter());
        assert_eq!(got.graph(), want.graph());
        for i in 0..want.n() {
            assert_eq!(got.to_parent(i), want.to_parent(i));
        }
        for v in 0..g.n() {
            assert_eq!(got.to_local(v), want.to_local(v));
        }
    }

    #[test]
    fn induce_by_over_an_overlay() {
        let mut o = crate::OverlayGraph::new(gen::path(6));
        o.insert_edge(0, 5);
        o.remove_edge(2, 3);
        let mut s = SubgraphScratch::new();
        let sub = s.induce_by(o.n(), &[0, 1, 2, 3, 5], |v| o.neighbors(v));
        // Live edges inside {0,1,2,3,5}: 0-1, 1-2, 0-5 (2-3 removed, 4 excluded).
        assert_eq!(sub.graph().m(), 3);
        assert_eq!(sub.to_local(5), Some(4));
        assert_eq!(sub.to_local(4), None);
    }

    #[test]
    fn scratch_handles_growing_parent_graphs() {
        let small = gen::path(4);
        let big = gen::path(400);
        let mut scratch = SubgraphScratch::new();
        assert_eq!(scratch.induce(&small, &[1, 2]).graph().m(), 1);
        // Reuse against a larger graph must lazily grow the tables.
        let sub = scratch.induce(&big, &[397, 398, 399]);
        assert_eq!(sub.graph().m(), 2);
        assert_eq!(sub.to_parent(0), 397);
        assert_eq!(sub.to_local(399), Some(2));
        assert_eq!(sub.to_local(0), None);
    }

    /// The table grows between two extractions: the resize must not skip
    /// the reset of the first extraction's entries.
    #[test]
    fn grown_table_forgets_the_previous_extraction() {
        let small = gen::path(50);
        let big = gen::path(500);
        let mut scratch = SubgraphScratch::new();
        let first: Vec<usize> = (10..30).collect();
        assert_eq!(scratch.induce(&small, &first).graph().m(), 19);
        let sub = scratch.induce(&big, &[400, 401, 402]);
        for &v in &first {
            assert_eq!(sub.to_local(v), None, "node {v}");
        }
        let included: Vec<usize> = (0..big.n())
            .filter(|&v| sub.to_local(v).is_some())
            .collect();
        assert_eq!(included, [400, 401, 402]);
    }
}
