//! Immutable simple undirected graphs in CSR (compressed sparse row) form.
//!
//! [`Graph`] is the single graph type every algorithm in the workspace
//! consumes. It stores, for each node, a sorted slice of neighbor ids, so
//! adjacency queries are `O(log deg)` and neighbor iteration is a cache
//! friendly slice scan. Each stored neighbor takes 4 bytes, so node ids
//! must fit 32 bits (`n ≤ 2³²`); [`NodeId`] and the offsets stay `usize`,
//! and [`Graph::neighbors`] hands out a [`Neighbors`] view that widens
//! the entries. Graphs are *simple*: no self loops, no parallel edges.
//! Construction goes through [`crate::GraphBuilder`] or the
//! convenience constructors here, all of which normalize (sort + dedup) the
//! adjacency lists.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a node in a [`Graph`]. Nodes are always `0..n`.
pub type NodeId = usize;

/// Largest node count a [`Graph`] holds: every node id must fit the
/// 32-bit adjacency entries.
pub const MAX_NODES: u64 = 1 << 32;

/// A simple undirected graph in CSR form.
///
/// # Example
///
/// ```
/// use arbmis_graph::Graph;
///
/// // A triangle plus a pendant node: 0-1, 1-2, 2-0, 2-3.
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 4);
/// assert_eq!(g.degree(2), 3);
/// assert!(g.has_edge(0, 2));
/// assert!(!g.has_edge(0, 3));
/// ```
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `adj` for node `v`'s neighbors.
    offsets: Vec<usize>,
    /// Concatenated, per-node-sorted neighbor lists, 32 bits per entry.
    adj: Vec<u32>,
}

impl Graph {
    /// Builds a graph with `n` nodes from an edge list.
    ///
    /// Edges may appear in any order and direction; duplicates and both
    /// orientations of the same edge are merged. Self loops are rejected.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n` or an edge is a self loop.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut builder = crate::GraphBuilder::new(n);
        for &(u, v) in edges {
            builder.add_edge(u, v);
        }
        builder.build()
    }

    /// Builds a graph directly from per-node adjacency lists.
    ///
    /// The lists are normalized (sorted, deduplicated) and symmetrized: if
    /// `u` lists `v`, then `v` will list `u` in the result.
    ///
    /// # Panics
    ///
    /// Panics if a listed neighbor id is out of range or equals its owner
    /// (self loop).
    pub fn from_adjacency(lists: Vec<Vec<NodeId>>) -> Self {
        let n = lists.len();
        let mut builder = crate::GraphBuilder::new(n);
        for (u, nbrs) in lists.into_iter().enumerate() {
            for v in nbrs {
                builder.add_edge(u, v);
            }
        }
        builder.build()
    }

    /// Constructs a graph from already-normalized CSR arrays.
    ///
    /// This is the fast path used by [`crate::GraphBuilder`]. The caller
    /// promises that `offsets` is monotone with `offsets[0] == 0` and
    /// `offsets[n] == adj.len()`, each per-node slice of `adj` is strictly
    /// sorted, contains no self reference, and adjacency is symmetric.
    /// Debug builds verify all of this.
    pub(crate) fn from_csr_unchecked(offsets: Vec<usize>, adj: Vec<u32>) -> Self {
        let g = Graph { offsets, adj };
        debug_assert!(crate::props::check_well_formed(&g).is_ok());
        g
    }

    /// The empty graph on `n` nodes.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            adj: Vec::new(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.adj.len() / 2
    }

    /// Returns `true` if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n() == 0
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.n()`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The sorted neighbors of `v`, as a view yielding [`NodeId`]s.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.n()`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> Neighbors<'_> {
        Neighbors(&self.adj[self.offsets[v]..self.offsets[v + 1]])
    }

    /// Whether the undirected edge `{u, v}` is present. `O(log deg(u))`.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).contains(v)
    }

    /// Maximum degree Δ of the graph (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Minimum degree of the graph (0 for an empty graph).
    pub fn min_degree(&self) -> usize {
        (0..self.n()).map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// Average degree `2m / n` (0.0 for an empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            2.0 * self.m() as f64 / self.n() as f64
        }
    }

    /// Iterates over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> Edges<'_> {
        Edges {
            graph: self,
            u: 0,
            i: 0,
        }
    }

    /// Iterates over all node ids `0..n`.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.n()
    }

    /// Histogram of degrees: `hist[d]` = number of nodes with degree `d`.
    pub fn degree_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.max_degree() + 1];
        for v in self.nodes() {
            hist[self.degree(v)] += 1;
        }
        hist
    }

    /// Number of nodes with degree strictly greater than `threshold`.
    pub fn count_degree_above(&self, threshold: usize) -> usize {
        self.nodes().filter(|&v| self.degree(v) > threshold).count()
    }

    /// Returns the complement adjacency check helper: total possible edges
    /// `n(n-1)/2`.
    pub fn max_possible_edges(&self) -> usize {
        let n = self.n();
        n * n.saturating_sub(1) / 2
    }

    /// Edge density `m / (n choose 2)`, 0.0 when fewer than two nodes.
    pub fn density(&self) -> f64 {
        let poss = self.max_possible_edges();
        if poss == 0 {
            0.0
        } else {
            self.m() as f64 / poss as f64
        }
    }

    /// Raw CSR parts `(offsets, adj)`, e.g. for serialization or FFI.
    pub fn as_csr(&self) -> (&[usize], &[u32]) {
        (&self.offsets, &self.adj)
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n())
            .field("m", &self.m())
            .field("max_degree", &self.max_degree())
            .finish()
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={})", self.n(), self.m())
    }
}

/// The sorted neighbors of one node, borrowed from a [`Graph`]'s 32-bit
/// adjacency. `Copy`, like the slice it wraps; iterating it yields
/// [`NodeId`]s in ascending order. Created by [`Graph::neighbors`].
///
/// ```
/// use arbmis_graph::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
/// let nbrs = g.neighbors(1);
/// assert_eq!(nbrs, [0, 2, 3]);
/// assert_eq!(nbrs.iter().sum::<usize>(), 5);
/// assert!(nbrs.contains(3) && !nbrs.contains(1));
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Neighbors<'a>(&'a [u32]);

impl<'a> Neighbors<'a> {
    /// Iterates the neighbor ids in ascending order.
    #[inline]
    pub fn iter(self) -> NeighborIter<'a> {
        NeighborIter(self.0.iter())
    }

    /// Number of neighbors (the node's degree).
    #[inline]
    pub fn len(self) -> usize {
        self.0.len()
    }

    /// Whether the node has no neighbors.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0.is_empty()
    }

    /// The `i`-th smallest neighbor, if the node has that many.
    #[inline]
    pub fn get(self, i: usize) -> Option<NodeId> {
        self.0.get(i).map(|&u| u as NodeId)
    }

    /// Binary search for `v`, as [`slice::binary_search`]: `Ok(i)` if
    /// `v` is the `i`-th neighbor, else `Err` with its insertion point.
    /// An id that does not fit 32 bits is never a neighbor and sorts
    /// after all of them.
    #[inline]
    pub fn binary_search(self, v: NodeId) -> Result<usize, usize> {
        match u32::try_from(v) {
            Ok(v) => self.0.binary_search(&v),
            Err(_) => Err(self.0.len()),
        }
    }

    /// Whether `v` is a neighbor. `O(log deg)`.
    #[inline]
    pub fn contains(self, v: NodeId) -> bool {
        self.binary_search(v).is_ok()
    }

    /// The raw 32-bit entries.
    #[inline]
    pub fn as_slice(self) -> &'a [u32] {
        self.0
    }
}

impl<'a> IntoIterator for Neighbors<'a> {
    type Item = NodeId;
    type IntoIter = NeighborIter<'a>;
    #[inline]
    fn into_iter(self) -> NeighborIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for Neighbors<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq<[NodeId]> for Neighbors<'_> {
    fn eq(&self, other: &[NodeId]) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl<const N: usize> PartialEq<[NodeId; N]> for Neighbors<'_> {
    fn eq(&self, other: &[NodeId; N]) -> bool {
        *self == other[..]
    }
}

impl<const N: usize> PartialEq<&[NodeId; N]> for Neighbors<'_> {
    fn eq(&self, other: &&[NodeId; N]) -> bool {
        *self == other[..]
    }
}

impl PartialEq<Vec<NodeId>> for Neighbors<'_> {
    fn eq(&self, other: &Vec<NodeId>) -> bool {
        *self == other[..]
    }
}

/// Iterator over a [`Neighbors`] view, yielding [`NodeId`]s in ascending
/// order.
#[derive(Clone, Debug)]
pub struct NeighborIter<'a>(std::slice::Iter<'a, u32>);

impl Iterator for NeighborIter<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        self.0.next().map(|&u| u as NodeId)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

/// Iterator over the undirected edges of a [`Graph`], yielding each edge
/// once as `(u, v)` with `u < v`. Created by [`Graph::edges`].
#[derive(Clone, Debug)]
pub struct Edges<'a> {
    graph: &'a Graph,
    u: NodeId,
    i: usize,
}

impl Iterator for Edges<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        let g = self.graph;
        while self.u < g.n() {
            let nbrs = g.neighbors(self.u).as_slice();
            while self.i < nbrs.len() {
                let v = nbrs[self.i] as NodeId;
                self.i += 1;
                if self.u < v {
                    return Some((self.u, v));
                }
            }
            self.u += 1;
            self.i = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn counts() {
        let g = triangle_plus_pendant();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.min_degree(), 1);
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let g = triangle_plus_pendant();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        for u in g.nodes() {
            for v in g.neighbors(u) {
                assert!(g.has_edge(v, u), "asymmetric edge ({u},{v})");
            }
        }
    }

    #[test]
    fn duplicate_and_reversed_edges_merge() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (1, 2)]);
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    #[should_panic]
    fn self_loop_rejected() {
        let _ = Graph::from_edges(2, &[(1, 1)]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_endpoint_rejected() {
        let _ = Graph::from_edges(2, &[(0, 2)]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edges().count(), 0);
        let g0 = Graph::empty(0);
        assert!(g0.is_empty());
        assert_eq!(g0.avg_degree(), 0.0);
    }

    #[test]
    fn edge_iterator_yields_each_edge_once() {
        let g = triangle_plus_pendant();
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn degree_histogram_sums_to_n() {
        let g = triangle_plus_pendant();
        let hist = g.degree_histogram();
        assert_eq!(hist.iter().sum::<usize>(), g.n());
        assert_eq!(hist[3], 1); // node 2
        assert_eq!(hist[1], 1); // node 3
    }

    #[test]
    fn from_adjacency_symmetrizes() {
        // Only one direction listed; builder must symmetrize.
        let g = Graph::from_adjacency(vec![vec![1, 2], vec![], vec![]]);
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(2, 0));
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn density_and_possible_edges() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        assert_eq!(g.max_possible_edges(), 6);
        assert!((g.density() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn count_degree_above() {
        let g = triangle_plus_pendant();
        assert_eq!(g.count_degree_above(1), 3);
        assert_eq!(g.count_degree_above(2), 1);
        assert_eq!(g.count_degree_above(3), 0);
    }

    #[test]
    fn neighbors_view_over_empty_row() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let row = g.neighbors(2);
        assert!(row.is_empty());
        assert_eq!(row.len(), 0);
        assert_eq!(row.iter().next(), None);
        assert_eq!(row.get(0), None);
        assert_eq!(row.binary_search(0), Err(0));
        assert_eq!(row, [0usize; 0]);
        assert_eq!(format!("{row:?}"), "[]");
    }

    #[test]
    fn neighbors_view_iterates_ascending() {
        let g = Graph::from_edges(6, &[(3, 5), (3, 0), (3, 4), (1, 3)]);
        let row = g.neighbors(3);
        assert_eq!(row.iter().collect::<Vec<_>>(), vec![0, 1, 4, 5]);
        assert_eq!(row.into_iter().collect::<Vec<_>>(), vec![0, 1, 4, 5]);
        assert_eq!(row.len(), 4);
        assert_eq!(
            (row.get(0), row.get(3), row.get(4)),
            (Some(0), Some(5), None)
        );
        assert_eq!(row.as_slice(), &[0u32, 1, 4, 5]);
        assert_eq!(row.binary_search(4), Ok(2));
        assert_eq!(row.binary_search(2), Err(2));
        assert!(row.contains(5) && !row.contains(3));
        assert_eq!(format!("{row:?}"), "[0, 1, 4, 5]");
    }

    #[test]
    fn neighbors_view_refuses_ids_beyond_32_bits() {
        let g = triangle_plus_pendant();
        let row = g.neighbors(2);
        // 2³² + 1 truncates to 1, a neighbor; the view must not.
        let wide = (1usize << 32) + 1;
        assert_eq!(row.binary_search(1usize << 32), Err(3));
        assert_eq!(row.binary_search(wide), Err(3));
        assert!(!row.contains(wide));
        assert!(!g.has_edge(2, wide));
    }

    #[test]
    fn neighbors_view_equals_node_id_slices() {
        let g = triangle_plus_pendant();
        let row = g.neighbors(2);
        let ids: Vec<NodeId> = vec![0, 1, 3];
        assert_eq!(row, ids);
        assert_eq!(row, ids[..]);
        assert_eq!(row, [0, 1, 3]);
        assert_ne!(row, [0, 1]);
        assert_ne!(row, [0, 1, 2]);
        assert_eq!(row, g.neighbors(2));
        assert_ne!(row, g.neighbors(1));
    }

    #[test]
    fn display_and_debug_nonempty() {
        let g = triangle_plus_pendant();
        assert!(!format!("{g}").is_empty());
        assert!(format!("{g:?}").contains("Graph"));
    }
}
