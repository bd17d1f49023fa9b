//! Incremental construction of [`Graph`] values.

use crate::graph::{Graph, NodeId, MAX_NODES};

/// Builder for [`Graph`].
///
/// Collects undirected edges (in any order/direction, duplicates allowed)
/// and produces a normalized CSR graph. Self loops are rejected eagerly so
/// the error points at the offending insertion.
///
/// # Example
///
/// ```
/// use arbmis_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// b.add_edge(2, 1); // duplicate, merged
/// let g = b.build();
/// assert_eq!(g.m(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    /// Recorded edges, smaller endpoint first, 8 bytes each.
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` nodes (ids `0..n`).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`MAX_NODES`] (2³²): node ids must fit 32
    /// bits. Readers of untrusted input call
    /// [`check_node_count`](Self::check_node_count) first.
    pub fn new(n: usize) -> Self {
        Self::with_capacity(n, 0)
    }

    /// Checks that a graph on `n` nodes can be built: every node id must
    /// fit 32 bits (`n ≤ 2³²`), and the CSR build over `n` nodes must be
    /// allocatable. The build holds the `n + 1`-word `offsets` array
    /// beside `adj`, and the graph's users allocate further per-node
    /// arrays; the check reserves `3n + 1` words to leave room for them.
    /// Readers of untrusted input call this to refuse a node count
    /// instead of panicking in [`new`](Self::new) or aborting inside
    /// [`build`](Self::build).
    ///
    /// # Errors
    ///
    /// A message naming `n` when it exceeds 2³², checked before any
    /// allocation, or when `3n + 1` words overflow or cannot be reserved.
    pub fn check_node_count(n: usize) -> Result<(), String> {
        check_width(n)?;
        let words = n.checked_mul(3).and_then(|w| w.checked_add(1));
        if words.is_none_or(|w| Vec::<usize>::new().try_reserve_exact(w).is_err()) {
            return Err(format!("node count {n} exceeds available memory"));
        }
        Ok(())
    }

    /// Creates a builder pre-sized for roughly `m` edges.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`MAX_NODES`] (2³²), as [`new`](Self::new).
    pub fn with_capacity(n: usize, m: usize) -> Self {
        if let Err(e) = check_width(n) {
            panic!("{e}");
        }
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of nodes this builder was created with.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Records the undirected edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (self loop) or either endpoint is `>= n`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        assert!(u != v, "self loop on node {u} rejected");
        assert!(
            u < self.n && v < self.n,
            "edge ({u},{v}) out of range for n={}",
            self.n
        );
        self.push(u, v);
        self
    }

    /// Records the edge `{u, v}` only if both checks pass, returning whether
    /// it was accepted. Unlike [`add_edge`](Self::add_edge) this never
    /// panics; it is convenient inside randomized generators that may
    /// propose loops.
    pub fn try_add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v || u >= self.n || v >= self.n {
            return false;
        }
        self.push(u, v);
        true
    }

    /// Records an edge whose endpoints are checked to be below `n`, so
    /// both fit 32 bits.
    fn push(&mut self, u: NodeId, v: NodeId) {
        let (a, b) = (u.min(v) as u32, u.max(v) as u32);
        self.edges.push((a, b));
    }

    /// Finalizes into a normalized [`Graph`] by a counting sort: a degree
    /// pass over the recorded edges, a scatter of both endpoints into
    /// `adj`, then a sort and dedupe of each node's slice that compacts
    /// `adj` and `offsets` in place. `O(n + m + Σ_v d_v log d_v)`, with no
    /// copy of the edge list.
    pub fn build(&self) -> Graph {
        let n = self.n;
        // offsets[v] first counts v's endpoint slots (duplicates included),
        // then holds the end of v's slice.
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &self.edges {
            offsets[u as usize] += 1;
            offsets[v as usize] += 1;
        }
        let mut end = 0;
        for o in &mut offsets[..n] {
            end += *o;
            *o = end;
        }
        offsets[n] = end;
        // Fill each slice from its end, so offsets[v] ends at its start.
        let mut adj = vec![0u32; end];
        for &(u, v) in &self.edges {
            let (ui, vi) = (u as usize, v as usize);
            offsets[ui] -= 1;
            adj[offsets[ui]] = v;
            offsets[vi] -= 1;
            adj[offsets[vi]] = u;
        }
        // Sort each slice and drop repeats, moving it down to `write`;
        // `write` never passes the slice's start, so nothing unread is
        // overwritten.
        let mut write = 0;
        for v in 0..n {
            let (start, end) = (offsets[v], offsets[v + 1]);
            let first = write;
            offsets[v] = first;
            adj[start..end].sort_unstable();
            for i in start..end {
                let u = adj[i];
                if write == first || adj[write - 1] != u {
                    adj[write] = u;
                    write += 1;
                }
            }
        }
        offsets[n] = write;
        adj.truncate(write);
        Graph::from_csr_unchecked(offsets, adj)
    }
}

/// Refuses a node count whose ids do not all fit 32 bits.
fn check_width(n: usize) -> Result<(), String> {
    if n as u64 > MAX_NODES {
        return Err(format!(
            "node count {n} exceeds 2^32: node ids must fit 32 bits"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_csr() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(4, 0).add_edge(0, 2).add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2, 4]);
    }

    #[test]
    fn dedups_both_orientations() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        assert_eq!(b.build().m(), 1);
    }

    #[test]
    fn try_add_edge_filters() {
        let mut b = GraphBuilder::new(3);
        assert!(!b.try_add_edge(1, 1));
        assert!(!b.try_add_edge(0, 3));
        assert!(b.try_add_edge(0, 2));
        assert_eq!(b.build().m(), 1);
    }

    #[test]
    fn build_is_repeatable() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        let g1 = b.build();
        b.add_edge(1, 2);
        let g2 = b.build();
        assert_eq!(g1.m(), 1);
        assert_eq!(g2.m(), 2);
    }

    #[test]
    fn node_ids_must_fit_32_bits() {
        // The largest id, 2³² − 1 (n = 2³²), passes the width check; the
        // memory check after it may still refuse n on a small host.
        if let Err(err) = GraphBuilder::check_node_count(1 << 32) {
            assert!(err.contains("available memory"), "{err}");
        }
        assert_eq!(GraphBuilder::check_node_count(1 << 20), Ok(()));
        let err = GraphBuilder::check_node_count((1 << 32) + 1).unwrap_err();
        assert!(err.contains("32 bits"), "{err}");
        let err = GraphBuilder::check_node_count(usize::MAX).unwrap_err();
        assert!(err.contains("32 bits"), "{err}");
    }

    #[test]
    #[should_panic(expected = "32 bits")]
    fn builder_refuses_more_than_2_pow_32_nodes() {
        let _ = GraphBuilder::new((1 << 32) + 1);
    }

    #[test]
    fn with_capacity_builder() {
        let mut b = GraphBuilder::with_capacity(10, 20);
        assert_eq!(b.n(), 10);
        b.add_edge(0, 9);
        assert_eq!(b.build().m(), 1);
    }
}
