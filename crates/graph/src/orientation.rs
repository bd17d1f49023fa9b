//! Acyclic low-out-degree edge orientations.
//!
//! The paper's analysis fixes an orientation of an arboricity-α graph in
//! which every node has at most α out-neighbors, calls the out-neighbors of
//! `v` its **parents** and the in-neighbors its **children**, and builds
//! read-k families over these sets. The algorithm never sees the
//! orientation — it exists purely for analysis and for the experiment
//! harness, exactly as in the paper.
//!
//! We compute orientations from a *smallest-last (degeneracy) ordering*:
//! repeatedly delete a minimum-degree node. If the graph is d-degenerate,
//! every node has at most `d` neighbors deleted after it; orienting each
//! edge from the earlier-deleted endpoint to the later-deleted endpoint
//! yields an **acyclic** orientation with out-degree ≤ d. Since a graph of
//! arboricity α has degeneracy ≤ 2α − 1, this gives out-degree ≤ 2α − 1 —
//! the same asymptotics the paper assumes (it assumes exactly α, which
//! exists by Nash–Williams but needs more machinery to compute; the read-k
//! parameters just scale by the constant).

use crate::graph::{Graph, NodeId};

/// A smallest-last ordering together with the degeneracy it certifies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegeneracyOrdering {
    /// Nodes in deletion order (first deleted first).
    pub order: Vec<NodeId>,
    /// `position[v]` = index of `v` in `order`.
    pub position: Vec<usize>,
    /// The degeneracy: max over deletions of the deleted node's remaining
    /// degree.
    pub degeneracy: usize,
}

/// Computes a smallest-last ordering in `O(n + m)` with bucketed degrees.
pub fn degeneracy_ordering(g: &Graph) -> DegeneracyOrdering {
    let n = g.n();
    let mut degree: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let max_deg = degree.iter().copied().max().unwrap_or(0);

    // Bucket queue: buckets[d] holds nodes of current degree d.
    let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); max_deg + 1];
    for v in 0..n {
        buckets[degree[v]].push(v);
    }
    let mut removed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut position = vec![0usize; n];
    let mut degeneracy = 0usize;
    let mut cursor = 0usize; // lowest possibly-nonempty bucket

    for _ in 0..n {
        // Find the smallest-degree remaining node. Degrees only drop by one
        // per removed neighbor, so cursor only needs to back up by one.
        while cursor > 0 && !buckets[cursor - 1].is_empty() {
            cursor -= 1;
        }
        let v = loop {
            while cursor < buckets.len() && buckets[cursor].is_empty() {
                cursor += 1;
            }
            let candidate = buckets[cursor].pop().expect("bucket queue exhausted early");
            // Lazy deletion: entries may be stale (degree changed/removed).
            if !removed[candidate] && degree[candidate] == cursor {
                break candidate;
            }
        };
        removed[v] = true;
        degeneracy = degeneracy.max(degree[v]);
        position[v] = order.len();
        order.push(v);
        for u in g.neighbors(v) {
            if !removed[u] {
                degree[u] -= 1;
                buckets[degree[u]].push(u);
            }
        }
    }
    DegeneracyOrdering {
        order,
        position,
        degeneracy,
    }
}

/// An acyclic orientation of a [`Graph`], stored as parent (out) and child
/// (in) CSR adjacency.
///
/// Terminology follows the paper: `parents(v)` are `v`'s out-neighbors,
/// `children(v)` its in-neighbors.
///
/// # Example
///
/// ```
/// use arbmis_graph::{gen, orientation::Orientation};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let g = gen::random_ktree(100, 2, &mut rng);
/// let o = Orientation::by_degeneracy(&g);
/// assert!(o.max_out_degree() <= 2); // k-tree has degeneracy k
/// for v in 0..100 {
///     for &p in o.parents(v) {
///         assert!(o.children(p).contains(&v));
///     }
/// }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Orientation {
    out_offsets: Vec<usize>,
    out_adj: Vec<NodeId>,
    in_offsets: Vec<usize>,
    in_adj: Vec<NodeId>,
}

impl Orientation {
    /// Orients `g` along a smallest-last ordering: each edge points from
    /// the earlier-deleted endpoint to the later-deleted endpoint, so
    /// out-degree ≤ degeneracy and the orientation is acyclic.
    pub fn by_degeneracy(g: &Graph) -> Self {
        let ordering = degeneracy_ordering(g);
        Self::from_position(g, &ordering.position)
    }

    /// Orients every edge from lower `position` endpoint to higher. Any
    /// injective `position` yields an acyclic orientation; out-degree
    /// depends on the ordering quality.
    ///
    /// # Panics
    ///
    /// Panics if `position.len() != g.n()`.
    pub fn from_position(g: &Graph, position: &[usize]) -> Self {
        assert_eq!(position.len(), g.n());
        let n = g.n();
        let mut out_degree = vec![0usize; n];
        let mut in_degree = vec![0usize; n];
        for (u, v) in g.edges() {
            let (src, dst) = if position[u] < position[v] {
                (u, v)
            } else {
                (v, u)
            };
            out_degree[src] += 1;
            in_degree[dst] += 1;
        }
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut in_offsets = Vec::with_capacity(n + 1);
        out_offsets.push(0);
        in_offsets.push(0);
        for v in 0..n {
            out_offsets.push(out_offsets[v] + out_degree[v]);
            in_offsets.push(in_offsets[v] + in_degree[v]);
        }
        let mut out_adj = vec![0 as NodeId; out_offsets[n]];
        let mut in_adj = vec![0 as NodeId; in_offsets[n]];
        let mut out_cursor = out_offsets[..n].to_vec();
        let mut in_cursor = in_offsets[..n].to_vec();
        for (u, v) in g.edges() {
            let (src, dst) = if position[u] < position[v] {
                (u, v)
            } else {
                (v, u)
            };
            out_adj[out_cursor[src]] = dst;
            out_cursor[src] += 1;
            in_adj[in_cursor[dst]] = src;
            in_cursor[dst] += 1;
        }
        for v in 0..n {
            out_adj[out_offsets[v]..out_offsets[v + 1]].sort_unstable();
            in_adj[in_offsets[v]..in_offsets[v + 1]].sort_unstable();
        }
        Orientation {
            out_offsets,
            out_adj,
            in_offsets,
            in_adj,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Out-neighbors of `v` — its *parents* in the paper's terminology.
    #[inline]
    pub fn parents(&self, v: NodeId) -> &[NodeId] {
        &self.out_adj[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    /// In-neighbors of `v` — its *children*.
    #[inline]
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.in_adj[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    /// Out-degree of `v` (number of parents).
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_offsets[v + 1] - self.out_offsets[v]
    }

    /// In-degree of `v` (number of children).
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_offsets[v + 1] - self.in_offsets[v]
    }

    /// Maximum out-degree over all nodes — the orientation's certified
    /// arboricity-style bound.
    pub fn max_out_degree(&self) -> usize {
        (0..self.n()).map(|v| self.out_degree(v)).max().unwrap_or(0)
    }

    /// Grandparents of `v`: parents of parents, deduplicated. At most
    /// `max_out_degree²` nodes.
    pub fn grandparents(&self, v: NodeId) -> Vec<NodeId> {
        let mut gp: Vec<NodeId> = self
            .parents(v)
            .iter()
            .flat_map(|&p| self.parents(p).iter().copied())
            .collect();
        gp.sort_unstable();
        gp.dedup();
        gp
    }

    /// Verifies the orientation covers exactly the edges of `g`, once each.
    pub fn covers(&self, g: &Graph) -> bool {
        if self.n() != g.n() {
            return false;
        }
        if self.out_adj.len() != g.m() {
            return false;
        }
        for v in 0..g.n() {
            for &p in self.parents(v) {
                if !g.has_edge(v, p) {
                    return false;
                }
                if self.parents(p).contains(&v) {
                    return false; // edge oriented both ways
                }
            }
        }
        true
    }

    /// Checks acyclicity by Kahn's algorithm (used by tests; orientations
    /// built from positions are acyclic by construction).
    pub fn is_acyclic(&self) -> bool {
        let n = self.n();
        let mut indeg: Vec<usize> = (0..n).map(|v| self.in_degree(v)).collect();
        let mut stack: Vec<NodeId> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut seen = 0usize;
        while let Some(u) = stack.pop() {
            seen += 1;
            // Edges go child -> parent, i.e. u's parents receive from u.
            for &p in self.parents(u) {
                indeg[p] -= 1;
                if indeg[p] == 0 {
                    stack.push(p);
                }
            }
        }
        seen == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn degeneracy_of_known_graphs() {
        assert_eq!(degeneracy_ordering(&gen::path(10)).degeneracy, 1);
        assert_eq!(degeneracy_ordering(&gen::cycle(10)).degeneracy, 2);
        assert_eq!(degeneracy_ordering(&gen::complete(6)).degeneracy, 5);
        assert_eq!(degeneracy_ordering(&gen::star(10)).degeneracy, 1);
        assert_eq!(degeneracy_ordering(&gen::grid(5, 5)).degeneracy, 2);
        assert_eq!(degeneracy_ordering(&Graph::empty(4)).degeneracy, 0);
    }

    #[test]
    fn ordering_is_permutation() {
        let g = gen::random_ktree(100, 3, &mut rng(1));
        let ord = degeneracy_ordering(&g);
        let mut sorted = ord.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        for (i, &v) in ord.order.iter().enumerate() {
            assert_eq!(ord.position[v], i);
        }
    }

    #[test]
    fn ktree_degeneracy_exact() {
        for k in 1..=4 {
            let g = gen::random_ktree(150, k, &mut rng(k as u64));
            assert_eq!(degeneracy_ordering(&g).degeneracy, k);
        }
    }

    #[test]
    fn orientation_out_degree_bounded_by_degeneracy() {
        let g = gen::apollonian(200, &mut rng(2));
        let ord = degeneracy_ordering(&g);
        let o = Orientation::by_degeneracy(&g);
        assert!(o.max_out_degree() <= ord.degeneracy);
        assert!(o.covers(&g));
        assert!(o.is_acyclic());
    }

    #[test]
    fn orientation_in_out_consistent() {
        let g = gen::forest_union(120, 2, &mut rng(3));
        let o = Orientation::by_degeneracy(&g);
        let total_out: usize = (0..g.n()).map(|v| o.out_degree(v)).sum();
        let total_in: usize = (0..g.n()).map(|v| o.in_degree(v)).sum();
        assert_eq!(total_out, g.m());
        assert_eq!(total_in, g.m());
        for v in 0..g.n() {
            for &p in o.parents(v) {
                assert!(o.children(p).contains(&v));
            }
            for &c in o.children(v) {
                assert!(o.parents(c).contains(&v));
            }
        }
    }

    #[test]
    fn tree_orientation_out_degree_one() {
        let g = gen::random_tree_prufer(200, &mut rng(4));
        let o = Orientation::by_degeneracy(&g);
        assert_eq!(o.max_out_degree(), 1);
    }

    #[test]
    fn grandparents_bound() {
        let g = gen::random_ktree(150, 3, &mut rng(5));
        let o = Orientation::by_degeneracy(&g);
        let d = o.max_out_degree();
        for v in 0..g.n() {
            assert!(o.grandparents(v).len() <= d * d);
        }
    }

    #[test]
    fn from_position_orients_by_order() {
        let g = gen::path(4); // 0-1-2-3
        let position = vec![3, 2, 1, 0]; // reverse order
        let o = Orientation::from_position(&g, &position);
        // Edge {0,1}: position[1] < position[0] so 1 -> 0.
        assert_eq!(o.parents(1), &[0]);
        assert_eq!(o.children(0), &[1]);
        assert!(o.is_acyclic());
    }

    #[test]
    fn empty_graph_orientation() {
        let g = Graph::empty(3);
        let o = Orientation::by_degeneracy(&g);
        assert_eq!(o.max_out_degree(), 0);
        assert!(o.covers(&g));
        assert!(o.is_acyclic());
    }
}
