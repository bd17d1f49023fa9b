//! Static forest decompositions.
//!
//! An acyclic orientation with out-degree ≤ d partitions the edge set into
//! d forests: give each node's out-edges distinct colors `0..out_degree`;
//! within one color every node has out-degree ≤ 1 and the orientation is
//! acyclic, so each color class is a forest of rooted trees (each node
//! points to at most one parent). This is the constructive direction of
//! `arboricity ≤ degeneracy` and is what the paper's Lemma 3.8 pipeline
//! consumes (forest decomposition, then Cole–Vishkin per forest).

use crate::graph::{Graph, NodeId};
use crate::orientation::Orientation;

/// A rooted forest over nodes `0..n`, stored as parent pointers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RootedForest {
    /// `parent[v]` is `Some(p)` if `v` points to `p` in this forest.
    parent: Vec<Option<NodeId>>,
}

impl RootedForest {
    /// Creates a forest with no edges on `n` nodes.
    pub fn new(n: usize) -> Self {
        RootedForest {
            parent: vec![None; n],
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.parent.len()
    }

    /// The parent of `v` in this forest, if any.
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v]
    }

    /// Sets the parent pointer of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v == p`.
    pub fn set_parent(&mut self, v: NodeId, p: NodeId) {
        assert_ne!(v, p, "node cannot parent itself");
        self.parent[v] = Some(p);
    }

    /// Number of edges (nodes with a parent).
    pub fn edge_count(&self) -> usize {
        self.parent.iter().filter(|p| p.is_some()).count()
    }

    /// Nodes with no parent (roots, including isolated nodes).
    pub fn roots(&self) -> Vec<NodeId> {
        (0..self.n())
            .filter(|&v| self.parent[v].is_none())
            .collect()
    }

    /// Children lists (inverse of the parent map).
    pub fn children_lists(&self) -> Vec<Vec<NodeId>> {
        let mut ch = vec![Vec::new(); self.n()];
        for v in 0..self.n() {
            if let Some(p) = self.parent[v] {
                ch[p].push(v);
            }
        }
        ch
    }

    /// `true` iff following parent pointers never cycles (checked
    /// explicitly; parent-pointer structures can encode cycles).
    pub fn is_acyclic(&self) -> bool {
        let n = self.n();
        // state: 0 = unvisited, 1 = on current path, 2 = done
        let mut state = vec![0u8; n];
        for start in 0..n {
            if state[start] != 0 {
                continue;
            }
            let mut path = Vec::new();
            let mut v = start;
            loop {
                if state[v] == 1 {
                    return false; // hit current path: cycle
                }
                if state[v] == 2 {
                    break;
                }
                state[v] = 1;
                path.push(v);
                match self.parent[v] {
                    Some(p) => v = p,
                    None => break,
                }
            }
            for u in path {
                state[u] = 2;
            }
        }
        true
    }

    /// Converts the forest into an undirected [`Graph`].
    pub fn to_graph(&self) -> Graph {
        let mut b = crate::GraphBuilder::with_capacity(self.n(), self.edge_count());
        for v in 0..self.n() {
            if let Some(p) = self.parent[v] {
                b.add_edge(v, p);
            }
        }
        b.build()
    }
}

/// Decomposes `g` into `≤ degeneracy(g)` rooted forests via the degeneracy
/// orientation. Each returned forest's edges are disjoint and their union
/// is exactly `E(g)`.
///
/// ```
/// use arbmis_graph::{gen, forest::forests_by_degeneracy};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let g = gen::apollonian(100, &mut rng);
/// let forests = forests_by_degeneracy(&g);
/// assert!(forests.len() <= 3);
/// let total: usize = forests.iter().map(|f| f.edge_count()).sum();
/// assert_eq!(total, g.m());
/// ```
pub fn forests_by_degeneracy(g: &Graph) -> Vec<RootedForest> {
    let o = Orientation::by_degeneracy(g);
    forests_from_orientation(g, &o)
}

/// Decomposes `g` along an arbitrary acyclic orientation: out-edge `i` of
/// each node goes to forest `i`.
///
/// # Panics
///
/// Panics if the orientation does not cover `g`.
pub fn forests_from_orientation(g: &Graph, o: &Orientation) -> Vec<RootedForest> {
    assert!(o.covers(g), "orientation does not match graph");
    let d = o.max_out_degree();
    let mut forests = vec![RootedForest::new(g.n()); d];
    for v in 0..g.n() {
        for (i, &p) in o.parents(v).iter().enumerate() {
            forests[i].set_parent(v, p);
        }
    }
    forests
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::traversal;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn decomposition_covers_all_edges_disjointly() {
        let g = gen::random_ktree(150, 3, &mut rng(1));
        let forests = forests_by_degeneracy(&g);
        assert!(forests.len() <= 3);
        let total: usize = forests.iter().map(|f| f.edge_count()).sum();
        assert_eq!(total, g.m());
        // Disjointness: collect normalized edges across forests.
        let mut seen = std::collections::HashSet::new();
        for f in &forests {
            for v in 0..f.n() {
                if let Some(p) = f.parent(v) {
                    let key = if v < p { (v, p) } else { (p, v) };
                    assert!(seen.insert(key), "edge {key:?} in two forests");
                    assert!(g.has_edge(v, p));
                }
            }
        }
    }

    #[test]
    fn each_class_is_a_forest() {
        let g = gen::apollonian(120, &mut rng(2));
        for f in forests_by_degeneracy(&g) {
            assert!(f.is_acyclic());
            assert!(traversal::is_forest(&f.to_graph()));
        }
    }

    #[test]
    fn tree_decomposes_into_one_forest() {
        let g = gen::random_tree_prufer(100, &mut rng(3));
        let forests = forests_by_degeneracy(&g);
        assert_eq!(forests.len(), 1);
        assert_eq!(forests[0].edge_count(), 99);
    }

    #[test]
    fn roots_and_children() {
        let mut f = RootedForest::new(4);
        f.set_parent(1, 0);
        f.set_parent(2, 0);
        f.set_parent(3, 2);
        assert_eq!(f.roots(), vec![0]);
        let ch = f.children_lists();
        assert_eq!(ch[0], vec![1, 2]);
        assert_eq!(ch[2], vec![3]);
        assert!(f.is_acyclic());
    }

    #[test]
    fn cycle_detected() {
        let mut f = RootedForest::new(3);
        f.set_parent(0, 1);
        f.set_parent(1, 2);
        f.set_parent(2, 0);
        assert!(!f.is_acyclic());
    }

    #[test]
    #[should_panic]
    fn self_parent_rejected() {
        let mut f = RootedForest::new(2);
        f.set_parent(1, 1);
    }

    #[test]
    fn empty_graph_decomposition() {
        let g = crate::Graph::empty(5);
        let forests = forests_by_degeneracy(&g);
        assert!(forests.is_empty());
    }
}
