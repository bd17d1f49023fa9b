//! Workload characterization: one-stop structural statistics.
//!
//! The experiment harness prints these for every generated workload so
//! tables are interpretable without re-deriving graph properties.

use crate::graph::{Graph, NodeId};
use crate::{arboricity, traversal};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A structural summary of a graph.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Node count.
    pub n: usize,
    /// Edge count.
    pub m: usize,
    /// Maximum degree Δ.
    pub max_degree: usize,
    /// Average degree.
    pub avg_degree: f64,
    /// Degeneracy (= max coreness).
    pub degeneracy: usize,
    /// Certified arboricity lower bound.
    pub arboricity_lower: usize,
    /// Certified arboricity upper bound.
    pub arboricity_upper: usize,
    /// Number of connected components.
    pub components: usize,
    /// Size of the largest component.
    pub largest_component: usize,
    /// Number of triangles.
    pub triangles: u64,
    /// Global clustering coefficient (3·triangles / wedges), 0 if no
    /// wedges.
    pub clustering: f64,
}

impl GraphStats {
    /// Computes all statistics. `O(m^{3/2})` dominated by triangle
    /// counting.
    pub fn compute(g: &Graph) -> Self {
        let comps = traversal::connected_components(g);
        let bounds = arboricity::arboricity_bounds(g);
        let triangles = count_triangles(g);
        let wedges: u64 = g
            .nodes()
            .map(|v| {
                let d = g.degree(v) as u64;
                d * d.saturating_sub(1) / 2
            })
            .sum();
        GraphStats {
            n: g.n(),
            m: g.m(),
            max_degree: g.max_degree(),
            avg_degree: g.avg_degree(),
            // The upper bound is the degeneracy itself (see `arboricity`).
            degeneracy: bounds.upper,
            arboricity_lower: bounds.lower,
            arboricity_upper: bounds.upper,
            components: comps.count(),
            largest_component: comps.max_size(),
            triangles,
            clustering: if wedges == 0 {
                0.0
            } else {
                3.0 * triangles as f64 / wedges as f64
            },
        }
    }
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} m={} Δ={} avg={:.2} degen={} α∈[{},{}] comps={} tri={} cc={:.3}",
            self.n,
            self.m,
            self.max_degree,
            self.avg_degree,
            self.degeneracy,
            self.arboricity_lower,
            self.arboricity_upper,
            self.components,
            self.triangles,
            self.clustering
        )
    }
}

/// Counts triangles by the forward (oriented wedge) method:
/// `O(m·degeneracy)` on sparse graphs.
pub fn count_triangles(g: &Graph) -> u64 {
    // Orient each edge from lower (degree, id) to higher; every triangle
    // has exactly one node with two out-edges to the other two.
    let rank = |v: NodeId| (g.degree(v), v);
    let mut out: Vec<Vec<NodeId>> = vec![Vec::new(); g.n()];
    for (u, v) in g.edges() {
        if rank(u) < rank(v) {
            out[u].push(v);
        } else {
            out[v].push(u);
        }
    }
    let mut count = 0u64;
    let mut mark = vec![false; g.n()];
    for v in g.nodes() {
        for &w in &out[v] {
            mark[w] = true;
        }
        for &w in &out[v] {
            for &x in &out[w] {
                if mark[x] {
                    count += 1;
                }
            }
        }
        for &w in &out[v] {
            mark[w] = false;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::SeedableRng;

    #[test]
    fn triangle_counts_on_known_graphs() {
        assert_eq!(count_triangles(&gen::complete(4)), 4);
        assert_eq!(count_triangles(&gen::complete(5)), 10);
        assert_eq!(count_triangles(&gen::cycle(5)), 0);
        assert_eq!(count_triangles(&gen::cycle(3)), 1);
        assert_eq!(count_triangles(&gen::path(10)), 0);
        assert_eq!(count_triangles(&gen::complete_bipartite(3, 3)), 0);
    }

    #[test]
    fn apollonian_triangle_density() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let g = gen::apollonian(50, &mut rng);
        // Each insertion adds exactly 3 triangles to the count ≥ n−3…
        // at minimum; just check positivity and clustering in (0,1].
        let stats = GraphStats::compute(&g);
        assert!(stats.triangles >= (50 - 3) as u64);
        assert!(stats.clustering > 0.0 && stats.clustering <= 1.0);
    }

    #[test]
    fn stats_fields_consistent() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let g = gen::forest_union(200, 2, &mut rng);
        let s = GraphStats::compute(&g);
        assert_eq!(s.n, 200);
        assert_eq!(s.m, g.m());
        assert!(s.arboricity_lower <= s.arboricity_upper);
        assert!(s.degeneracy <= 2 * 2);
    }

    #[test]
    fn forest_has_no_triangles_and_clustering_zero() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let g = gen::random_tree_prufer(100, &mut rng);
        let s = GraphStats::compute(&g);
        assert_eq!(s.triangles, 0);
        assert_eq!(s.clustering, 0.0);
        assert_eq!(s.components, 1);
        assert_eq!(s.largest_component, 100);
    }

    #[test]
    fn display_is_informative() {
        let s = GraphStats::compute(&gen::cycle(6));
        let txt = s.to_string();
        assert!(txt.contains("n=6"));
        assert!(txt.contains("Δ=2"));
    }

    #[test]
    fn empty_graph_stats() {
        let s = GraphStats::compute(&crate::Graph::empty(0));
        assert_eq!(s.n, 0);
        assert_eq!(s.clustering, 0.0);
    }
}
