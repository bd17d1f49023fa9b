//! k-core decomposition.
//!
//! The *coreness* of a node is the largest `k` such that the node survives
//! in the `k`-core (the maximal subgraph of minimum degree ≥ `k`).
//! Coreness refines the degeneracy (`max coreness = degeneracy`) and the
//! suffixes of the smallest-last ordering are exactly the cores — the
//! experiment harness uses core profiles to characterize workloads, and
//! the arboricity lower bound maximizes Nash–Williams density over cores.
//!
//! [`coreness`] is the one peeling routine behind both
//! [`core_decomposition`] and [`crate::arboricity::degeneracy`]: a single
//! Batagelj–Zaveršnik pass over flat `u32` arrays.

use crate::graph::{Graph, NodeId};

/// The core decomposition of a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoreDecomposition {
    /// `coreness[v]` = largest k with `v` in the k-core.
    pub coreness: Vec<usize>,
    /// The degeneracy (= max coreness, 0 for empty graphs).
    pub degeneracy: usize,
}

impl CoreDecomposition {
    /// Nodes of the `k`-core.
    pub fn core(&self, k: usize) -> Vec<NodeId> {
        (0..self.coreness.len())
            .filter(|&v| self.coreness[v] >= k)
            .collect()
    }

    /// Membership mask of the `k`-core.
    pub fn core_mask(&self, k: usize) -> Vec<bool> {
        self.coreness.iter().map(|&c| c >= k).collect()
    }

    /// `sizes[k]` = number of nodes with coreness ≥ k, for k in
    /// `0..=degeneracy`.
    pub fn core_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.degeneracy + 1];
        for &c in &self.coreness {
            for s in sizes.iter_mut().take(c + 1) {
                *s += 1;
            }
        }
        sizes
    }
}

/// Coreness of every node, by one Batagelj–Zaveršnik peel in `O(n + m)`.
///
/// `vert` lists the nodes sorted by current degree, `bin[d]` is where the
/// block of degree-`d` nodes starts in it, and `pos[v]` is `v`'s index.
/// Visiting `vert` in order removes a minimum-degree node at each step.
/// Each not-yet-removed neighbour `u` of larger degree is swapped to the
/// front of its block, and the block start moves past it: `u`'s degree
/// drops by one and `vert` stays sorted. A node's degree when it is
/// visited is its coreness.
///
/// # Panics
///
/// Panics if `g` has more than `u32::MAX` nodes.
///
/// ```
/// use arbmis_graph::{cores, gen};
/// assert_eq!(cores::coreness(&gen::cycle(6)), vec![2; 6]);
/// ```
pub fn coreness(g: &Graph) -> Vec<u32> {
    let n = g.n();
    assert!(u32::try_from(n).is_ok(), "{n} nodes exceed the u32 peel");
    let mut deg: Vec<u32> = g.nodes().map(|v| g.degree(v) as u32).collect();
    let max_deg = deg.iter().copied().max().unwrap_or(0) as usize;
    let mut bin = vec![0u32; max_deg + 1];
    for &d in &deg {
        bin[d as usize] += 1;
    }
    let mut start = 0;
    for b in &mut bin {
        let count = *b;
        *b = start;
        start += count;
    }
    let mut pos = vec![0u32; n];
    let mut vert = vec![0u32; n];
    for (v, &d) in deg.iter().enumerate() {
        let slot = &mut bin[d as usize];
        pos[v] = *slot;
        vert[*slot as usize] = v as u32;
        *slot += 1;
    }
    // Placing the nodes advanced every block start to the next block's.
    bin.copy_within(..max_deg, 1);
    bin[0] = 0;
    for i in 0..n {
        let v = vert[i] as usize;
        let dv = deg[v];
        for u in g.neighbors(v) {
            let du = deg[u];
            if du > dv {
                let (pu, pw) = (pos[u], bin[du as usize]);
                let w = vert[pw as usize];
                vert[pu as usize] = w;
                pos[w as usize] = pu;
                vert[pw as usize] = u as u32;
                pos[u] = pw;
                bin[du as usize] += 1;
                deg[u] = du - 1;
            }
        }
    }
    deg
}

/// The core decomposition of `g`, from one [`coreness`] peel.
///
/// ```
/// use arbmis_graph::{cores, gen};
/// let g = gen::complete(5);
/// let cd = cores::core_decomposition(&g);
/// assert!(cd.coreness.iter().all(|&c| c == 4));
/// ```
pub fn core_decomposition(g: &Graph) -> CoreDecomposition {
    let cores: Vec<usize> = coreness(g).into_iter().map(|c| c as usize).collect();
    CoreDecomposition {
        degeneracy: cores.iter().copied().max().unwrap_or(0),
        coreness: cores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::SeedableRng;

    #[test]
    fn path_coreness_is_one() {
        let cd = core_decomposition(&gen::path(10));
        assert!(cd.coreness.iter().all(|&c| c == 1));
        assert_eq!(cd.degeneracy, 1);
    }

    #[test]
    fn cycle_coreness_is_two() {
        let cd = core_decomposition(&gen::cycle(8));
        assert!(cd.coreness.iter().all(|&c| c == 2));
    }

    #[test]
    fn pendant_on_clique() {
        // K4 with a pendant node: clique nodes coreness 3, pendant 1.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]);
        let cd = core_decomposition(&g);
        assert_eq!(cd.coreness[4], 1);
        assert!((0..4).all(|v| cd.coreness[v] == 3));
        assert_eq!(cd.core(3).len(), 4);
        assert_eq!(cd.core(1).len(), 5);
        assert_eq!(cd.core_mask(3), vec![true, true, true, true, false]);
    }

    #[test]
    fn coreness_max_equals_degeneracy() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let g = gen::gnp(300, 0.05, &mut rng);
        let cd = core_decomposition(&g);
        assert_eq!(
            cd.coreness.iter().copied().max().unwrap_or(0),
            cd.degeneracy
        );
        // The smallest-last ordering peels separately and must agree.
        let ord = crate::orientation::degeneracy_ordering(&g);
        assert_eq!(cd.degeneracy, ord.degeneracy);
    }

    #[test]
    fn core_property_minimum_degree() {
        // Every node of the k-core has ≥ k neighbors inside the k-core.
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let g = gen::gnp(200, 0.06, &mut rng);
        let cd = core_decomposition(&g);
        for k in 1..=cd.degeneracy {
            let mask = cd.core_mask(k);
            for v in 0..g.n() {
                if mask[v] {
                    let inside = g.neighbors(v).iter().filter(|&u| mask[u]).count();
                    assert!(inside >= k, "node {v} has only {inside} in {k}-core");
                }
            }
        }
    }

    #[test]
    fn core_sizes_monotone() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let g = gen::random_ktree(150, 3, &mut rng);
        let cd = core_decomposition(&g);
        let sizes = cd.core_sizes();
        assert_eq!(sizes[0], 150);
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn empty_graph() {
        let cd = core_decomposition(&Graph::empty(0));
        assert_eq!(cd.degeneracy, 0);
        assert!(cd.core_sizes() == vec![0]);
    }

    use crate::graph::Graph;
}
