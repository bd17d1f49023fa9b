//! Arboricity and degeneracy estimates.
//!
//! By Nash–Williams, the arboricity of `G` is
//! `α(G) = max_H ⌈m_H / (n_H − 1)⌉` over subgraphs `H` with ≥ 2 nodes.
//! Computing it exactly needs matroid machinery; for the experiments we
//! need only *certified bounds*, which are cheap:
//!
//! * **Lower bound:** the density of the whole graph and of each k-core is
//!   a valid Nash–Williams witness; also `α ≥ ⌈(degeneracy + 1) / 2⌉`
//!   because a graph of arboricity α is (2α − 1)-degenerate.
//! * **Upper bound:** `α ≤ degeneracy`, because a d-degenerate graph's
//!   acyclic orientation with out-degree ≤ d splits the edges into d
//!   forests (see [`crate::forest`]).

use crate::cores::coreness;
use crate::graph::Graph;
use crate::orientation::degeneracy_ordering;

/// The degeneracy of `g`: the smallest `d` such that every subgraph has a
/// node of degree ≤ `d`, read as the maximum [`coreness`]. `O(n + m)`.
///
/// ```
/// let g = arbmis_graph::gen::cycle(8);
/// assert_eq!(arbmis_graph::arboricity::degeneracy(&g), 2);
/// ```
pub fn degeneracy(g: &Graph) -> usize {
    coreness(g).into_iter().max().unwrap_or(0) as usize
}

/// Certified lower and upper bounds on the arboricity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArboricityBounds {
    /// A value `≤ α(G)`.
    pub lower: usize,
    /// A value `≥ α(G)` (the degeneracy).
    pub upper: usize,
}

impl ArboricityBounds {
    /// `true` when the bounds meet, pinning the arboricity exactly.
    pub fn is_exact(&self) -> bool {
        self.lower == self.upper
    }
}

/// Computes [`ArboricityBounds`] for `g`.
///
/// The lower bound maximizes the Nash–Williams density over the whole
/// graph and every core prefix of the degeneracy ordering; it also folds in
/// `⌈(degeneracy + 1) / 2⌉`.
pub fn arboricity_bounds(g: &Graph) -> ArboricityBounds {
    let ord = degeneracy_ordering(g);
    let upper = ord.degeneracy;
    if g.n() < 2 || g.m() == 0 {
        return ArboricityBounds {
            lower: usize::from(g.m() > 0),
            upper,
        };
    }
    // Density over suffixes of the degeneracy ordering (the "cores"):
    // scanning the ordering backwards, the suffix starting at position i is
    // the subgraph remaining when node order[i] was deleted. Count edges
    // internal to each suffix incrementally.
    let n = g.n();
    let mut lower = 1usize;
    let mut in_suffix = vec![false; n];
    let mut nodes = 0usize;
    let mut edges = 0usize;
    for i in (0..n).rev() {
        let v = ord.order[i];
        edges += g.neighbors(v).iter().filter(|&u| in_suffix[u]).count();
        in_suffix[v] = true;
        nodes += 1;
        if nodes >= 2 {
            let dens = edges.div_ceil(nodes - 1);
            lower = lower.max(dens);
        }
    }
    lower = lower.max((ord.degeneracy + 1).div_ceil(2));
    ArboricityBounds {
        lower,
        upper: upper.max(lower),
    }
}

/// Convenience: the Nash–Williams density `⌈m / (n − 1)⌉` of the whole
/// graph (0 when `n < 2`).
pub fn density_lower_bound(g: &Graph) -> usize {
    if g.n() < 2 {
        0
    } else {
        g.m().div_ceil(g.n() - 1)
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
    fn tree_arboricity_exact_one() {
        let g = gen::random_tree_prufer(200, &mut rng(1));
        let b = arboricity_bounds(&g);
        assert_eq!(b.lower, 1);
        assert_eq!(b.upper, 1);
        assert!(b.is_exact());
    }

    #[test]
    fn cycle_arboricity_exact_two() {
        // A cycle has arboricity 2 (one forest can't hold all n edges).
        let b = arboricity_bounds(&gen::cycle(10));
        assert_eq!(b.lower, 2);
        assert_eq!(b.upper, 2);
    }

    #[test]
    fn complete_graph_bounds() {
        // α(K_n) = ⌈n/2⌉; degeneracy = n−1.
        let b = arboricity_bounds(&gen::complete(8));
        assert_eq!(b.lower, 4); // 28 edges / 7 = 4
        assert_eq!(b.upper, 7);
        assert!(!b.is_exact());
    }

    #[test]
    fn ktree_bounds_sandwich() {
        for k in 2..=4 {
            let g = gen::random_ktree(150, k, &mut rng(k as u64));
            let b = arboricity_bounds(&g);
            assert!(b.lower >= k.div_ceil(2));
            assert_eq!(b.upper, k);
            assert!(b.lower <= b.upper);
        }
    }

    #[test]
    fn apollonian_bounds() {
        let g = gen::apollonian(200, &mut rng(3));
        let b = arboricity_bounds(&g);
        // maximal planar: m = 3n−6, density ⌈(3n−6)/(n−1)⌉ = 3 for n ≥ 4.
        assert_eq!(b.lower, 3);
        assert_eq!(b.upper, 3);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(degeneracy(&Graph::empty(0)), 0);
        let b = arboricity_bounds(&Graph::empty(5));
        assert_eq!(b.lower, 0);
        assert_eq!(b.upper, 0);
        let single_edge = Graph::from_edges(2, &[(0, 1)]);
        let b = arboricity_bounds(&single_edge);
        assert_eq!((b.lower, b.upper), (1, 1));
    }

    #[test]
    fn density_helper() {
        assert_eq!(density_lower_bound(&gen::complete(5)), 3); // 10/4 -> 3
        assert_eq!(density_lower_bound(&Graph::empty(1)), 0);
    }

    use crate::graph::Graph;
}
