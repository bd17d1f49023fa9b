//! Random families with arboricity bounded **by construction** — the
//! paper's input class.
//!
//! Each generator here ships a certificate of low arboricity: a union of α
//! forests has arboricity ≤ α by definition (Nash–Williams); a k-tree is
//! k-degenerate so its arboricity is ≤ k; Apollonian networks are planar
//! 3-trees (arboricity ≤ 3); a Barabási–Albert graph with attachment m is
//! m-degenerate.

use crate::graph::{Graph, NodeId};
use crate::GraphBuilder;
use rand::seq::SliceRandom;
use rand::Rng;

/// Union of `alpha` independent random spanning forests on `n` nodes —
/// arboricity ≤ `alpha` by construction.
///
/// Each forest is an attachment tree with every edge kept with probability
/// 0.95, so forests overlap little and the realized arboricity is usually
/// exactly `alpha` for moderate `n`.
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let g = arbmis_graph::gen::forest_union(500, 3, &mut rng);
/// assert!(arbmis_graph::arboricity::degeneracy(&g) <= 2 * 3 - 1);
/// ```
pub fn forest_union<R: Rng + ?Sized>(n: usize, alpha: usize, rng: &mut R) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, alpha * n);
    for _ in 0..alpha {
        // Random labelling per forest so the union is not parallel edges.
        let mut order: Vec<NodeId> = (0..n).collect();
        order.shuffle(rng);
        for i in 1..n {
            if rng.gen_bool(0.95) {
                let parent = order[rng.gen_range(0..i)];
                b.try_add_edge(order[i], parent);
            }
        }
    }
    b.build()
}

/// Random `k`-tree on `n` nodes: start from a `(k+1)`-clique, then each new
/// node is attached to a uniformly random existing `k`-clique. Treewidth
/// exactly `k` (for `n > k`), degeneracy `k`, arboricity ≤ `k`.
///
/// # Panics
///
/// Panics if `k == 0` or `n < k + 1`.
pub fn random_ktree<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> Graph {
    assert!(k >= 1, "k must be >= 1");
    assert!(n > k, "need at least k+1={} nodes", k + 1);
    let mut b = GraphBuilder::with_capacity(n, k * n);
    // Seed clique on nodes 0..=k.
    for u in 0..=k {
        for v in (u + 1)..=k {
            b.add_edge(u, v);
        }
    }
    // The k-cliques available for attachment, stored flat with stride k,
    // each with its members ascending: the k + 1 faces of the seed clique,
    // then k per attached node, 1 + (n − k)·k cliques in all. Members are
    // stored in 32 bits, as the graph's adjacency (the builder caps n at
    // 2³²).
    let mut cliques: Vec<u32> = Vec::with_capacity(k * (1 + (n - k) * k));
    for omit in 0..=k {
        cliques.extend((0..=k as u32).filter(|&u| u as usize != omit));
    }
    let mut base = vec![0u32; k];
    for v in (k + 1)..n {
        let c = rng.gen_range(0..cliques.len() / k);
        base.copy_from_slice(&cliques[c * k..(c + 1) * k]);
        for &u in &base {
            b.add_edge(v, u as NodeId);
        }
        // New k-cliques: for each u in base, (base \ {u}) ∪ {v}. Every
        // member of base is below v, so appending v keeps them ascending.
        for omit in 0..k {
            cliques.extend_from_slice(&base[..omit]);
            cliques.extend_from_slice(&base[omit + 1..]);
            cliques.push(v as u32);
        }
    }
    // Free the clique buffer before the CSR build allocates its arrays.
    drop(cliques);
    b.build()
}

/// Random Apollonian network on `n` nodes (`n >= 3`): start from a
/// triangle; repeatedly pick a random face and insert a node connected to
/// its three corners. Planar, 3-degenerate, arboricity ≤ 3.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn apollonian<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    assert!(n >= 3, "apollonian networks need n >= 3");
    let mut b = GraphBuilder::with_capacity(n, 3 * n);
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(0, 2);
    let mut faces: Vec<[NodeId; 3]> = vec![[0, 1, 2]];
    for v in 3..n {
        let idx = rng.gen_range(0..faces.len());
        let [a, bb, c] = faces.swap_remove(idx);
        b.add_edge(v, a);
        b.add_edge(v, bb);
        b.add_edge(v, c);
        faces.push([a, bb, v]);
        faces.push([a, c, v]);
        faces.push([bb, c, v]);
    }
    b.build()
}

/// Barabási–Albert preferential attachment: each new node attaches to
/// `m` distinct existing nodes chosen with probability proportional to
/// degree. Degeneracy ≤ `m`, hence arboricity ≤ `m`; degree distribution is
/// heavy-tailed (large Δ), exercising the paper's high-degree cutoff ρ_k.
///
/// # Panics
///
/// Panics if `m == 0` or `n < m + 1`.
pub fn barabasi_albert<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Graph {
    assert!(m >= 1, "attachment m must be >= 1");
    assert!(n > m, "need at least m+1={} nodes", m + 1);
    let mut b = GraphBuilder::with_capacity(n, m * n);
    // Repeated-endpoint list: sampling uniformly from it is
    // degree-proportional sampling.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * m * n);
    // Seed: star on 0..=m (gives every seed node nonzero degree).
    for v in 1..=m {
        b.add_edge(0, v);
        endpoints.push(0);
        endpoints.push(v);
    }
    for v in (m + 1)..n {
        // Dedup with an order-preserving Vec, not a HashSet: iterating a
        // HashSet feeds hash order back into `endpoints`, making the graph
        // differ across processes (std's hasher is randomly seeded).
        let mut targets: Vec<NodeId> = Vec::with_capacity(m);
        while targets.len() < m {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            b.add_edge(v, t);
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arboricity;
    use crate::props::check_well_formed;
    use crate::traversal;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn forest_union_degeneracy_bound() {
        for alpha in 1..=4 {
            let g = forest_union(400, alpha, &mut rng(alpha as u64));
            let d = arboricity::degeneracy(&g);
            assert!(d < 2 * alpha, "degeneracy {d} exceeds 2α-1 for α={alpha}");
            assert!(g.m() <= alpha * 399);
        }
    }

    #[test]
    fn forest_union_alpha_one_is_forest() {
        let g = forest_union(300, 1, &mut rng(7));
        assert!(traversal::is_forest(&g));
    }

    #[test]
    fn ktree_structure() {
        for k in 1..=4 {
            let g = random_ktree(200, k, &mut rng(k as u64));
            assert_eq!(g.m(), k * (k + 1) / 2 + (200 - k - 1) * k);
            assert_eq!(arboricity::degeneracy(&g), k);
            assert!(traversal::is_connected(&g));
        }
    }

    #[test]
    #[should_panic]
    fn ktree_rejects_small_n() {
        let _ = random_ktree(2, 3, &mut rng(0));
    }

    #[test]
    fn apollonian_structure() {
        let g = apollonian(300, &mut rng(2));
        // Apollonian networks are maximal planar: m = 3n - 6.
        assert_eq!(g.m(), 3 * 300 - 6);
        assert_eq!(arboricity::degeneracy(&g), 3);
        assert!(traversal::is_connected(&g));
        assert!(check_well_formed(&g).is_ok());
    }

    #[test]
    fn apollonian_min_size() {
        let g = apollonian(3, &mut rng(0));
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn ba_structure() {
        let g = barabasi_albert(500, 3, &mut rng(4));
        assert!(arboricity::degeneracy(&g) <= 3);
        assert!(traversal::is_connected(&g));
        // Heavy tail: max degree well above attachment parameter.
        assert!(g.max_degree() > 10);
    }

    #[test]
    fn ba_exact_edge_count() {
        let (n, m) = (100, 2);
        let g = barabasi_albert(n, m, &mut rng(5));
        assert_eq!(g.m(), m + (n - m - 1) * m);
    }
}
