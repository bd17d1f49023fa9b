//! Geometric and compound topologies.

use crate::graph::{Graph, NodeId};
use crate::GraphBuilder;
use rand::Rng;

/// Random geometric graph: `n` points uniform in the unit square, edges
/// between pairs at Euclidean distance ≤ `radius`. The standard model of
/// wireless/sensor networks — the motivating setting for distributed MIS
/// (MIS = one-hop clustering). Built with a grid index in expected
/// `O(n + m)`.
///
/// # Panics
///
/// Panics if `radius` is not positive and finite.
pub fn random_geometric<R: Rng + ?Sized>(n: usize, radius: f64, rng: &mut R) -> Graph {
    assert!(radius > 0.0 && radius.is_finite(), "bad radius {radius}");
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    // Cells at least `radius` wide put every pair within the radius in
    // neighboring cells; at least 1/√n wide keeps the grid to about n
    // cells, however small the radius.
    let cell = radius.max(1.0 / (n.max(1) as f64).sqrt());
    let cps = (1.0 / cell).ceil().max(1.0) as usize;
    let coord = |t: f64| ((t / cell) as usize).min(cps - 1);
    // A counting-sort CSR over the cells keeps the hot 3×3 scan
    // hash-free, with per-cell buckets in ascending node order.
    let cidx: Vec<usize> = pts
        .iter()
        .map(|&(x, y)| coord(x) * cps + coord(y))
        .collect();
    let mut start = vec![0usize; cps * cps + 1];
    for &c in &cidx {
        start[c + 1] += 1;
    }
    for i in 0..cps * cps {
        start[i + 1] += start[i];
    }
    let mut bucket = vec![0 as NodeId; n];
    let mut cursor = start.clone();
    for (v, &c) in cidx.iter().enumerate() {
        bucket[cursor[c]] = v;
        cursor[c] += 1;
    }
    let r2 = radius * radius;
    let mut b = GraphBuilder::new(n);
    for (v, &(x, y)) in pts.iter().enumerate() {
        let (cx, cy) = (cidx[v] / cps, cidx[v] % cps);
        for nx in cx.saturating_sub(1)..(cx + 2).min(cps) {
            for ny in cy.saturating_sub(1)..(cy + 2).min(cps) {
                let c = nx * cps + ny;
                for &u in &bucket[start[c]..start[c + 1]] {
                    if u > v {
                        let (ux, uy) = pts[u];
                        let (ddx, ddy) = (ux - x, uy - y);
                        if ddx * ddx + ddy * ddy <= r2 {
                            b.add_edge(v, u);
                        }
                    }
                }
            }
        }
    }
    b.build()
}

/// Random series-parallel graph on `n` nodes: starts from a single edge
/// and repeatedly applies random series (subdivide an edge) or parallel
/// (duplicate an edge endpoint via a new two-path) expansions.
/// Treewidth ≤ 2, hence arboricity ≤ 2.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn series_parallel<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    assert!(n >= 2, "series-parallel graphs need n >= 2");
    // Maintain the terminal-pair list of edges; each expansion consumes
    // one edge slot and adds one node.
    let mut edges: Vec<(NodeId, NodeId)> = vec![(0, 1)];
    let mut next = 2usize;
    while next < n {
        let idx = rng.gen_range(0..edges.len());
        let (u, v) = edges[idx];
        let w = next;
        next += 1;
        if rng.gen_bool(0.5) {
            // Series: replace u—v by u—w—v.
            edges.swap_remove(idx);
            edges.push((u, w));
            edges.push((w, v));
        } else {
            // Parallel-ish: add a new path u—w—v alongside the edge.
            edges.push((u, w));
            edges.push((w, v));
        }
    }
    Graph::from_edges(n, &edges)
}

/// Ring of `k`-cliques: `count` cliques of size `k`, consecutive cliques
/// joined by a single bridge edge, closed into a ring. Arboricity
/// ⌈k/2⌉-ish (clique-dominated); a worst-case-ish input for shattering
/// since cliques decide slowly relative to their size.
///
/// # Panics
///
/// Panics if `k < 1` or `count < 1`.
pub fn ring_of_cliques(count: usize, k: usize) -> Graph {
    assert!(k >= 1 && count >= 1);
    let n = count * k;
    let mut b = GraphBuilder::with_capacity(n, count * k * k / 2 + count);
    for c in 0..count {
        let base = c * k;
        for i in 0..k {
            for j in (i + 1)..k {
                b.add_edge(base + i, base + j);
            }
        }
        if count > 1 {
            let next_base = ((c + 1) % count) * k;
            b.try_add_edge(base + k - 1, next_base);
        }
    }
    b.build()
}

/// Holme–Kim power-law cluster graph: Barabási–Albert attachment where
/// each of the `m` links is followed, with probability `p_triangle`, by a
/// triad-closing link to a random neighbor of the just-linked target.
/// Heavy-tailed *and* clustered; degeneracy ≤ 2m.
///
/// # Panics
///
/// Panics if `m == 0`, `n < m + 1`, or `p_triangle ∉ [0,1]`.
pub fn powerlaw_cluster<R: Rng + ?Sized>(
    n: usize,
    m: usize,
    p_triangle: f64,
    rng: &mut R,
) -> Graph {
    assert!(m >= 1, "attachment m must be >= 1");
    assert!(n > m, "need at least m+1 nodes");
    assert!((0.0..=1.0).contains(&p_triangle));
    let mut b = GraphBuilder::with_capacity(n, m * n);
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * m * n);
    let link = |b: &mut GraphBuilder,
                adj: &mut Vec<Vec<NodeId>>,
                endpoints: &mut Vec<NodeId>,
                u: NodeId,
                v: NodeId|
     -> bool {
        if u == v || adj[u].contains(&v) {
            return false;
        }
        b.add_edge(u, v);
        adj[u].push(v);
        adj[v].push(u);
        endpoints.push(u);
        endpoints.push(v);
        true
    };
    for v in 1..=m {
        link(&mut b, &mut adj, &mut endpoints, 0, v);
    }
    for v in (m + 1)..n {
        let mut added = 0usize;
        let mut guard = 0usize;
        while added < m && guard < 50 * m {
            guard += 1;
            let target = endpoints[rng.gen_range(0..endpoints.len())];
            if !link(&mut b, &mut adj, &mut endpoints, v, target) {
                continue;
            }
            added += 1;
            // Triad step.
            if added < m && rng.gen_bool(p_triangle) && !adj[target].is_empty() {
                let w = adj[target][rng.gen_range(0..adj[target].len())];
                if link(&mut b, &mut adj, &mut endpoints, v, w) {
                    added += 1;
                }
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::check_well_formed;
    use crate::{arboricity, stats, traversal};
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn geometric_matches_brute_force() {
        let mut r = rng(1);
        let g = random_geometric(150, 0.15, &mut r);
        assert!(check_well_formed(&g).is_ok());
        // Rebuild brute force with the same RNG stream.
        let mut r2 = rng(1);
        let pts: Vec<(f64, f64)> = (0..150)
            .map(|_| (r2.gen::<f64>(), r2.gen::<f64>()))
            .collect();
        for u in 0..150usize {
            for v in (u + 1)..150 {
                let (dx, dy) = (pts[u].0 - pts[v].0, pts[u].1 - pts[v].1);
                let within = dx * dx + dy * dy <= 0.15f64 * 0.15;
                assert_eq!(g.has_edge(u, v), within, "pair ({u},{v})");
            }
        }
    }

    #[test]
    fn geometric_tiny_radius_takes_sparse_fallback() {
        // Radius 1e-6 would mean 10¹² radius-wide cells; the grid clamps
        // its cells to 1/√n and must still agree with brute force.
        let mut r = rng(7);
        let g = random_geometric(80, 1e-6, &mut r);
        assert!(check_well_formed(&g).is_ok());
        let mut r2 = rng(7);
        let pts: Vec<(f64, f64)> = (0..80)
            .map(|_| (r2.gen::<f64>(), r2.gen::<f64>()))
            .collect();
        for u in 0..80usize {
            for v in (u + 1)..80 {
                let (dx, dy) = (pts[u].0 - pts[v].0, pts[u].1 - pts[v].1);
                assert_eq!(g.has_edge(u, v), dx * dx + dy * dy <= 1e-12, "({u},{v})");
            }
        }
    }

    #[test]
    fn geometric_density_scales_with_radius() {
        let mut r = rng(2);
        let sparse = random_geometric(400, 0.03, &mut r);
        let dense = random_geometric(400, 0.12, &mut r);
        assert!(dense.m() > 4 * sparse.m().max(1));
    }

    #[test]
    fn series_parallel_arboricity_two() {
        for seed in 0..4 {
            let g = series_parallel(300, &mut rng(seed));
            assert!(arboricity::degeneracy(&g) <= 2, "seed {seed}");
            assert!(traversal::is_connected(&g));
            assert!(check_well_formed(&g).is_ok());
        }
    }

    #[test]
    fn series_parallel_minimum() {
        let g = series_parallel(2, &mut rng(0));
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn ring_of_cliques_structure() {
        let g = ring_of_cliques(6, 5);
        assert_eq!(g.n(), 30);
        assert!(traversal::is_connected(&g));
        // Each clique contributes C(5,2) = 10 edges plus 6 bridges.
        assert_eq!(g.m(), 6 * 10 + 6);
        let s = stats::GraphStats::compute(&g);
        assert!(s.triangles >= 6 * 10); // C(5,3) = 10 per clique
    }

    #[test]
    fn ring_of_single_clique() {
        let g = ring_of_cliques(1, 4);
        assert_eq!(g.m(), 6);
    }

    #[test]
    fn powerlaw_cluster_properties() {
        let mut r = rng(5);
        let g = powerlaw_cluster(600, 3, 0.8, &mut r);
        assert!(check_well_formed(&g).is_ok());
        assert!(traversal::is_connected(&g));
        assert!(arboricity::degeneracy(&g) <= 6);
        // The triad step should produce real clustering.
        let s = stats::GraphStats::compute(&g);
        assert!(s.clustering > 0.05, "clustering {}", s.clustering);
        assert!(s.max_degree > 20, "heavy tail expected");
    }

    #[test]
    #[should_panic]
    fn powerlaw_rejects_bad_p() {
        let _ = powerlaw_cluster(10, 2, 1.5, &mut rng(0));
    }
}
