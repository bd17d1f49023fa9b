//! Deterministic graph topologies.

use crate::graph::Graph;
use crate::GraphBuilder;

/// Path graph `P_n`: nodes `0..n` with edges `i — i+1`.
///
/// ```
/// let g = arbmis_graph::gen::path(5);
/// assert_eq!(g.m(), 4);
/// assert_eq!(g.degree(0), 1);
/// assert_eq!(g.degree(2), 2);
/// ```
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        b.add_edge(i - 1, i);
    }
    b.build()
}

/// Cycle graph `C_n` (requires `n >= 3`; smaller `n` degrades to a path).
pub fn cycle(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n);
    for i in 1..n {
        b.add_edge(i - 1, i);
    }
    if n >= 3 {
        b.add_edge(n - 1, 0);
    }
    b.build()
}

/// Star graph `K_{1,n-1}`: node 0 is the hub.
pub fn star(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        b.add_edge(0, i);
    }
    b.build()
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n * n.saturating_sub(1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Complete bipartite graph `K_{a,b}`; the first `a` ids form one side.
pub fn complete_bipartite(a: usize, b_size: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(a + b_size, a * b_size);
    for u in 0..a {
        for v in 0..b_size {
            b.add_edge(u, a + v);
        }
    }
    b.build()
}

/// `rows × cols` grid graph. Planar; arboricity ≤ 2.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let n = rows * cols;
    let id = |r: usize, c: usize| r * cols + c;
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c));
            }
        }
    }
    b.build()
}

/// `d`-dimensional hypercube `Q_d` on `2^d` nodes.
pub fn hypercube(d: u32) -> Graph {
    let n = 1usize << d;
    let mut b = GraphBuilder::with_capacity(n, n * d as usize / 2);
    for u in 0..n {
        for bit in 0..d {
            let v = u ^ (1usize << bit);
            if u < v {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

/// Complete binary tree on `n` nodes: node `i` has children `2i+1`, `2i+2`.
pub fn binary_tree(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        b.add_edge(i, (i - 1) / 2);
    }
    b.build()
}

/// Caterpillar: a spine path of `spine` nodes, each with `legs` pendant
/// leaves. A tree with large independent sets inside neighborhoods — the
/// structure the paper highlights as hard for pre-shattering algorithms.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    let n = spine + spine * legs;
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 1..spine {
        b.add_edge(i - 1, i);
    }
    let mut next = spine;
    for s in 0..spine {
        for _ in 0..legs {
            b.add_edge(s, next);
            next += 1;
        }
    }
    b.build()
}

/// Broom: a path of `handle` nodes ending in a star of `bristles` leaves.
pub fn broom(handle: usize, bristles: usize) -> Graph {
    let n = handle + bristles;
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 1..handle {
        b.add_edge(i - 1, i);
    }
    if handle > 0 {
        for j in 0..bristles {
            b.add_edge(handle - 1, handle + j);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::check_well_formed;
    use crate::traversal;

    #[test]
    fn path_structure() {
        let g = path(6);
        assert_eq!(g.n(), 6);
        assert_eq!(g.m(), 5);
        assert!(traversal::is_connected(&g));
        assert!(traversal::is_forest(&g));
    }

    #[test]
    fn cycle_structure() {
        let g = cycle(6);
        assert_eq!(g.m(), 6);
        assert!((0..6).all(|v| g.degree(v) == 2));
        assert!(!traversal::is_forest(&g));
        // degenerate sizes
        assert_eq!(cycle(2).m(), 1);
        assert_eq!(cycle(1).m(), 0);
    }

    #[test]
    fn star_structure() {
        let g = star(7);
        assert_eq!(g.degree(0), 6);
        assert!((1..7).all(|v| g.degree(v) == 1));
    }

    #[test]
    fn complete_structure() {
        let g = complete(5);
        assert_eq!(g.m(), 10);
        assert!((0..5).all(|v| g.degree(v) == 4));
    }

    #[test]
    fn complete_bipartite_structure() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.n(), 7);
        assert_eq!(g.m(), 12);
        assert!((0..3).all(|v| g.degree(v) == 4));
        assert!((3..7).all(|v| g.degree(v) == 3));
    }

    #[test]
    fn grid_structure() {
        let g = grid(4, 5);
        assert_eq!(g.n(), 20);
        assert_eq!(g.m(), 4 * 4 + 5 * 3); // (cols-1)*rows + (rows-1)*cols
        assert!(traversal::is_connected(&g));
        assert!(check_well_formed(&g).is_ok());
    }

    #[test]
    fn hypercube_structure() {
        let g = hypercube(4);
        assert_eq!(g.n(), 16);
        assert!((0..16).all(|v| g.degree(v) == 4));
        assert!(traversal::is_connected(&g));
    }

    #[test]
    fn binary_tree_structure() {
        let g = binary_tree(15);
        assert_eq!(g.m(), 14);
        assert!(traversal::is_forest(&g));
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn caterpillar_structure() {
        let g = caterpillar(5, 3);
        assert_eq!(g.n(), 20);
        assert!(traversal::is_forest(&g));
        assert!(traversal::is_connected(&g));
        assert_eq!(g.degree(2), 2 + 3); // interior spine node
    }

    #[test]
    fn broom_structure() {
        let g = broom(4, 6);
        assert_eq!(g.n(), 10);
        assert!(traversal::is_forest(&g));
        assert_eq!(g.degree(3), 1 + 6);
    }
}
