//! Random trees and forests.

use crate::graph::{Graph, NodeId};
use crate::GraphBuilder;
use rand::Rng;

/// Uniformly random labelled tree on `n` nodes via a random Prüfer
/// sequence. Each of the `n^{n-2}` labelled trees is equally likely.
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let g = arbmis_graph::gen::random_tree_prufer(100, &mut rng);
/// assert_eq!(g.m(), 99);
/// assert!(arbmis_graph::traversal::is_forest(&g));
/// ```
pub fn random_tree_prufer<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    if n <= 1 {
        return Graph::empty(n);
    }
    if n == 2 {
        return Graph::from_edges(2, &[(0, 1)]);
    }
    let seq: Vec<NodeId> = (0..n - 2).map(|_| rng.gen_range(0..n)).collect();
    decode_prufer(n, &seq)
}

/// Decodes a Prüfer sequence of length `n - 2` into its tree.
fn decode_prufer(n: usize, seq: &[NodeId]) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n - 1);
    prufer_edges(n, seq, |leaf, x| {
        b.add_edge(leaf, x);
    });
    b.build()
}

/// Emits the tree edges of a Prüfer sequence of length `n - 2`, in
/// decoding order: each step joins the smallest current leaf to the
/// next sequence entry, and the last edge joins the two nodes left.
///
/// O(n) by a pointer scan instead of a heap of leaves: `ptr` only moves
/// up, and a node that becomes a leaf below it is the smallest leaf at
/// once, so it is used at the next step.
fn prufer_edges(n: usize, seq: &[NodeId], mut emit: impl FnMut(NodeId, NodeId)) {
    debug_assert_eq!(seq.len(), n - 2);
    let mut remaining_degree = vec![1u32; n];
    for &x in seq {
        remaining_degree[x] += 1;
    }
    let mut ptr = remaining_degree
        .iter()
        .position(|&d| d == 1)
        .expect("a tree has a leaf");
    let mut leaf = ptr;
    for &x in seq {
        emit(leaf, x);
        remaining_degree[x] -= 1;
        if remaining_degree[x] == 1 && x < ptr {
            leaf = x;
        } else {
            ptr += 1;
            while remaining_degree[ptr] != 1 {
                ptr += 1;
            }
            leaf = ptr;
        }
    }
    // The last two nodes are the smallest leaf and node n - 1, which
    // always survives: some leaf below it is smaller at every step.
    emit(leaf, n - 1);
}

/// Random spanning forest on `n` nodes with roughly `edge_fraction` of the
/// `n - 1` tree edges kept (each kept independently). `edge_fraction` is
/// clamped to `[0, 1]`.
pub fn random_forest<R: Rng + ?Sized>(n: usize, edge_fraction: f64, rng: &mut R) -> Graph {
    let keep = edge_fraction.clamp(0.0, 1.0);
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        if rng.gen_bool(keep) {
            let parent = rng.gen_range(0..i);
            b.add_edge(i, parent);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn prufer_is_tree() {
        for seed in 0..5 {
            let g = random_tree_prufer(50, &mut rng(seed));
            assert_eq!(g.m(), 49);
            assert!(traversal::is_connected(&g));
            assert!(traversal::is_forest(&g));
        }
    }

    #[test]
    fn prufer_small_sizes() {
        assert_eq!(random_tree_prufer(0, &mut rng(0)).n(), 0);
        assert_eq!(random_tree_prufer(1, &mut rng(0)).m(), 0);
        assert_eq!(random_tree_prufer(2, &mut rng(0)).m(), 1);
        let g3 = random_tree_prufer(3, &mut rng(0));
        assert_eq!(g3.m(), 2);
        assert!(traversal::is_forest(&g3));
    }

    #[test]
    fn prufer_decode_known_sequence() {
        // Prüfer sequence [3, 3, 3, 4] on 6 nodes: star-ish tree.
        let g = decode_prufer(6, &[3, 3, 3, 4]);
        assert_eq!(g.degree(3), 4);
        assert_eq!(g.degree(4), 2);
        assert!(traversal::is_forest(&g));
        assert!(traversal::is_connected(&g));
    }

    /// The decoder this one replaced: a min-heap of the current leaves.
    fn heap_prufer_edges(n: usize, seq: &[NodeId]) -> Vec<(NodeId, NodeId)> {
        use std::cmp::Reverse;
        let mut remaining_degree = vec![1usize; n];
        for &x in seq {
            remaining_degree[x] += 1;
        }
        let mut leaves: std::collections::BinaryHeap<Reverse<NodeId>> = (0..n)
            .filter(|&v| remaining_degree[v] == 1)
            .map(Reverse)
            .collect();
        let mut edges = Vec::with_capacity(n - 1);
        for &x in seq {
            let Reverse(leaf) = leaves.pop().expect("prufer decode: no leaf available");
            edges.push((leaf, x));
            remaining_degree[x] -= 1;
            if remaining_degree[x] == 1 {
                leaves.push(Reverse(x));
            }
        }
        let Reverse(u) = leaves.pop().unwrap();
        let Reverse(v) = leaves.pop().unwrap();
        edges.push((u, v));
        edges
    }

    fn linear_prufer_edges(n: usize, seq: &[NodeId]) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::with_capacity(n - 1);
        prufer_edges(n, seq, |u, v| edges.push((u, v)));
        edges
    }

    #[test]
    fn linear_decoder_matches_heap_decoder_on_every_short_sequence() {
        for n in 3..=7 {
            let mut seq = vec![0; n - 2];
            loop {
                assert_eq!(
                    linear_prufer_edges(n, &seq),
                    heap_prufer_edges(n, &seq),
                    "n = {n}, {seq:?}"
                );
                // Next sequence in lexicographic order, base n.
                let Some(i) = seq.iter().rposition(|&x| x + 1 < n) else {
                    break;
                };
                seq[i] += 1;
                seq[i + 1..].fill(0);
            }
        }
    }

    #[test]
    fn linear_decoder_matches_heap_decoder_on_random_sequences() {
        let n = 10_000;
        let mut r = rng(5);
        for _ in 0..20 {
            let seq: Vec<NodeId> = (0..n - 2).map(|_| r.gen_range(0..n)).collect();
            assert_eq!(linear_prufer_edges(n, &seq), heap_prufer_edges(n, &seq));
        }
        // Few distinct entries: long runs of leaves below the pointer.
        let seq: Vec<NodeId> = (0..n - 2).map(|_| r.gen_range(0..8usize)).collect();
        assert_eq!(linear_prufer_edges(n, &seq), heap_prufer_edges(n, &seq));
    }

    #[test]
    fn forest_is_forest() {
        let g = random_forest(300, 0.5, &mut rng(4));
        assert!(traversal::is_forest(&g));
        assert!(g.m() < 299);
        // fraction 1.0 yields a spanning tree
        let full = random_forest(50, 1.0, &mut rng(4));
        assert_eq!(full.m(), 49);
        // fraction 0.0 yields no edges
        assert_eq!(random_forest(50, 0.0, &mut rng(4)).m(), 0);
    }

    #[test]
    fn prufer_distribution_sanity() {
        // Over labelled trees on 3 nodes there are exactly 3 trees, each a
        // path with a distinct center. Check all centers occur.
        let mut seen = [false; 3];
        let mut r = rng(9);
        for _ in 0..200 {
            let g = random_tree_prufer(3, &mut r);
            let center = (0..3).find(|&v| g.degree(v) == 2).unwrap();
            seen[center] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
