//! Band-power graphs `G^[a,b]`.
//!
//! The paper's Lemma 3.7 analyzes the "bad" set `B` through the graph
//! `G^[7,13]`, which connects two nodes iff their distance in `G` lies in
//! the band `[7, 13]`. Components of `B` in `G^[7,13]` witness trees that
//! the union bound counts. This module materializes such band graphs (and
//! plain powers `G^[1,b]`) by truncated BFS from every node.

use crate::graph::{Graph, NodeId};
use crate::GraphBuilder;
use std::collections::VecDeque;

/// Builds `G^[lo, hi]`: nodes of `g`, edges between pairs at distance
/// `d ∈ [lo, hi]` in `g`. `O(n · (ball size at radius hi))`.
///
/// # Panics
///
/// Panics if `lo == 0` or `lo > hi`.
///
/// ```
/// let p = arbmis_graph::gen::path(6);
/// let band = arbmis_graph::powerband::power_band(&p, 2, 3);
/// assert!(band.has_edge(0, 2));
/// assert!(band.has_edge(0, 3));
/// assert!(!band.has_edge(0, 1));
/// assert!(!band.has_edge(0, 4));
/// ```
pub fn power_band(g: &Graph, lo: usize, hi: usize) -> Graph {
    assert!(lo >= 1, "lo must be >= 1");
    assert!(lo <= hi, "band [{lo},{hi}] is empty");
    let n = g.n();
    let mut b = GraphBuilder::new(n);
    let mut dist = vec![usize::MAX; n];
    let mut touched: Vec<NodeId> = Vec::new();
    let mut queue = VecDeque::new();
    for src in 0..n {
        dist[src] = 0;
        touched.push(src);
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            if dist[u] == hi {
                continue;
            }
            for v in g.neighbors(u) {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    touched.push(v);
                    queue.push_back(v);
                    if dist[v] >= lo && v > src {
                        b.add_edge(src, v);
                    }
                }
            }
        }
        for &t in &touched {
            dist[t] = usize::MAX;
        }
        touched.clear();
    }
    b.build()
}

/// Band power restricted to a node subset: like [`power_band`] but only
/// BFS-ing from (and connecting) nodes with `included[v] == true`.
/// Distances are still measured in the *full* graph `g`, matching the
/// paper's use (distances between bad nodes are graph distances).
pub fn power_band_of_subset(g: &Graph, lo: usize, hi: usize, included: &[bool]) -> Graph {
    assert!(lo >= 1, "lo must be >= 1");
    assert!(lo <= hi, "band [{lo},{hi}] is empty");
    assert_eq!(included.len(), g.n());
    let n = g.n();
    let mut b = GraphBuilder::new(n);
    let mut dist = vec![usize::MAX; n];
    let mut touched: Vec<NodeId> = Vec::new();
    let mut queue = VecDeque::new();
    for src in 0..n {
        if !included[src] {
            continue;
        }
        dist[src] = 0;
        touched.push(src);
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            if dist[u] == hi {
                continue;
            }
            for v in g.neighbors(u) {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    touched.push(v);
                    queue.push_back(v);
                    if dist[v] >= lo && v > src && included[v] {
                        b.add_edge(src, v);
                    }
                }
            }
        }
        for &t in &touched {
            dist[t] = usize::MAX;
        }
        touched.clear();
    }
    b.build()
}

/// The plain `b`-th power `G^b = G^[1,b]`.
pub fn power(g: &Graph, b: usize) -> Graph {
    power_band(g, 1, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::traversal;

    #[test]
    fn band_on_path_matches_distances() {
        let g = gen::path(10);
        let band = power_band(&g, 3, 5);
        for u in 0..10usize {
            for v in (u + 1)..10 {
                let d = v - u;
                assert_eq!(band.has_edge(u, v), (3..=5).contains(&d), "pair ({u},{v})");
            }
        }
    }

    #[test]
    fn power_one_is_original() {
        let g = gen::cycle(8);
        assert_eq!(power(&g, 1), g);
    }

    #[test]
    fn power_two_of_cycle() {
        let g = gen::cycle(8);
        let g2 = power(&g, 2);
        assert!(g2.has_edge(0, 2));
        assert!(g2.has_edge(0, 1));
        assert!(!g2.has_edge(0, 3));
        assert_eq!(g2.degree(0), 4);
    }

    #[test]
    #[should_panic]
    fn zero_lo_rejected() {
        let _ = power_band(&gen::path(3), 0, 2);
    }

    #[test]
    #[should_panic]
    fn inverted_band_rejected() {
        let _ = power_band(&gen::path(3), 3, 2);
    }

    #[test]
    fn subset_band_uses_full_graph_distances() {
        // Path 0-1-2-3-4; include only endpoints {0, 4}: distance 4.
        let g = gen::path(5);
        let included = vec![true, false, false, false, true];
        let band = power_band_of_subset(&g, 4, 6, &included);
        assert!(band.has_edge(0, 4));
        let band2 = power_band_of_subset(&g, 5, 6, &included);
        assert_eq!(band2.m(), 0);
        // Excluded nodes never get edges.
        assert_eq!(band.degree(2), 0);
    }

    #[test]
    fn lemma_3_7_band_shape() {
        // G^[7,13] of a long path: node i connects to i±7..i±13.
        let g = gen::path(40);
        let band = power_band(&g, 7, 13);
        assert!(band.has_edge(0, 7));
        assert!(band.has_edge(0, 13));
        assert!(!band.has_edge(0, 6));
        assert!(!band.has_edge(0, 14));
        // Interior node degree = 14 (7 each side).
        assert_eq!(band.degree(20), 14);
        assert!(traversal::is_connected(&band));
    }
}
