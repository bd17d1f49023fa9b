//! Breadth-first search, connectivity, and component structure.

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Connected components as a labelling: `labels[v]` is the component index
/// of `v` (component indices are `0..count`, assigned in order of the
/// smallest node id they contain).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Components {
    labels: Vec<usize>,
    count: usize,
}

impl Components {
    /// Component label of node `v`.
    pub fn label(&self, v: NodeId) -> usize {
        self.labels[v]
    }

    /// Number of components.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Size of each component, indexed by label. Nodes excluded from a
    /// subset computation (label `usize::MAX`) are skipped.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &l in &self.labels {
            if l != usize::MAX {
                sizes[l] += 1;
            }
        }
        sizes
    }

    /// The members of each component, indexed by label. Excluded nodes
    /// (label `usize::MAX`) appear in no component.
    pub fn members(&self) -> Vec<Vec<NodeId>> {
        let mut members = vec![Vec::new(); self.count];
        for (v, &l) in self.labels.iter().enumerate() {
            if l != usize::MAX {
                members[l].push(v);
            }
        }
        members
    }

    /// Size of the largest component (0 if the graph is empty).
    pub fn max_size(&self) -> usize {
        self.sizes().into_iter().max().unwrap_or(0)
    }
}

/// Computes connected components via BFS. `O(n + m)`.
pub fn connected_components(g: &Graph) -> Components {
    let n = g.n();
    let mut labels = vec![usize::MAX; n];
    let mut count = 0;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if labels[start] != usize::MAX {
            continue;
        }
        labels[start] = count;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for v in g.neighbors(u) {
                if labels[v] == usize::MAX {
                    labels[v] = count;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    Components { labels, count }
}

/// Connected components of the subgraph induced by `included` (nodes with
/// `included[v] == false` are ignored). Labels for excluded nodes are
/// `usize::MAX`; component indices count only included components.
pub fn components_of_subset(g: &Graph, included: &[bool]) -> Components {
    assert_eq!(included.len(), g.n());
    let n = g.n();
    let mut labels = vec![usize::MAX; n];
    let mut count = 0;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if !included[start] || labels[start] != usize::MAX {
            continue;
        }
        labels[start] = count;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for v in g.neighbors(u) {
                if included[v] && labels[v] == usize::MAX {
                    labels[v] = count;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    Components { labels, count }
}

/// Sizes of the connected components of the subgraph induced by `included`.
pub fn subset_component_sizes(g: &Graph, included: &[bool]) -> Vec<usize> {
    let comps = components_of_subset(g, included);
    let mut sizes = vec![0usize; comps.count()];
    for v in 0..g.n() {
        if included[v] {
            sizes[comps.label(v)] += 1;
        }
    }
    sizes
}

/// `true` iff the graph is connected (vacuously true for `n <= 1`).
pub fn is_connected(g: &Graph) -> bool {
    g.n() <= 1 || connected_components(g).count() == 1
}

/// `true` iff the graph contains no cycle (i.e., is a forest).
pub fn is_forest(g: &Graph) -> bool {
    // A graph is a forest iff m = n - (#components).
    g.m() + connected_components(g).count() == g.n()
}

/// BFS distances from `source`; unreachable nodes get `usize::MAX`.
pub fn bfs_distances(g: &Graph, source: NodeId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.n()];
    let mut queue = VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for v in g.neighbors(u) {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn components_of_disjoint_paths() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let comps = connected_components(&g);
        assert_eq!(comps.count(), 3);
        let mut sizes = comps.sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 3]);
        assert_eq!(comps.max_size(), 3);
        assert_eq!(comps.label(0), comps.label(2));
        assert_ne!(comps.label(0), comps.label(5));
    }

    #[test]
    fn members_partition_nodes() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3)]);
        let comps = connected_components(&g);
        let members = comps.members();
        let total: usize = members.iter().map(Vec::len).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn subset_components() {
        // Path 0-1-2-3-4 with node 2 excluded splits into two pairs.
        let g = gen::path(5);
        let included = vec![true, true, false, true, true];
        let sizes = subset_component_sizes(&g, &included);
        assert_eq!(sizes.len(), 2);
        assert!(sizes.iter().all(|&s| s == 2));
        let comps = components_of_subset(&g, &included);
        assert_eq!(comps.label(2), usize::MAX);
    }

    #[test]
    fn connectivity_checks() {
        assert!(is_connected(&gen::path(10)));
        assert!(!is_connected(&Graph::from_edges(4, &[(0, 1), (2, 3)])));
        assert!(is_connected(&Graph::empty(1)));
        assert!(is_connected(&Graph::empty(0)));
    }

    #[test]
    fn forest_checks() {
        assert!(is_forest(&gen::path(10)));
        assert!(is_forest(&Graph::empty(4)));
        assert!(!is_forest(&gen::cycle(5)));
        assert!(is_forest(&Graph::from_edges(5, &[(0, 1), (2, 3)])));
    }

    #[test]
    fn bfs_on_path() {
        let g = gen::path(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[2], usize::MAX);
    }
}
