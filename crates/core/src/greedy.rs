//! Sequential greedy MIS — the correctness oracle.
//!
//! Not a distributed algorithm: scans nodes in a given order and adds every
//! node with no earlier-added neighbor. Used by tests as a known-good MIS
//! construction and by experiments as the "ideal sequential" reference.

use arbmis_graph::{Graph, NodeId};

/// Greedy MIS in id order.
pub fn greedy_mis(g: &Graph) -> Vec<bool> {
    greedy_mis_in_order(g, g.nodes())
}

/// Greedy MIS scanning nodes in the given order (each node id must appear
/// at most once; missing ids are simply never added).
pub fn greedy_mis_in_order<I: IntoIterator<Item = NodeId>>(g: &Graph, order: I) -> Vec<bool> {
    let mut in_set = vec![false; g.n()];
    let mut blocked = vec![false; g.n()];
    for v in order {
        if !blocked[v] && !in_set[v] {
            in_set[v] = true;
            for u in g.neighbors(v) {
                blocked[u] = true;
            }
        }
    }
    in_set
}

/// Greedy MIS restricted to a region: only region nodes may join, and
/// maximality is guaranteed only within the region.
pub fn greedy_mis_of_region(g: &Graph, region: &[bool]) -> Vec<bool> {
    assert_eq!(region.len(), g.n());
    let mut in_set = vec![false; g.n()];
    let mut blocked = vec![false; g.n()];
    for v in g.nodes().filter(|&v| region[v]) {
        if !blocked[v] {
            in_set[v] = true;
            for u in g.neighbors(v) {
                blocked[u] = true;
            }
        }
    }
    in_set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_mis, is_mis_of_region};
    use arbmis_graph::gen;
    use rand::SeedableRng;

    #[test]
    fn greedy_on_path() {
        let g = gen::path(6);
        let set = greedy_mis(&g);
        assert!(check_mis(&g, &set).is_ok());
        assert_eq!(set, vec![true, false, true, false, true, false]);
    }

    #[test]
    fn greedy_is_mis_on_random_graphs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let g = gen::gnp(200, 0.05, &mut rng);
            assert!(check_mis(&g, &greedy_mis(&g)).is_ok());
        }
    }

    #[test]
    fn custom_order_respected() {
        let g = gen::path(3);
        let set = greedy_mis_in_order(&g, [1usize, 0, 2]);
        assert_eq!(set, vec![false, true, false]);
        assert!(check_mis(&g, &set).is_ok());
    }

    #[test]
    fn region_greedy() {
        let g = gen::path(6);
        let region = vec![false, true, true, true, false, false];
        let set = greedy_mis_of_region(&g, &region);
        assert!(is_mis_of_region(&g, &set, &region));
        assert!(set.iter().enumerate().all(|(v, &b)| !b || region[v]));
    }

    #[test]
    fn empty_graph() {
        let g = arbmis_graph::Graph::empty(0);
        assert!(greedy_mis(&g).is_empty());
    }
}
