//! MIS verification oracles.

use arbmis_graph::{Graph, NodeId};
use std::fmt;

/// Why a claimed MIS is not one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MisError {
    /// Two adjacent nodes are both in the set.
    NotIndependent {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// A node outside the set has no neighbor in the set.
    NotMaximal {
        /// The addable node.
        v: NodeId,
    },
    /// Mask length does not match the graph.
    WrongLength {
        /// Provided mask length.
        got: usize,
        /// Expected `g.n()`.
        expected: usize,
    },
}

impl fmt::Display for MisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MisError::NotIndependent { u, v } => {
                write!(f, "adjacent nodes {u} and {v} are both in the set")
            }
            MisError::NotMaximal { v } => {
                write!(f, "node {v} could be added: no neighbor is in the set")
            }
            MisError::WrongLength { got, expected } => {
                write!(f, "mask length {got} does not match n={expected}")
            }
        }
    }
}

impl std::error::Error for MisError {}

/// `true` iff no two set members are adjacent.
pub fn is_independent(g: &Graph, in_set: &[bool]) -> bool {
    in_set.len() == g.n() && g.edges().all(|(u, v)| !(in_set[u] && in_set[v]))
}

/// `true` iff every non-member has a member neighbor.
pub fn is_maximal(g: &Graph, in_set: &[bool]) -> bool {
    in_set.len() == g.n()
        && g.nodes()
            .all(|v| in_set[v] || g.neighbors(v).iter().any(|u| in_set[u]))
}

/// Full MIS check with a descriptive error.
///
/// # Errors
///
/// Returns the first violation found (independence violations are checked
/// before maximality ones).
pub fn check_mis(g: &Graph, in_set: &[bool]) -> Result<(), MisError> {
    if in_set.len() != g.n() {
        return Err(MisError::WrongLength {
            got: in_set.len(),
            expected: g.n(),
        });
    }
    for (u, v) in g.edges() {
        if in_set[u] && in_set[v] {
            return Err(MisError::NotIndependent { u, v });
        }
    }
    for v in g.nodes() {
        if !in_set[v] && !g.neighbors(v).iter().any(|u| in_set[u]) {
            return Err(MisError::NotMaximal { v });
        }
    }
    Ok(())
}

/// `true` iff `in_set` is a maximal independent set of `g` — the
/// boolean form of [`check_mis`], for property tests and backend
/// oracles that only need pass/fail.
pub fn is_valid_mis(g: &Graph, in_set: &[bool]) -> bool {
    check_mis(g, in_set).is_ok()
}

/// `true` iff `in_set` is an independent set that is maximal *within the
/// induced subgraph* of `region` — used to validate per-phase outputs of
/// the ArbMIS pipeline (a phase must dominate its own region, not the
/// whole graph).
pub fn is_mis_of_region(g: &Graph, in_set: &[bool], region: &[bool]) -> bool {
    if in_set.len() != g.n() || region.len() != g.n() {
        return false;
    }
    // Members must lie in the region and be independent.
    for v in g.nodes() {
        if in_set[v] && !region[v] {
            return false;
        }
    }
    if !is_independent(g, in_set) {
        return false;
    }
    // Every region node must be dominated within the region.
    g.nodes()
        .filter(|&v| region[v])
        .all(|v| in_set[v] || g.neighbors(v).iter().any(|u| region[u] && in_set[u]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbmis_graph::gen;

    #[test]
    fn valid_mis_passes() {
        let g = gen::path(5);
        let set = vec![true, false, true, false, true];
        assert!(is_independent(&g, &set));
        assert!(is_maximal(&g, &set));
        assert!(check_mis(&g, &set).is_ok());
    }

    #[test]
    fn independence_violation_detected() {
        let g = gen::path(3);
        let set = vec![true, true, false];
        assert!(!is_independent(&g, &set));
        assert_eq!(
            check_mis(&g, &set),
            Err(MisError::NotIndependent { u: 0, v: 1 })
        );
    }

    #[test]
    fn maximality_violation_detected() {
        let g = gen::path(5);
        let set = vec![true, false, false, false, true];
        assert!(is_independent(&g, &set));
        assert!(!is_maximal(&g, &set));
        assert_eq!(check_mis(&g, &set), Err(MisError::NotMaximal { v: 2 }));
    }

    #[test]
    fn wrong_length_detected() {
        let g = gen::path(3);
        assert_eq!(
            check_mis(&g, &[true]),
            Err(MisError::WrongLength {
                got: 1,
                expected: 3
            })
        );
        assert!(!is_independent(&g, &[true]));
        assert!(!is_maximal(&g, &[true]));
    }

    #[test]
    fn empty_graph_empty_set_is_mis() {
        let g = arbmis_graph::Graph::empty(0);
        assert!(check_mis(&g, &[]).is_ok());
    }

    #[test]
    fn isolated_nodes_must_join() {
        let g = arbmis_graph::Graph::empty(3);
        assert!(check_mis(&g, &[true, true, true]).is_ok());
        assert_eq!(
            check_mis(&g, &[true, false, true]),
            Err(MisError::NotMaximal { v: 1 })
        );
    }

    #[test]
    fn region_mis_check() {
        let g = gen::path(6);
        // Region = {0,1,2}; set {0, 2} is an MIS of that region even though
        // nodes 3..5 are undominated.
        let region = vec![true, true, true, false, false, false];
        let set = vec![true, false, true, false, false, false];
        assert!(is_mis_of_region(&g, &set, &region));
        assert!(!is_maximal(&g, &set));
        // A member outside the region invalidates.
        let bad = vec![true, false, false, false, false, true];
        assert!(!is_mis_of_region(&g, &bad, &region));
        // Undominated region node invalidates.
        let sparse = vec![true, false, false, false, false, false];
        assert!(!is_mis_of_region(&g, &sparse, &region));
    }

    #[test]
    fn error_display() {
        for e in [
            MisError::NotIndependent { u: 0, v: 1 },
            MisError::NotMaximal { v: 2 },
            MisError::WrongLength {
                got: 1,
                expected: 2,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
