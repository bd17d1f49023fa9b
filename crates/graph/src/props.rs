//! Structural well-formedness checks for [`Graph`] values.
//!
//! These are used by debug assertions inside the crate and by property
//! tests; they re-verify every invariant the CSR representation promises.

use crate::graph::{Graph, NodeId};
use std::fmt;

/// A violation of a [`Graph`] structural invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WellFormedError {
    /// `offsets` is not monotone nondecreasing, or endpoints are wrong.
    BadOffsets,
    /// A neighbor id is out of range.
    NeighborOutOfRange {
        /// Owner of the bad adjacency entry.
        node: NodeId,
        /// The out-of-range id listed.
        neighbor: NodeId,
    },
    /// A node lists itself.
    SelfLoop {
        /// The offending node.
        node: NodeId,
    },
    /// A neighbor list is not strictly sorted (unsorted or duplicate).
    UnsortedAdjacency {
        /// The node whose list is malformed.
        node: NodeId,
    },
    /// Edge `{u, v}` present in one direction only.
    Asymmetric {
        /// Endpoint listing the edge.
        u: NodeId,
        /// Endpoint missing the edge.
        v: NodeId,
    },
}

impl fmt::Display for WellFormedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WellFormedError::BadOffsets => write!(f, "offsets array is malformed"),
            WellFormedError::NeighborOutOfRange { node, neighbor } => {
                write!(f, "node {node} lists out-of-range neighbor {neighbor}")
            }
            WellFormedError::SelfLoop { node } => write!(f, "node {node} lists itself"),
            WellFormedError::UnsortedAdjacency { node } => {
                write!(f, "adjacency of node {node} is not strictly sorted")
            }
            WellFormedError::Asymmetric { u, v } => {
                write!(f, "edge ({u},{v}) present in one direction only")
            }
        }
    }
}

impl std::error::Error for WellFormedError {}

/// Verifies every structural invariant of `g`. `O(n + m log Δ)`.
///
/// # Errors
///
/// Returns the first violation found.
pub fn check_well_formed(g: &Graph) -> Result<(), WellFormedError> {
    let (offsets, adj) = g.as_csr();
    if offsets.is_empty() || offsets[0] != 0 || *offsets.last().unwrap() != adj.len() {
        return Err(WellFormedError::BadOffsets);
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(WellFormedError::BadOffsets);
    }
    let n = g.n();
    for u in 0..n {
        let nbrs = g.neighbors(u);
        if nbrs.as_slice().windows(2).any(|w| w[0] >= w[1]) {
            return Err(WellFormedError::UnsortedAdjacency { node: u });
        }
        for v in nbrs {
            if v >= n {
                return Err(WellFormedError::NeighborOutOfRange {
                    node: u,
                    neighbor: v,
                });
            }
            if v == u {
                return Err(WellFormedError::SelfLoop { node: u });
            }
            if !g.has_edge(v, u) {
                return Err(WellFormedError::Asymmetric { u, v });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn valid_graph_passes() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(check_well_formed(&g).is_ok());
    }

    #[test]
    fn empty_graph_passes() {
        assert!(check_well_formed(&Graph::empty(0)).is_ok());
        assert!(check_well_formed(&Graph::empty(3)).is_ok());
    }

    #[test]
    fn error_display_nonempty() {
        let errs = [
            WellFormedError::BadOffsets,
            WellFormedError::NeighborOutOfRange {
                node: 1,
                neighbor: 9,
            },
            WellFormedError::SelfLoop { node: 2 },
            WellFormedError::UnsortedAdjacency { node: 3 },
            WellFormedError::Asymmetric { u: 0, v: 1 },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
