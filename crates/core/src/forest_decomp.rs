//! Barenboim–Elkin H-partition and forest decomposition (PODC 2008).
//!
//! An arboricity-α graph always has a node of degree < 2α in every
//! subgraph, so repeatedly peeling all nodes of degree ≤ ⌈(2+ε)α⌉ empties
//! the graph in `O(log n / ε)` phases (each phase removes a constant
//! fraction). The phase index is a node's **H-partition level**; orienting
//! each edge toward the higher level (ties: higher id) gives an acyclic
//! orientation with out-degree ≤ ⌈(2+ε)α⌉, whose out-edge index splits the
//! edges into that many rooted forests. The paper's Lemma 3.8 runs this on
//! each small bad-set component before Cole–Vishkin.

use arbmis_graph::forest::{forests_from_orientation, RootedForest};
use arbmis_graph::orientation::Orientation;
use arbmis_graph::Graph;
use std::fmt;

/// Failure of the H-partition: the supplied arboricity bound was wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArboricityTooSmall {
    /// The degree threshold that failed to peel anything.
    pub threshold: usize,
    /// How many nodes remained unpeelable.
    pub stuck: usize,
}

impl fmt::Display for ArboricityTooSmall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "H-partition stuck: {} nodes all have degree > {}; the arboricity bound is too small",
            self.stuck, self.threshold
        )
    }
}

impl std::error::Error for ArboricityTooSmall {}

/// An H-partition of a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HPartition {
    /// `level[v]` = peeling phase in which `v` was removed (0-based).
    pub level: Vec<u32>,
    /// Number of phases used.
    pub num_levels: u32,
    /// Degree threshold `⌈(2+ε)·α⌉` used for peeling.
    pub threshold: usize,
    /// CONGEST rounds: one per phase (degree check + announcement).
    pub rounds: u64,
}

/// Computes the H-partition with slack `eps` (the paper's ε; 1.0 gives
/// the classic 3α threshold).
///
/// # Errors
///
/// Returns [`ArboricityTooSmall`] if peeling gets stuck, which certifies
/// that `alpha` underestimates the true arboricity.
///
/// # Panics
///
/// Panics if `alpha == 0` or `eps <= 0`.
pub fn h_partition(g: &Graph, alpha: usize, eps: f64) -> Result<HPartition, ArboricityTooSmall> {
    assert!(alpha >= 1, "alpha must be >= 1");
    assert!(eps > 0.0, "eps must be positive");
    let threshold = ((2.0 + eps) * alpha as f64).ceil() as usize;
    let n = g.n();
    // Level queue: `degree` counts unpeeled neighbors, and a node joins
    // the next level's queue the moment its count falls to `threshold`,
    // so each edge is read O(1) times over the whole peeling.
    let mut degree: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let mut peeled = vec![false; n];
    let mut level = vec![0u32; n];
    let mut peel: Vec<usize> = (0..n).filter(|&v| degree[v] <= threshold).collect();
    let mut next = Vec::new();
    let mut remaining = n;
    let mut phase = 0u32;
    while remaining > 0 {
        if peel.is_empty() {
            return Err(ArboricityTooSmall {
                threshold,
                stuck: remaining,
            });
        }
        // The whole level leaves at once: mark it before any count falls.
        for &v in &peel {
            level[v] = phase;
            peeled[v] = true;
        }
        remaining -= peel.len();
        for &v in &peel {
            for u in g.neighbors(v) {
                if !peeled[u] {
                    degree[u] -= 1;
                    if degree[u] == threshold {
                        next.push(u);
                    }
                }
            }
        }
        std::mem::swap(&mut peel, &mut next);
        next.clear();
        phase += 1;
    }
    Ok(HPartition {
        level,
        num_levels: phase,
        threshold,
        rounds: u64::from(phase),
    })
}

impl HPartition {
    /// The acyclic orientation induced by the partition: edges point to
    /// the higher `(level, id)` endpoint. Out-degree ≤ `threshold`.
    pub fn orientation(&self, g: &Graph) -> Orientation {
        assert_eq!(self.level.len(), g.n());
        let n = g.n();
        // Rank nodes by (level, id): position = level * n + id is a strict
        // total order consistent with the peeling.
        let position: Vec<usize> = (0..n).map(|v| self.level[v] as usize * n + v).collect();
        Orientation::from_position(g, &position)
    }
}

/// Full Barenboim–Elkin pipeline: H-partition → orientation → rooted
/// forests. Returns the forests and the rounds spent.
///
/// # Errors
///
/// Propagates [`ArboricityTooSmall`] from [`h_partition`].
///
/// ```
/// use arbmis_graph::gen;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// let g = gen::apollonian(200, &mut rng);
/// let (forests, _rounds) = arbmis_core::forest_decomp::forest_decomposition(&g, 3, 1.0).unwrap();
/// assert!(forests.len() <= 9); // ≤ (2+ε)α = 9
/// ```
pub fn forest_decomposition(
    g: &Graph,
    alpha: usize,
    eps: f64,
) -> Result<(Vec<RootedForest>, u64), ArboricityTooSmall> {
    let hp = h_partition(g, alpha, eps)?;
    let o = hp.orientation(g);
    Ok((forests_from_orientation(g, &o), hp.rounds))
}

/// The H-partition as a CONGEST protocol: one round per peeling phase.
/// Nodes with (current) active degree ≤ `threshold` announce their
/// removal; receivers drop them before the next phase. Matches
/// [`h_partition`] level-for-level (asserted by tests).
///
/// If the threshold is below what the graph's arboricity requires, no
/// progress is made and the simulator reports
/// [`arbmis_congest::SimulatorError::RoundLimitExceeded`] — the
/// distributed signature of [`ArboricityTooSmall`].
#[derive(Clone, Copy, Debug)]
pub struct HPartitionProtocol {
    /// Peeling degree threshold `⌈(2+ε)α⌉`.
    pub threshold: usize,
}

/// Per-node state of [`HPartitionProtocol`].
#[derive(Clone, Debug)]
pub struct HPartitionState {
    /// Assigned level (peeling phase), once peeled.
    pub level: Option<u32>,
    /// Neighbors not yet peeled.
    active_degree: usize,
    done: bool,
}

impl arbmis_congest::Protocol for HPartitionProtocol {
    type State = HPartitionState;
    type Msg = bool;

    fn init(&self, node: &arbmis_congest::NodeInfo) -> HPartitionState {
        HPartitionState {
            level: None,
            active_degree: node.degree(),
            done: false,
        }
    }

    fn round(
        &self,
        st: &mut HPartitionState,
        node: &arbmis_congest::NodeInfo,
        inbox: &arbmis_congest::Inbox<bool>,
    ) -> arbmis_congest::Outgoing<bool> {
        if st.done {
            return arbmis_congest::Outgoing::Halt;
        }
        st.active_degree -= inbox.iter().filter(|&(_, &peeled)| peeled).count();
        if st.level.is_some() {
            // Announced last round; finished now.
            st.done = true;
            return arbmis_congest::Outgoing::Halt;
        }
        if st.active_degree <= self.threshold {
            st.level = Some(node.round as u32);
            arbmis_congest::Outgoing::Broadcast(true)
        } else {
            arbmis_congest::Outgoing::Silent
        }
    }

    fn is_done(&self, st: &HPartitionState) -> bool {
        st.done
    }

    /// Above-threshold unpeeled nodes are inert on an empty inbox at any
    /// round — only a neighbor's peel announcement changes their degree —
    /// and `done` nodes' next activation is `Halt` with `is_done` already
    /// true. Peeling therefore costs the engines O(#peeled + messages)
    /// per round, not O(n). (Announced-but-unfinished nodes are *not*
    /// quiescent: their next activation flips `done`.)
    fn is_quiescent(&self, st: &HPartitionState) -> bool {
        st.done || (st.level.is_none() && st.active_degree > self.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbmis_graph::{gen, traversal};
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn partition_covers_all_nodes_logarithmically() {
        let mut r = rng(1);
        let g = gen::random_ktree(1000, 3, &mut r);
        let hp = h_partition(&g, 3, 1.0).unwrap();
        assert_eq!(hp.level.len(), 1000);
        assert!(hp.num_levels >= 1);
        assert!(
            hp.num_levels <= 30,
            "levels {} should be O(log n)",
            hp.num_levels
        );
        assert_eq!(hp.threshold, 9);
    }

    #[test]
    fn orientation_out_degree_bounded_by_threshold() {
        let mut r = rng(2);
        let g = gen::apollonian(400, &mut r);
        let hp = h_partition(&g, 3, 1.0).unwrap();
        let o = hp.orientation(&g);
        assert!(o.max_out_degree() <= hp.threshold);
        assert!(o.covers(&g));
        assert!(o.is_acyclic());
    }

    #[test]
    fn forests_cover_edges_and_are_acyclic() {
        let mut r = rng(3);
        let g = gen::forest_union(500, 2, &mut r);
        let (forests, rounds) = forest_decomposition(&g, 2, 1.0).unwrap();
        assert!(forests.len() <= 6);
        assert!(rounds >= 1);
        let total: usize = forests.iter().map(|f| f.edge_count()).sum();
        assert_eq!(total, g.m());
        for f in &forests {
            assert!(f.is_acyclic());
            assert!(traversal::is_forest(&f.to_graph()));
        }
    }

    #[test]
    fn wrong_alpha_detected() {
        // K10 has arboricity 5; claiming α = 1 (threshold 3) must fail.
        let g = gen::complete(10);
        let err = h_partition(&g, 1, 1.0).unwrap_err();
        assert_eq!(err.threshold, 3);
        assert_eq!(err.stuck, 10);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn tree_partitions_in_one_or_two_levels() {
        let mut r = rng(4);
        let g = gen::random_tree_prufer(500, &mut r);
        let hp = h_partition(&g, 1, 1.0).unwrap();
        // Threshold 3 peels almost everything immediately on a tree.
        assert!(hp.num_levels <= 6, "levels {}", hp.num_levels);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(0);
        let hp = h_partition(&g, 1, 1.0).unwrap();
        assert_eq!(hp.num_levels, 0);
        let (forests, _) = forest_decomposition(&g, 1, 1.0).unwrap();
        assert!(forests.is_empty());
    }

    #[test]
    fn protocol_matches_centralized_levels() {
        let mut r = rng(6);
        for g in [
            gen::random_ktree(200, 3, &mut r),
            gen::apollonian(150, &mut r),
            gen::forest_union(250, 2, &mut r),
        ] {
            let hp = h_partition(&g, 3, 1.0).unwrap();
            let proto = HPartitionProtocol {
                threshold: hp.threshold,
            };
            let run = arbmis_congest::Simulator::new(&g, 0)
                .run(&proto, 10_000)
                .unwrap();
            for v in 0..g.n() {
                assert_eq!(
                    run.states[v].level,
                    Some(hp.level[v]),
                    "node {v} level mismatch on {g}"
                );
            }
            assert!(run.metrics.within_budget());
        }
    }

    #[test]
    fn protocol_stalls_when_threshold_too_small() {
        let g = gen::complete(10);
        let proto = HPartitionProtocol { threshold: 3 };
        let err = arbmis_congest::Simulator::new(&g, 0)
            .run(&proto, 50)
            .unwrap_err();
        assert!(matches!(
            err,
            arbmis_congest::SimulatorError::RoundLimitExceeded { .. }
        ));
    }

    #[test]
    fn eps_tradeoff() {
        let mut r = rng(5);
        let g = gen::random_ktree(800, 2, &mut r);
        let tight = h_partition(&g, 2, 0.5).unwrap();
        let loose = h_partition(&g, 2, 2.0).unwrap();
        // Looser threshold peels faster (fewer levels), pays more forests.
        assert!(loose.num_levels <= tight.num_levels);
        assert!(loose.threshold > tight.threshold);
    }
}
