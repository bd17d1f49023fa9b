//! The Métivier–Robson–Saheb-Djahromi–Zemmari priority MIS algorithm.
//!
//! Each iteration every active node draws a priority uniformly at random
//! and joins the MIS if its priority beats every active neighbor's; MIS
//! nodes and their neighbors then leave. O(log n) iterations whp. This is
//! the inner loop ("step 2(a)") of the paper's Algorithm 1, there with a
//! degree cutoff; here in its classic uncut form as a baseline.
//!
//! Priorities are 64-bit with node-id tie-break, so every iteration each
//! active component loses at least its maximum-priority node — termination
//! is deterministic in ≤ n iterations.

use crate::backend::{FlatAlgo, MisBackend};
use crate::result::MisRun;
use crate::FlatBackend;
use arbmis_congest::rng;
use arbmis_graph::{Graph, NodeId};

/// Randomness tag for priority draws (shared with the CONGEST protocol so
/// both executions draw identical priorities).
pub const TAG_PRIORITY: u64 = 0x4d45_5449; // "METI"

/// A stopped-early execution: the state after a fixed number of
/// iterations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartialRun {
    /// MIS membership so far.
    pub in_mis: Vec<bool>,
    /// Nodes still undecided.
    pub active: Vec<bool>,
    /// Iterations actually executed (may be fewer if the graph emptied).
    pub iterations: u64,
}

/// The priority of node `v` in iteration `iter` of an `n`-node network:
/// `(random, id)` compared lexicographically. Random parts are
/// [`rng::priority_bits`]`(n)` wide so the CONGEST protocol can transmit
/// them within the message budget; the id tie-break makes comparisons
/// strict regardless.
#[inline]
pub fn priority(seed: u64, v: NodeId, iter: u64, n: usize) -> (u64, NodeId) {
    (rng::draw_priority(seed, v, iter, TAG_PRIORITY, n), v)
}

/// Runs to completion on the flat engine.
///
/// ```
/// use arbmis_graph::gen;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let g = gen::random_tree_prufer(200, &mut rng);
/// let run = arbmis_core::metivier::run(&g, 7);
/// assert!(arbmis_core::check_mis(&g, &run.in_mis).is_ok());
/// ```
pub fn run(g: &Graph, seed: u64) -> MisRun {
    FlatBackend::unobserved(g, seed, FlatAlgo::Metivier).into_mis_run()
}

/// Runs to completion on the subgraph induced by `region`: only region
/// nodes compete, and the result is an MIS *of the region* (see
/// [`crate::verify::is_mis_of_region`]). Coins are keyed by `g`'s ids
/// and `g.n()`, exactly as in [`run`]. Used by the ArbMIS pipeline to
/// finish `V_lo`/`V_hi`.
pub fn run_region(g: &Graph, region: &[bool], seed: u64) -> MisRun {
    FlatBackend::unobserved(g, seed, FlatAlgo::Metivier)
        .with_region(region)
        .into_mis_run()
}

/// Runs at most `iterations` iterations and returns the partial state —
/// the "stop after shattering" usage.
pub fn run_partial(g: &Graph, seed: u64, iterations: u64) -> PartialRun {
    let mut engine = FlatBackend::unobserved(g, seed, FlatAlgo::Metivier);
    let iterations = engine.run_iterations(iterations);
    PartialRun {
        in_mis: engine.mis().to_bools(),
        active: engine.active_mask(),
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_mis, is_independent};
    use arbmis_graph::gen;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn produces_mis_on_families() {
        let mut r = rng(1);
        let graphs = vec![
            gen::path(50),
            gen::cycle(51),
            gen::complete(12),
            gen::star(30),
            gen::random_tree_prufer(300, &mut r),
            gen::gnp(200, 0.05, &mut r),
            gen::random_ktree(150, 3, &mut r),
            arbmis_graph::Graph::empty(10),
        ];
        for g in graphs {
            let run = run(&g, 42);
            assert!(check_mis(&g, &run.in_mis).is_ok(), "failed on {g}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut r = rng(2);
        let g = gen::gnp(150, 0.1, &mut r);
        assert_eq!(run(&g, 5), run(&g, 5));
        // Different seeds usually differ.
        assert_ne!(run(&g, 5).in_mis, run(&g, 6).in_mis);
    }

    #[test]
    fn logarithmic_iterations_on_random_graph() {
        let mut r = rng(3);
        let g = gen::gnp(2000, 0.01, &mut r);
        let run = run(&g, 9);
        assert!(
            run.iterations <= 60,
            "expected O(log n) iterations, got {}",
            run.iterations
        );
        assert_eq!(
            run.rounds,
            crate::backend::schedule_rounds(run.iterations, 0)
        );
    }

    #[test]
    fn partial_run_is_independent_prefix() {
        let mut r = rng(4);
        let g = gen::gnp(300, 0.05, &mut r);
        let p = run_partial(&g, 11, 2);
        assert!(is_independent(&g, &p.in_mis));
        assert_eq!(p.iterations, 2);
        // Active nodes have no MIS neighbor and are not in the MIS.
        for v in g.nodes() {
            if p.active[v] {
                assert!(!p.in_mis[v]);
                assert!(g.neighbors(v).iter().all(|u| !p.in_mis[u]));
            }
        }
        // Completing from scratch with same seed extends the prefix.
        let full = run(&g, 11);
        for v in g.nodes() {
            if p.in_mis[v] {
                assert!(full.in_mis[v], "node {v} joined early but not in full run");
            }
        }
    }

    #[test]
    fn complete_graph_single_winner_per_iteration() {
        let g = gen::complete(20);
        let run = run(&g, 1);
        assert_eq!(run.iterations, 1);
        assert_eq!(run.size(), 1);
    }

    #[test]
    fn isolated_nodes_join_immediately() {
        let g = arbmis_graph::Graph::empty(5);
        let run = run(&g, 3);
        assert_eq!(run.size(), 5);
        assert_eq!(run.iterations, 1);
    }
}
