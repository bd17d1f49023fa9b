//! Luby's Algorithm B: degree-proportional marking.
//!
//! Each iteration an active node `v` with current active degree `d > 0`
//! marks itself with probability `1/(2d)` (degree-0 nodes join outright).
//! A marked node joins the MIS unless a marked neighbor dominates it —
//! higher active degree wins, ties broken by id. O(log n) iterations whp
//! (Luby 1986; also Alon–Babai–Itai, Israeli–Itai).

use crate::backend::FlatAlgo;
use crate::result::MisRun;
use crate::FlatBackend;
use arbmis_congest::rng;
use arbmis_graph::{Graph, NodeId};

/// Randomness tag for marking coins.
pub const TAG_MARK: u64 = 0x4c55_4259; // "LUBY"

/// Whether `v` marks itself in `iter` given active degree `d`. Degree 0
/// always marks: `1/(2·0)` is `+∞`, above every draw. The flat engine
/// relies on that to reach the degree-0 nodes through its walk of the
/// marked nodes; the rule itself lets them join whatever their mark.
#[inline]
pub fn is_marked(seed: u64, v: NodeId, iter: u64, d: usize) -> bool {
    rng::draw_unit(seed, v, iter, TAG_MARK) < 1.0 / (2.0 * d as f64)
}

/// Runs Luby's Algorithm B to completion on the flat engine.
///
/// ```
/// use arbmis_graph::gen;
/// let g = gen::cycle(30);
/// let run = arbmis_core::luby::run(&g, 3);
/// assert!(arbmis_core::check_mis(&g, &run.in_mis).is_ok());
/// ```
pub fn run(g: &Graph, seed: u64) -> MisRun {
    FlatBackend::unobserved(g, seed, FlatAlgo::Luby).into_mis_run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_mis;
    use arbmis_graph::gen;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn produces_mis_on_families() {
        let mut r = rng(1);
        let graphs = vec![
            gen::path(40),
            gen::cycle(41),
            gen::complete(10),
            gen::star(25),
            gen::random_tree_prufer(250, &mut r),
            gen::gnp(200, 0.08, &mut r),
            gen::barabasi_albert(200, 3, &mut r),
            arbmis_graph::Graph::empty(6),
        ];
        for g in graphs {
            for seed in 0..3 {
                let run = run(&g, seed);
                assert!(
                    check_mis(&g, &run.in_mis).is_ok(),
                    "failed on {g} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut r = rng(2);
        let g = gen::gnp(120, 0.1, &mut r);
        assert_eq!(run(&g, 8), run(&g, 8));
    }

    #[test]
    fn logarithmic_iterations() {
        let mut r = rng(3);
        let g = gen::gnp(2000, 0.01, &mut r);
        let res = run(&g, 4);
        assert!(res.iterations <= 80, "iterations {}", res.iterations);
    }

    #[test]
    fn isolated_nodes_join_in_first_iteration() {
        let g = arbmis_graph::Graph::empty(4);
        let res = run(&g, 0);
        assert_eq!(res.size(), 4);
        assert_eq!(res.iterations, 1);
    }

    #[test]
    fn dominance_tie_broken_by_id() {
        // On K2 both nodes have degree 1; if both mark in the same
        // iteration, the higher id must win. We can't force marks, but the
        // final set is always a single node and the run terminates.
        let g = gen::complete(2);
        for seed in 0..20 {
            let res = run(&g, seed);
            assert_eq!(res.size(), 1, "seed {seed}");
        }
    }
}
