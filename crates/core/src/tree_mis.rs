//! Tree MIS in `O(√(log n · log log n))` rounds — the predecessor the
//! paper generalizes.
//!
//! Lenzen–Wattenhofer (PODC 2011) and Barenboim–Elkin–Pettie–Schneider
//! (FOCS 2012) compute an MIS on *unoriented trees* by (1) running the
//! Métivier priority step for a `√(log n · log log n)` budget — after
//! which, their analyses show, the surviving graph has shattered into
//! components of polylogarithmic size whp — and (2) finishing each
//! residual component deterministically. This module implements that
//! two-phase pipeline for forests:
//!
//! 1. **Shatter**: `⌈√(log₂ n · log₂ log₂ n)⌉` Métivier iterations.
//! 2. **Finish**: each residual component is a tree; root it (BFS from
//!    its minimum-id node, `O(component depth)` rounds), Cole–Vishkin
//!    3-color it (`O(log* n)`), and sweep the color classes (no
//!    tie-breaks needed — color classes of a tree are independent sets of
//!    the component). Components are processed in parallel; the phase
//!    costs the max over components.
//!
//! The paper's `BoundedArbIndependentSet` is exactly this algorithm with
//! the scale/cutoff machinery added so that the *analysis* survives
//! arboricity α > 1; on actual forests the two coincide up to parameter
//! schedules, which [`tree_mis`] demonstrates at α = 1.

use crate::{cole_vishkin, metivier};
use arbmis_graph::forest::RootedForest;
use arbmis_graph::{traversal, Graph, NodeId};
use serde::{Deserialize, Serialize};

/// Outcome of the tree pipeline.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeMisOutcome {
    /// The maximal independent set.
    pub in_mis: Vec<bool>,
    /// Total CONGEST rounds (shatter + max component finish).
    pub rounds: u64,
    /// Rounds spent in the shattering phase.
    pub shatter_rounds: u64,
    /// Max rounds spent finishing one residual component.
    pub finish_rounds: u64,
    /// Sizes of the residual components the finisher processed.
    pub residual_component_sizes: Vec<usize>,
}

impl TreeMisOutcome {
    /// Number of MIS members.
    pub fn mis_size(&self) -> usize {
        self.in_mis.iter().filter(|&&b| b).count()
    }
}

/// The shattering budget `⌈√(log₂ n · log₂ log₂ n)⌉`, also the number of
/// ArbMIS degree-reduction iterations.
pub fn shatter_budget(n: usize) -> u64 {
    if n < 4 {
        return 1;
    }
    let logn = (n as f64).log2();
    (logn * logn.log2().max(1.0)).sqrt().ceil() as u64
}

/// Computes an MIS of a forest via shatter-then-finish.
///
/// # Panics
///
/// Panics if `g` contains a cycle (the deterministic finisher requires
/// tree components; use [`fn@crate::arb_mis::arb_mis`] for general graphs).
///
/// ```
/// use arbmis_graph::gen;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(8);
/// let g = gen::random_tree_prufer(5_000, &mut rng);
/// let out = arbmis_core::tree_mis::tree_mis(&g, 3);
/// assert!(arbmis_core::check_mis(&g, &out.in_mis).is_ok());
/// ```
pub fn tree_mis(g: &Graph, seed: u64) -> TreeMisOutcome {
    assert!(
        traversal::is_forest(g),
        "tree_mis requires a forest; got a graph with a cycle"
    );
    let budget = shatter_budget(g.n());
    let partial = metivier::run_partial(g, seed, budget);
    let mut in_mis = partial.in_mis;
    let shatter_rounds = partial.iterations * metivier::ROUNDS_PER_ITERATION;

    // Finish residual components deterministically. One extraction
    // scratch serves all components: O(|C| + m(C)) each, not O(n).
    let comps = traversal::components_of_subset(g, &partial.active);
    let mut scratch = arbmis_graph::SubgraphScratch::new();
    let mut finish_rounds = 0u64;
    let mut residual_component_sizes = Vec::new();
    for comp in comps.members() {
        if comp.is_empty() {
            continue;
        }
        residual_component_sizes.push(comp.len());
        finish_rounds = finish_rounds.max(finish_component(g, &comp, &mut in_mis, &mut scratch));
    }
    TreeMisOutcome {
        rounds: shatter_rounds + finish_rounds,
        shatter_rounds,
        finish_rounds,
        in_mis,
        residual_component_sizes,
    }
}

/// Roots one residual tree component, 3-colors it, and sweeps. Returns
/// the rounds used (rooting depth + CV + sweeps).
fn finish_component(
    g: &Graph,
    component: &[NodeId],
    in_mis: &mut [bool],
    scratch: &mut arbmis_graph::SubgraphScratch,
) -> u64 {
    let sub = scratch.induce(g, component);
    let cg = sub.graph();
    // Root at the minimum-id node: BFS gives parent pointers; depth =
    // rooting rounds in a distributed implementation.
    let dist = traversal::bfs_distances(cg, 0);
    let mut forest = RootedForest::new(cg.n());
    let mut depth = 0usize;
    for v in 1..cg.n() {
        let d = dist[v];
        debug_assert_ne!(d, usize::MAX, "component must be connected");
        depth = depth.max(d);
        let parent = *cg
            .neighbors(v)
            .iter()
            .find(|&&u| dist[u] + 1 == d)
            .expect("BFS parent exists");
        forest.set_parent(v, parent);
    }
    let coloring = cole_vishkin::cv_color_to_three(&forest);
    // The component *is* the forest, so no cross-edges exist and the
    // sweep needs no tie-breaks; `colorwise_mis` handles it uniformly.
    // Nodes dominated by shatter-phase MIS members must not rejoin.
    let region: Vec<bool> = (0..cg.n())
        .map(|i| {
            let v = sub.to_parent(i);
            !in_mis[v] && g.neighbors(v).iter().all(|&u| !in_mis[u])
        })
        .collect();
    let (local, sweep_rounds) =
        cole_vishkin::colorwise_mis(cg, &coloring.colors, coloring.num_colors, Some(&region));
    for i in 0..cg.n() {
        if local[i] {
            in_mis[sub.to_parent(i)] = true;
        }
    }
    depth as u64 + coloring.rounds + sweep_rounds
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
    fn valid_on_random_trees() {
        for seed in 0..5 {
            let g = gen::random_tree_prufer(2_000, &mut rng(seed));
            let out = tree_mis(&g, seed);
            assert!(check_mis(&g, &out.in_mis).is_ok(), "seed {seed}");
            assert_eq!(out.rounds, out.shatter_rounds + out.finish_rounds);
        }
    }

    #[test]
    fn valid_on_forests_and_special_trees() {
        let graphs = vec![
            gen::path(500),
            gen::star(300),
            gen::caterpillar(50, 6),
            gen::broom(40, 30),
            gen::binary_tree(511),
            gen::random_forest(800, 0.7, &mut rng(3)),
            Graph::empty(10),
        ];
        for g in graphs {
            let out = tree_mis(&g, 1);
            assert!(check_mis(&g, &out.in_mis).is_ok(), "failed on {g}");
        }
    }

    #[test]
    #[should_panic]
    fn rejects_cyclic_graphs() {
        let _ = tree_mis(&gen::cycle(10), 1);
    }

    #[test]
    fn budget_grows_sublogarithmically() {
        assert_eq!(shatter_budget(2), 1);
        let b10 = shatter_budget(1 << 10);
        let b20 = shatter_budget(1 << 20);
        // log n doubles, budget grows by ~√2·√(loglog ratio) — far less
        // than double-and-a-bit.
        assert!(b20 < 2 * b10, "{b10} -> {b20}");
        assert!(b20 > b10);
    }

    #[test]
    fn round_budget_shape_vs_metivier() {
        // tree_mis's shattering phase is capped at the budget even when
        // plain Métivier would keep iterating.
        let g = gen::random_tree_prufer(10_000, &mut rng(9));
        let out = tree_mis(&g, 4);
        assert!(out.shatter_rounds <= shatter_budget(10_000) * 3);
        assert!(check_mis(&g, &out.in_mis).is_ok());
    }

    #[test]
    fn deterministic_under_seed() {
        let g = gen::random_tree_prufer(1_000, &mut rng(11));
        assert_eq!(tree_mis(&g, 5), tree_mis(&g, 5));
    }

    use arbmis_graph::Graph;
}
