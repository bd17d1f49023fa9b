//! Cole–Vishkin deterministic coin tossing.
//!
//! On a rooted forest, each node repeatedly replaces its color by the
//! index-and-value of the lowest bit on which it differs from its parent,
//! shrinking any initial coloring with `L`-bit colors to colors below 6 in
//! `O(log* L)` synchronous rounds; three shift-down/recolor steps then
//! reduce 6 colors to 3. A 3-colored forest yields an MIS of the forest in
//! 3 sweeps.
//!
//! The paper's Lemma 3.8 runs this machinery on each small component of
//! the bad set `B`, one forest of a Barenboim–Elkin decomposition at a
//! time. The brief announcement elides one detail: a color class of
//! forest `F_i` is independent *in `F_i`* but two of its nodes can be
//! adjacent through an edge of another forest. [`colorwise_mis`] therefore
//! breaks intra-class conflicts by node id — one extra comparison round
//! per class, preserving both correctness and the `O(α·log* n)` shape.

use crate::result::MisRun;
use arbmis_graph::forest::RootedForest;
use arbmis_graph::{Graph, NodeId};

/// A forest coloring: per-node colors plus the rounds spent computing
/// them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForestColoring {
    /// Proper colors (per forest edge) in `0..num_colors`.
    pub colors: Vec<usize>,
    /// Number of distinct colors guaranteed (3 after full reduction).
    pub num_colors: usize,
    /// Synchronous rounds used.
    pub rounds: u64,
}

/// Index of the lowest bit where `a` and `b` differ.
///
/// # Panics
///
/// Panics if `a == b`.
#[inline]
fn lowest_differing_bit(a: usize, b: usize) -> u32 {
    debug_assert_ne!(a, b);
    (a ^ b).trailing_zeros()
}

/// One Cole–Vishkin step: every node recolors from `(i, bit)` where `i`
/// is the lowest bit differing from its parent's color and `bit` its own
/// bit there; roots use bit 0 of their own color.
fn cv_step(forest: &RootedForest, colors: &[usize]) -> Vec<usize> {
    (0..forest.n())
        .map(|v| match forest.parent(v) {
            Some(p) => {
                let i = lowest_differing_bit(colors[v], colors[p]);
                ((i as usize) << 1) | ((colors[v] >> i) & 1)
            }
            None => colors[v] & 1,
        })
        .collect()
}

/// Computes a proper 6-coloring of `forest` via iterated Cole–Vishkin,
/// starting from the identity coloring (`color(v) = v`).
pub fn cv_color_to_six(forest: &RootedForest) -> ForestColoring {
    let mut colors: Vec<usize> = (0..forest.n()).collect();
    let mut rounds = 0u64;
    while colors.iter().copied().max().unwrap_or(0) >= 6 {
        colors = cv_step(forest, &colors);
        rounds += 1;
    }
    ForestColoring {
        colors,
        num_colors: 6,
        rounds,
    }
}

/// Reduces a proper ≤ 6-coloring of `forest` to a proper 3-coloring via
/// three shift-down + recolor steps.
///
/// # Panics
///
/// Panics if `coloring` is not a proper ≤ 6-coloring of `forest`.
pub fn reduce_to_three(forest: &RootedForest, coloring: &ForestColoring) -> ForestColoring {
    let mut colors = coloring.colors.clone();
    assert!(is_proper_forest_coloring(forest, &colors));
    assert!(colors.iter().all(|&c| c < 6));
    let mut rounds = coloring.rounds;
    for target in (3..6).rev() {
        // Shift down: adopt the parent's color; roots rotate within
        // {0,1,2} away from their own color. After this, each node's
        // children are monochromatic.
        let shifted: Vec<usize> = (0..forest.n())
            .map(|v| match forest.parent(v) {
                Some(p) => colors[p],
                None => (colors[v] + 1) % 3,
            })
            .collect();
        // Recolor nodes holding `target`: pick the smallest color of
        // {0,1,2} unused by the (monochromatic) children and the parent.
        let children = forest.children_lists();
        colors = (0..forest.n())
            .map(|v| {
                if shifted[v] != target {
                    return shifted[v];
                }
                let parent_color = forest.parent(v).map(|p| shifted[p]);
                let child_color = children[v].first().map(|&c| shifted[c]);
                (0..3)
                    .find(|c| Some(*c) != parent_color && Some(*c) != child_color)
                    .expect("three colors always leave one free")
            })
            .collect();
        rounds += 2;
        debug_assert!(is_proper_forest_coloring(forest, &colors));
    }
    ForestColoring {
        colors,
        num_colors: 3,
        rounds,
    }
}

/// Computes a proper 3-coloring of `forest` (Cole–Vishkin + reduction).
///
/// ```
/// use arbmis_graph::{gen, forest::forests_by_degeneracy};
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let tree = gen::random_tree_prufer(500, &mut rng);
/// let forest = forests_by_degeneracy(&tree).pop().unwrap();
/// let coloring = arbmis_core::cole_vishkin::cv_color_to_three(&forest);
/// assert!(coloring.colors.iter().all(|&c| c < 3));
/// ```
pub fn cv_color_to_three(forest: &RootedForest) -> ForestColoring {
    let six = cv_color_to_six(forest);
    reduce_to_three(forest, &six)
}

/// Whether `colors` is proper on the forest's edges.
pub fn is_proper_forest_coloring(forest: &RootedForest, colors: &[usize]) -> bool {
    (0..forest.n()).all(|v| match forest.parent(v) {
        Some(p) => colors[v] != colors[p],
        None => true,
    })
}

/// MIS of the *forest itself* by sweeping color classes: class by class,
/// every still-undominated node of the class joins. Within a class no two
/// nodes are forest-adjacent, so no tie-break is needed.
pub fn forest_mis(forest: &RootedForest) -> MisRun {
    let coloring = cv_color_to_three(forest);
    let fg = forest.to_graph();
    let (in_mis, sweep_rounds) = sweep_classes(&fg, &coloring.colors, 3, None);
    let rounds = coloring.rounds + sweep_rounds;
    MisRun::new(in_mis, rounds, rounds)
}

/// MIS of an arbitrary graph `g` from *any* vertex coloring whose classes
/// may contain `g`-adjacent pairs: classes are swept in order and
/// intra-class conflicts are broken by node id (largest id joins). The
/// `region` mask restricts which nodes participate (e.g. a bad-set
/// component); pass `None` for all nodes.
///
/// Returns the membership mask and the rounds used (3 per class: announce
/// candidacy, resolve, exit).
pub fn colorwise_mis(
    g: &Graph,
    colors: &[usize],
    num_colors: usize,
    region: Option<&[bool]>,
) -> (Vec<bool>, u64) {
    sweep_classes(g, colors, num_colors, region)
}

fn sweep_classes(
    g: &Graph,
    colors: &[usize],
    num_colors: usize,
    region: Option<&[bool]>,
) -> (Vec<bool>, u64) {
    assert_eq!(colors.len(), g.n());
    let in_region = |v: NodeId| region.is_none_or(|r| r[v]);
    let mut in_mis = vec![false; g.n()];
    let mut dominated = vec![false; g.n()];
    let mut rounds = 0u64;
    let mut candidate_set = vec![false; g.n()];
    for c in 0..num_colors {
        // A tie-break loser whose dominator did not join must get another
        // chance, so each class runs to a fixpoint. Every pass the largest
        // remaining candidate of each component joins, so passes are few
        // unless a class has long id-decreasing candidate chains.
        loop {
            let candidates: Vec<NodeId> = g
                .nodes()
                .filter(|&v| colors[v] == c && in_region(v) && !dominated[v] && !in_mis[v])
                .collect();
            if candidates.is_empty() {
                break;
            }
            rounds += 3;
            candidate_set.iter_mut().for_each(|b| *b = false);
            for &v in &candidates {
                candidate_set[v] = true;
            }
            for &v in &candidates {
                // Id tie-break against candidates adjacent in g (possible
                // for same-class nodes via non-forest edges).
                let wins = g.neighbors(v).iter().all(|u| !candidate_set[u] || u < v);
                if wins {
                    in_mis[v] = true;
                    for u in g.neighbors(v) {
                        dominated[u] = true;
                    }
                }
            }
        }
    }
    (in_mis, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_mis, is_mis_of_region};
    use arbmis_graph::forest::forests_by_degeneracy;
    use arbmis_graph::gen;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn tree_forest(n: usize, seed: u64) -> RootedForest {
        let g = gen::random_tree_prufer(n, &mut rng(seed));
        forests_by_degeneracy(&g).pop().unwrap()
    }

    #[test]
    fn six_coloring_is_proper_and_fast() {
        let f = tree_forest(10_000, 1);
        let c = cv_color_to_six(&f);
        assert!(is_proper_forest_coloring(&f, &c.colors));
        assert!(c.colors.iter().all(|&x| x < 6));
        // log* growth: 10k nodes need only a handful of rounds.
        assert!(c.rounds <= 6, "rounds {}", c.rounds);
    }

    #[test]
    fn three_coloring_is_proper() {
        for seed in 0..4 {
            let f = tree_forest(2000, seed);
            let c = cv_color_to_three(&f);
            assert!(is_proper_forest_coloring(&f, &c.colors));
            assert!(c.colors.iter().all(|&x| x < 3));
            assert_eq!(c.num_colors, 3);
        }
    }

    #[test]
    fn rounds_grow_very_slowly() {
        let small = cv_color_to_six(&tree_forest(64, 7)).rounds;
        let large = cv_color_to_six(&tree_forest(50_000, 7)).rounds;
        assert!(
            large <= small + 2,
            "log* growth violated: {small} -> {large}"
        );
    }

    #[test]
    fn path_forest_coloring() {
        // A path rooted at one end: deep recursion case.
        let mut f = RootedForest::new(1000);
        for v in 1..1000 {
            f.set_parent(v, v - 1);
        }
        let c = cv_color_to_three(&f);
        assert!(is_proper_forest_coloring(&f, &c.colors));
        assert!(c.colors.iter().all(|&x| x < 3));
    }

    #[test]
    fn single_node_and_empty_forest() {
        let f = RootedForest::new(1);
        let c = cv_color_to_three(&f);
        assert_eq!(c.colors.len(), 1);
        assert!(c.colors[0] < 3);
        let f0 = RootedForest::new(0);
        assert!(cv_color_to_three(&f0).colors.is_empty());
    }

    #[test]
    fn forest_mis_is_mis_of_forest_graph() {
        for seed in 0..3 {
            let f = tree_forest(800, seed + 10);
            let run = forest_mis(&f);
            let fg = f.to_graph();
            assert!(check_mis(&fg, &run.in_mis).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn colorwise_mis_handles_cross_edges() {
        // A cycle 2-colored "improperly" for the cycle (classes contain
        // adjacent pairs when n is odd) still yields an MIS thanks to the
        // id tie-break.
        let g = gen::cycle(7);
        let colors: Vec<usize> = (0..7).map(|v| v % 2).collect();
        let (mis, rounds) = colorwise_mis(&g, &colors, 2, None);
        assert!(check_mis(&g, &mis).is_ok());
        assert!(rounds >= 3 && rounds % 3 == 0, "rounds {rounds}");
    }

    #[test]
    fn colorwise_mis_respects_region() {
        let g = gen::path(8);
        let region = vec![true, true, true, true, false, false, false, false];
        let colors: Vec<usize> = (0..8).map(|v| v % 3).collect();
        let (mis, _) = colorwise_mis(&g, &colors, 3, Some(&region));
        assert!(is_mis_of_region(&g, &mis, &region));
        assert!(mis[4..].iter().all(|&b| !b));
    }

    #[test]
    fn colorwise_single_color_degenerates_to_id_greedy() {
        let g = gen::complete(6);
        let colors = vec![0usize; 6];
        let (mis, _) = colorwise_mis(&g, &colors, 1, None);
        assert!(check_mis(&g, &mis).is_ok());
        assert_eq!(mis.iter().filter(|&&b| b).count(), 1);
        assert!(mis[5], "largest id should win the tie-break");
    }
}
