//! The paper's three probabilistic events (Figure 1 A/B/C), executable.
//!
//! Fix a graph `G`, an acyclic low-out-degree orientation (parents =
//! out-neighbors), a node subset `M`, and the competitiveness cutoff `ρ`
//! (nodes of degree > ρ set priority 0). One *iteration* of the
//! Métivier-style inner loop draws a priority `r(v)` per node. The paper
//! analyzes:
//!
//! * **Event (1)** *(Theorem 3.1, Figure 1A)* — some node of `M` draws a
//!   priority larger than all its children's. Analyzed via a read-α
//!   conjunction bound over an independent subset of `M`.
//! * **Event (2)** *(Theorem 3.2, Figure 1B)* — more than `|M|/2α` nodes
//!   of `M` beat all their *competitive parents*. Analyzed via a read-ρ_k
//!   tail bound: a competitive node has degree ≤ ρ_k, so its priority is
//!   read by at most ρ_k children.
//! * **Event (3)** *(Theorem 3.3, Figure 1C)* — at least
//!   `|M|/(8α²(32α⁶+1))` nodes of `M` are eliminated because a neighbor
//!   (in the proof, a child) joins the MIS. Analyzed via a read-α(α+1)
//!   tail bound.
//!
//! [`EventScenario`] samples priorities counter-style (reproducible from
//! `(seed, trial)`), evaluates each event, and exposes the *exact* read
//! parameters of the corresponding dependency structures so experiment
//! tables can show measured-k next to the paper's claimed k.

use arbmis_graph::orientation::Orientation;
use arbmis_graph::{Graph, NodeId};

/// A fixed stage on which the three events are evaluated.
#[derive(Clone, Debug)]
pub struct EventScenario<'a> {
    graph: &'a Graph,
    orientation: &'a Orientation,
    m_set: Vec<NodeId>,
    in_m: Vec<bool>,
    rho: Option<usize>,
}

impl<'a> EventScenario<'a> {
    /// Creates a scenario.
    ///
    /// # Panics
    ///
    /// Panics if the orientation's node count differs from the graph's, or
    /// `m_set` contains an out-of-range or duplicate node.
    pub fn new(
        graph: &'a Graph,
        orientation: &'a Orientation,
        m_set: Vec<NodeId>,
        rho: Option<usize>,
    ) -> Self {
        assert_eq!(graph.n(), orientation.n(), "orientation/graph mismatch");
        let mut in_m = vec![false; graph.n()];
        for &v in &m_set {
            assert!(v < graph.n(), "M contains out-of-range node {v}");
            assert!(!in_m[v], "M contains duplicate node {v}");
            in_m[v] = true;
        }
        EventScenario {
            graph,
            orientation,
            m_set,
            in_m,
            rho,
        }
    }

    /// The node set `M`.
    pub fn m_set(&self) -> &[NodeId] {
        &self.m_set
    }

    /// The competitiveness cutoff ρ, if any.
    pub fn rho(&self) -> Option<usize> {
        self.rho
    }

    /// Draws one iteration's priorities. Nodes with degree > ρ get 0
    /// (non-competitive); all others get a uniform *odd* 64-bit value
    /// (the forced low bit reserves 0 for "non-competitive"; comparisons
    /// only care about order, where odd-only is still uniform).
    pub fn sample_priorities(&self, seed: u64, trial: u64) -> Vec<u64> {
        (0..self.graph.n())
            .map(|v| {
                if self.rho.is_some_and(|rho| self.graph.degree(v) > rho) {
                    0
                } else {
                    arbmis_congest::rng::draw(seed, v, trial, 0x9 /* priority tag */) | 1
                }
            })
            .collect()
    }

    /// Whether `v` is competitive under the cutoff.
    pub fn is_competitive(&self, v: NodeId) -> bool {
        self.rho.is_none_or(|rho| self.graph.degree(v) <= rho)
    }

    // ---- Event (1): some node of M beats all its children -------------

    /// Evaluates Event (1) under `priorities`.
    pub fn event1_holds(&self, priorities: &[u64]) -> bool {
        self.m_set.iter().any(|&x| {
            priorities[x] > 0
                && self
                    .orientation
                    .children(x)
                    .iter()
                    .all(|&c| priorities[x] > priorities[c])
        })
    }

    /// The exact read parameter of the Event (1) indicator family
    /// `{Y_x : x ∈ M}`, `Y_x` reading `{x} ∪ Child(x)`. The paper bounds
    /// this by α (over an independent subset; over all of `M` it is at
    /// most α + 1 since each priority is read by its ≤ α parents in `M`
    /// plus possibly itself).
    pub fn event1_read_parameter(&self) -> usize {
        let mut reads = vec![0usize; self.graph.n()];
        for &x in &self.m_set {
            reads[x] += 1;
            for &c in self.orientation.children(x) {
                reads[c] += 1;
            }
        }
        reads.into_iter().max().unwrap_or(0)
    }

    // ---- Event (2): many nodes of M beat all competitive parents ------

    /// Number of nodes of `M` whose priority exceeds every *competitive*
    /// parent's priority. Non-competitive parents (priority 0) never block
    /// a competitive node since competitive priorities are ≥ 1.
    pub fn event2_count(&self, priorities: &[u64]) -> usize {
        self.m_set
            .iter()
            .filter(|&&u| {
                priorities[u] > 0
                    && self
                        .orientation
                        .parents(u)
                        .iter()
                        .all(|&p| priorities[u] > priorities[p])
            })
            .count()
    }

    /// Evaluates Event (2): more than `|M|/2α` nodes beat their parents.
    pub fn event2_holds(&self, priorities: &[u64], alpha: usize) -> bool {
        assert!(alpha >= 1);
        2 * alpha * self.event2_count(priorities) > self.m_set.len()
    }

    /// The exact read parameter of the Event (2) family `{X_u : u ∈ M}`,
    /// `X_u` reading `{u}` and the priorities of `u`'s competitive
    /// parents. The paper bounds this by ρ_k: a competitive parent has
    /// degree ≤ ρ_k so it is read by at most ρ_k children.
    pub fn event2_read_parameter(&self) -> usize {
        let mut reads = vec![0usize; self.graph.n()];
        for &u in &self.m_set {
            reads[u] += 1;
            for &p in self.orientation.parents(u) {
                if self.is_competitive(p) {
                    reads[p] += 1;
                }
            }
        }
        reads.into_iter().max().unwrap_or(0)
    }

    // ---- Event (3): elimination via MIS joins --------------------------

    /// Runs one Métivier iteration on the whole graph: a node joins the
    /// MIS iff it is competitive and its priority strictly exceeds every
    /// neighbor's. Returns the set of nodes of `M` that are *eliminated*
    /// (joined, or have a neighbor that joined).
    pub fn event3_eliminated(&self, priorities: &[u64]) -> Vec<NodeId> {
        let g = self.graph;
        let joins: Vec<bool> = (0..g.n())
            .map(|v| {
                priorities[v] > 0 && g.neighbors(v).iter().all(|u| priorities[v] > priorities[u])
            })
            .collect();
        self.m_set
            .iter()
            .copied()
            .filter(|&w| joins[w] || g.neighbors(w).iter().any(|u| joins[u]))
            .collect()
    }

    /// Evaluates Event (3): at least `|M| / (8α²(32α⁶+1))` nodes of `M`
    /// eliminated (the paper's Theorem 3.3 fraction).
    pub fn event3_holds(&self, priorities: &[u64], alpha: usize) -> bool {
        let frac = crate::bounds::event3_elimination_fraction(alpha);
        let needed = (self.m_set.len() as f64 * frac).ceil().max(1.0) as usize;
        self.event3_eliminated(priorities).len() >= needed
    }

    /// The exact read parameter of the Event (3) family `{G_w : w ∈ M}`
    /// as redefined in the paper's proof: `G_w` reads `r(w)`, the
    /// priorities of `Child(w)`, and of grandchildren of `w`. The paper
    /// bounds this by α(α+1).
    pub fn event3_read_parameter(&self) -> usize {
        let mut reads = vec![0usize; self.graph.n()];
        for &w in &self.m_set {
            reads[w] += 1;
            for &c in self.orientation.children(w) {
                reads[c] += 1;
                for &gc in self.orientation.children(c) {
                    reads[gc] += 1;
                }
            }
        }
        reads.into_iter().max().unwrap_or(0)
    }

    /// Largest active degree over `M` (`Δ_IB(M)` with everything active).
    pub fn max_degree_of_m(&self) -> usize {
        self.m_set
            .iter()
            .map(|&v| self.graph.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// The membership mask of `M`.
    pub fn m_mask(&self) -> &[bool] {
        &self.in_m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::estimate;
    use arbmis_graph::gen;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    /// Orientation of a star (hub = node 0) with every edge pointing
    /// leaf -> hub, i.e. the hub is every leaf's parent.
    fn star_orientation(g: &Graph) -> Orientation {
        let n = g.n();
        let mut position: Vec<usize> = (0..n).collect();
        position[0] = n; // hub last => all edges orient toward it
        Orientation::from_position(g, &position)
    }

    #[test]
    fn priorities_respect_cutoff() {
        let g = gen::star(10);
        let o = Orientation::by_degeneracy(&g);
        let sc = EventScenario::new(&g, &o, vec![0, 1, 2], Some(5));
        let pri = sc.sample_priorities(3, 0);
        assert_eq!(pri[0], 0, "hub degree 9 > 5 must be non-competitive");
        assert!(pri[1] > 0 && pri[2] > 0);
        assert!(!sc.is_competitive(0));
        assert!(sc.is_competitive(1));
    }

    #[test]
    fn event1_on_tree_matches_hand_computation() {
        // Path 0-1-2: degeneracy orientation. Take M = {1}. Event 1 holds
        // iff r(1) > priorities of 1's children.
        let g = gen::path(3);
        let o = Orientation::by_degeneracy(&g);
        let sc = EventScenario::new(&g, &o, vec![1], None);
        let e = estimate(4000, |t| {
            let pri = sc.sample_priorities(5, t);
            sc.event1_holds(&pri)
        });
        // 1 has at most 2 children; beating c children has prob 1/(c+1).
        let c = o.children(1).len();
        let expect = 1.0 / (c as f64 + 1.0);
        assert!(
            e.consistent_with(expect, 4.0),
            "p_hat {} expect {expect}",
            e.p_hat()
        );
    }

    #[test]
    fn event1_probability_grows_with_m() {
        let mut r = rng(1);
        let g = gen::forest_union(400, 2, &mut r);
        let o = Orientation::by_degeneracy(&g);
        let small = EventScenario::new(&g, &o, (0..10).collect(), None);
        let large = EventScenario::new(&g, &o, (0..200).collect(), None);
        let ps = estimate(800, |t| small.event1_holds(&small.sample_priorities(2, t)));
        let pl = estimate(800, |t| large.event1_holds(&large.sample_priorities(2, t)));
        assert!(pl.p_hat() >= ps.p_hat());
    }

    #[test]
    fn event1_read_parameter_bounded() {
        let mut r = rng(2);
        let g = gen::random_ktree(300, 3, &mut r);
        let o = Orientation::by_degeneracy(&g);
        let sc = EventScenario::new(&g, &o, (0..300).collect(), None);
        // Every priority is read by itself (1) plus its ≤ out-degree
        // parents that lie in M.
        assert!(sc.event1_read_parameter() <= o.max_out_degree() + 1);
    }

    #[test]
    fn event2_count_on_star() {
        // Star: leaves' parent is the hub. A leaf beats its parents iff its
        // priority exceeds the hub's: exactly one node (hub or one leaf)
        // has the max priority.
        let g = gen::star(6);
        let o = star_orientation(&g);
        let sc = EventScenario::new(&g, &o, vec![1, 2, 3, 4, 5], None);
        let pri = sc.sample_priorities(1, 0);
        let k = sc.event2_read_parameter();
        let count = sc.event2_count(&pri);
        let hub = pri[0];
        let expected = (1..6).filter(|&v| pri[v] > hub).count();
        assert_eq!(count, expected);
        // Hub's priority is read by all 5 leaves: read parameter 5.
        assert_eq!(k, 5);
    }

    #[test]
    fn event2_cutoff_shrinks_read_parameter() {
        // With ρ below the hub degree, the hub is non-competitive and the
        // family no longer reads it.
        let g = gen::star(20);
        let o = star_orientation(&g);
        let uncut = EventScenario::new(&g, &o, (1..20).collect(), None);
        let cut = EventScenario::new(&g, &o, (1..20).collect(), Some(10));
        assert_eq!(uncut.event2_read_parameter(), 19);
        assert_eq!(cut.event2_read_parameter(), 1);
    }

    #[test]
    fn event2_probability_on_forest() {
        // α = 1 (a tree): each node has ≤ 1 parent, so it beats its
        // parents with probability ≥ 1/2; expect more than |M|/2 winners
        // frequently.
        let mut r = rng(3);
        let g = gen::random_tree_prufer(300, &mut r);
        let o = Orientation::by_degeneracy(&g);
        let m: Vec<NodeId> = (0..300).collect();
        let sc = EventScenario::new(&g, &o, m, None);
        let e = estimate(500, |t| sc.event2_holds(&sc.sample_priorities(4, t), 1));
        // Mean winners ≈ n/2 + (roots count)/2; being > n/2 happens often.
        assert!(e.p_hat() > 0.3, "p_hat {}", e.p_hat());
    }

    #[test]
    fn event3_elimination_counts() {
        // Complete graph: exactly one node joins (the max), eliminating
        // everyone.
        let g = gen::complete(8);
        let o = Orientation::by_degeneracy(&g);
        let sc = EventScenario::new(&g, &o, (0..8).collect(), None);
        let pri = sc.sample_priorities(6, 0);
        let elim = sc.event3_eliminated(&pri);
        assert_eq!(elim.len(), 8);
        assert!(sc.event3_holds(&pri, 4));
    }

    #[test]
    fn event3_no_join_when_all_non_competitive() {
        let g = gen::complete(6); // all degrees 5
        let o = Orientation::by_degeneracy(&g);
        let sc = EventScenario::new(&g, &o, (0..6).collect(), Some(2));
        let pri = sc.sample_priorities(7, 0);
        assert!(pri.iter().all(|&p| p == 0));
        assert!(sc.event3_eliminated(&pri).is_empty());
    }

    #[test]
    fn event3_read_parameter_bounded_by_alpha_alpha_plus_one() {
        let mut r = rng(4);
        for alpha in 1..=3usize {
            let g = gen::forest_union(300, alpha, &mut r);
            let o = Orientation::by_degeneracy(&g);
            let d = o.max_out_degree();
            let sc = EventScenario::new(&g, &o, (0..300).collect(), None);
            let k = sc.event3_read_parameter();
            assert!(
                k <= d * (d + 1) + 1,
                "α={alpha}: read parameter {k} vs bound {}",
                d * (d + 1) + 1
            );
        }
    }

    #[test]
    #[should_panic]
    fn duplicate_m_rejected() {
        let g = gen::path(4);
        let o = Orientation::by_degeneracy(&g);
        let _ = EventScenario::new(&g, &o, vec![1, 1], None);
    }

    #[test]
    fn deterministic_sampling() {
        let g = gen::cycle(10);
        let o = Orientation::by_degeneracy(&g);
        let sc = EventScenario::new(&g, &o, vec![0, 1], None);
        assert_eq!(sc.sample_priorities(9, 3), sc.sample_priorities(9, 3));
        assert_ne!(sc.sample_priorities(9, 3), sc.sample_priorities(9, 4));
    }
}
