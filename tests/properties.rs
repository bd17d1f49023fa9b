//! Property-based integration tests (proptest): algorithm correctness and
//! substrate invariants over arbitrary random graphs.

use arbmis::congest::message::{self, DecodeError, Message};
use arbmis::congest::{Inbox, NodeInfo, Outgoing, Protocol, Simulator, SimulatorError};
use arbmis::core::protocols::MisMsg;
use arbmis::core::{arb_mis, check_mis, ghaffari, greedy, luby, metivier, ArbMisConfig};
use arbmis::graph::orientation::{degeneracy_ordering, Orientation};
use arbmis::graph::{arboricity, cores, forest, gen, props, traversal, Graph};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Strategy: an arbitrary simple graph from a random edge list.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_m).prop_map(move |pairs| {
            let mut b = arbmis::graph::GraphBuilder::new(n);
            for (u, v) in pairs {
                b.try_add_edge(u, v);
            }
            b.build()
        })
    })
}

/// Strategy: a node count in `0..40` and raw pairs over it, self loops
/// included (callers filter them; at `n = 0` every pair is out of range).
fn edge_list() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (0usize..40).prop_flat_map(|n| {
        let ids = 0..n.max(1);
        (
            Just(n),
            proptest::collection::vec((ids.clone(), ids), 0..120),
        )
    })
}

/// Strategy: a node count in `0..300` and up to `2n` raw pairs over it,
/// so most nodes are isolated at small edge counts.
fn node_order_input() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (0usize..300).prop_flat_map(|n| {
        let ids = 0..n.max(1);
        (
            Just(n),
            proptest::collection::vec((ids.clone(), ids), 0..2 * n + 1),
        )
    })
}

/// Feeds the edges of `pairs` (loops and pairs out of range dropped) to a
/// `NodeOrderBuilder` as ascending lower runs, and checks its graph
/// against `GraphBuilder::build` over the same pairs.
fn node_order_matches_builder(n: usize, pairs: Vec<(usize, usize)>) -> Result<(), TestCaseError> {
    let mut lower: Vec<(usize, usize)> = pairs
        .iter()
        .filter(|&&(u, v)| u < n && v < n && u != v)
        .map(|&(u, v)| (u.max(v), u.min(v)))
        .collect();
    lower.sort_unstable();
    lower.dedup();
    let mut b = arbmis::graph::NodeOrderBuilder::new(n);
    for &(v, u) in &lower {
        b.add_lower(v, u);
    }
    let mut reference = arbmis::graph::GraphBuilder::new(n);
    for (u, v) in pairs {
        reference.try_add_edge(u, v);
    }
    prop_assert_eq!(b.build(), reference.build());
    Ok(())
}

#[test]
fn node_order_build_matches_graph_builder_on_tiny_graphs() {
    for n in [0, 1] {
        node_order_matches_builder(n, vec![(0, 0), (0, 1)]).unwrap();
    }
    node_order_matches_builder(2, vec![(1, 0)]).unwrap();
}

/// Strategy: an arbitrary simple graph on 1–64 nodes (single-node
/// graphs included — the backend contract covers them) for the backend
/// equivalence properties.
fn arbitrary_graph() -> impl Strategy<Value = Graph> {
    (1usize..=64).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..3 * n).prop_map(move |pairs| {
            let mut b = arbmis::graph::GraphBuilder::new(n);
            for (u, v) in pairs {
                b.try_add_edge(u, v);
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_graphs_are_well_formed(g in arb_graph(60, 200)) {
        prop_assert!(props::check_well_formed(&g).is_ok());
    }

    #[test]
    fn greedy_produces_mis(g in arb_graph(60, 200)) {
        prop_assert!(check_mis(&g, &greedy::greedy_mis(&g)).is_ok());
    }

    #[test]
    fn metivier_produces_mis(g in arb_graph(60, 200), seed in 0u64..1000) {
        prop_assert!(check_mis(&g, &metivier::run(&g, seed).in_mis).is_ok());
    }

    #[test]
    fn luby_produces_mis(g in arb_graph(50, 150), seed in 0u64..1000) {
        prop_assert!(check_mis(&g, &luby::run(&g, seed).in_mis).is_ok());
    }

    #[test]
    fn ghaffari_produces_mis(g in arb_graph(40, 120), seed in 0u64..1000) {
        prop_assert!(check_mis(&g, &ghaffari::run(&g, seed).in_mis).is_ok());
    }

    #[test]
    fn arbmis_produces_mis(g in arb_graph(40, 100), seed in 0u64..1000) {
        // Use a certified arboricity upper bound (degeneracy).
        let alpha = arboricity::degeneracy(&g).max(1);
        let out = arb_mis(&g, &ArbMisConfig::new(alpha, seed));
        prop_assert!(check_mis(&g, &out.in_mis).is_ok());
    }

    #[test]
    fn degeneracy_ordering_invariants(g in arb_graph(60, 250)) {
        let ord = degeneracy_ordering(&g);
        // Every node has ≤ degeneracy later-ordered neighbors.
        for (i, &v) in ord.order.iter().enumerate() {
            let later = g.neighbors(v).iter().filter(|&u| ord.position[u] > i).count();
            prop_assert!(later <= ord.degeneracy);
        }
        // Degeneracy is at least half the max density bound.
        prop_assert!(ord.degeneracy >= arboricity::density_lower_bound(&g).saturating_sub(1) / 2);
    }

    #[test]
    fn counting_build_matches_sorted_reference(input in edge_list()) {
        let (n, pairs) = input;
        // Every third edge again, and every other one reversed, so the
        // list holds duplicates and both orientations of an edge.
        let mut edges: Vec<(usize, usize)> =
            pairs.into_iter().filter(|&(u, v)| u < n && v < n && u != v).collect();
        let repeats: Vec<_> = edges.iter().step_by(3).copied().collect();
        let reversed: Vec<_> = edges.iter().step_by(2).map(|&(u, v)| (v, u)).collect();
        edges.extend(repeats);
        edges.extend(reversed);
        let g = Graph::from_edges(n, &edges);
        // Reference: both directions of every pair, sorted, deduplicated.
        let mut arcs: Vec<(usize, usize)> =
            edges.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect();
        arcs.sort_unstable();
        arcs.dedup();
        let mut offsets = vec![0usize; n + 1];
        for &(u, _) in &arcs {
            offsets[u + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let adj: Vec<u32> = arcs.iter().map(|&(_, v)| v as u32).collect();
        prop_assert_eq!(g.as_csr(), (&offsets[..], &adj[..]));
    }

    #[test]
    fn node_order_build_matches_graph_builder(input in node_order_input()) {
        let (n, pairs) = input;
        node_order_matches_builder(n, pairs)?;
    }

    #[test]
    fn coreness_satisfies_the_core_definition(g in arb_graph(60, 250)) {
        let core = cores::coreness(&g);
        let max = core.iter().copied().max().unwrap_or(0);
        for k in 1..=max + 1 {
            // Reference k-core: delete nodes of degree < k until none is left.
            let mut alive = vec![true; g.n()];
            let mut changed = true;
            while changed {
                changed = false;
                for v in g.nodes() {
                    let inside = g.neighbors(v).iter().filter(|&u| alive[u]).count();
                    if alive[v] && inside < k as usize {
                        alive[v] = false;
                        changed = true;
                    }
                }
            }
            for v in g.nodes() {
                let member = core[v] >= k;
                prop_assert!(member == alive[v], "node {} for k = {}", v, k);
                if member {
                    let inside = g.neighbors(v).iter().filter(|&u| core[u] >= k).count();
                    prop_assert!(inside >= k as usize);
                }
            }
        }
    }

    #[test]
    fn degeneracy_is_the_ordering_degeneracy(g in arb_graph(60, 250)) {
        prop_assert_eq!(arboricity::degeneracy(&g), degeneracy_ordering(&g).degeneracy);
        prop_assert_eq!(cores::core_decomposition(&g).degeneracy, degeneracy_ordering(&g).degeneracy);
    }

    #[test]
    fn orientation_invariants(g in arb_graph(60, 250)) {
        let o = Orientation::by_degeneracy(&g);
        prop_assert!(o.covers(&g));
        prop_assert!(o.is_acyclic());
        prop_assert!(o.max_out_degree() <= degeneracy_ordering(&g).degeneracy);
        // Parent/child views are mutually consistent.
        for v in g.nodes() {
            for &p in o.parents(v) {
                prop_assert!(o.children(p).contains(&v));
            }
        }
    }

    #[test]
    fn forest_decomposition_invariants(g in arb_graph(50, 200)) {
        let forests = forest::forests_by_degeneracy(&g);
        let total: usize = forests.iter().map(|f| f.edge_count()).sum();
        prop_assert_eq!(total, g.m());
        for f in &forests {
            prop_assert!(f.is_acyclic());
            prop_assert!(traversal::is_forest(&f.to_graph()));
        }
    }

    #[test]
    fn components_partition_nodes(g in arb_graph(60, 200)) {
        let comps = traversal::connected_components(&g);
        let sizes = comps.sizes();
        prop_assert_eq!(sizes.iter().sum::<usize>(), g.n());
        // Adjacent nodes always share a component.
        for (u, v) in g.edges() {
            prop_assert_eq!(comps.label(u), comps.label(v));
        }
    }

    #[test]
    fn two_mis_runs_may_differ_but_both_valid(g in arb_graph(40, 120)) {
        let a = metivier::run(&g, 1).in_mis;
        let b = metivier::run(&g, 2).in_mis;
        prop_assert!(check_mis(&g, &a).is_ok());
        prop_assert!(check_mis(&g, &b).is_ok());
    }

    #[test]
    fn induced_subgraph_roundtrip(g in arb_graph(50, 150), mask_seed in 0u64..100) {
        let mask: Vec<bool> = (0..g.n())
            .map(|v| arbmis::congest::rng::draw_bool(mask_seed, v, 0, 0, 0.6))
            .collect();
        let sub = arbmis::graph::InducedSubgraph::new(&g, &mask);
        // Every subgraph edge maps to a parent edge and vice versa.
        for (a, b) in sub.graph().edges() {
            prop_assert!(g.has_edge(sub.to_parent(a), sub.to_parent(b)));
        }
        let expected: usize = g
            .edges()
            .filter(|&(u, v)| mask[u] && mask[v])
            .count();
        prop_assert_eq!(sub.graph().m(), expected);
    }

    /// Shattering a region in place equals shattering the extracted
    /// subgraph and lifting the result to parent ids: masks, iteration
    /// and round counts, the parameter schedule, the per-scale trace and
    /// the recorder output.
    #[test]
    fn region_shattering_equals_extracted_subgraph(
        g in arb_graph(80, 500),
        mask_seed in 0u64..1000,
        density_pct in 20u32..100,
        seed in 0u64..1000,
        alpha in 1usize..4,
        flags in 0u8..4,
    ) {
        use arbmis::core::bounded_arb::{
            bounded_arb_independent_set_with, bounded_arb_region_with, BoundedArbConfig,
        };
        use arbmis::core::ParamMode;
        use arbmis::obs::Recorder;
        let mask: Vec<bool> = (0..g.n())
            .map(|v| arbmis::congest::rng::draw_bool(mask_seed, v, 0, 0, f64::from(density_pct) / 100.0))
            .collect();
        // Bit 0 starves the schedule (Λ = 1) so step 2(b) exiles nodes;
        // bit 1 switches the ρ_k cutoff off.
        let lambda_scale = if flags & 1 == 1 { 1e-9 } else { 1.0 };
        let cfg = BoundedArbConfig {
            alpha,
            mode: ParamMode::Practical { lambda_scale },
            seed,
            rho_cutoff: flags & 2 == 0,
            record_iterations: true,
        };
        let (rec_region, rec_sub) = (Recorder::deterministic(), Recorder::deterministic());
        let got = bounded_arb_region_with(&g, &mask, &cfg, &rec_region);
        let sub = arbmis::graph::InducedSubgraph::new(&g, &mask);
        let local = bounded_arb_independent_set_with(sub.graph(), &cfg, &rec_sub);
        let lift = |local_mask: &[bool]| {
            let mut parent = vec![false; g.n()];
            for (i, &b) in local_mask.iter().enumerate() {
                parent[sub.to_parent(i)] = b;
            }
            parent
        };
        prop_assert_eq!(&got.in_mis, &lift(&local.in_mis));
        prop_assert_eq!(&got.bad, &lift(&local.bad));
        prop_assert_eq!(&got.active, &lift(&local.active));
        prop_assert_eq!(got.iterations, local.iterations);
        prop_assert_eq!(got.rounds, local.rounds);
        prop_assert_eq!(got.params, local.params);
        prop_assert_eq!(&got.trace, &local.trace);
        prop_assert_eq!(rec_region.snapshot().to_jsonl(), rec_sub.snapshot().to_jsonl());
    }
}

// ------------------------------------------------------- backend contract

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// DESIGN.md §11 property 1: whatever the backend and flat thread
    /// count, the output is a maximal independent set.
    #[test]
    fn every_backend_output_is_a_valid_mis(g in arbitrary_graph(), seed in 0u64..1000) {
        use arbmis::core::is_valid_mis;
        use arbmis::flat::{CongestBackend, FlatAlgo, FlatBackend, MisBackend};
        for algo in [FlatAlgo::Luby, FlatAlgo::Metivier, FlatAlgo::Ghaffari] {
            for threads in [1, 2] {
                let mut b = FlatBackend::new(&g, seed, algo).with_threads(threads);
                b.run(100_000).unwrap();
                prop_assert!(is_valid_mis(&g, &b.mis().to_bools()), "flat {algo:?} × {threads}");
            }
            let mut b = CongestBackend::new(&g, seed, algo);
            b.run(100_000).unwrap();
            prop_assert!(is_valid_mis(&g, &b.mis().to_bools()), "congest {algo:?}");
        }
    }

    /// DESIGN.md §11 property 2: flat and congest agree on the joiner
    /// set at every round index, not just the final mask.
    #[test]
    fn flat_and_congest_joiners_agree_round_by_round(
        g in arbitrary_graph(),
        seed in 0u64..1000,
    ) {
        use arbmis::flat::{localize, CongestBackend, FlatAlgo, FlatBackend, MisBackend};
        for algo in [FlatAlgo::Luby, FlatAlgo::Metivier, FlatAlgo::Ghaffari] {
            let mut flat = FlatBackend::new(&g, seed, algo);
            let mut congest = CongestBackend::new(&g, seed, algo);
            let divergence = localize(&mut flat, &mut congest, 100_000).unwrap();
            prop_assert!(divergence.is_none(), "{:?}: {:?}", algo, divergence);
            prop_assert_eq!(flat.round(), congest.round());
            prop_assert_eq!(flat.mis(), congest.mis());
        }
    }
}

/// Strategy: an arbitrary graph on 1–64 nodes, up to half-dense, plus up
/// to three hubs adjacent to every node, so desire exponents climb.
fn ghaffari_graph() -> impl Strategy<Value = Graph> {
    (1usize..=64, 0usize..4).prop_flat_map(|(n, hubs)| {
        proptest::collection::vec((0..n, 0..n), 0..n * n / 2 + 1).prop_map(move |pairs| {
            let mut b = arbmis::graph::GraphBuilder::new(n);
            for (u, v) in pairs {
                b.try_add_edge(u, v);
            }
            for h in 0..hubs.min(n) {
                for v in 0..n {
                    b.try_add_edge(h, v);
                }
            }
            b.build()
        })
    })
}

/// Ghaffari's algorithm written out plainly over `Vec<bool>` flags,
/// independently of the engine: `(MIS, iterations, largest desire
/// exponent any active node reached)`.
fn reference_ghaffari(g: &Graph, seed: u64) -> (Vec<bool>, u64, u32) {
    let n = g.n();
    let mut active = vec![true; n];
    let mut in_mis = vec![false; n];
    let mut exponent = vec![1u32; n];
    let (mut iter, mut max_exponent) = (0, 1);
    while active.contains(&true) {
        let marked: Vec<bool> = (0..n)
            .map(|v| active[v] && ghaffari::is_marked(seed, v, iter, exponent[v]))
            .collect();
        let live = |v: usize| g.neighbors(v).iter().filter(|&u| active[u]);
        let winners: Vec<usize> = (0..n)
            .filter(|&v| marked[v] && live(v).all(|u| !marked[u]))
            .collect();
        let next: Vec<u32> = (0..n)
            .map(|v| {
                let d: f64 = live(v).map(|u| ghaffari::desire(exponent[u])).sum();
                ghaffari::next_exponent(exponent[v], d)
            })
            .collect();
        for v in (0..n).filter(|&v| active[v]) {
            max_exponent = max_exponent.max(next[v]);
        }
        exponent = next;
        for w in winners {
            in_mis[w] = true;
            active[w] = false;
            for u in g.neighbors(w) {
                active[u] = false;
            }
        }
        iter += 1;
    }
    (in_mis, iter, max_exponent)
}

/// Runs `FlatAlgo::Ghaffari` at one and two worker threads and checks
/// each against `ghaffari::run` and the reference: the same MIS, and
/// `3 × iterations` schedule rounds plus the closing halt round.
/// Returns the reference's largest exponent.
fn check_ghaffari(g: &Graph, seed: u64) -> Result<u32, TestCaseError> {
    use arbmis::flat::{FlatAlgo, FlatBackend, MisBackend};
    let (mis, iterations, max_exponent) = reference_ghaffari(g, seed);
    let driver = ghaffari::run(g, seed);
    prop_assert_eq!(&driver.in_mis, &mis);
    prop_assert_eq!(driver.iterations, iterations);
    prop_assert_eq!(driver.rounds, 3 * iterations);
    for threads in [1, 2] {
        let mut b = FlatBackend::new(g, seed, FlatAlgo::Ghaffari).with_threads(threads);
        let run = b.run(100_000).unwrap();
        prop_assert!(b.mis() == &mis[..], "{threads} threads: MIS");
        prop_assert!(
            run.rounds == 3 * iterations + 1,
            "{threads} threads: rounds"
        );
    }
    Ok(max_exponent)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DESIGN.md §13 for Ghaffari: the desire sums, hence the MIS and
    /// the round count, match the reference at every thread count.
    #[test]
    fn ghaffari_engine_matches_reference(
        g in ghaffari_graph(),
        seed in 0u64..1000,
    ) {
        check_ghaffari(&g, seed)?;
    }
}

/// The same check where desire exponents climb past 10: a half-dense
/// hub over dense G(n, p) keeps many nodes at effective degree ≥ 2 for
/// a dozen iterations.
#[test]
fn ghaffari_engine_matches_reference_where_exponents_exceed_10() {
    use rand::SeedableRng;
    let g = gen::gnp(200, 0.3, &mut rand::rngs::StdRng::seed_from_u64(11));
    let mut highest = 0;
    for seed in [7, 42] {
        highest = highest.max(check_ghaffari(&g, seed).unwrap());
    }
    assert!(highest > 10, "exponents peaked at {highest}");
}

/// Luby's Algorithm B written out plainly over `Vec<bool>` flags,
/// independently of the engine, recounting every active degree from
/// scratch each iteration: `(MIS, iterations)`.
fn reference_luby(g: &Graph, seed: u64) -> (Vec<bool>, u64) {
    let n = g.n();
    let mut active = vec![true; n];
    let mut in_mis = vec![false; n];
    let mut iter = 0;
    while active.contains(&true) {
        let live = |v: usize| g.neighbors(v).iter().filter(|&u| active[u]);
        let deg: Vec<usize> = (0..n).map(|v| live(v).count()).collect();
        let marked: Vec<bool> = (0..n)
            .map(|v| active[v] && deg[v] > 0 && luby::is_marked(seed, v, iter, deg[v]))
            .collect();
        let winners: Vec<usize> = (0..n)
            .filter(|&v| {
                active[v]
                    && (deg[v] == 0
                        || marked[v] && live(v).all(|u| !marked[u] || (deg[u], u) < (deg[v], v)))
            })
            .collect();
        for w in winners {
            in_mis[w] = true;
            active[w] = false;
            for u in g.neighbors(w) {
                active[u] = false;
            }
        }
        iter += 1;
    }
    (in_mis, iter)
}

/// Runs `FlatAlgo::Luby` at one and two worker threads and checks each
/// against `luby::run` and the reference: the same MIS, and
/// `3 × iterations` schedule rounds plus the closing halt round.
fn check_luby(g: &Graph, seed: u64) -> Result<(), TestCaseError> {
    use arbmis::flat::{FlatAlgo, FlatBackend, MisBackend};
    let (mis, iterations) = reference_luby(g, seed);
    let driver = luby::run(g, seed);
    prop_assert_eq!(&driver.in_mis, &mis);
    prop_assert_eq!(driver.iterations, iterations);
    for threads in [1, 2] {
        let mut b = FlatBackend::new(g, seed, FlatAlgo::Luby).with_threads(threads);
        let run = b.run(100_000).unwrap();
        prop_assert!(b.mis() == &mis[..], "{threads} threads: MIS");
        prop_assert!(
            run.rounds == 3 * iterations + 1,
            "{threads} threads: rounds"
        );
    }
    Ok(())
}

/// Strategy: a Prüfer tree on 3–300 nodes followed by 1–8 isolated
/// nodes. Degree-0 nodes are there from the start, and the exits leave
/// many more: the nodes that Luby's win sweep reaches only through their
/// marks, and whose neighbors' coin words Ghaffari's pull reads as
/// inactive.
fn tree_with_isolated_nodes() -> impl Strategy<Value = Graph> {
    (3usize..=300, 1usize..=8, 0u64..u64::MAX).prop_map(|(n, isolated, seed)| {
        use rand::SeedableRng;
        let tree = gen::random_tree_prufer(n, &mut rand::rngs::StdRng::seed_from_u64(seed));
        let edges: Vec<(usize, usize)> = tree.edges().collect();
        Graph::from_edges(n + isolated, &edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DESIGN.md §13 for Luby: the engine's degree count, hence the MIS
    /// and the round count, matches the reference at every worker-thread
    /// count, on graphs with hubs.
    #[test]
    fn luby_engine_matches_reference(g in ghaffari_graph(), seed in 0u64..1000) {
        check_luby(&g, seed)?;
    }

    /// Luby and Ghaffari match their references on trees with isolated
    /// nodes, at every worker-thread count.
    #[test]
    fn luby_and_ghaffari_match_reference_on_trees_with_isolated_nodes(
        g in tree_with_isolated_nodes(),
        seed in 0u64..1000,
    ) {
        check_luby(&g, seed)?;
        check_ghaffari(&g, seed)?;
    }
}

// ------------------------------------------------- bit-packed substrate

/// Strategy: a size plus an operation tape over `0..n` for the
/// [`BitMask`]-vs-`Vec<bool>` model check.
fn arb_mask_ops() -> impl Strategy<Value = (usize, Vec<(u8, usize)>)> {
    (1usize..=300).prop_flat_map(|n| (Just(n), proptest::collection::vec((0u8..2, 0..n), 0..4 * n)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The word-packed [`BitMask`] is observationally equivalent to a
    /// `Vec<bool>` model: after any tape of set/clear operations, the
    /// per-bit tests, the population count, the word-level iterator,
    /// and any word-range slice of it all agree with the model.
    #[test]
    fn bitmask_matches_bool_vec_model(case in arb_mask_ops(), range_seed in 0usize..97) {
        use arbmis::congest::BitMask;
        let (n, ops) = case;
        let mut mask = BitMask::new(n);
        let mut model = vec![false; n];
        for (op, v) in ops {
            if op == 0 {
                mask.set(v);
                model[v] = true;
            } else {
                mask.clear(v);
                model[v] = false;
            }
        }
        prop_assert!(mask == model[..], "bitwise equality");
        for (v, &b) in model.iter().enumerate() {
            prop_assert_eq!(mask.test(v), b);
        }
        prop_assert_eq!(mask.count_ones(), model.iter().filter(|&&b| b).count());
        let expect: Vec<usize> = (0..n).filter(|&v| model[v]).collect();
        prop_assert_eq!(mask.iter().collect::<Vec<_>>(), expect.clone());
        // An arbitrary word-range slice of the iterator agrees too.
        let nwords = n.div_ceil(64);
        let wlo = range_seed % (nwords + 1);
        let whi = nwords.min(wlo + 1 + range_seed % 3);
        let in_range: Vec<usize> = expect
            .iter()
            .copied()
            .filter(|&v| v / 64 >= wlo && v / 64 < whi)
            .collect();
        prop_assert_eq!(mask.iter_words(wlo, whi).collect::<Vec<_>>(), in_range);
        // Round-tripping through bools is the identity.
        prop_assert_eq!(BitMask::from_bools(&mask.to_bools()), mask);
    }
}

// ------------------------------------------------------------ wire format

/// Strategy: an arbitrary [`MisMsg`] across all six variants.
fn arb_mis_msg() -> impl Strategy<Value = MisMsg> {
    (0u8..6, 0u64..u64::MAX, 0u32..u32::MAX, 0u8..2).prop_map(|(tag, x, e, f)| {
        let flag = f == 1;
        match tag {
            0 => MisMsg::Priority(x),
            1 => MisMsg::LubyMark {
                degree: x,
                marked: flag,
            },
            2 => MisMsg::GhaffariMark {
                exponent: e,
                marked: flag,
            },
            3 => MisMsg::Join(flag),
            4 => MisMsg::Exit(flag),
            _ => MisMsg::Degree(x),
        }
    })
}

fn roundtrips<M: Message + PartialEq>(m: &M) -> Result<(), TestCaseError> {
    let mut buf = Vec::new();
    m.encode(&mut buf);
    let decoded = M::decode_all(&buf);
    prop_assert_eq!(decoded.as_ref(), Ok(m));
    prop_assert_eq!(m.bit_size(), buf.len() * 8);
    // `decode` consumes exactly the encoding even with bytes appended.
    buf.push(0xAB);
    let mut cursor: &[u8] = &buf;
    let back = M::decode(&mut cursor).expect("decode with trailing byte");
    prop_assert_eq!(&back, m);
    prop_assert_eq!(cursor, &[0xAB][..]);
    Ok(())
}

/// A byte-level mutation of a valid encoding: bit flips at positions
/// taken modulo the length, one splice of arbitrary bytes over a range
/// (an insertion when the range is empty), and appended bytes.
type Mutation = (Vec<(usize, u8)>, (usize, usize, Vec<u8>), Vec<u8>);

fn mutation() -> impl Strategy<Value = Mutation> {
    (
        proptest::collection::vec((0usize..1 << 16, 0u8..8), 0..4),
        (
            0usize..1 << 16,
            0usize..4,
            proptest::collection::vec(0u8..=255, 0..6),
        ),
        proptest::collection::vec(0u8..=255, 0..3),
    )
}

fn mutate(mut bytes: Vec<u8>, (flips, (at, cut, with), tail): &Mutation) -> Vec<u8> {
    let at = at % (bytes.len() + 1);
    let end = (at + cut).min(bytes.len());
    bytes.splice(at..end, with.iter().copied());
    let len = bytes.len();
    if len > 0 {
        for &(pos, bit) in flips {
            bytes[pos % len] ^= 1 << bit;
        }
    }
    bytes.extend_from_slice(tail);
    bytes
}

fn encoding<M: Message>(m: &M) -> Vec<u8> {
    let mut buf = Vec::new();
    m.encode(&mut buf);
    buf
}

/// Decodes `bytes` as every message type. Each call may return `Ok` or
/// `Err`; a panic fails the test, and whatever decodes must round-trip
/// through its own encoding.
fn decode_as_every_type(bytes: &[u8]) -> Result<(), TestCaseError> {
    fn one<M: Message + PartialEq>(bytes: &[u8]) -> Result<(), TestCaseError> {
        match M::decode_all(bytes) {
            Ok(m) => roundtrips(&m),
            Err(_) => Ok(()),
        }
    }
    one::<u64>(bytes)?;
    one::<u32>(bytes)?;
    one::<bool>(bytes)?;
    one::<()>(bytes)?;
    one::<(u64, u32)>(bytes)?;
    one::<Option<u64>>(bytes)?;
    one::<(bool, Option<(u64, u32)>)>(bytes)?;
    one::<MisMsg>(bytes)
}

/// A message whose declared size is an arbitrary *bit* count — lets the
/// budget-boundary property probe `16·⌈log₂ n⌉` exactly, not just at
/// whole-byte granularity.
#[derive(Clone, Debug, PartialEq)]
struct RawBits {
    bits: usize,
}

impl Message for RawBits {
    fn encode(&self, buf: &mut Vec<u8>) {
        message::put_varint(buf, self.bits as u64);
        buf.resize(buf.len() + self.bits.div_ceil(8), 0);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let bits = usize::try_from(message::get_varint(buf)?)
            .map_err(|_| DecodeError::Invalid("bit count overflows usize"))?;
        let bytes = bits.div_ceil(8);
        if buf.len() < bytes {
            return Err(DecodeError::UnexpectedEof);
        }
        *buf = &buf[bytes..];
        Ok(RawBits { bits })
    }

    fn bit_size(&self) -> usize {
        self.bits
    }
}

/// Broadcasts one [`RawBits`] message per node, then halts.
struct OneShot {
    bits: usize,
}

impl Protocol for OneShot {
    type State = bool;
    type Msg = RawBits;

    fn init(&self, _node: &NodeInfo) -> bool {
        false
    }

    fn round(
        &self,
        sent: &mut bool,
        _node: &NodeInfo,
        _inbox: &Inbox<RawBits>,
    ) -> Outgoing<RawBits> {
        if *sent {
            Outgoing::Halt
        } else {
            *sent = true;
            Outgoing::Broadcast(RawBits { bits: self.bits })
        }
    }

    fn is_done(&self, sent: &bool) -> bool {
        *sent
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mis_msg_decode_inverts_encode(m in arb_mis_msg()) {
        roundtrips(&m)?;
    }

    #[test]
    fn primitive_messages_roundtrip(x in 0u64..u64::MAX, y in 0u32..u32::MAX, f in 0u8..2) {
        let flag = f == 1;
        roundtrips(&x)?;
        roundtrips(&y)?;
        roundtrips(&flag)?;
        roundtrips(&(x, y))?;
        roundtrips(&Some(x))?;
        roundtrips(&Option::<u64>::None)?;
        roundtrips(&(flag, Some((x, y))))?;
    }

    #[test]
    fn truncated_encodings_never_decode(m in arb_mis_msg()) {
        let mut buf = Vec::new();
        m.encode(&mut buf);
        // Every strict prefix must fail — no encoding is a prefix of
        // another variant's (self-delimiting wire format).
        for cut in 0..buf.len() {
            prop_assert!(MisMsg::decode_all(&buf[..cut]).is_err(), "prefix of {cut} bytes");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The `decode_all` hostile-input surface: a valid encoding of every
    /// message type, mutated, then decoded as every message type.
    #[test]
    fn mutated_encodings_decode_or_err(
        m in arb_mis_msg(),
        x in 0u64..u64::MAX,
        y in 0u32..u32::MAX,
        f in 0u8..2,
        mutation in mutation(),
    ) {
        let flag = f == 1;
        let encodings = [
            encoding(&m),
            encoding(&x),
            encoding(&y),
            encoding(&flag),
            encoding(&()),
            encoding(&(x, y)),
            encoding(&Some(x)),
            encoding(&Option::<u64>::None),
            encoding(&(flag, Some((x, y)))),
        ];
        for bytes in encodings {
            decode_as_every_type(&mutate(bytes, &mutation))?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bandwidth_budget_boundary(n in 2usize..600, seed in 0u64..20) {
        let g = gen::path(n);
        let sim = Simulator::new(&g, seed);
        let budget = sim.budget_bits();
        let logn = (n.max(4) as f64).log2().ceil() as usize;
        // Budget is 16·⌈log₂ max(n, 4)⌉ bits.
        prop_assert_eq!(budget, 16 * logn);

        // Exactly at the budget: accepted.
        prop_assert!(sim.run(&OneShot { bits: budget }, 4).is_ok());
        // One bit over: rejected, and the error reports the exact sizes.
        match sim.run(&OneShot { bits: budget + 1 }, 4) {
            Err(SimulatorError::BandwidthExceeded { bits, budget: b, .. }) => {
                prop_assert_eq!(bits, budget + 1);
                prop_assert_eq!(b, budget);
            }
            other => return Err(TestCaseError::fail(format!("expected BandwidthExceeded, got {other:?}"))),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cole_vishkin_colors_random_forests(n in 2usize..300, seed in 0u64..50) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = gen::random_forest(n, 0.8, &mut rng);
        for f in forest::forests_by_degeneracy(&g) {
            let c = arbmis::core::cole_vishkin::cv_color_to_three(&f);
            prop_assert!(arbmis::core::cole_vishkin::is_proper_forest_coloring(&f, &c.colors));
            prop_assert!(c.colors.iter().all(|&x| x < 3));
        }
    }
}

// ------------------------------------------------------- overlay records

/// Applies one random overlay update to `g` and to the edge-set model.
/// `kind` picks edge insert (40%), edge remove (35%), node insert (10%),
/// node remove (10%) or compact (5%); `a` and `b` pick endpoints modulo
/// the current node count, and `b`'s bits pick a new node's neighbors.
fn apply_overlay_op(
    g: &mut arbmis::graph::OverlayGraph,
    model: &mut std::collections::BTreeSet<(usize, usize)>,
    base: &mut std::collections::BTreeSet<(usize, usize)>,
    (kind, a, b): (u8, usize, usize),
) -> Result<(), TestCaseError> {
    let n = g.n();
    let (u, v) = (a % n, b % n);
    let key = (u.min(v), u.max(v));
    let live = |g: &arbmis::graph::OverlayGraph| u != v && g.is_alive(u) && g.is_alive(v);
    match kind {
        0..40 if live(g) => prop_assert_eq!(g.insert_edge(u, v), model.insert(key)),
        40..75 if live(g) => prop_assert_eq!(g.remove_edge(u, v), model.remove(&key)),
        75..85 => {
            let nbrs: Vec<usize> = (0..n)
                .filter(|&w| g.is_alive(w) && (b >> (w % 64)) & 1 == 1)
                .collect();
            prop_assert_eq!(g.insert_node(&nbrs), n);
            model.extend(nbrs.iter().map(|&w| (w, n)));
        }
        85..95 if g.is_alive(u) => {
            g.remove_node(u);
            model.retain(|&(x, y)| x != u && y != u);
        }
        95.. => {
            g.compact();
            base.clone_from(model);
        }
        _ => {}
    }
    Ok(())
}

/// Checks the overlay's adjacency, degrees, edge queries, edge count and
/// delta entries against the edge-set model.
fn check_overlay(
    g: &arbmis::graph::OverlayGraph,
    model: &std::collections::BTreeSet<(usize, usize)>,
    base: &std::collections::BTreeSet<(usize, usize)>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(g.m(), model.len());
    prop_assert_eq!(
        g.delta_entries(),
        2 * model.symmetric_difference(base).count()
    );
    for v in 0..g.n() {
        let want: Vec<usize> = (0..g.n())
            .filter(|&u| model.contains(&(u.min(v), u.max(v))))
            .collect();
        let got: Vec<usize> = g.neighbors(v).collect();
        prop_assert!(got == want, "node {v}: neighbors {got:?}, model {want:?}");
        prop_assert!(
            g.degree(v) == want.len(),
            "node {v}: degree {}",
            g.degree(v)
        );
        for u in 0..g.n() {
            let has = g.has_edge(v, u);
            prop_assert!(has == want.contains(&u), "edge {v}-{u}: has_edge {has}");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `OverlayGraph` under random edge and node churn and compactions on
    /// bases of at most 12 nodes, where one node's `added` and `removed`
    /// parts fill, relocate and empty inside one record, matches a
    /// `BTreeSet` edge model after every step.
    #[test]
    fn overlay_matches_edge_set_model(
        g in arb_graph(13, 30),
        ops in proptest::collection::vec((0u8..100, 0usize..1 << 40, 0usize..1 << 40), 1..200),
    ) {
        let mut base: std::collections::BTreeSet<(usize, usize)> = g.edges().collect();
        let mut model = base.clone();
        let mut overlay = arbmis::graph::OverlayGraph::new(g);
        for op in ops {
            apply_overlay_op(&mut overlay, &mut model, &mut base, op)?;
            check_overlay(&overlay, &model, &base)?;
        }
    }
}
