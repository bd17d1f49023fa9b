//! Pins the zero-allocation steady state of the serial engine's message
//! plane and frontier bookkeeping, the component-proportional
//! allocation bound of `SubgraphScratch`, and the arena-backed deltas and
//! node churn of `OverlayGraph`.
//!
//! Strategy for the engine tests: run the same constant-traffic protocol
//! for R rounds and for 8R rounds under a counting global allocator. Both
//! runs allocate the same warmup set from scratch (states, planes,
//! frontiers, histogram buckets), so if steady-state rounds allocate
//! nothing the two totals are *equal*; any per-round allocation would
//! show up multiplied by the extra 7R rounds.
//!
//! The counters are process-global and even idle harness threads
//! allocate (spawn bookkeeping, result reporting), so this file holds
//! exactly one `#[test]` running every check sequentially — do not split
//! it into separate tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use arbmis::congest::{Inbox, NodeInfo, Outgoing, Protocol, Simulator};

/// Every node broadcasts the constant `1` each round (constant per-round
/// traffic, constant message size, constant histogram bucket set) and
/// halts after `rounds` rounds.
#[derive(Clone, Copy, Debug)]
struct Chatter {
    rounds: u64,
}

#[derive(Clone, Debug)]
struct ChatterState {
    heard: u64,
    done: bool,
}

impl Protocol for Chatter {
    type State = ChatterState;
    type Msg = u64;

    fn init(&self, _node: &NodeInfo) -> ChatterState {
        ChatterState {
            heard: 0,
            done: false,
        }
    }

    fn round(&self, st: &mut ChatterState, node: &NodeInfo, inbox: &Inbox<u64>) -> Outgoing<u64> {
        for (_, &m) in inbox {
            st.heard += m;
        }
        if node.round >= self.rounds {
            st.done = true;
            Outgoing::Halt
        } else {
            Outgoing::Broadcast(1)
        }
    }

    fn is_done(&self, st: &ChatterState) -> bool {
        st.done
    }
}

/// Only node 0 broadcasts; every other node starts `done` (hence
/// quiescent under the default predicate) and is woken each round purely
/// by the frontier's message-wake rule. Steady state churns the
/// insert/remove/swap paths of the frontier bitsets with a two-node
/// active set on a 400-node graph.
#[derive(Clone, Copy, Debug)]
struct SparseTicker {
    rounds: u64,
}

#[derive(Clone, Debug)]
struct TickState {
    heard: u64,
    done: bool,
}

impl Protocol for SparseTicker {
    type State = TickState;
    type Msg = u64;

    fn init(&self, node: &NodeInfo) -> TickState {
        TickState {
            heard: 0,
            done: node.id != 0,
        }
    }

    fn round(&self, st: &mut TickState, node: &NodeInfo, inbox: &Inbox<u64>) -> Outgoing<u64> {
        for (_, &m) in inbox {
            st.heard += m;
        }
        if node.id == 0 {
            if node.round >= self.rounds {
                st.done = true;
                return Outgoing::Halt;
            }
            return Outgoing::Broadcast(1);
        }
        Outgoing::Silent
    }

    fn is_done(&self, st: &TickState) -> bool {
        st.done
    }
}

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

fn bytes_during(f: impl FnOnce()) -> u64 {
    let before = BYTES.load(Ordering::Relaxed);
    f();
    BYTES.load(Ordering::Relaxed) - before
}

#[test]
fn alloc_discipline() {
    serial_engine_steady_state_allocates_nothing();
    frontier_bookkeeping_steady_state_allocates_nothing();
    subgraph_scratch_extraction_is_component_proportional();
    flat_backend_steady_state_allocates_nothing();
    overlay_first_touches_share_one_arena();
    overlay_node_churn_reuses_its_scratch();
}

fn serial_engine_steady_state_allocates_nothing() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let g = arbmis::graph::gen::gnp(400, 0.05, &mut rng);

    let run = |rounds: u64| {
        let proto = Chatter { rounds };
        let out = Simulator::new(&g, 3).run(&proto, rounds + 10).unwrap();
        assert_eq!(out.metrics.rounds, rounds + 1);
        std::hint::black_box(out);
    };

    // Warm up lazy runtime state (thread-locals, etc.) outside the window.
    run(4);

    let short = allocs_during(|| run(32));
    let long = allocs_during(|| run(256));
    assert_eq!(
        short, long,
        "serial engine allocated in steady-state rounds: \
         {short} allocations over 32 rounds vs {long} over 256"
    );
}

fn frontier_bookkeeping_steady_state_allocates_nothing() {
    let g = arbmis::graph::gen::path(400);

    let run = |rounds: u64| {
        let proto = SparseTicker { rounds };
        let out = Simulator::new(&g, 5).run(&proto, rounds + 10).unwrap();
        assert_eq!(out.metrics.rounds, rounds + 1);
        // The sparse frontier really was sparse: one message per
        // broadcasting round (node 0 has a single path neighbor).
        assert_eq!(out.metrics.messages, rounds);
        std::hint::black_box(out);
    };

    run(4);

    let short = allocs_during(|| run(32));
    let long = allocs_during(|| run(256));
    assert_eq!(
        short, long,
        "frontier bookkeeping allocated in steady-state rounds: \
         {short} allocations over 32 rounds vs {long} over 256"
    );
}

/// After one warm-up execution has sized every scratch vector (joiner
/// buffers grow to the largest per-round winner set, nothing else
/// grows), re-running the flat backend from `init()` must allocate
/// nothing at all: `reset()` rewinds in place — word fills on the
/// bit-packed masks, no per-node loops — and the round sweeps only
/// reuse buffers (DESIGN.md §11, §13). Runs are deterministic, so
/// repeat executions replay the exact same buffer demands. Ghaffari's
/// exponents and coin words are sized at construction and rewritten in
/// place, never regrown. BoundedArb runs on a 3-tree, with and without
/// the ρ_k cutoff, so its bad-exit sweep is covered too, and so does
/// degree reduction, whose competitor scan shares the loser mask with
/// the priority win scans. Luby and Ghaffari also run on a Prüfer tree,
/// whose exits leave degree-0 nodes for Luby's marked-node walk.
fn flat_backend_steady_state_allocates_nothing() {
    use arbmis::core::{ArbParams, ParamMode};
    use arbmis::flat::{FlatAlgo, FlatBackend, MisBackend};
    use arbmis::graph::{gen, Graph};
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let gnp = gen::gnp(400, 0.02, &mut rng);
    let ktree = gen::random_ktree(400, 3, &mut rng);
    let tree = gen::random_tree_prufer(400, &mut rng);
    let delta = ktree.degree_histogram().len().saturating_sub(1);
    let params = ArbParams::new(3, delta, ParamMode::default());

    let cases: [(&Graph, FlatAlgo); 8] = [
        (&gnp, FlatAlgo::Luby),
        (&gnp, FlatAlgo::Metivier),
        (&gnp, FlatAlgo::Ghaffari),
        (&tree, FlatAlgo::Luby),
        (&tree, FlatAlgo::Ghaffari),
        (
            &ktree,
            FlatAlgo::BoundedArb {
                params,
                rho_cutoff: true,
            },
        ),
        (
            &ktree,
            FlatAlgo::BoundedArb {
                params,
                rho_cutoff: false,
            },
        ),
        (
            &ktree,
            FlatAlgo::DegreeReduction {
                target: (delta / 2) as f64,
            },
        ),
    ];
    for (g, algo) in cases {
        let mut b = FlatBackend::new(g, 3, algo);
        let warm = b.run(100_000).unwrap();
        assert!(warm.rounds > 0);
        let reruns = allocs_during(|| {
            for _ in 0..8 {
                let rerun = b.run(100_000).unwrap();
                assert_eq!(rerun.rounds, warm.rounds);
            }
        });
        assert_eq!(
            reruns, 0,
            "flat backend ({algo:?}) allocated {reruns} times across 8 warm re-runs"
        );
    }
}

/// `SubgraphScratch::induce` must cost O(|C| + m(C)) per component: the
/// byte total for extracting a fixed set of components is identical on a
/// parent graph 8× larger (no hidden O(n) term), stays within a small
/// per-component budget, and sits orders of magnitude below what one
/// legacy `InducedSubgraph::from_nodes` call spends on its O(n) tables.
fn subgraph_scratch_extraction_is_component_proportional() {
    use arbmis::graph::{Graph, InducedSubgraph, SubgraphScratch};

    // k disjoint 4-cycles: component c owns nodes 4c..4c+4.
    let build = |k: usize| {
        let mut edges = Vec::new();
        for c in 0..k {
            let b = 4 * c;
            edges.extend([(b, b + 1), (b + 1, b + 2), (b + 2, b + 3), (b, b + 3)]);
        }
        Graph::from_edges(4 * k, &edges)
    };
    let g_small = build(512); // n = 2048
    let g_big = build(4096); // n = 16384

    let mut scratch = SubgraphScratch::new();
    let mut extract = |g: &Graph| {
        // Warmup sizes the epoch tables for this graph outside the window.
        std::hint::black_box(scratch.induce(g, &[0, 1, 2, 3]).graph().m());
        bytes_during(|| {
            for c in 1..=256 {
                let b = 4 * c;
                let sub = scratch.induce(g, &[b, b + 1, b + 2, b + 3]);
                assert_eq!(sub.graph().m(), 4);
                std::hint::black_box(sub.to_parent(0));
            }
        })
    };
    let small = extract(&g_small);
    let big = extract(&g_big);
    assert_eq!(
        small, big,
        "scratch extraction bytes depend on parent graph size: \
         {small} at n=2048 vs {big} at n=16384"
    );
    let per_component = big / 256;
    assert!(
        per_component < 2048,
        "scratch extraction spent {per_component} bytes per 4-node component"
    );

    // Contrast: one legacy extraction allocates Θ(n) for its mask and
    // parent→local table alone.
    let legacy = bytes_during(|| {
        std::hint::black_box(InducedSubgraph::from_nodes(&g_big, &[0, 1, 2, 3]).n());
    });
    assert!(
        legacy >= g_big.n() as u64,
        "expected from_nodes to allocate O(n) = {} bytes, measured {legacy}",
        g_big.n()
    );
}

/// `OverlayGraph` keeps every node's delta run in one arena, so a node's
/// first delta allocates nothing of its own: inserting and then removing
/// 10,000 edges between distinct fresh base nodes (20,000 first touches)
/// costs only the arena's geometric growth.
fn overlay_first_touches_share_one_arena() {
    use arbmis::graph::{Graph, OverlayGraph};
    let edges = 10_000;
    let mut g = OverlayGraph::new(Graph::empty(2 * edges));
    let allocs = allocs_during(|| {
        for i in 0..edges {
            assert!(g.insert_edge(2 * i, 2 * i + 1));
        }
        for i in 0..edges {
            assert!(g.remove_edge(2 * i + 1, 2 * i));
        }
    });
    assert_eq!((g.m(), g.delta_entries()), (0, 0));
    assert!(
        allocs <= 64,
        "overlay allocated {allocs} times for {edges} edges between fresh nodes"
    );
}

/// Warm node churn on an `OverlayGraph`: each step inserts a node wired
/// to three base hosts and removes the previous arrival. `remove_node`
/// detaches neighbors through a reused scratch buffer, so 10,000 steps
/// cost only the geometric growth of the per-node tables and the arena,
/// not an allocation per removal.
fn overlay_node_churn_reuses_its_scratch() {
    use arbmis::graph::{gen, OverlayGraph};
    let n = 1024;
    let mut g = OverlayGraph::new(gen::path(n));
    let mut prev = None;
    let mut churn = |g: &mut OverlayGraph, steps: usize| {
        for i in 0..steps {
            let v = g.insert_node(&[i % n, (7 * i + 3) % n, (31 * i + 5) % n]);
            if let Some(p) = prev.replace(v) {
                g.remove_node(p);
            }
        }
    };
    churn(&mut g, 256);
    let steps = 10_000;
    let allocs = allocs_during(|| churn(&mut g, steps));
    assert_eq!(g.alive_count(), n + 1);
    assert!(
        allocs <= 64,
        "overlay allocated {allocs} times over {steps} node insert/remove steps"
    );
}
