//! Differential tests for the serial CONGEST round engine: the sparse
//! frontier must reproduce the diagnostic full scan bit for bit, and an
//! attached recorder must never perturb a run. That the protocols match
//! the flat engine and the centralized drivers is checked in
//! `tests/backend_equivalence.rs`.

use arbmis::congest::{Inbox, NodeInfo, Outgoing, Protocol, Simulator};
use arbmis::core::bounded_arb::{bounded_arb_independent_set, BoundedArbConfig};
use arbmis::core::forest_decomp::HPartitionProtocol;
use arbmis::core::protocols::*;
use arbmis::graph::gen::{GraphFamily, GraphSpec};
use rand::SeedableRng;

/// Sums node values up a rooted tree (converge-cast): each node waits for
/// all children, then sends its subtree sum to its parent. The root ends
/// with the global sum in `O(depth)` rounds. Tree edges must exist in the
/// graph. The only sparse-wave protocol: it pins frontier billing below.
struct ConvergeCast {
    parent: Vec<Option<usize>>,
    children_count: Vec<usize>,
    values: Vec<u64>,
}

impl ConvergeCast {
    fn new(parent: Vec<Option<usize>>, values: Vec<u64>) -> Self {
        assert_eq!(parent.len(), values.len());
        let mut children_count = vec![0usize; parent.len()];
        for p in parent.iter().flatten() {
            children_count[*p] += 1;
        }
        ConvergeCast {
            parent,
            children_count,
            values,
        }
    }
}

/// State of [`ConvergeCast`]: the subtree sum so far, the children
/// still to report, and whether the node has reported to its parent.
#[derive(Clone, Debug)]
struct CastState {
    sum: u64,
    pending: usize,
    done: bool,
}

impl Protocol for ConvergeCast {
    type State = CastState;
    type Msg = u64;

    fn init(&self, node: &NodeInfo) -> CastState {
        CastState {
            sum: self.values[node.id],
            pending: self.children_count[node.id],
            done: false,
        }
    }

    fn round(&self, st: &mut CastState, node: &NodeInfo, inbox: &Inbox<u64>) -> Outgoing<u64> {
        if st.done {
            return Outgoing::Halt;
        }
        for (_, &s) in inbox {
            st.sum += s;
            st.pending -= 1;
        }
        if st.pending == 0 {
            st.done = true;
            match self.parent[node.id] {
                Some(p) => Outgoing::Unicast(vec![(p, st.sum)]),
                None => Outgoing::Silent,
            }
        } else {
            Outgoing::Silent
        }
    }

    fn is_done(&self, st: &CastState) -> bool {
        st.done
    }

    /// A node still waiting for children (`pending > 0`) is inert on an
    /// empty inbox at every round — only a child's report changes it — and
    /// a `done` node's next activation is `Halt` with `is_done` already
    /// true (unobservable if skipped). So the engines only step the wave
    /// front: per-round cost is O(1) on a path, not O(n).
    fn is_quiescent(&self, st: &CastState) -> bool {
        st.done || st.pending > 0
    }
}

fn graph(fam: GraphFamily, n: usize, seed: u64) -> arbmis::graph::Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    GraphSpec::new(fam, n).generate(&mut rng)
}

/// DESIGN.md §8 rule 1, the traced-vs-untraced differential: attaching an
/// observability recorder (timing, deterministic, or none) must leave
/// transcript digests, metrics, and states bit-identical.
#[test]
fn recorder_never_perturbs_transcripts_or_metrics() {
    use arbmis::obs::Recorder;

    let g = graph(GraphFamily::GnpAvgDegree { d: 5.0 }, 150, 38);
    let (baseline, t_baseline) = Simulator::new(&g, 9)
        .run_traced(&MetivierProtocol, 50_000)
        .unwrap();
    let recorders = [
        Recorder::disabled(),
        Recorder::new(),
        Recorder::deterministic(),
    ];
    for (i, rec) in recorders.iter().enumerate() {
        let sim = Simulator::new(&g, 9).with_recorder(rec.clone());
        let (run, t) = sim.run_traced(&MetivierProtocol, 50_000).unwrap();
        let label = format!("recorder #{i}");
        assert_eq!(t.digest(), t_baseline.digest(), "{label}: digest");
        assert_eq!(t.entries(), t_baseline.entries(), "{label}: entries");
        assert_eq!(run.metrics, baseline.metrics, "{label}: metrics");
        assert_eq!(
            run.states.iter().map(|s| s.in_mis).collect::<Vec<_>>(),
            baseline.states.iter().map(|s| s.in_mis).collect::<Vec<_>>(),
            "{label}: states"
        );
    }
}

/// Runs `proto` with the diagnostic full scan (every non-halted node
/// steps every round), then compares the default sparse frontier against
/// it. Frontier bookkeeping is a pure scheduling optimization; any
/// divergence here means a protocol's `is_quiescent` or the engine's wake
/// rules are unsound (DESIGN.md §10).
fn assert_frontier_differential<P, K>(
    g: &arbmis::graph::Graph,
    seed: u64,
    proto: &P,
    max_rounds: u64,
    label: &str,
    project: impl Fn(&P::State) -> K,
) where
    P: Protocol,
    K: PartialEq + std::fmt::Debug,
{
    let (full, t_full) = Simulator::new(g, seed)
        .with_full_scan(true)
        .run_traced(proto, max_rounds)
        .unwrap_or_else(|e| panic!("{label}: full-scan run failed: {e}"));
    let (run, t) = Simulator::new(g, seed)
        .run_traced(proto, max_rounds)
        .unwrap_or_else(|e| panic!("{label}: frontier run failed: {e}"));
    assert_eq!(t.digest(), t_full.digest(), "{label}: digest");
    assert_eq!(t.entries(), t_full.entries(), "{label}: entries");
    assert_eq!(run.metrics, full.metrics, "{label}: metrics");
    let out: Vec<K> = run.states.iter().map(&project).collect();
    let full_out: Vec<K> = full.states.iter().map(&project).collect();
    assert_eq!(out, full_out, "{label}: states");
}

#[test]
fn frontier_matches_full_scan_mis_protocols() {
    let g = graph(GraphFamily::GnpAvgDegree { d: 5.0 }, 150, 41);
    for seed in 0..2 {
        assert_frontier_differential(&g, seed, &MetivierProtocol, 50_000, "metivier", |s| {
            (s.in_mis, s.active)
        });
        assert_frontier_differential(&g, seed, &LubyProtocol, 50_000, "luby", |s| {
            (s.in_mis, s.active)
        });
    }
}

#[test]
fn frontier_matches_full_scan_bounded_arb() {
    let g = graph(GraphFamily::Apollonian, 150, 42);
    for seed in 0..2 {
        let cfg = BoundedArbConfig::new(3, seed);
        let fast = bounded_arb_independent_set(&g, &cfg);
        let proto = BoundedArbProtocol {
            params: fast.params,
            rho_cutoff: true,
        };
        assert_frontier_differential(&g, seed, &proto, fast.rounds + 2, "bounded_arb", |s| {
            (s.in_mis, s.bad, s.active)
        });
    }
}

#[test]
fn frontier_matches_full_scan_h_partition() {
    // HPartition overrides `is_quiescent` (above-threshold nodes sleep),
    // so this exercises a protocol-specific quiescence predicate.
    let g = graph(GraphFamily::Apollonian, 200, 43);
    let proto = HPartitionProtocol { threshold: 9 };
    for seed in 0..2 {
        assert_frontier_differential(&g, seed, &proto, 10_000, "h_partition", |s| s.level);
    }
}

#[test]
fn frontier_matches_full_scan_converge_cast() {
    // The sharpest frontier case: a converge-cast wave on a path steps
    // exactly one node per round under the sparse frontier, ~n under the
    // full scan — yet every observable must agree.
    let n = 300;
    let g = arbmis::graph::gen::path(n);
    let parent: Vec<Option<usize>> = (0..n).map(|v| (v + 1 < n).then_some(v + 1)).collect();
    let proto = ConvergeCast::new(parent, vec![1; n]);
    for seed in 0..2 {
        assert_frontier_differential(&g, seed, &proto, n as u64 + 5, "converge_cast", |s| {
            (s.sum, s.done)
        });
    }
}

/// The sparse-tail bill, counted rather than timed: the total frontier
/// (Σ `congest_round_frontier`) of a converge-cast wave up a path is
/// O(n) under the frontier engine and Θ(n²) under the full scan.
#[test]
fn converge_cast_wave_bills_its_frontier_not_n() {
    use arbmis::obs::Recorder;

    let n = 2000;
    let g = arbmis::graph::gen::path(n);
    let parent: Vec<Option<usize>> = (0..n).map(|v| (v + 1 < n).then_some(v + 1)).collect();
    let proto = ConvergeCast::new(parent, vec![1; n]);
    let stepped = |full_scan: bool| {
        let rec = Recorder::deterministic();
        Simulator::new(&g, 0)
            .with_full_scan(full_scan)
            .with_recorder(rec.clone())
            .run(&proto, n as u64 + 5)
            .unwrap();
        rec.snapshot()
            .histogram("congest_round_frontier")
            .expect("frontier histogram")
            .sum()
    };
    let frontier = stepped(false);
    assert_eq!(frontier, 2000, "frontier engine total");
    assert!(frontier <= 4 * n as u64);
    assert!(stepped(true) >= (n * n / 4) as u64, "full scan total");
}

#[test]
fn converge_cast_sums_tree() {
    let g = arbmis::graph::gen::binary_tree(15);
    // Parent pointers of the complete binary tree.
    let parent: Vec<Option<usize>> = (0..15)
        .map(|v| if v == 0 { None } else { Some((v - 1) / 2) })
        .collect();
    let values: Vec<u64> = (0..15).map(|v| v as u64 + 1).collect();
    let cast = ConvergeCast::new(parent, values);
    let run = Simulator::new(&g, 1).run(&cast, 50).unwrap();
    assert_eq!(run.states[0].sum, (1..=15).sum::<u64>());
    // Leaf-to-root latency = depth.
    assert!(run.metrics.rounds <= 6);
}
