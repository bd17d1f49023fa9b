//! The one differential oracle for the backend equivalence contract
//! (DESIGN.md §11): for every algorithm, workload family and seed, the
//! flat engine is **round-identical** to the CONGEST simulator, and both
//! agree with the centralized drivers (`luby::run`, `metivier::run`,
//! `ghaffari::run`, `bounded_arb_independent_set`).
//!
//! Every lockstep comparison goes through [`localize`], the oracle
//! `arbmis replay` trusts. The pristine CONGEST backend is replayed
//! against the flat engine at worker threads `{1, 2, 4}` (the
//! deterministic-parallelism contract, DESIGN.md §13) and against the
//! simulator's diagnostic full scan; each pair must finish with no
//! divergent round, equal round counts and equal MIS masks. A one-shot
//! `Simulator::run` then checks the agreed outcome, so an oracle that
//! stopped early cannot certify itself.
//!
//! The backends share no execution machinery — one passes messages
//! through budget-checked planes, the other sweeps flat arrays — so any
//! drift in protocol semantics, RNG derivation, or round accounting
//! shows up here as a first-divergence round index.

use arbmis::congest::{Protocol, Simulator};
use arbmis::core::backend::schedule_rounds;
use arbmis::core::bounded_arb::{bounded_arb_independent_set, BoundedArbConfig};
use arbmis::core::protocols::{
    BoundedArbProtocol, GhaffariProtocol, LubyProtocol, MetivierProtocol, MisNodeState,
};
use arbmis::core::{ghaffari, is_valid_mis, luby, metivier, ArbParams, ParamMode};
use arbmis::flat::{localize, CongestBackend, FlatAlgo, FlatBackend, MisBackend};
use arbmis::graph::gen::{self, GraphFamily, GraphSpec};
use arbmis::graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEEDS: [u64; 4] = [0, 1, 7, 42];
const MAX_ROUNDS: u64 = 100_000;

/// Flat worker-thread counts under test.
const FLAT_THREADS: [usize; 3] = [1, 2, 4];

/// The paper's families at n = 150 — tree, forest union, planar and
/// sparse random — each with the arboricity bound BoundedArb runs under.
fn paper_families() -> Vec<(String, Graph, usize)> {
    [
        (GraphFamily::RandomTree, 1),
        (GraphFamily::ForestUnion { alpha: 2 }, 2),
        (GraphFamily::Apollonian, 3),
        (GraphFamily::GnpAvgDegree { d: 5.0 }, 4),
    ]
    .into_iter()
    .map(|(fam, alpha)| {
        let g = GraphSpec::new(fam, 150).generate(&mut StdRng::seed_from_u64(21));
        (fam.label(), g, alpha)
    })
    .collect()
}

/// Every workload family: the contract's dense-ish random, bounded
/// arboricity, spatial and preferential-attachment graphs at n = 200
/// (run with α = 3), then the paper's families.
fn families() -> Vec<(String, Graph, usize)> {
    let mut rng = StdRng::seed_from_u64(0xbac);
    let mut out = vec![
        ("gnp".into(), gen::gnp(200, 5.0 / 200.0, &mut rng), 3),
        ("ktree".into(), gen::random_ktree(200, 3, &mut rng), 3),
        (
            "geometric".into(),
            gen::random_geometric(200, 0.08, &mut rng),
            3,
        ),
        ("ba".into(), gen::barabasi_albert(200, 2, &mut rng), 3),
    ];
    out.extend(paper_families());
    out
}

/// Replays `reference` against `other` with [`localize`]: both must run
/// to completion with no divergent round, then agree on the round count
/// and the final MIS.
fn assert_agree(
    label: &str,
    reference: &mut dyn MisBackend,
    other: &mut dyn MisBackend,
    max_rounds: u64,
) {
    let divergence = localize(reference, other, max_rounds).unwrap();
    assert_eq!(divergence, None, "{label}: first divergence");
    assert!(reference.is_done(), "{label}: stopped before the end");
    assert_eq!(other.round(), reference.round(), "{label}: round count");
    assert_eq!(other.mis(), reference.mis(), "{label}: final MIS");
}

/// A one-shot `Simulator::run`'s final MIS and round count for `proto`.
fn simulator_outcome<P>(g: &Graph, seed: u64, proto: &P, max_rounds: u64) -> (Vec<bool>, u64)
where
    P: Protocol<State = MisNodeState>,
{
    let run = Simulator::new(g, seed).run(proto, max_rounds).unwrap();
    (
        run.states.iter().map(|s| s.in_mis).collect(),
        run.metrics.rounds,
    )
}

/// Full matrix for one `(graph, seed, algo)` workload: CONGEST against
/// the flat engine at every thread count and against its own full scan,
/// then a one-shot simulator run and the centralized driver against the
/// agreed outcome. Returns the agreed `(rounds, mis)`.
fn assert_workload(label: &str, g: &Graph, seed: u64, algo: FlatAlgo) -> (u64, Vec<bool>) {
    let max_rounds = match algo {
        FlatAlgo::BoundedArb { params, .. } => {
            schedule_rounds(params.total_iterations(), params.theta) + 2
        }
        _ => MAX_ROUNDS,
    };
    let mut congest = CongestBackend::new(g, seed, algo);
    let mut flats: Vec<_> = FLAT_THREADS
        .iter()
        .map(|&threads| FlatBackend::new(g, seed, algo).with_threads(threads))
        .collect();
    for (flat, threads) in flats.iter_mut().zip(FLAT_THREADS) {
        assert_agree(
            &format!("{label}/flat×{threads}"),
            &mut congest,
            flat,
            max_rounds,
        );
    }
    let mut full_scan = CongestBackend::new(g, seed, algo).with_full_scan(true);
    assert_agree(
        &format!("{label}/full-scan"),
        &mut congest,
        &mut full_scan,
        max_rounds,
    );
    let rounds = congest.round();
    let mis = congest.mis().to_bools();

    let (sim_mis, sim_rounds) = match algo {
        FlatAlgo::Luby => simulator_outcome(g, seed, &LubyProtocol, max_rounds),
        FlatAlgo::Metivier => simulator_outcome(g, seed, &MetivierProtocol, max_rounds),
        FlatAlgo::Ghaffari => simulator_outcome(g, seed, &GhaffariProtocol, max_rounds),
        FlatAlgo::BoundedArb { params, rho_cutoff } => simulator_outcome(
            g,
            seed,
            &BoundedArbProtocol { params, rho_cutoff },
            max_rounds,
        ),
        FlatAlgo::DegreeReduction { .. } => unreachable!("no CONGEST protocol"),
    };
    assert_eq!(sim_mis, mis, "{label}: simulator MIS");
    assert_eq!(sim_rounds, rounds, "{label}: simulator rounds");

    let driver = match algo {
        FlatAlgo::Luby => luby::run(g, seed),
        FlatAlgo::Metivier => metivier::run(g, seed),
        FlatAlgo::Ghaffari => ghaffari::run(g, seed),
        FlatAlgo::BoundedArb { params, rho_cutoff } => {
            // BoundedArb is not maximal: its exiled (bad) and residual
            // active sets must agree per node as well.
            let cfg = BoundedArbConfig {
                alpha: params.alpha,
                mode: params.mode,
                seed,
                rho_cutoff,
                record_iterations: false,
            };
            let out = bounded_arb_independent_set(g, &cfg);
            let bad: Vec<bool> = congest.states().iter().map(|s| s.bad).collect();
            let active: Vec<bool> = congest.states().iter().map(|s| s.active).collect();
            assert_eq!(out.params, params, "{label}: driver schedule");
            assert_eq!(out.in_mis, mis, "{label}: driver I");
            assert_eq!(out.bad, bad, "{label}: driver B");
            assert_eq!(out.active, active, "{label}: driver VIB");
            for (flat, threads) in flats.iter().zip(FLAT_THREADS) {
                let flat_active: Vec<bool> = (0..g.n()).map(|v| flat.is_active(v)).collect();
                assert_eq!(flat.bad(), &bad[..], "{label}/flat×{threads}: B");
                assert_eq!(flat_active, active, "{label}/flat×{threads}: VIB");
            }
            return (rounds, mis);
        }
        FlatAlgo::DegreeReduction { .. } => unreachable!("no CONGEST protocol"),
    };
    assert_eq!(driver.in_mis, mis, "{label}: driver MIS");
    // Three rounds per iteration plus (up to) one halting lap.
    let lower = 3 * driver.iterations;
    assert!(
        (lower..=lower + 4).contains(&rounds),
        "{label}: {rounds} rounds for {} iterations",
        driver.iterations
    );
    assert!(is_valid_mis(g, &mis), "{label}: output is not an MIS");
    (rounds, mis)
}

/// Every family plus a long path and a clique, at every seed.
fn assert_everywhere(algo: FlatAlgo) {
    let shapes = [("path", gen::path(17)), ("complete", gen::complete(9))];
    let graphs = families()
        .into_iter()
        .map(|(fam, g, _)| (fam, g))
        .chain(shapes.map(|(name, g)| (name.to_string(), g)));
    for (fam, g) in graphs {
        for seed in SEEDS {
            assert_workload(
                &format!("{}/{fam}/seed{seed}", algo.label()),
                &g,
                seed,
                algo,
            );
        }
    }
}

#[test]
fn luby_backends_equivalent() {
    assert_everywhere(FlatAlgo::Luby);
}

#[test]
fn metivier_backends_equivalent() {
    assert_everywhere(FlatAlgo::Metivier);
}

#[test]
fn ghaffari_backends_equivalent() {
    assert_everywhere(FlatAlgo::Ghaffari);
}

/// On two nodes a priority has 4 bits, so equal draws are common and the
/// `(priority, id)` tie-break decides the winner: the flat engine's must
/// be the protocol's.
#[test]
fn priority_ties_break_alike() {
    let g = gen::path(2);
    for seed in 0..32 {
        assert_workload(&format!("edge/seed{seed}"), &g, seed, FlatAlgo::Metivier);
    }
}

/// A reduced-Λ schedule, which keeps the oblivious round count
/// test-sized.
const REDUCED: ParamMode = ParamMode::Practical { lambda_scale: 0.25 };

/// BoundedArb on `g` at arboricity bound `alpha`, with Δ from the graph.
fn bounded_arb(g: &Graph, alpha: usize, mode: ParamMode, rho_cutoff: bool) -> FlatAlgo {
    let params = ArbParams::new(alpha, g.max_degree(), mode);
    FlatAlgo::BoundedArb { params, rho_cutoff }
}

#[test]
fn bounded_arb_backends_equivalent() {
    for (fam, g, alpha) in &families() {
        let algo = bounded_arb(g, *alpha, REDUCED, true);
        for seed in SEEDS {
            assert_workload(&format!("arb/{fam}/seed{seed}"), g, seed, algo);
        }
    }
}

/// The full practical-mode schedule, at each paper family's own α.
#[test]
fn bounded_arb_full_schedule_equivalent() {
    for (fam, g, alpha) in &paper_families() {
        let algo = bounded_arb(g, *alpha, ParamMode::default(), true);
        for seed in 0..2 {
            assert_workload(&format!("arb-full/{fam}/seed{seed}"), g, seed, algo);
        }
    }
}

/// The ρ-cutoff ablation (E12) must stay backend-independent as well.
#[test]
fn bounded_arb_no_rho_cutoff_equivalent() {
    let g = gen::random_ktree(150, 3, &mut StdRng::seed_from_u64(0xbad));
    let algo = bounded_arb(&g, 3, REDUCED, false);
    for seed in [3, 11] {
        assert_workload(&format!("arb-no-rho/seed{seed}"), &g, seed, algo);
    }
}

/// Degenerate graphs n ∈ {0, 1}, pinned absolutely: the empty graph
/// terminates in 0 rounds, and a single isolated node joins. Under Luby
/// and Métivier it joins at the first exit round and halts at the next
/// announce round (4 CONGEST rounds); under Ghaffari it joins once its
/// desire-level coin marks it. On one edge exactly one endpoint joins,
/// and the protocols' 24-bit messages fit the two-node budget.
#[test]
fn degenerate_graphs_agree_across_engines_and_backends() {
    let edge = Graph::from_edges(2, &[(0, 1)]);
    for algo in [FlatAlgo::Luby, FlatAlgo::Metivier, FlatAlgo::Ghaffari] {
        for seed in SEEDS {
            let label = format!("{}/one-edge/seed{seed}", algo.label());
            let (_, mis) = assert_workload(&label, &edge, seed, algo);
            assert_eq!(mis.iter().filter(|&&m| m).count(), 1, "{label}: MIS");
        }
    }
    for n in [0, 1] {
        let g = Graph::empty(n);
        for algo in [FlatAlgo::Luby, FlatAlgo::Metivier, FlatAlgo::Ghaffari] {
            for seed in SEEDS {
                let label = format!("{}/n={n}/seed{seed}", algo.label());
                let (rounds, mis) = assert_workload(&label, &g, seed, algo);
                assert_eq!(mis, vec![true; n], "{label}: MIS");
                if n == 0 || algo != FlatAlgo::Ghaffari {
                    assert_eq!(rounds, 4 * n as u64, "{label}: rounds");
                }
            }
        }
    }
}

/// Degree reduction has no CONGEST protocol, so its thread invariance
/// is the flat engine at one thread against itself at more.
#[test]
fn degree_reduction_is_thread_invisible() {
    let g = gen::gnp(160, 0.04, &mut StdRng::seed_from_u64(29));
    let algo = FlatAlgo::DegreeReduction { target: 6.0 };
    for threads in [2, 4] {
        let mut one = FlatBackend::new(&g, 9, algo);
        let mut many = FlatBackend::new(&g, 9, algo).with_threads(threads);
        assert_agree(
            &format!("degree-reduction/flat×{threads}"),
            &mut one,
            &mut many,
            MAX_ROUNDS,
        );
    }
}
