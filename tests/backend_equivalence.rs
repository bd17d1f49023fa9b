//! Differential oracle for the backend equivalence contract
//! (DESIGN.md §11): for every algorithm, workload family, and seed, the
//! flat shared-memory backend must be **round-identical** to the CONGEST
//! simulator — the per-round joiner sets, the final MIS, and the total
//! round count all agree, at every flat worker-thread count, under both
//! simulator scheduling modes, and against a one-shot `Simulator::run`.
//!
//! The backends share no execution machinery — one passes messages
//! through budget-checked planes, the other sweeps flat arrays — so any
//! drift in protocol semantics, RNG derivation, or round accounting
//! shows up here as a first-divergence round index.
//!
//! The flat engine side of the matrix runs worker threads `{1, 2, 4}`:
//! the deterministic-parallelism contract (DESIGN.md §13) rides on the
//! same lockstep assertions.

use arbmis::congest::{Protocol, Simulator};
use arbmis::core::protocols::{
    BoundedArbProtocol, GhaffariProtocol, LubyProtocol, MetivierProtocol, MisNodeState,
};
use arbmis::core::{ArbParams, ParamMode};
use arbmis::flat::{CongestBackend, FlatAlgo, FlatBackend, MisBackend};
use arbmis::graph::{gen, Graph};
use rand::SeedableRng;

const SEEDS: [u64; 4] = [0, 1, 7, 42];
const MAX_ROUNDS: u64 = 100_000;

/// Flat worker-thread counts under test.
const FLAT_THREADS: [usize; 3] = [1, 2, 4];

/// The four workload families of the contract: dense-ish random, bounded
/// arboricity, spatial, and preferential attachment.
fn families(n: usize) -> Vec<(&'static str, Graph)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xbac);
    vec![
        ("gnp", gen::gnp(n, 5.0 / n as f64, &mut rng)),
        ("ktree", gen::random_ktree(n, 3, &mut rng)),
        ("geometric", gen::random_geometric(n, 0.08, &mut rng)),
        ("ba", gen::barabasi_albert(n, 2, &mut rng)),
    ]
}

/// Steps every backend in lockstep, asserting identical done flags and
/// joiner sets at every round, then identical final MIS and round
/// counts. Returns `(rounds, mis)` for downstream comparisons.
fn assert_lockstep(label: &str, backends: &mut [&mut dyn MisBackend]) -> (u64, Vec<bool>) {
    for b in backends.iter_mut() {
        b.init();
    }
    loop {
        let done = backends[0].is_done();
        let round = backends[0].round();
        for (i, b) in backends.iter().enumerate().skip(1) {
            assert_eq!(
                b.is_done(),
                done,
                "{label}: backend #{i} done flag diverges at round {round}"
            );
        }
        if done {
            break;
        }
        assert!(round < MAX_ROUNDS, "{label}: runaway at round {round}");
        for b in backends.iter_mut() {
            b.step_round().unwrap();
        }
        let (first, rest) = backends.split_first().unwrap();
        for (i, b) in rest.iter().enumerate() {
            assert_eq!(
                b.joiners(),
                first.joiners(),
                "{label}: backend #{} joiners diverge at round {round}",
                i + 1
            );
        }
    }
    let rounds = backends[0].round();
    let mis = backends[0].mis().to_bools();
    for (i, b) in backends.iter().enumerate().skip(1) {
        assert_eq!(b.round(), rounds, "{label}: backend #{i} round count");
        assert_eq!(b.mis(), &mis[..], "{label}: backend #{i} final MIS");
    }
    (rounds, mis)
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

/// Full matrix for one `(graph, seed, algo)` workload: the flat engine
/// at every thread count vs both simulator scheduling modes in
/// lockstep, then a one-shot simulator run against the agreed outcome.
fn assert_workload(label: &str, g: &Graph, seed: u64, algo: FlatAlgo, max_rounds: u64) {
    let mut flats: Vec<_> = FLAT_THREADS
        .iter()
        .map(|&threads| FlatBackend::new(g, seed, algo).with_threads(threads))
        .collect();
    let mut congest = CongestBackend::new(g, seed, algo);
    let mut congest_full = CongestBackend::new(g, seed, algo).with_full_scan(true);
    let mut backends: Vec<&mut dyn MisBackend> = vec![&mut congest];
    backends.extend(flats.iter_mut().map(|f| f as &mut dyn MisBackend));
    backends.push(&mut congest_full);
    let (rounds, mis) = assert_lockstep(label, &mut backends);
    if !matches!(algo, FlatAlgo::BoundedArb { .. }) {
        assert!(
            arbmis::core::is_valid_mis(g, &mis),
            "{label}: output is not an MIS"
        );
    }
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
}

#[test]
fn luby_backends_equivalent() {
    for (fam, g) in &families(200) {
        for seed in SEEDS {
            assert_workload(
                &format!("luby/{fam}/seed{seed}"),
                g,
                seed,
                FlatAlgo::Luby,
                MAX_ROUNDS,
            );
        }
    }
}

#[test]
fn metivier_backends_equivalent() {
    for (fam, g) in &families(200) {
        for seed in SEEDS {
            assert_workload(
                &format!("metivier/{fam}/seed{seed}"),
                g,
                seed,
                FlatAlgo::Metivier,
                MAX_ROUNDS,
            );
        }
    }
}

#[test]
fn ghaffari_backends_equivalent() {
    for (fam, g) in &families(200) {
        for seed in SEEDS {
            assert_workload(
                &format!("ghaffari/{fam}/seed{seed}"),
                g,
                seed,
                FlatAlgo::Ghaffari,
                MAX_ROUNDS,
            );
        }
    }
}

#[test]
fn bounded_arb_backends_equivalent() {
    // A reduced-Λ schedule keeps the oblivious round count test-sized;
    // the full practical-mode schedule is exercised in equivalence.rs.
    for (fam, g) in &families(200) {
        let params = ArbParams::new(
            3,
            g.max_degree(),
            ParamMode::Practical { lambda_scale: 0.25 },
        );
        let proto = BoundedArbProtocol {
            params,
            rho_cutoff: true,
        };
        let max_rounds = proto.total_rounds() + 2;
        for seed in SEEDS {
            let algo = FlatAlgo::BoundedArb {
                params,
                rho_cutoff: true,
            };
            let label = format!("arb/{fam}/seed{seed}");
            assert_workload(&label, g, seed, algo, max_rounds);
            // The shattering outputs beyond the MIS mask must agree too:
            // exiled (bad) and residual active sets, per node.
            let mut flat = FlatBackend::new(g, seed, algo);
            let mut congest = CongestBackend::new(g, seed, algo);
            flat.run(max_rounds).unwrap();
            congest.run(max_rounds).unwrap();
            for (v, s) in congest.states().iter().enumerate() {
                assert_eq!(flat.bad().test(v), s.bad, "{label}: bad[{v}]");
                assert_eq!(flat.is_active(v), s.active, "{label}: active[{v}]");
            }
        }
    }
}

/// The ρ-cutoff ablation (E12) must stay backend-independent as well.
#[test]
fn bounded_arb_no_rho_cutoff_equivalent() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xbad);
    let g = gen::random_ktree(150, 3, &mut rng);
    let params = ArbParams::new(
        3,
        g.max_degree(),
        ParamMode::Practical { lambda_scale: 0.25 },
    );
    let proto = BoundedArbProtocol {
        params,
        rho_cutoff: false,
    };
    for seed in [3, 11] {
        assert_workload(
            &format!("arb-no-rho/seed{seed}"),
            &g,
            seed,
            FlatAlgo::BoundedArb {
                params,
                rho_cutoff: false,
            },
            proto.total_rounds() + 2,
        );
    }
}
