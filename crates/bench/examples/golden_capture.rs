//! Prints golden fingerprint tables for the root differential tests.
//!
//! * `golden_capture` (no argument) — the message-plane table of
//!   `tests/message_plane.rs`: transcript digest, metrics, and a state
//!   fingerprint for each broadcast-heavy stress workload.
//! * `golden_capture drivers` — the centralized-driver table of
//!   `tests/driver_golden.rs`: one fingerprint per graph and entry point
//!   (`luby::run`, `metivier::{run, run_region, run_partial}`,
//!   `bounded_arb_independent_set_with` with and without the ρ_k cutoff,
//!   the engine itself under an understated Δ, `arb_mis_with`,
//!   `ghaffari::run`, and `luby::run` beside the engine's own Luby at 2
//!   threads on 10⁵-node graphs) over masks, round and iteration counts, the full
//!   `ScaleTrace`, the `ArbMIS` phase rounds and bad-component sizes, and
//!   the deterministic recorder output.
//!
//! Run once on a known-good engine and paste the output into the test's
//! golden table. The fingerprint code here and in the tests must stay
//! identical.

use arbmis_congest::Simulator;
use arbmis_core::arb_mis::{arb_mis_with, ArbMisConfig};
use arbmis_core::bounded_arb::{
    bounded_arb_independent_set_with, BoundedArbConfig, ShatterOutcome,
};
use arbmis_core::protocols::{GhaffariProtocol, LubyProtocol, MetivierProtocol, MisNodeState};
use arbmis_core::{
    ghaffari, luby, metivier, ArbParams, FlatAlgo, FlatBackend, MisBackend, ParamMode,
};
use arbmis_graph::{gen, Graph};
use arbmis_obs::Recorder;
use rand::SeedableRng;

fn fnv(mut h: u64, x: u64) -> u64 {
    h ^= x;
    h.wrapping_mul(0x0000_0100_0000_01b3)
}

fn state_fingerprint(states: &[MisNodeState]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in states {
        h = fnv(
            h,
            u64::from(s.in_mis) | u64::from(s.active) << 1 | u64::from(s.bad) << 2,
        );
    }
    h
}

fn capture(name: &str, g: &Graph, seed: u64, which: u8) {
    let sim = Simulator::new(g, seed);
    let (run, t) = match which {
        0 => sim.run_traced(&MetivierProtocol, 100_000).unwrap(),
        1 => sim.run_traced(&LubyProtocol, 100_000).unwrap(),
        _ => sim.run_traced(&GhaffariProtocol, 100_000).unwrap(),
    };
    println!(
        "(\"{name}\", {:#018x}, {}, {}, {}, {}, {:#018x}),",
        t.digest(),
        run.metrics.rounds,
        run.metrics.messages,
        run.metrics.bits,
        run.metrics.max_message_bits,
        state_fingerprint(&run.states),
    );
}

fn message_plane() {
    let mut r11 = rand::rngs::StdRng::seed_from_u64(11);
    let mut r12 = rand::rngs::StdRng::seed_from_u64(12);
    capture("gnp300_dense_metivier", &gen::gnp(300, 0.2, &mut r11), 7, 0);
    capture("gnp150_half_luby", &gen::gnp(150, 0.5, &mut r12), 8, 1);
    capture("star400_metivier", &gen::star(400), 9, 0);
    capture("star257_ghaffari", &gen::star(257), 10, 2);
}

// ------------------------------------------------------------- drivers
// Everything from here down is mirrored verbatim in tests/driver_golden.rs.

const SEEDS: [u64; 3] = [1, 7, 42];
const PARTIAL_ITERATIONS: [u64; 3] = [0, 1, 3];

/// `(name, graph, α, parameter mode)` for every golden workload.
fn driver_graphs() -> Vec<(&'static str, Graph, usize, ParamMode)> {
    let rng = rand::rngs::StdRng::seed_from_u64;
    let practical = ParamMode::default();
    vec![
        ("empty0", Graph::empty(0), 1, practical),
        ("single1", Graph::empty(1), 1, practical),
        (
            "tree300",
            gen::random_tree_prufer(300, &mut rng(1)),
            1,
            practical,
        ),
        (
            "ktree3_300",
            gen::random_ktree(300, 3, &mut rng(2)),
            3,
            practical,
        ),
        ("gnp300", gen::gnp(300, 0.02, &mut rng(3)), 4, practical),
        (
            "ba600",
            gen::barabasi_albert(600, 2, &mut rng(4)),
            2,
            practical,
        ),
        (
            "geo400",
            gen::random_geometric(400, 0.09, &mut rng(5)),
            6,
            practical,
        ),
        // Λ = 1 per scale starves shattering, so dense geometric clusters
        // violate the Invariant and step 2(b) marks bad nodes (seed 7).
        (
            "geo1500_starved",
            gen::random_geometric(1500, 0.06, &mut rng(6)),
            3,
            ParamMode::Practical { lambda_scale: 1e-9 },
        ),
        // Faithful constants on a small tree: Θ = 0, no scale runs.
        (
            "tree100_faithful",
            gen::random_tree_prufer(100, &mut rng(7)),
            1,
            ParamMode::Faithful { p: 1 },
        ),
    ]
}

fn fp_mask(mut h: u64, mask: &[bool]) -> u64 {
    h = fnv(h, mask.len() as u64);
    for &b in mask {
        h = fnv(h, u64::from(b));
    }
    h
}

fn fp_run(run: &arbmis_core::MisRun) -> u64 {
    let h = fp_mask(0xcbf2_9ce4_8422_2325, &run.in_mis);
    fnv(fnv(h, run.iterations), run.rounds)
}

fn fp_partial(p: &metivier::PartialRun) -> u64 {
    let h = fp_mask(0xcbf2_9ce4_8422_2325, &p.in_mis);
    fnv(fp_mask(h, &p.active), p.iterations)
}

fn fp_shatter_outcome(out: &ShatterOutcome) -> u64 {
    let mut h = fp_mask(0xcbf2_9ce4_8422_2325, &out.in_mis);
    h = fp_mask(h, &out.bad);
    h = fp_mask(h, &out.active);
    for x in [
        out.iterations,
        out.rounds,
        out.params.alpha as u64,
        out.params.delta as u64,
        u64::from(out.params.theta),
        out.params.lambda,
    ] {
        h = fnv(h, x);
    }
    for t in &out.trace {
        for x in [
            u64::from(t.k),
            t.rho.to_bits(),
            t.iterations,
            t.active_start as u64,
            t.active_end as u64,
            t.joined as u64,
            t.eliminated as u64,
            t.bad_marked as u64,
            t.max_active_degree_end as u64,
            t.joined_per_iteration.len() as u64,
        ] {
            h = fnv(h, x);
        }
        for &j in &t.joined_per_iteration {
            h = fnv(h, j as u64);
        }
    }
    h
}

/// Folds the recorder's JSONL except the Phase 1 contract gauges
/// (`arbmis_degree_reduction_*`), which are newer than the rows; a unit
/// test in `arb_mis` checks them.
fn fp_recorder(mut h: u64, rec: &Recorder) -> u64 {
    for line in rec.snapshot().to_jsonl().lines() {
        if line.contains("\"name\":\"arbmis_degree_reduction_") {
            continue;
        }
        for b in line.bytes().chain([b'\n']) {
            h = fnv(h, u64::from(b));
        }
    }
    h
}

fn fp_shatter(g: &Graph, cfg: &BoundedArbConfig) -> u64 {
    let rec = Recorder::deterministic();
    let out = bounded_arb_independent_set_with(g, cfg, &rec);
    fp_recorder(fp_shatter_outcome(&out), &rec)
}

/// Steps `engine` to completion, folding every round's joiners.
fn fp_joiners(engine: &mut FlatBackend) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    while !engine.is_done() {
        engine.step_round().unwrap();
        h = fnv(h, engine.joiners().len() as u64);
        for &j in engine.joiners() {
            h = fnv(h, j as u64);
        }
    }
    h
}

/// Algorithm 1 on the engine with Δ understated as 4, so `ρ_1 ≈ 11`:
/// active nodes above it opt out at the scale start and compete again
/// once their degree falls. With the graph's true Δ no active degree
/// exceeds `ρ_k` at a scale start on graphs this small.
fn fp_flat_arb_understated(g: &Graph, alpha: usize, mode: ParamMode, seed: u64) -> u64 {
    let params = ArbParams::new(alpha, 4, mode);
    let algo = FlatAlgo::BoundedArb {
        params,
        rho_cutoff: true,
    };
    let mut engine = FlatBackend::new(g, seed, algo);
    let mut h = fp_joiners(&mut engine);
    let active: Vec<bool> = (0..g.n()).map(|v| engine.is_active(v)).collect();
    h = fp_mask(h, &engine.mis().to_bools());
    h = fp_mask(h, &engine.bad().to_bools());
    fnv(fp_mask(h, &active), engine.round())
}

/// `(name, graph, α, parameter mode)` for the `arb_mis` rows. Degree
/// reduction fires on the first three graphs and never on the rest.
fn arb_mis_graphs() -> Vec<(&'static str, Graph, usize, ParamMode)> {
    let rng = rand::rngs::StdRng::seed_from_u64;
    let practical = ParamMode::default();
    vec![
        (
            "ba2000_m1",
            gen::barabasi_albert(2000, 1, &mut rng(9)),
            1,
            practical,
        ),
        ("star300", gen::star(300), 1, practical),
        (
            "ktree3_2000",
            gen::random_ktree(2000, 3, &mut rng(8)),
            3,
            practical,
        ),
        (
            "tree2000",
            gen::random_tree_prufer(2000, &mut rng(3)),
            1,
            practical,
        ),
        ("grid40", gen::grid(40, 40), 2, practical),
        // Λ = 1 leaves a bad component for Phase 4 (seed 7).
        (
            "geo1500_starved",
            gen::random_geometric(1500, 0.06, &mut rng(6)),
            3,
            ParamMode::Practical { lambda_scale: 1e-9 },
        ),
    ]
}

/// `(name, graph, α, seeds)` for the `arb_mis` rows whose degree
/// reduction iterates more than once: dense G(n,p) at α = 1 runs 3
/// iterations at seed 0 and 2 at seed 1 with `B` empty, and a 10⁵-node
/// 3-tree competes thousands of nodes around its hubs.
fn arb_mis_iterating_graphs() -> Vec<(&'static str, Graph, usize, &'static [u64])> {
    let rng = rand::rngs::StdRng::seed_from_u64;
    vec![
        ("gnp300_dense", gen::gnp(300, 0.3, &mut rng(0)), 1, &[0, 1]),
        (
            "ktree3_100k",
            gen::random_ktree(100_000, 3, &mut rng(12)),
            3,
            &[1],
        ),
    ]
}

/// `(name, graph)` for the `ghaffari` rows: every driver graph, then
/// families where desire exponents climb (a star's centre, BA hubs,
/// dense G(n,p), a clique, and a hub over a clique).
fn ghaffari_graphs() -> Vec<(&'static str, Graph)> {
    let rng = rand::rngs::StdRng::seed_from_u64;
    let mut graphs: Vec<_> = driver_graphs()
        .into_iter()
        .map(|(name, g, ..)| (name, g))
        .collect();
    let mut hub = gen::complete(128).edges().collect::<Vec<_>>();
    hub.extend((0..128).map(|v| (v, 128)));
    graphs.extend([
        ("star300", gen::star(300)),
        ("ba2000_m3", gen::barabasi_albert(2000, 3, &mut rng(10))),
        ("gnp200_dense", gen::gnp(200, 0.3, &mut rng(11))),
        ("k100", gen::complete(100)),
        ("hub_k128", Graph::from_edges(129, &hub)),
    ]);
    graphs
}

/// `(name, graph)` for the large-n Luby rows. At 10⁵ nodes each of the
/// 2-thread sweep's chunks spans about 200 mask words, and the sweep
/// switches from dense to sparse as the active set thins out.
fn luby_large_graphs() -> Vec<(&'static str, Graph)> {
    let rng = rand::rngs::StdRng::seed_from_u64;
    vec![
        (
            "gnp4_100k",
            gen::gnp_with_expected_degree(100_000, 4.0, &mut rng(13)),
        ),
        ("tree100k", gen::random_tree_prufer(100_000, &mut rng(14))),
        ("ktree3_100k", gen::random_ktree(100_000, 3, &mut rng(12))),
    ]
}

/// Flat Luby at 2 threads, stepped to completion: every round's
/// joiners, the MIS mask and the executed round count.
fn fp_flat_luby_2t(g: &Graph, seed: u64) -> u64 {
    let mut engine = FlatBackend::new(g, seed, FlatAlgo::Luby).with_threads(2);
    let h = fp_mask(fp_joiners(&mut engine), &engine.mis().to_bools());
    fnv(h, engine.round())
}

fn fp_arb_mis(g: &Graph, cfg: &ArbMisConfig) -> u64 {
    let rec = Recorder::deterministic();
    let out = arb_mis_with(g, cfg, &rec);
    let mut h = fp_mask(fp_shatter_outcome(&out.shatter), &out.in_mis);
    let p = out.phases;
    for x in [
        out.rounds,
        p.degree_reduction,
        p.shattering,
        p.vlo,
        p.vhi,
        p.bad_components,
        out.bad_component_sizes.len() as u64,
    ] {
        h = fnv(h, x);
    }
    for &size in &out.bad_component_sizes {
        h = fnv(h, size as u64);
    }
    fp_recorder(h, &rec)
}

/// One fingerprint per `(graph, driver)`, folding every seed.
fn driver_fingerprints() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for (name, g, alpha, mode) in driver_graphs() {
        let region: Vec<bool> = (0..g.n()).map(|v| v % 3 != 1).collect();
        let mut row = |driver: &str, f: &dyn Fn(u64) -> u64| {
            let h = SEEDS
                .iter()
                .fold(0xcbf2_9ce4_8422_2325, |h, &s| fnv(h, f(s)));
            rows.push((format!("{name}/{driver}"), h));
        };
        row("luby", &|s| fp_run(&luby::run(&g, s)));
        row("metivier", &|s| fp_run(&metivier::run(&g, s)));
        row("metivier_region", &|s| {
            fp_run(&metivier::run_region(&g, &region, s))
        });
        for it in PARTIAL_ITERATIONS {
            row(&format!("metivier_partial{it}"), &|s| {
                fp_partial(&metivier::run_partial(&g, s, it))
            });
        }
        for rho_cutoff in [true, false] {
            row(&format!("bounded_arb_rho{}", u8::from(rho_cutoff)), &|s| {
                let cfg = BoundedArbConfig {
                    alpha,
                    mode,
                    seed: s,
                    rho_cutoff,
                    record_iterations: rho_cutoff,
                };
                fp_shatter(&g, &cfg)
            });
        }
        row("flat_arb_understated", &|s| {
            fp_flat_arb_understated(&g, alpha, mode, s)
        });
    }
    for (name, g, alpha, mode) in arb_mis_graphs() {
        let h = SEEDS.iter().fold(0xcbf2_9ce4_8422_2325, |h, &s| {
            let cfg = ArbMisConfig {
                mode,
                ..ArbMisConfig::new(alpha, s)
            };
            fnv(h, fp_arb_mis(&g, &cfg))
        });
        rows.push((format!("{name}/arb_mis"), h));
    }
    for (name, g) in ghaffari_graphs() {
        let h = SEEDS.iter().fold(0xcbf2_9ce4_8422_2325, |h, &s| {
            fnv(h, fp_run(&ghaffari::run(&g, s)))
        });
        rows.push((format!("{name}/ghaffari"), h));
    }
    for (name, g, alpha, seeds) in arb_mis_iterating_graphs() {
        let h = seeds.iter().fold(0xcbf2_9ce4_8422_2325, |h, &s| {
            fnv(h, fp_arb_mis(&g, &ArbMisConfig::new(alpha, s)))
        });
        rows.push((format!("{name}/arb_mis"), h));
    }
    for (name, g) in luby_large_graphs() {
        let h = SEEDS.iter().fold(0xcbf2_9ce4_8422_2325, |h, &s| {
            fnv(h, fp_run(&luby::run(&g, s)))
        });
        rows.push((format!("{name}/luby"), h));
        let h = SEEDS.iter().fold(0xcbf2_9ce4_8422_2325, |h, &s| {
            fnv(h, fp_flat_luby_2t(&g, s))
        });
        rows.push((format!("{name}/flat_luby_2t"), h));
    }
    rows
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("drivers") => {
            for (name, h) in driver_fingerprints() {
                println!("(\"{name}\", {h:#018x}),");
            }
        }
        _ => message_plane(),
    }
}
