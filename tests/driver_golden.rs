//! Golden differential for the centralized MIS drivers.
//!
//! `luby::run`, `metivier::{run, run_region, run_partial}`,
//! `ghaffari::run` and `bounded_arb_independent_set_with` are thin
//! drivers over the flat engine (`arbmis_core::FlatBackend`), and they
//! must reproduce every fingerprint of the table below bit for bit. A fingerprint
//! folds, over seeds {1, 7, 42}, the MIS mask, the iteration and round
//! counts, the residual active and bad masks, the parameter schedule, the
//! full per-scale `ScaleTrace`, and the deterministic recorder output
//! (shattering span, joiner histogram, bad-marked points and Invariant
//! headroom gauges).
//!
//! The driver rows were captured from the earlier standalone loops, each
//! of which kept its own active set and degree table. The
//! `flat_arb_understated` rows (the engine with Δ understated, so degrees
//! exceed `ρ_k` at a scale start) and the first six `arb_mis` rows (phase
//! rounds, the full shatter outcome and bad-component sizes, with and
//! without degree reduction) were captured from the engine that
//! maintained active degrees in every BoundedArb scale and ran ArbMIS's
//! shattering on an extracted copy of the residual graph. The `ghaffari`
//! rows (MIS mask, iterations and rounds, on every driver graph plus a
//! star, BA hubs, dense G(n,p), a clique and a hub over a clique, where
//! desire exponents climb) were captured from `ghaffari::run`'s own loop.
//! The last two `arb_mis` rows (dense G(n,p) at α = 1, where degree
//! reduction iterates two or three times, and a 10⁵-node 3-tree) were
//! captured from the pipeline that ran degree reduction in its own loop
//! and gave every later phase a fresh engine. The six large-n Luby rows
//! (`luby::run` and the engine at 2 threads on 10⁵-node G(n, d̄ = 4), a
//! Prüfer tree and a 3-tree) were captured from the engine that kept
//! Luby's active degrees exact by decrementing every neighbor of each
//! removed node. The recorder fold leaves
//! out the `arbmis_degree_reduction_*` gauges, which are newer than every
//! row.
//!
//! On a mismatch the test prints the full table it computed in the
//! `GOLDEN` literal's format. To recapture, run the test on a known-good
//! commit and paste the table it prints.

use arbmis::core::arb_mis::{arb_mis_with, ArbMisConfig};
use arbmis::core::bounded_arb::{
    bounded_arb_independent_set_with, BoundedArbConfig, ShatterOutcome,
};
use arbmis::core::{
    ghaffari, luby, metivier, ArbParams, FlatAlgo, FlatBackend, MisBackend, ParamMode,
};
use arbmis::graph::{gen, Graph};
use arbmis::obs::Recorder;
use rand::SeedableRng;

/// `(graph/driver, fingerprint)`, captured as described in the module
/// docs.
const GOLDEN: [(&str, u64); 109] = [
    ("empty0/luby", 0x4e3583d08ce6ac2c),
    ("empty0/metivier", 0x4e3583d08ce6ac2c),
    ("empty0/metivier_region", 0x4e3583d08ce6ac2c),
    ("empty0/metivier_partial0", 0x4e3583d08ce6ac2c),
    ("empty0/metivier_partial1", 0x4e3583d08ce6ac2c),
    ("empty0/metivier_partial3", 0x4e3583d08ce6ac2c),
    ("empty0/bounded_arb_rho1", 0x17a394c3e89c3a95),
    ("empty0/bounded_arb_rho0", 0x17a394c3e89c3a95),
    ("empty0/flat_arb_understated", 0x69c0bb008cd0acfe),
    ("single1/luby", 0x3df7d4bee1d9f6b0),
    ("single1/metivier", 0x3df7d4bee1d9f6b0),
    ("single1/metivier_region", 0x3df7d4bee1d9f6b0),
    ("single1/metivier_partial0", 0x1bbb163fb6b53559),
    ("single1/metivier_partial1", 0x1a8122bc889f332e),
    ("single1/metivier_partial3", 0x1a8122bc889f332e),
    ("single1/bounded_arb_rho1", 0x1a383946ffbcbbcd),
    ("single1/bounded_arb_rho0", 0x1a383946ffbcbbcd),
    ("single1/flat_arb_understated", 0xbf8cd52323fcbcf5),
    ("tree300/luby", 0x1cb2f38659b980b7),
    ("tree300/metivier", 0x581cc5618eeb64de),
    ("tree300/metivier_region", 0x1d49b13f044a95ff),
    ("tree300/metivier_partial0", 0xfc83af50ac2397a0),
    ("tree300/metivier_partial1", 0x458753ffb9231916),
    ("tree300/metivier_partial3", 0xa5a90ccc9b7c1e3d),
    ("tree300/bounded_arb_rho1", 0x447fef05f07b485e),
    ("tree300/bounded_arb_rho0", 0x4de7bf7ef4b35678),
    ("tree300/flat_arb_understated", 0x0fc161523bc5e9e1),
    ("ktree3_300/luby", 0x4290a951bf049f89),
    ("ktree3_300/metivier", 0xccbc236d075ba10d),
    ("ktree3_300/metivier_region", 0xb9fbde34cb9ba98d),
    ("ktree3_300/metivier_partial0", 0xfc83af50ac2397a0),
    ("ktree3_300/metivier_partial1", 0x4975ded46da2ef6d),
    ("ktree3_300/metivier_partial3", 0xe863136f1411b920),
    ("ktree3_300/bounded_arb_rho1", 0x4322658f4d9217ae),
    ("ktree3_300/bounded_arb_rho0", 0x7b59b4a72ac265cc),
    ("ktree3_300/flat_arb_understated", 0x85efcaf8dcaa6bf7),
    ("gnp300/luby", 0x12601632ec799177),
    ("gnp300/metivier", 0x400f7dc42240ce9a),
    ("gnp300/metivier_region", 0x1ab26573ee97807e),
    ("gnp300/metivier_partial0", 0xfc83af50ac2397a0),
    ("gnp300/metivier_partial1", 0x87120a9a538f2bc6),
    ("gnp300/metivier_partial3", 0x1335fca3c63ab353),
    ("gnp300/bounded_arb_rho1", 0x62788317fac44f1c),
    ("gnp300/bounded_arb_rho0", 0x365f0251afa29296),
    ("gnp300/flat_arb_understated", 0xeaaa30f904e6574e),
    ("ba600/luby", 0x7f5f7fd9a20a5e4b),
    ("ba600/metivier", 0xaa3406b06cdf678a),
    ("ba600/metivier_region", 0xdd736148db53dd6d),
    ("ba600/metivier_partial0", 0x7585ed2a3721aef4),
    ("ba600/metivier_partial1", 0xe58890f9e6fee5e1),
    ("ba600/metivier_partial3", 0x6542e91c8fcc4c53),
    ("ba600/bounded_arb_rho1", 0xb9955ef2be001415),
    ("ba600/bounded_arb_rho0", 0x019754a6de66a6af),
    ("ba600/flat_arb_understated", 0x0ad89de29b32f065),
    ("geo400/luby", 0xa2c381f0e8c9ed01),
    ("geo400/metivier", 0x1d01b4a3f1efb3d7),
    ("geo400/metivier_region", 0xaec62a9cfa605775),
    ("geo400/metivier_partial0", 0x102452ae34a78ebc),
    ("geo400/metivier_partial1", 0x1bc47794a125dcc8),
    ("geo400/metivier_partial3", 0x885504df6c15194a),
    ("geo400/bounded_arb_rho1", 0x66ec63d04fc39872),
    ("geo400/bounded_arb_rho0", 0xf190ea6f0ebfa848),
    ("geo400/flat_arb_understated", 0xe7e07b314550cc16),
    ("geo1500_starved/luby", 0x15a603d58d97e822),
    ("geo1500_starved/metivier", 0x7f66f25e8028f31c),
    ("geo1500_starved/metivier_region", 0x605c7f1bf088da7b),
    ("geo1500_starved/metivier_partial0", 0x8e0a8aceb84ea190),
    ("geo1500_starved/metivier_partial1", 0xd37e795cec6a192c),
    ("geo1500_starved/metivier_partial3", 0xa048f344b57d289e),
    ("geo1500_starved/bounded_arb_rho1", 0x07d8fb93898db50c),
    ("geo1500_starved/bounded_arb_rho0", 0xa43a6d2602c6d6c2),
    ("geo1500_starved/flat_arb_understated", 0x6f55b2f807a8b9de),
    ("tree100_faithful/luby", 0xd5e45a96894ce759),
    ("tree100_faithful/metivier", 0x271b7029c4225a37),
    ("tree100_faithful/metivier_region", 0x84606291fd2c2320),
    ("tree100_faithful/metivier_partial0", 0x1e42c596ee72f338),
    ("tree100_faithful/metivier_partial1", 0x710de1e1016d16ce),
    ("tree100_faithful/metivier_partial3", 0x699997cc2257a389),
    ("tree100_faithful/bounded_arb_rho1", 0x7f16e50c002070d7),
    ("tree100_faithful/bounded_arb_rho0", 0x7f16e50c002070d7),
    ("tree100_faithful/flat_arb_understated", 0xebf5116fd6ee3f5b),
    ("ba2000_m1/arb_mis", 0x06d15975e7040fd2),
    ("star300/arb_mis", 0xcecd386b8fcc2eaa),
    ("ktree3_2000/arb_mis", 0xd9542e2a56aefcad),
    ("tree2000/arb_mis", 0x6ee93204ef8f88cc),
    ("grid40/arb_mis", 0xac66d72ef2ca313f),
    ("geo1500_starved/arb_mis", 0x03426f44ac5e714e),
    ("empty0/ghaffari", 0x4e3583d08ce6ac2c),
    ("single1/ghaffari", 0xa5fe112f535fc858),
    ("tree300/ghaffari", 0x757836789951c711),
    ("ktree3_300/ghaffari", 0x76a9944f2944e0f3),
    ("gnp300/ghaffari", 0x40d0a46c595615d3),
    ("ba600/ghaffari", 0x8f9a18d6e56d05bb),
    ("geo400/ghaffari", 0x6365c9fbc9298c61),
    ("geo1500_starved/ghaffari", 0xac351ec344e7bb00),
    ("tree100_faithful/ghaffari", 0xe7cff72ea1beb3c3),
    ("star300/ghaffari", 0x9cd08546d345a6d5),
    ("ba2000_m3/ghaffari", 0xa1d6f36b94b8ec14),
    ("gnp200_dense/ghaffari", 0x868958f8ce14d256),
    ("k100/ghaffari", 0x2d251c981754c49f),
    ("hub_k128/ghaffari", 0xed853ce6d9c8ccaa),
    ("gnp300_dense/arb_mis", 0x6a0b0d5702029d8b),
    ("ktree3_100k/arb_mis", 0x661968ce8ae170cc),
    ("gnp4_100k/luby", 0x152b4117d5170dbb),
    ("gnp4_100k/flat_luby_2t", 0x662010112620286e),
    ("tree100k/luby", 0x05e8b527b93e195a),
    ("tree100k/flat_luby_2t", 0x8f117b924ad8448a),
    ("ktree3_100k/luby", 0x860f5fa36081503c),
    ("ktree3_100k/flat_luby_2t", 0x4b0be0e7b628e443),
];

fn fnv(mut h: u64, x: u64) -> u64 {
    h ^= x;
    h.wrapping_mul(0x0000_0100_0000_01b3)
}

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

fn fp_run(run: &arbmis::core::MisRun) -> u64 {
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

#[test]
fn drivers_reproduce_the_golden_fingerprints() {
    let got = driver_fingerprints();
    let pinned = got.len() == GOLDEN.len()
        && got
            .iter()
            .zip(GOLDEN.iter())
            .all(|((name, h), &(gname, gh))| name == gname && *h == gh);
    if pinned {
        return;
    }
    for (name, h) in &got {
        println!("    (\"{name}\", {h:#018x}),");
    }
    let mismatches: Vec<String> = got
        .iter()
        .zip(GOLDEN.iter())
        .filter(|((name, h), &(gname, gh))| name != gname || *h != gh)
        .map(|((name, h), &(gname, gh))| {
            format!("{name}: got {h:#018x}, golden {gname}: {gh:#018x}")
        })
        .collect();
    panic!(
        "{} rows computed, {} golden; differing rows (computed table printed above):\n{}",
        got.len(),
        GOLDEN.len(),
        mismatches.join("\n")
    );
}

#[test]
fn arb_mis_rows_cover_both_degree_reduction_branches() {
    for (i, (name, g, alpha, mode)) in arb_mis_graphs().into_iter().enumerate() {
        let cfg = ArbMisConfig {
            mode,
            ..ArbMisConfig::new(alpha, SEEDS[0])
        };
        let fired = arbmis::core::arb_mis(&g, &cfg).phases.degree_reduction > 0;
        assert_eq!(fired, i < 3, "{name}: degree reduction fired = {fired}");
    }
    // Every iterating row fires degree reduction at every seed, and dense
    // G(n,p) runs more than one iteration at every seed.
    for (name, g, alpha, seeds) in arb_mis_iterating_graphs() {
        for &s in seeds {
            let rounds = arbmis::core::arb_mis(&g, &ArbMisConfig::new(alpha, s))
                .phases
                .degree_reduction;
            let least = if name == "gnp300_dense" { 2 } else { 1 };
            assert!(rounds / 3 >= least, "{name} seed {s}: {rounds} rounds");
        }
    }
}
