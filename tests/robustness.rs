//! Robustness: adversarial topologies, extreme parameters, and
//! failure-injection paths.

use arbmis::core::bounded_arb::{bounded_arb_independent_set, BoundedArbConfig};
use arbmis::core::params::{ArbParams, ParamMode};
use arbmis::core::{arb_mis, check_mis, forest_decomp, ArbMisConfig};
use arbmis::graph::gen::{self, GraphFamily, GraphSpec};
use arbmis::graph::{Graph, GraphBuilder};
use rand::SeedableRng;

#[test]
fn arbmis_on_new_generator_families() {
    let cases = [
        (GraphFamily::SeriesParallel, 2usize),
        (GraphFamily::RingOfCliques { k: 5 }, 3),
        (GraphFamily::PowerlawCluster { m: 2, p: 0.6 }, 4),
        (GraphFamily::Geometric { radius: 0.06 }, 8),
    ];
    for (fam, alpha) in cases {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let g = GraphSpec::new(fam, 1_000).generate(&mut rng);
        // Certify α is a genuine bound before trusting it.
        let degen = arbmis::graph::arboricity::degeneracy(&g);
        let alpha = alpha.max(degen);
        let out = arb_mis(&g, &ArbMisConfig::new(alpha, 2));
        check_mis(&g, &out.in_mis).unwrap_or_else(|e| panic!("{fam}: {e}"));
    }
}

#[test]
fn crown_and_bipartite_adversaries() {
    // Complete bipartite: MIS is one full side (or a maximal mix).
    let g = gen::complete_bipartite(40, 60);
    let out = arb_mis(&g, &ArbMisConfig::new(20, 1));
    check_mis(&g, &out.in_mis).unwrap();
    // Crown graph: K_{n,n} minus a perfect matching.
    let n = 30;
    let mut b = GraphBuilder::new(2 * n);
    for i in 0..n {
        for j in 0..n {
            if i != j {
                b.add_edge(i, n + j);
            }
        }
    }
    let crown = b.build();
    let out = arb_mis(&crown, &ArbMisConfig::new(15, 1));
    check_mis(&crown, &out.in_mis).unwrap();
}

#[test]
fn deep_star_of_stars() {
    // Root -> 50 hubs -> 50 leaves each: the paper's "large independent
    // sets inside neighborhoods" motif.
    let hubs = 50;
    let leaves = 50;
    let n = 1 + hubs + hubs * leaves;
    let mut b = GraphBuilder::new(n);
    for h in 0..hubs {
        b.add_edge(0, 1 + h);
        for l in 0..leaves {
            b.add_edge(1 + h, 1 + hubs + h * leaves + l);
        }
    }
    let g = b.build();
    for seed in 0..5 {
        let out = arb_mis(&g, &ArbMisConfig::new(1, seed));
        check_mis(&g, &out.in_mis).unwrap();
        // All leaves of a hub are independent: the MIS must be large.
        assert!(out.mis_size() >= hubs * (leaves - 1) / 2);
    }
}

#[test]
fn extreme_parameter_modes() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let g = gen::barabasi_albert(800, 3, &mut rng);
    for mode in [
        ParamMode::Practical {
            lambda_scale: 1e-12,
        }, // Λ = 1
        ParamMode::Practical { lambda_scale: 3.0 }, // over-provisioned
        ParamMode::Faithful { p: 3 },               // Θ = 0 at this Δ
    ] {
        let cfg = ArbMisConfig {
            mode,
            ..ArbMisConfig::new(3, 4)
        };
        let out = arb_mis(&g, &cfg);
        check_mis(&g, &out.in_mis).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
    }
}

#[test]
fn faithful_params_are_astronomical_by_design() {
    // Documented behaviour: faithful Λ for α = 2 exceeds 5·10⁴ iterations
    // per scale, and Θ only becomes positive at enormous Δ.
    let p = ArbParams::new(2, 1 << 20, ParamMode::Faithful { p: 1 });
    assert!(p.lambda > 50_000);
    let small = ArbParams::new(2, 10_000, ParamMode::Faithful { p: 1 });
    assert_eq!(small.theta, 0);
}

#[test]
fn shattering_handles_self_contained_cliques() {
    // Ring of cliques: within a clique only one node can ever join per
    // iteration; the algorithm must still decide everyone.
    let g = gen::ring_of_cliques(20, 6);
    let out = bounded_arb_independent_set(&g, &BoundedArbConfig::new(3, 9));
    // Every node is in I, dominated, bad, or still active — and active ∪
    // bad get finished by the pipeline:
    let full = arb_mis(&g, &ArbMisConfig::new(3, 9));
    check_mis(&g, &full.in_mis).unwrap();
    assert!(out.mis_size() <= 20 * 2); // ≤ one per clique + ring slack
}

#[test]
fn forest_decomposition_error_path_is_reported() {
    let g = gen::complete(12); // arboricity 6
    let err = forest_decomp::forest_decomposition(&g, 1, 0.5).unwrap_err();
    assert!(err.to_string().contains("arboricity"));
    assert!(err.stuck > 0);
}

#[test]
fn single_edge_and_two_cliques_bridge() {
    let g = Graph::from_edges(2, &[(0, 1)]);
    let out = arb_mis(&g, &ArbMisConfig::new(1, 0));
    assert_eq!(out.mis_size(), 1);
    // Two K5s joined by a bridge.
    let mut b = GraphBuilder::new(10);
    for base in [0usize, 5] {
        for i in 0..5 {
            for j in (i + 1)..5 {
                b.add_edge(base + i, base + j);
            }
        }
    }
    b.add_edge(4, 5);
    let g = b.build();
    let out = arb_mis(&g, &ArbMisConfig::new(3, 2));
    check_mis(&g, &out.in_mis).unwrap();
    assert_eq!(out.mis_size(), 2);
}

#[test]
fn huge_alpha_overestimate_harmless() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let g = gen::random_tree_prufer(500, &mut rng);
    let out = arb_mis(&g, &ArbMisConfig::new(50, 1));
    check_mis(&g, &out.in_mis).unwrap();
}

#[test]
fn understated_alpha_with_a_bad_component_still_certifies() {
    // Λ = 1 leaves bad components, and at α = 1 their peeling gets stuck
    // (threshold 3 on dense geometric clusters). Such a component is
    // finished by Métivier and counted, never a panic.
    let g = gen::random_geometric(1500, 0.06, &mut rand::rngs::StdRng::seed_from_u64(1));
    let cfg = ArbMisConfig {
        mode: ParamMode::Practical { lambda_scale: 1e-9 },
        ..ArbMisConfig::new(1, 0)
    };
    let rec = arbmis::obs::Recorder::deterministic();
    let out = arbmis::core::arb_mis::arb_mis_with(&g, &cfg, &rec);
    check_mis(&g, &out.in_mis).expect("certified MIS under an understated α");
    assert!(!out.bad_component_sizes.is_empty());
    let understated = rec.snapshot().counter("arbmis_alpha_understated");
    assert!(understated.is_some_and(|c| c >= 1), "{understated:?}");
}

/// The CLI rejects a flag its subcommand's usage line does not list,
/// such as `--order`, with exit code 2 instead of running without it;
/// a well-formed run still succeeds.
#[test]
fn cli_rejects_unknown_flags() {
    let run = |extra: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_arbmis"))
            .args(["run", "--family", "tree", "--n", "1000", "--algo", "luby"])
            .args(extra)
            .output()
            .expect("spawn arbmis run")
    };
    for (flag, value) in [("--bogus", "1"), ("--order", "degree")] {
        let out = run(&[flag, value]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag} for run")),
            "{flag}: {stderr}"
        );
    }
    let out = run(&["--flat-threads", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
