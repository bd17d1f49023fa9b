//! Robustness: adversarial topologies, extreme parameters,
//! failure-injection paths, and hostile CLI and trace input.

use arbmis::core::bounded_arb::{bounded_arb_independent_set, BoundedArbConfig};
use arbmis::core::params::{ArbParams, ParamMode};
use arbmis::core::{arb_mis, check_mis, forest_decomp, ArbMisConfig};
use arbmis::graph::gen::{self, GraphFamily, GraphSpec};
use arbmis::graph::{Graph, GraphBuilder};
use proptest::prelude::*;
use rand::SeedableRng;
use std::process::Output;
use std::sync::OnceLock;

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
/// such as `--order`, with exit code 2 instead of running without it,
/// and an unparsable value of a known flag, such as `--alpha abc`, with
/// exit code 1; a well-formed run still succeeds.
#[test]
fn cli_rejects_unknown_flags() {
    let run = |extra: &[&str]| {
        let base = ["run", "--family", "tree", "--n", "1000", "--algo", "luby"];
        arbmis_cli(&[&base[..], extra].concat())
    };
    for (flag, value, code, message) in [
        ("--bogus", "1", 2, "unknown flag --bogus for run"),
        ("--order", "degree", 2, "unknown flag --order for run"),
        ("--alpha", "abc", 1, "bad --alpha"),
    ] {
        let out = run(&[flag, value]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{flag}: {stderr}");
        assert!(stderr.contains(message), "{flag}: {stderr}");
    }
    let out = run(&["--flat-threads", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn arbmis_cli(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_arbmis"))
        .args(args)
        .output()
        .expect("spawn arbmis")
}

/// `obs report` is the only `obs` subcommand.
#[test]
fn cli_rejects_unknown_obs_subcommands() {
    let out = arbmis_cli(&["obs", "serve", "--addr", "127.0.0.1:0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown obs subcommand"), "{stderr}");
}

/// A histogram record with `min > max` is an inconsistent trace: `obs
/// report` rejects it with exit code 1 instead of panicking in the
/// percentile clamp.
#[test]
fn obs_report_rejects_a_histogram_with_min_above_max() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("min_above_max.jsonl");
    std::fs::write(
        &path,
        "{\"type\":\"meta\",\"format\":\"arbmis-obs\",\"version\":1}\n\
         {\"type\":\"histogram\",\"name\":\"h\",\"count\":1,\"sum\":5,\"min\":9,\"max\":1,\
         \"cumulative_buckets\":[[0,0],[1,1]]}\n",
    )
    .unwrap();
    let out = arbmis_cli(&["obs", "report", "--input", path.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("line 2: inconsistent histogram buckets"),
        "{stderr}"
    );
}

/// `arbmis churn` checks each workload's size precondition and its
/// numeric flags up front: bad input exits 1 with an `error:` line, never
/// a panic (101) or a silent default.
#[test]
fn churn_rejects_bad_arguments() {
    for (args, message) in [
        (&["--n", "10"][..], "--workload all needs --n >= 32"),
        (&["--workload", "localized", "--n", "31"], "needs --n >= 32"),
        (
            &["--workload", "hub", "--n", "3"],
            "--workload hub needs --n >= 4",
        ),
        (&["--workload", "uniform", "--n", "1"], "needs --n >= 2"),
        (&["--workload", "flash", "--n", "1"], "needs --n >= 2"),
        (&["--n", "abc"], "bad --n"),
        (&["--workload", "hub", "--batches", "x"], "bad --batches"),
        (
            &["--workload", "uniform", "--batch-size", "-1"],
            "bad --batch-size",
        ),
        (&["--seed", "s"], "bad --seed"),
        (&["--batches", "2"], "need a single --workload"),
        (
            &["--workload", "all", "--batch-size", "2"],
            "need a single --workload",
        ),
    ] {
        let out = arbmis_cli(&[&["churn"][..], args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
    // The smallest accepted sizes run and certify.
    for args in [
        &["--workload", "hub", "--n", "4"][..],
        &["--workload", "localized", "--n", "32"],
        &["--workload", "uniform", "--n", "2"],
        &["--workload", "flash", "--n", "2"],
    ] {
        let out = arbmis_cli(&[&["churn", "--batches", "2", "--verify"][..], args].concat());
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// A churn run's flight ring holds one `"dynamic"` record per batch and
/// nothing else: neither the repairs' flat Métivier runs nor the
/// harness's full re-solve baseline write per-round `"flat"` records.
#[test]
fn churn_flight_holds_one_dynamic_record_per_batch() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("churn_flight.jsonl");
    let out = arbmis_cli(&[
        "churn",
        "--n",
        "2000",
        "--seed",
        "9",
        "--workload",
        "localized",
        "--flight-out",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let flight = std::fs::read_to_string(&path).unwrap();
    let rows: Vec<&str> = flight
        .lines()
        .filter(|l| l.contains("\"type\":\"round\""))
        .collect();
    assert_eq!(rows.len(), 48, "{flight}");
    assert!(
        rows.iter().all(|r| r.contains("\"engine\":\"dynamic\"")),
        "{flight}"
    );
}

/// A real trace export: an ArbMIS run and a CONGEST Métivier run on one
/// recorder, so it holds every record type the report parser reads
/// (spans, points, counters, gauges, histograms).
fn real_trace() -> &'static str {
    static TRACE: OnceLock<String> = OnceLock::new();
    TRACE.get_or_init(|| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let g = GraphSpec::new(GraphFamily::KTree { k: 2 }, 400).generate(&mut rng);
        let rec = arbmis::obs::Recorder::deterministic();
        arbmis::core::arb_mis::arb_mis_with(&g, &ArbMisConfig::new(2, 1), &rec);
        arbmis::congest::Simulator::new(&g, 1)
            .with_recorder(rec.clone())
            .run(
                &arbmis::core::protocols::MisProtocol(arbmis::core::FlatAlgo::Metivier),
                10_000,
            )
            .unwrap();
        rec.snapshot().to_jsonl()
    })
}

/// Replacements for a numeric field: small and large values, `u64::MAX`,
/// overflow, and tokens that are not `u64`s.
const NUMBERS: [&str; 10] = [
    "0",
    "1",
    "7",
    "4096",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "1e3",
    "0.5",
    "",
];

/// Replaces the `k`-th (mod count) numeric value in `text`: a run of
/// ASCII digits right after a `:`, `[` or `,`.
fn replace_number(text: &str, k: usize, with: &str) -> String {
    let b = text.as_bytes();
    let starts: Vec<usize> = (1..b.len())
        .filter(|&i| b[i].is_ascii_digit() && matches!(b[i - 1], b':' | b'[' | b','))
        .collect();
    let start = starts[k % starts.len()];
    let end = start + b[start..].iter().take_while(|c| c.is_ascii_digit()).count();
    format!("{}{with}{}", &text[..start], &text[end..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The `parse_jsonl` hostile-input surface: a real export with
    /// numeric fields changed, then truncated, then with bytes flipped,
    /// either parses or is rejected with an error — and whatever parses
    /// renders. Neither step may panic.
    #[test]
    fn trace_report_never_panics_on_mutated_exports(
        numbers in proptest::collection::vec((0usize..1 << 20, 0usize..NUMBERS.len()), 0..8),
        cut in 0usize..30_000,
        flips in proptest::collection::vec((0usize..1 << 20, 1u8..=255), 0..4),
    ) {
        let mut text = real_trace().to_string();
        for (k, which) in numbers {
            text = replace_number(&text, k, NUMBERS[which]);
        }
        let mut bytes = text.into_bytes();
        if cut < 10_000 {
            bytes.truncate(bytes.len() * cut / 10_000);
        }
        let len = bytes.len();
        if len > 0 {
            for (pos, mask) in flips {
                bytes[pos % len] ^= mask;
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(snap) = arbmis::obs::report::parse_jsonl(&text) {
            let _ = arbmis::obs::report::render(&snap);
        }
    }
}
