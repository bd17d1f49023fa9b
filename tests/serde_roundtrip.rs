//! Serialization round-trips: every public record type the experiment
//! harness persists must survive JSON without loss.

use arbmis::core::bounded_arb::{bounded_arb_independent_set, BoundedArbConfig};
use arbmis::core::{arb_mis, metivier, ArbMisConfig};
use arbmis::graph::gen::{GraphFamily, GraphSpec};
use arbmis::graph::stats::GraphStats;
use rand::SeedableRng;

fn graph() -> arbmis::graph::Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    GraphSpec::new(GraphFamily::ForestUnion { alpha: 2 }, 300).generate(&mut rng)
}

#[test]
fn mis_run_roundtrip() {
    let g = graph();
    let run = metivier::run(&g, 7);
    let json = serde_json::to_string(&run).unwrap();
    let back: arbmis::core::MisRun = serde_json::from_str(&json).unwrap();
    assert_eq!(run, back);
}

#[test]
fn shatter_outcome_roundtrip() {
    let g = graph();
    let out = bounded_arb_independent_set(&g, &BoundedArbConfig::new(2, 3));
    let json = serde_json::to_string(&out).unwrap();
    let back: arbmis::core::bounded_arb::ShatterOutcome = serde_json::from_str(&json).unwrap();
    assert_eq!(out, back);
    // Trace content included.
    assert!(json.contains("active_start"));
}

#[test]
fn arbmis_outcome_roundtrip() {
    let g = graph();
    let out = arb_mis(&g, &ArbMisConfig::new(2, 5));
    let json = serde_json::to_string(&out).unwrap();
    let back: arbmis::core::ArbMisOutcome = serde_json::from_str(&json).unwrap();
    assert_eq!(out, back);
}

#[test]
fn graph_and_stats_roundtrip() {
    let g = graph();
    let json = serde_json::to_string(&g).unwrap();
    let back: arbmis::graph::Graph = serde_json::from_str(&json).unwrap();
    assert_eq!(g, back);
    let s = GraphStats::compute(&g);
    let back: GraphStats = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
    assert_eq!(s, back);
}

#[test]
fn metrics_and_spec_roundtrip() {
    let g = graph();
    let run = arbmis::congest::Simulator::new(&g, 1)
        .run(
            &arbmis::core::protocols::MisProtocol(arbmis::core::FlatAlgo::Metivier),
            50_000,
        )
        .unwrap();
    let back: arbmis::congest::Metrics =
        serde_json::from_str(&serde_json::to_string(&run.metrics).unwrap()).unwrap();
    assert_eq!(run.metrics, back);

    let spec = GraphSpec::new(GraphFamily::PowerlawCluster { m: 3, p: 0.5 }, 512);
    let back: GraphSpec = serde_json::from_str(&serde_json::to_string(&spec).unwrap()).unwrap();
    assert_eq!(spec, back);
}

#[test]
fn configs_roundtrip() {
    for cfg in [
        ArbMisConfig::new(3, 9),
        ArbMisConfig {
            mode: arbmis::core::params::ParamMode::Faithful { p: 2 },
            degree_reduction: false,
            ..ArbMisConfig::new(1, 0)
        },
    ] {
        let back: ArbMisConfig =
            serde_json::from_str(&serde_json::to_string(&cfg).unwrap()).unwrap();
        assert_eq!(cfg, back);
    }
}
