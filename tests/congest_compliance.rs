//! CONGEST compliance: every protocol stays within the O(log n)-bit
//! message budget on every workload family, and the simulator's
//! enforcement actually fires on violations.

use arbmis::congest::Simulator;
use arbmis::core::bounded_arb::{bounded_arb_independent_set, BoundedArbConfig};
use arbmis::core::params::ParamMode;
use arbmis::core::protocols::*;
use arbmis::core::FlatAlgo;
use arbmis::graph::gen::{GraphFamily, GraphSpec};
use rand::SeedableRng;

fn graph(fam: GraphFamily, n: usize, seed: u64) -> arbmis::graph::Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    GraphSpec::new(fam, n).generate(&mut rng)
}

#[test]
fn all_protocols_within_budget_across_families() {
    let families = [
        GraphFamily::RandomTree,
        GraphFamily::ForestUnion { alpha: 3 },
        GraphFamily::BarabasiAlbert { m: 2 },
        GraphFamily::GnpAvgDegree { d: 6.0 },
    ];
    for fam in families {
        let g = graph(fam, 400, 5);
        let m1 = Simulator::new(&g, 1)
            .run(&MisProtocol(FlatAlgo::Metivier), 50_000)
            .unwrap()
            .metrics;
        let m2 = Simulator::new(&g, 1)
            .run(&MisProtocol(FlatAlgo::Luby), 50_000)
            .unwrap()
            .metrics;
        let m3 = Simulator::new(&g, 1)
            .run(&MisProtocol(FlatAlgo::Ghaffari), 100_000)
            .unwrap()
            .metrics;
        for (name, m) in [("metivier", m1), ("luby", m2), ("ghaffari", m3)] {
            assert!(m.within_budget(), "{name} on {fam}: {m:?}");
            assert!(m.max_message_bits > 0);
        }
    }
}

#[test]
fn bounded_arb_protocol_within_budget() {
    let g = graph(GraphFamily::Apollonian, 300, 7);
    let cfg = BoundedArbConfig {
        mode: ParamMode::Practical { lambda_scale: 0.05 },
        ..BoundedArbConfig::new(3, 2)
    };
    let fast = bounded_arb_independent_set(&g, &cfg);
    let proto = MisProtocol(FlatAlgo::BoundedArb {
        params: fast.params,
        rho_cutoff: true,
    });
    let run = Simulator::new(&g, 2).run(&proto, fast.rounds + 2).unwrap();
    assert!(run.metrics.within_budget());
    // Degree announcements are the largest payloads; still O(log n).
    assert!(run.metrics.max_message_bits <= Simulator::new(&g, 2).budget_bits() as u64);
}

#[test]
fn budget_scales_with_log_n() {
    let small = Simulator::new(&graph(GraphFamily::RandomTree, 64, 1), 0).budget_bits();
    let large = Simulator::new(&graph(GraphFamily::RandomTree, 4096, 1), 0).budget_bits();
    assert_eq!(small, 16 * 6);
    assert_eq!(large, 16 * 12);
}

#[test]
fn oversized_messages_rejected() {
    use arbmis::congest::prelude::*;

    #[derive(Clone, Debug)]
    struct Fat;
    impl Message for Fat {
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&[0u8; 512]);
        }
        fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
            if buf.len() < 512 {
                return Err(DecodeError::UnexpectedEof);
            }
            *buf = &buf[512..];
            Ok(Fat)
        }
    }
    struct FatProto;
    impl Protocol for FatProto {
        type State = ();
        type Msg = Fat;
        fn init(&self, _n: &NodeInfo) {}
        fn round(&self, _s: &mut (), _n: &NodeInfo, _i: &Inbox<Fat>) -> Outgoing<Fat> {
            Outgoing::Broadcast(Fat)
        }
        fn is_done(&self, _s: &()) -> bool {
            false
        }
    }
    let g = graph(GraphFamily::RandomTree, 64, 3);
    let err = Simulator::new(&g, 0).run(&FatProto, 10).unwrap_err();
    assert!(matches!(err, SimulatorError::BandwidthExceeded { .. }));
}

#[test]
fn message_counts_bounded_by_rounds_times_edges() {
    let g = graph(GraphFamily::ForestUnion { alpha: 2 }, 300, 9);
    let run = Simulator::new(&g, 4)
        .run(&MisProtocol(FlatAlgo::Metivier), 50_000)
        .unwrap();
    let cap = run.metrics.rounds * 2 * g.m() as u64;
    assert!(run.metrics.messages <= cap);
}
