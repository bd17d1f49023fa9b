//! Centralized driver ≡ CONGEST protocol on final MIS masks, for Luby,
//! Métivier and Ghaffari on the paper's four families at their own graph
//! seeds. The per-round lockstep claims, BoundedArb and the round-count
//! window live in `tests/backend_equivalence.rs`.

use arbmis::congest::Simulator;
use arbmis::core::protocols::*;
use arbmis::core::{ghaffari, luby, metivier, FlatAlgo};
use arbmis::graph::gen::{GraphFamily, GraphSpec};
use rand::SeedableRng;

fn families() -> [GraphFamily; 4] {
    [
        GraphFamily::RandomTree,
        GraphFamily::ForestUnion { alpha: 2 },
        GraphFamily::Apollonian,
        GraphFamily::GnpAvgDegree { d: 5.0 },
    ]
}

#[test]
fn metivier_equivalence_across_families() {
    for fam in families() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let g = GraphSpec::new(fam, 150).generate(&mut rng);
        for seed in 0..3 {
            let fast = metivier::run(&g, seed);
            let run = Simulator::new(&g, seed)
                .run(&MisProtocol(FlatAlgo::Metivier), 50_000)
                .unwrap();
            let mis: Vec<bool> = run.states.iter().map(|s| s.in_mis).collect();
            assert_eq!(mis, fast.in_mis, "{fam} seed {seed}");
        }
    }
}

#[test]
fn luby_equivalence_across_families() {
    for fam in families() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let g = GraphSpec::new(fam, 150).generate(&mut rng);
        for seed in 0..3 {
            let fast = luby::run(&g, seed);
            let run = Simulator::new(&g, seed)
                .run(&MisProtocol(FlatAlgo::Luby), 50_000)
                .unwrap();
            let mis: Vec<bool> = run.states.iter().map(|s| s.in_mis).collect();
            assert_eq!(mis, fast.in_mis, "{fam} seed {seed}");
        }
    }
}

#[test]
fn ghaffari_equivalence_across_families() {
    for fam in families() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let g = GraphSpec::new(fam, 120).generate(&mut rng);
        for seed in 0..3 {
            let fast = ghaffari::run(&g, seed);
            let run = Simulator::new(&g, seed)
                .run(&MisProtocol(FlatAlgo::Ghaffari), 100_000)
                .unwrap();
            let mis: Vec<bool> = run.states.iter().map(|s| s.in_mis).collect();
            assert_eq!(mis, fast.in_mis, "{fam} seed {seed}");
        }
    }
}
