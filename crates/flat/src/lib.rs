#![warn(missing_docs)]
//! The CONGEST-backed MIS backend and the tooling that compares
//! backends.
//!
//! The CONGEST simulator ([`arbmis_congest::Simulator`]) is the semantic
//! reference: it charges every message against the bandwidth budget and
//! counts rounds exactly. The flat engine ([`FlatBackend`], which lives
//! in `arbmis-core` because the centralized `luby`, `metivier`,
//! `ghaffari` and `bounded_arb` entry points drive it) replays the same oblivious
//! protocols as frontier sweeps over the CSR arrays with no message
//! objects. This crate holds everything that relates the two:
//!
//! * [`CongestBackend`] — a thin [`MisBackend`] adapter over the
//!   simulator's [`arbmis_congest::Stepper`] of
//!   [`MisProtocol`](arbmis_core::protocols::MisProtocol)`(algo)`, the one
//!   CONGEST protocol for every [`FlatAlgo`] but degree reduction,
//!   stepping one CONGEST round at a time and diffing node states to
//!   report joiners.
//! * [`divergence`] — [`localize`] lockstep-replays two backends to the
//!   first divergent round, and [`ReplayArtifact`] packages a divergence
//!   for `arbmis replay`.
//! * [`region`] — [`solve_mis`], the one-call flat MIS of a (sub)graph
//!   used by `arbmis-dynamic`.
//!
//! The engine contract ([`MisBackend`], [`FlatAlgo`], [`BackendError`],
//! [`BackendRun`]) is re-exported from
//! `arbmis_core::backend`, so `arbmis_flat::{FlatBackend, FlatAlgo,
//! MisBackend, solve_mis}` is the one import path for callers.
//!
//! Both backends draw coin flips from the same counter-pure RNG
//! ([`arbmis_congest::rng`]), keyed by `(seed, node, iteration, tag)`, so
//! for a fixed graph and seed they are **round-identical**: the joiner
//! set at every round index, the final MIS, and the total round count all
//! agree bit-for-bit. `tests/backend_equivalence.rs` enforces this
//! through [`localize`], the one lockstep comparison in the workspace,
//! at every flat worker-thread count.
//!
//! # Round timeline
//!
//! A backend round is exactly one CONGEST round, and both backends read
//! what it does from one decoder, [`arbmis_core::backend::slot`]. Luby,
//! Métivier and Ghaffari spend three rounds per iteration (announce,
//! decide, exit); joiners are reported only at exit rounds. BoundedArb
//! runs `Θ` scales of `3Λ + 2` rounds (Λ iterations, then a degree
//! exchange and a bad-exit round) and then ends.

mod congest_backend;
pub mod divergence;
pub mod region;

pub use congest_backend::CongestBackend;
pub use divergence::{localize, CoinFlip, Divergence, DivergenceKind, ReplayArtifact};
pub use region::{solve_mis, RegionMis};

pub use arbmis_congest::BitMask;
pub use arbmis_core::backend::{BackendError, BackendRun, FlatAlgo, MisBackend};
pub use arbmis_core::FlatBackend;

#[cfg(test)]
mod tests {
    use super::*;
    use arbmis_core::backend::{slot, Slot};
    use arbmis_core::ArbParams;
    use arbmis_graph::gen;
    use rand::{rngs::StdRng, SeedableRng};

    const MAX_ROUNDS: u64 = 100_000;

    #[test]
    fn degree_reduction_stops_once_no_node_is_high() {
        let mut rng = StdRng::seed_from_u64(37);
        let g = gen::barabasi_albert(400, 2, &mut rng);
        let target = 8.0;
        let mut b = FlatBackend::new(&g, 3, FlatAlgo::DegreeReduction { target });
        b.run(MAX_ROUNDS).unwrap();
        let mis = b.mis().to_bools();
        assert!(arbmis_core::is_independent(&g, &mis));
        assert!(mis.iter().any(|&joined| joined));
        for v in (0..g.n()).filter(|&v| b.is_active(v)) {
            let degree = g.neighbors(v).iter().filter(|&u| b.is_active(u)).count();
            assert!(degree as f64 <= target, "node {v} still above the target");
            assert!(g.neighbors(v).iter().all(|u| !mis[u]), "node {v} dominated");
        }
    }

    #[test]
    #[should_panic(expected = "degree reduction has no CONGEST protocol")]
    fn congest_backend_rejects_degree_reduction() {
        let g = gen::path(4);
        let _ = CongestBackend::new(&g, 1, FlatAlgo::DegreeReduction { target: 1.0 });
    }

    #[test]
    fn rerun_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = gen::gnp(100, 0.06, &mut rng);
        let mut b = FlatBackend::new(&g, 17, FlatAlgo::Metivier);
        let r1 = b.run(MAX_ROUNDS).unwrap();
        let mis1 = b.mis().clone();
        let r2 = b.run(MAX_ROUNDS).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(&mis1, b.mis());
        assert!(arbmis_core::is_valid_mis(&g, &b.mis().to_bools()));
    }

    #[test]
    fn round_limit_reported() {
        let g = gen::path(8);
        let mut b = FlatBackend::new(&g, 1, FlatAlgo::Metivier);
        let err = b.run(1).unwrap_err();
        assert!(matches!(err, BackendError::RoundLimitExceeded { limit: 1 }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn joiners_only_on_exit_rounds() {
        let mut rng = StdRng::seed_from_u64(5);
        let cycle = gen::cycle(12);
        let tree = gen::random_ktree(200, 2, &mut rng);
        // One iteration per scale leaves nodes active at every scale end.
        let params = ArbParams {
            lambda: 1,
            ..ArbParams::new(2, tree.max_degree(), Default::default())
        };
        assert!(params.theta >= 2, "need several scale ends");
        let arb = FlatAlgo::BoundedArb {
            params,
            rho_cutoff: true,
        };
        for (g, algo) in [(&cycle, FlatAlgo::Luby), (&tree, arb)] {
            let mut b = FlatBackend::new(g, 4, algo);
            b.init();
            let mut stepped = Vec::new();
            while !b.is_done() {
                let slot = slot(&algo, b.round());
                b.step_round().unwrap();
                stepped.push(slot);
                if slot != Slot::Exit {
                    let label = algo.label();
                    assert!(b.joiners().is_empty(), "{label}: joiners at {slot:?}");
                }
                assert!(b.joiners().windows(2).all(|w| w[0] < w[1]));
            }
            if algo == arb {
                assert!(stepped.contains(&Slot::DegreeExchange));
                assert!(stepped.contains(&Slot::BadExit { scale: 2 }));
            }
        }
    }
}
