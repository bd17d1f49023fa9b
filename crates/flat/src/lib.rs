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
//!   simulator's [`arbmis_congest::Stepper`], stepping one CONGEST round
//!   at a time and diffing node states to report joiners.
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
//! agree bit-for-bit. `tests/backend_equivalence.rs` enforces this as a
//! differential oracle.
//!
//! # Round timeline
//!
//! A backend round is exactly one CONGEST round. Luby, Métivier and
//! Ghaffari spend three rounds per iteration (announce, decide, exit); joiners are
//! reported at rounds `r ≡ 2 (mod 3)`. BoundedArb follows the oblivious
//! schedule of [`arbmis_core::protocols::BoundedArbProtocol`]:
//! `3Λ + 2` rounds per scale (Λ iterations, then a degree exchange and a
//! bad-exit round), `Θ` scales total.

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
    use arbmis_core::{ArbParams, ParamMode};
    use arbmis_graph::{gen, Graph};
    use rand::{rngs::StdRng, SeedableRng};

    const MAX_ROUNDS: u64 = 100_000;

    fn graphs() -> Vec<(&'static str, Graph)> {
        let mut rng = StdRng::seed_from_u64(7);
        vec![
            ("empty", Graph::empty(0)),
            ("isolated", Graph::empty(1)),
            ("path", gen::path(17)),
            ("complete", gen::complete(9)),
            ("gnp", gen::gnp(120, 0.05, &mut rng)),
            ("ktree", gen::random_ktree(90, 3, &mut rng)),
        ]
    }

    /// Steps `a` and `b` in lockstep, asserting identical joiners each
    /// round, then identical final MIS and round counts.
    fn assert_lockstep(label: &str, a: &mut dyn MisBackend, b: &mut dyn MisBackend) {
        a.init();
        b.init();
        while !a.is_done() || !b.is_done() {
            assert_eq!(
                a.is_done(),
                b.is_done(),
                "{label}: done flags diverge at round {}",
                a.round()
            );
            assert!(a.round() < MAX_ROUNDS, "{label}: round limit");
            a.step_round().unwrap();
            b.step_round().unwrap();
            assert_eq!(
                a.joiners(),
                b.joiners(),
                "{label}: joiners diverge at round {}",
                a.round() - 1
            );
        }
        assert_eq!(a.round(), b.round(), "{label}: round counts diverge");
        assert_eq!(a.mis(), b.mis(), "{label}: final MIS diverges");
    }

    #[test]
    fn flat_matches_congest_luby_metivier_and_ghaffari() {
        for (name, g) in &graphs() {
            for algo in [FlatAlgo::Luby, FlatAlgo::Metivier, FlatAlgo::Ghaffari] {
                for seed in [1, 42] {
                    let mut flat = FlatBackend::new(g, seed, algo);
                    let mut congest = CongestBackend::new(g, seed, algo);
                    let label = format!("{name}/{}/seed{seed}", algo.label());
                    assert_lockstep(&label, &mut flat, &mut congest);
                }
            }
        }
    }

    #[test]
    fn flat_matches_congest_bounded_arb() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = gen::random_ktree(80, 3, &mut rng);
        let delta = g.degree_histogram().len().saturating_sub(1);
        let params = ArbParams::new(3, delta, ParamMode::default());
        for rho_cutoff in [true, false] {
            let algo = FlatAlgo::BoundedArb { params, rho_cutoff };
            let mut flat = FlatBackend::new(&g, 5, algo);
            let mut congest = CongestBackend::new(&g, 5, algo);
            assert_lockstep(
                &format!("ktree/arb/rho={rho_cutoff}"),
                &mut flat,
                &mut congest,
            );
            // BoundedArb is not maximal: also compare the shattering
            // outputs (bad and residual active sets) against the
            // protocol states.
            for (v, s) in congest.states().iter().enumerate() {
                assert_eq!(flat.bad().test(v), s.bad, "bad set diverges at {v}");
                assert_eq!(
                    flat.is_active(v),
                    s.active,
                    "residual active set diverges at {v}"
                );
            }
        }
    }

    #[test]
    fn threads_are_transcript_invisible() {
        let mut rng = StdRng::seed_from_u64(29);
        let g = gen::gnp(160, 0.04, &mut rng);
        let delta = g.degree_histogram().len().saturating_sub(1);
        let params = ArbParams::new(3, delta, ParamMode::default());
        for algo in [
            FlatAlgo::Luby,
            FlatAlgo::Metivier,
            FlatAlgo::Ghaffari,
            FlatAlgo::BoundedArb {
                params,
                rho_cutoff: true,
            },
            FlatAlgo::DegreeReduction { target: 6.0 },
        ] {
            let mut base = FlatBackend::new(&g, 9, algo);
            for threads in [2, 4] {
                let mut par = FlatBackend::new(&g, 9, algo).with_threads(threads);
                assert_lockstep(
                    &format!("{}/threads={threads}", algo.label()),
                    &mut base,
                    &mut par,
                );
            }
        }
    }

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
            let degree = g.neighbors(v).iter().filter(|&&u| b.is_active(u)).count();
            assert!(degree as f64 <= target, "node {v} still above the target");
            assert!(
                g.neighbors(v).iter().all(|&u| !mis[u]),
                "node {v} dominated"
            );
        }
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
        let g = gen::cycle(12);
        let mut b = FlatBackend::new(&g, 4, FlatAlgo::Luby);
        b.init();
        while !b.is_done() {
            let r = b.round();
            b.step_round().unwrap();
            if r % 3 != 2 {
                assert!(b.joiners().is_empty(), "joiners at non-exit round {r}");
            }
            assert!(b.joiners().windows(2).all(|w| w[0] < w[1]));
        }
    }
}
