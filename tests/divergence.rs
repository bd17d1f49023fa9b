//! End-to-end tests for the flight recorder and divergence tooling:
//!
//! * an injected coin flip in a `FlatBackend` fork is localized to the
//!   exact first divergent round and node, identically at flat thread
//!   counts {1, 2, 4}, and the emitted replay artifact reproduces the
//!   report byte-for-byte through the `arbmis replay` subcommand; a
//!   flipped Luby or Ghaffari mark localizes the same way;
//! * flight capture obeys the §8 observation rule — transcripts,
//!   metrics, and states are bit-identical with the recorder on or off,
//!   and the recorded flight bytes are identical across runs and across
//!   flat thread counts {1, 2, 4};
//! * the `(round, joiners, joiner_digest, coin_digest)` columns of flat
//!   and congest-backend flight records agree for every algorithm.

use arbmis::congest::Simulator;
use arbmis::core::protocols::MisProtocol;
use arbmis::core::{ArbParams, ParamMode};
use arbmis::flat::divergence::{localize, BackendSpec, DivergenceKind, ReplayArtifact};
use arbmis::flat::{CoinFlip, CongestBackend, FlatAlgo, FlatBackend, MisBackend};
use arbmis::graph::gen::{GraphFamily, GraphSpec};
use arbmis::obs::FlightRecorder;
use rand::SeedableRng;

const MAX_ROUNDS: u64 = 100_000;

fn graph(fam: GraphFamily, n: usize, seed: u64) -> arbmis::graph::Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    GraphSpec::new(fam, n).generate(&mut rng)
}

/// Searches for a coin flip of `algo` at `iteration` whose entire
/// first-round effect is one node: flipping `v`'s coin changes `v`'s
/// fate and nobody else's at the first divergent round.
fn find_single_node_flip(
    g: &arbmis::graph::Graph,
    seed: u64,
    algo: FlatAlgo,
    iteration: u64,
) -> Option<(CoinFlip, arbmis::flat::Divergence)> {
    for node in 0..g.n() {
        for xor in [u64::MAX >> 1, 0xdead_beef_0000_0001, 2] {
            let flip = CoinFlip {
                node,
                iteration,
                xor,
            };
            let mut a = FlatBackend::new(g, seed, algo).with_coin_flip(flip);
            let mut b = CongestBackend::new(g, seed, algo);
            let Ok(Some(d)) = localize(&mut a, &mut b, MAX_ROUNDS) else {
                continue;
            };
            if d.nodes == [node] {
                return Some((flip, d));
            }
        }
    }
    None
}

#[test]
fn injected_flip_localizes_to_exact_round_and_node() {
    let g = graph(GraphFamily::GnpAvgDegree { d: 4.0 }, 120, 19);
    let (flip, d) = find_single_node_flip(&g, 7, FlatAlgo::Metivier, 0)
        .expect("some flip isolates a single node");
    // The flip perturbs iteration 0, whose joiners land at round 2 — the
    // first possible divergence point.
    assert_eq!(d.round, 2, "first divergent round");
    assert_eq!(d.kind, DivergenceKind::Joiners);
    assert_eq!(d.nodes, vec![flip.node], "minimal divergent node set");
}

#[test]
fn replay_artifact_reproduces_byte_for_byte_through_the_cli() {
    let g = graph(GraphFamily::GnpAvgDegree { d: 4.0 }, 120, 19);
    let (flip, d) = find_single_node_flip(&g, 7, FlatAlgo::Metivier, 0)
        .expect("some flip isolates a single node");
    let artifact = ReplayArtifact::from_case(
        &g,
        7,
        FlatAlgo::Metivier,
        BackendSpec::flat().with_coin_flip(flip),
        BackendSpec::congest(),
        MAX_ROUNDS,
        Some(&d),
    );

    // JSON round-trip is lossless and byte-stable.
    let json = artifact.to_json();
    let parsed = ReplayArtifact::from_json(&json).unwrap();
    assert_eq!(parsed, artifact);
    assert_eq!(parsed.to_json(), json);

    // Library replay reproduces the recorded divergence.
    let report = parsed.replay().unwrap();
    assert_eq!(report.matches_expected, Some(true));
    assert_eq!(report.divergence.as_ref(), Some(&d));
    let expected_stdout = parsed.render(&report);

    // The same case as written when the flat spec still carried a node
    // order (`"order": "degree"`). Every order ran the identical
    // transcript, so the ignored key changes neither the artifact nor
    // its replay.
    let legacy = include_str!("data/replay_flat_order_degree.json");
    assert_eq!(ReplayArtifact::from_json(legacy).unwrap(), artifact);

    // The CLI consumes either artifact file and prints the identical
    // bytes.
    let dir = std::env::temp_dir().join(format!("arbmis-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, text) in [("artifact.json", json.as_str()), ("legacy.json", legacy)] {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_arbmis"))
            .args(["replay", "--input", path.to_str().unwrap()])
            .output()
            .expect("spawn arbmis replay");
        assert!(
            out.status.success(),
            "{name}: replay exit status: {:?}\nstderr: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            expected_stdout,
            "{name}: CLI replay output must be byte-identical to the library render"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected flip is keyed by node id, not by the chunk that draws
/// it: on a graph of several mask words, the flat engine localizes to
/// the same divergence against the pristine CONGEST run at every worker
/// thread count.
#[test]
fn injected_flip_localizes_identically_at_every_thread_count() {
    let g = graph(GraphFamily::GnpAvgDegree { d: 4.0 }, 300, 19);
    let (flip, d) = find_single_node_flip(&g, 7, FlatAlgo::Metivier, 0)
        .expect("some flip isolates a single node");
    for threads in [1, 2, 4] {
        let mut a = FlatBackend::new(&g, 7, FlatAlgo::Metivier)
            .with_threads(threads)
            .with_coin_flip(flip);
        let mut b = CongestBackend::new(&g, 7, FlatAlgo::Metivier);
        let found = localize(&mut a, &mut b, MAX_ROUNDS).unwrap();
        assert_eq!(found.as_ref(), Some(&d), "{threads} threads");
    }
}

/// The flip hooks of Luby's and Ghaffari's mark sweeps, whose marks the
/// flat engine keeps in a walked mask (Luby) and in per-node coin words
/// (Ghaffari): a flipped mark at iteration 2 localizes to its node at
/// that iteration's exit round, identically at flat threads {1, 2}. On a
/// tree the first exits leave degree-0 nodes, which join through Luby's
/// walk of the marked nodes.
#[test]
fn flipped_luby_and_ghaffari_marks_localize_to_their_node() {
    let g = graph(GraphFamily::RandomTree, 300, 31);
    let (seed, iteration) = (7, 2);
    for algo in [FlatAlgo::Luby, FlatAlgo::Ghaffari] {
        let mut pristine = FlatBackend::new(&g, seed, algo);
        for _ in 0..3 * iteration {
            pristine.step_round().unwrap();
        }
        let isolated = (0..g.n())
            .filter(|&v| pristine.is_active(v))
            .filter(|&v| g.neighbors(v).iter().all(|u| !pristine.is_active(u)))
            .count();
        assert!(
            isolated > 0,
            "{algo:?}: no degree-0 node at iteration {iteration}"
        );

        let (flip, d) = find_single_node_flip(&g, seed, algo, iteration)
            .unwrap_or_else(|| panic!("{algo:?}: some flip isolates a single node"));
        assert_eq!(
            d.round,
            3 * iteration + 2,
            "{algo:?}: first divergent round"
        );
        assert_eq!(d.kind, DivergenceKind::Joiners, "{algo:?}");
        assert_eq!(
            d.nodes,
            vec![flip.node],
            "{algo:?}: minimal divergent node set"
        );
        for threads in [1, 2] {
            let mut a = FlatBackend::new(&g, seed, algo)
                .with_threads(threads)
                .with_coin_flip(flip);
            let mut b = CongestBackend::new(&g, seed, algo);
            let found = localize(&mut a, &mut b, MAX_ROUNDS).unwrap();
            assert_eq!(found.as_ref(), Some(&d), "{algo:?} at {threads} threads");
        }
    }
}

/// §8 differential: the flight recorder never perturbs an engine.
/// Transcripts, metrics, and states of the simulator agree with capture
/// on and off, and its captured bytes are the same on every run. The
/// flat engine's MIS and rounds are unchanged by capture, and its
/// captured bytes are identical at flat thread counts {1, 2, 4}.
#[test]
fn flight_capture_is_observation_only_across_thread_counts() {
    let g = graph(GraphFamily::GnpAvgDegree { d: 5.0 }, 150, 23);
    let seed = 3;
    let proto = MisProtocol(FlatAlgo::Metivier);

    let (base, t_base) = Simulator::new(&g, seed)
        .run_traced(&proto, MAX_ROUNDS)
        .unwrap();
    let project = |states: &[arbmis::core::protocols::MisNodeState]| -> Vec<(bool, bool)> {
        states.iter().map(|s| (s.in_mis, s.active)).collect()
    };
    let capture = || {
        let flight = FlightRecorder::bounded(1 << 16);
        let (out, t) = Simulator::new(&g, seed)
            .with_flight(flight.clone())
            .run_traced(&proto, MAX_ROUNDS)
            .unwrap();
        assert_eq!(t.digest(), t_base.digest(), "digest with flight on");
        assert_eq!(out.metrics, base.metrics, "metrics with flight on");
        assert_eq!(project(&out.states), project(&base.states));
        flight.to_jsonl()
    };
    let bytes = capture();
    assert!(bytes.lines().count() > 1, "captured at least a round");
    assert_eq!(capture(), bytes, "flight bytes must be reproducible");

    let mut plain = FlatBackend::new(&g, seed, FlatAlgo::Metivier);
    let mut flat_bytes = None;
    for threads in [1, 2, 4] {
        let flight = FlightRecorder::bounded(1 << 16);
        let mut flat = FlatBackend::new(&g, seed, FlatAlgo::Metivier)
            .with_threads(threads)
            .with_flight(flight.clone());
        let divergence = localize(&mut plain, &mut flat, MAX_ROUNDS).unwrap();
        assert_eq!(divergence, None, "{threads} threads: capture diverged");
        assert_eq!(flat.mis(), plain.mis(), "{threads} threads: MIS");
        let bytes = flight.to_jsonl();
        assert!(bytes.lines().count() > 1, "{threads} threads: captured");
        let first = flat_bytes.get_or_insert_with(|| bytes.clone());
        assert_eq!(&bytes, first, "{threads} threads: flat flight bytes");
    }
}

/// The cross-backend-stable flight columns: for the same graph, seed,
/// and algorithm, flat and congest-backend records agree on
/// `(round, joiners, joiner_digest, coin_digest)` at every round.
#[test]
fn flight_digest_columns_agree_across_backends() {
    let g = graph(GraphFamily::KTree { k: 3 }, 80, 13);
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
    ] {
        let fa = FlightRecorder::bounded(1 << 16);
        let mut a = FlatBackend::new(&g, 9, algo).with_flight(fa.clone());
        let fb = FlightRecorder::bounded(1 << 16);
        let mut b = CongestBackend::new(&g, 9, algo).with_flight(fb.clone());
        assert_eq!(localize(&mut a, &mut b, MAX_ROUNDS).unwrap(), None);

        let cols = |f: &FlightRecorder, engine: &str| -> Vec<(u64, u64, u64, u64)> {
            f.records()
                .iter()
                .filter(|r| r.engine == engine)
                .map(|r| (r.round, r.joiners, r.joiner_digest, r.coin_digest))
                .collect()
        };
        let flat_cols = cols(&fa, "flat");
        let congest_cols = cols(&fb, "congest-backend");
        assert!(
            !flat_cols.is_empty(),
            "{}: flat recorded rounds",
            algo.label()
        );
        assert_eq!(
            flat_cols,
            congest_cols,
            "{}: cross-backend flight columns",
            algo.label()
        );
    }
}

/// A perturbed flat run's flight log pinpoints *where* the coins
/// diverged, even when no joiner does: the flip below changes no fate,
/// so [`localize`] replays both runs to the end in agreement, yet the
/// coin digest differs from the pristine reference at exactly the
/// flipped decide round.
#[test]
fn flight_coin_digests_pinpoint_the_perturbed_round() {
    let g = graph(GraphFamily::GnpAvgDegree { d: 4.0 }, 100, 29);
    let flip = CoinFlip {
        node: 17,
        iteration: 1,
        xor: u64::MAX >> 1,
    };
    let fa = FlightRecorder::bounded(1 << 16);
    let mut a = FlatBackend::new(&g, 5, FlatAlgo::Metivier)
        .with_flight(fa.clone())
        .with_coin_flip(flip);
    let fb = FlightRecorder::bounded(1 << 16);
    let mut b = CongestBackend::new(&g, 5, FlatAlgo::Metivier).with_flight(fb.clone());
    assert_eq!(localize(&mut a, &mut b, MAX_ROUNDS).unwrap(), None);
    let coins = |f: &FlightRecorder, engine: &str| -> Vec<(u64, u64)> {
        f.records()
            .iter()
            .filter(|r| r.engine == engine)
            .map(|r| (r.round, r.coin_digest))
            .collect()
    };
    let flat = coins(&fa, "flat");
    let pristine = coins(&fb, "congest-backend");
    assert_eq!(flat.len(), pristine.len());
    for (&(ra, ca), &(rb, cb)) in flat.iter().zip(&pristine) {
        assert_eq!(ra, rb);
        if ra == 4 {
            // Iteration 1 decides at round 4: the flip must show here.
            assert_ne!(ca, cb, "round 4 coin digest must differ");
        } else {
            assert_eq!(ca, cb, "round {ra} coin digest must agree");
        }
    }
}
