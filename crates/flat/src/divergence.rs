//! Backend divergence localization and self-contained replay artifacts.
//!
//! When two [`MisBackend`]s disagree, the raw symptom is usually distant
//! from the cause: a different MIS mask at the end of a million-round
//! run. This module walks the failure back to its origin:
//!
//! 1. [`localize`] lockstep-replays two backends round by round and
//!    stops at the **first** divergent round, bisecting the divergence
//!    down to the minimal node set (the symmetric difference of the two
//!    joiner lists — every node in it is a genuine first-round
//!    disagreement, every node outside it agreed).
//! 2. [`ReplayArtifact`] packages everything needed to reproduce that
//!    divergence — graph edges, seed, algorithm, backend specs, and an
//!    optional injected [`CoinFlip`] — as a single JSON document that
//!    `arbmis replay` consumes, so a failure found in CI can be replayed
//!    byte-for-byte on a laptop.
//!
//! The module also re-exports the shared digest helpers
//! ([`joiner_digest`], [`coin_digest`]) both backends use to fill their
//! flight-recorder records (`arbmis_obs::RoundRecord`): for a fixed
//! graph/seed/algorithm the `(round, joiners, joiner_digest,
//! coin_digest)` columns are **cross-backend stable**, so diffing two
//! flight logs localizes a divergence even post-mortem.

use crate::{BackendError, CongestBackend, FlatAlgo, FlatBackend, MisBackend};
use arbmis_core::ArbParams;
use arbmis_graph::{Graph, GraphBuilder, NodeId};
use serde::{Deserialize, Serialize};

pub use arbmis_core::backend::{coin_digest, decide_iteration, joiner_digest, CoinFlip};

/// Schema tag written into every replay artifact.
pub const REPLAY_SCHEMA: &str = "arbmis-replay/v1";

/// What kind of disagreement [`localize`] found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The joiner lists differ at [`Divergence::round`].
    Joiners,
    /// One backend terminated while the other still has pending nodes.
    Done,
}

impl DivergenceKind {
    /// Stable lowercase label for artifacts and reports.
    pub fn label(&self) -> &'static str {
        match self {
            DivergenceKind::Joiners => "joiners",
            DivergenceKind::Done => "done",
        }
    }
}

/// The first round where two lockstep backends disagree, with the
/// minimal divergent node set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// The first divergent round (0-based, the round that was executed).
    pub round: u64,
    /// What diverged.
    pub kind: DivergenceKind,
    /// Symmetric difference of the two joiner lists, ascending — the
    /// minimal set of nodes whose fate differs at `round`. Empty for
    /// [`DivergenceKind::Done`].
    pub nodes: Vec<NodeId>,
}

/// Ascending symmetric difference of two ascending node lists.
fn sym_diff(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Lockstep-replays `a` and `b` from a fresh `init` and returns the
/// first divergence, or `Ok(None)` when they agree to completion.
///
/// Each round both backends step once and their joiner lists are
/// compared; because joiners are ascending, the symmetric difference is
/// the exact (minimal) set of first-round disagreements — no node that
/// both backends treated identically appears in it.
///
/// # Errors
///
/// [`BackendError::RoundLimitExceeded`] if no divergence (and no
/// termination) occurs within `max_rounds`; any backend step error.
pub fn localize(
    a: &mut dyn MisBackend,
    b: &mut dyn MisBackend,
    max_rounds: u64,
) -> Result<Option<Divergence>, BackendError> {
    a.init();
    b.init();
    loop {
        if a.is_done() != b.is_done() {
            return Ok(Some(Divergence {
                round: a.round().min(b.round()),
                kind: DivergenceKind::Done,
                nodes: Vec::new(),
            }));
        }
        if a.is_done() {
            return Ok(None);
        }
        if a.round() >= max_rounds {
            return Err(BackendError::RoundLimitExceeded { limit: max_rounds });
        }
        a.step_round()?;
        b.step_round()?;
        if a.joiners() != b.joiners() {
            return Ok(Some(Divergence {
                round: a.round() - 1,
                kind: DivergenceKind::Joiners,
                nodes: sym_diff(a.joiners(), b.joiners()),
            }));
        }
    }
}

/// BoundedArb schedule parameters carried inside an artifact.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArbSpec {
    /// The instantiated schedule.
    pub params: ArbParams,
    /// Whether the ρ_k cutoff is active.
    pub rho_cutoff: bool,
}

/// One backend's construction recipe inside an artifact.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BackendSpec {
    /// `"flat"` or `"congest"`.
    pub kind: String,
    /// Flat: `"auto"`, or `"sparse"` / `"dense"` from older artifacts;
    /// all three replay the engine's one frontier walk. Congest:
    /// `"frontier"` / `"full"` (the simulator's scheduling mode).
    pub scan: String,
    /// Injected perturbation (flat only).
    pub coin_flip: Option<CoinFlip>,
}

impl BackendSpec {
    /// An unperturbed flat backend.
    pub fn flat() -> Self {
        BackendSpec {
            kind: "flat".into(),
            scan: "auto".into(),
            coin_flip: None,
        }
    }

    /// The pristine CONGEST reference backend.
    pub fn congest() -> Self {
        BackendSpec {
            kind: "congest".into(),
            scan: "frontier".into(),
            coin_flip: None,
        }
    }

    /// Sets the coin flip (builder style).
    #[must_use]
    pub fn with_coin_flip(mut self, flip: CoinFlip) -> Self {
        self.coin_flip = Some(flip);
        self
    }

    fn describe(&self) -> String {
        let mut s = format!("{} scan={}", self.kind, self.scan);
        if let Some(f) = self.coin_flip {
            s.push_str(&format!(
                " coin_flip=node {} iter {} xor {:#x}",
                f.node, f.iteration, f.xor
            ));
        }
        s
    }
}

/// The divergence an artifact's author observed, for replay verdicts.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExpectedDivergence {
    /// Expected first divergent round.
    pub round: u64,
    /// Expected kind label (`"joiners"` / `"done"` / `"none"`).
    pub kind: String,
    /// Expected minimal divergent node set.
    pub nodes: Vec<NodeId>,
}

/// A self-contained reproduction of a backend divergence: the graph,
/// the seed, the algorithm, both backend recipes, and (optionally) the
/// divergence the author saw. `arbmis replay` rebuilds everything from
/// this document alone.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplayArtifact {
    /// Always [`REPLAY_SCHEMA`].
    pub schema: String,
    /// Node count.
    pub n: usize,
    /// Undirected edges, each as `(min, max)`, ascending.
    pub edges: Vec<(NodeId, NodeId)>,
    /// RNG seed.
    pub seed: u64,
    /// `"luby"` / `"metivier"` / `"ghaffari"` / `"bounded_arb"`.
    pub algo: String,
    /// Required when `algo == "bounded_arb"`.
    pub arb: Option<ArbSpec>,
    /// Backend A's recipe.
    pub a: BackendSpec,
    /// Backend B's recipe.
    pub b: BackendSpec,
    /// Round budget for the replay.
    pub max_rounds: u64,
    /// The divergence observed when the artifact was written.
    pub expected: Option<ExpectedDivergence>,
}

/// Outcome of [`ReplayArtifact::replay`].
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayReport {
    /// The divergence the replay found (None: backends agree).
    pub divergence: Option<Divergence>,
    /// Whether it matches the artifact's `expected` record (None when
    /// the artifact carries no expectation).
    pub matches_expected: Option<bool>,
}

impl ReplayArtifact {
    /// Builds an artifact from a live case. Edges are extracted from `g`
    /// in canonical `(min, max)` ascending order, so two artifacts over
    /// the same graph serialize identically.
    pub fn from_case(
        g: &Graph,
        seed: u64,
        algo: FlatAlgo,
        a: BackendSpec,
        b: BackendSpec,
        max_rounds: u64,
        expected: Option<&Divergence>,
    ) -> Self {
        let mut edges = Vec::new();
        for v in 0..g.n() {
            for u in g.neighbors(v) {
                if v < u {
                    edges.push((v, u));
                }
            }
        }
        let arb = match algo {
            FlatAlgo::BoundedArb { params, rho_cutoff } => Some(ArbSpec { params, rho_cutoff }),
            _ => None,
        };
        ReplayArtifact {
            schema: REPLAY_SCHEMA.into(),
            n: g.n(),
            edges,
            seed,
            algo: algo.label().into(),
            arb,
            a,
            b,
            max_rounds,
            expected: expected.map(|d| ExpectedDivergence {
                round: d.round,
                kind: d.kind.label().into(),
                nodes: d.nodes.clone(),
            }),
        }
    }

    /// Serializes to pretty JSON (stable field order, trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("artifact serialization");
        s.push('\n');
        s
    }

    /// Parses and validates an artifact.
    ///
    /// # Errors
    ///
    /// A message naming the malformed part (bad JSON, wrong schema tag,
    /// unknown algorithm, missing `arb` block, a node count over 2³² or
    /// too large to allocate, an out-of-range edge, or an edge list that
    /// is not in strictly ascending `(min, max)` form: a self loop, a
    /// reversed or repeated edge).
    pub fn from_json(s: &str) -> Result<Self, String> {
        let art: ReplayArtifact =
            serde_json::from_str(s).map_err(|e| format!("replay artifact: {e}"))?;
        if art.schema != REPLAY_SCHEMA {
            return Err(format!(
                "replay artifact: unsupported schema {:?} (want {REPLAY_SCHEMA:?})",
                art.schema
            ));
        }
        art.algo()?;
        GraphBuilder::check_node_count(art.n).map_err(|e| format!("replay artifact: {e}"))?;
        let mut prev = None;
        for &(u, v) in &art.edges {
            if v >= art.n {
                return Err(format!(
                    "replay artifact: edge ({u}, {v}) out of range for n={}",
                    art.n
                ));
            }
            // Canonical form: u < v (no self loops), strictly ascending
            // (no repeats), as written by `from_case`.
            if u >= v || prev >= Some((u, v)) {
                return Err(format!(
                    "replay artifact: edge ({u}, {v}) is not in ascending (min, max) order"
                ));
            }
            prev = Some((u, v));
        }
        Ok(art)
    }

    /// The algorithm this artifact replays.
    ///
    /// # Errors
    ///
    /// Unknown `algo` label, or `bounded_arb` without an `arb` block.
    pub fn algo(&self) -> Result<FlatAlgo, String> {
        match self.algo.as_str() {
            "luby" => Ok(FlatAlgo::Luby),
            "metivier" => Ok(FlatAlgo::Metivier),
            "ghaffari" => Ok(FlatAlgo::Ghaffari),
            "bounded_arb" => {
                let spec = self
                    .arb
                    .as_ref()
                    .ok_or("replay artifact: bounded_arb without arb params")?;
                Ok(FlatAlgo::BoundedArb {
                    params: spec.params,
                    rho_cutoff: spec.rho_cutoff,
                })
            }
            other => Err(format!("replay artifact: unknown algo {other:?}")),
        }
    }

    /// Rebuilds the graph from the edge list.
    pub fn graph(&self) -> Graph {
        Graph::from_edges(self.n, &self.edges)
    }

    fn build_backend<'g>(
        &self,
        g: &'g Graph,
        spec: &BackendSpec,
    ) -> Result<Box<dyn MisBackend + 'g>, String> {
        let algo = self.algo()?;
        match spec.kind.as_str() {
            "flat" => {
                // The engine walks its frontier one way; the three labels
                // earlier engines wrote all replay it.
                if !matches!(spec.scan.as_str(), "auto" | "sparse" | "dense") {
                    return Err(format!(
                        "replay artifact: unknown flat scan {:?}",
                        spec.scan
                    ));
                }
                let mut b = FlatBackend::new(g, self.seed, algo);
                if let Some(f) = spec.coin_flip {
                    b = b.with_coin_flip(f);
                }
                Ok(Box::new(b))
            }
            "congest" => {
                if spec.coin_flip.is_some() {
                    return Err("replay artifact: congest backend cannot inject coin flips".into());
                }
                let full_scan = match spec.scan.as_str() {
                    "frontier" => false,
                    "full" => true,
                    other => {
                        return Err(format!("replay artifact: unknown congest scan {other:?}"))
                    }
                };
                Ok(Box::new(
                    CongestBackend::new(g, self.seed, algo).with_full_scan(full_scan),
                ))
            }
            other => Err(format!("replay artifact: unknown backend kind {other:?}")),
        }
    }

    /// Rebuilds both backends and reruns [`localize`].
    ///
    /// # Errors
    ///
    /// Artifact validation errors, or a backend failure during replay
    /// (rendered as a string so the CLI can print it verbatim).
    pub fn replay(&self) -> Result<ReplayReport, String> {
        let g = self.graph();
        let mut a = self.build_backend(&g, &self.a)?;
        let mut b = self.build_backend(&g, &self.b)?;
        let divergence =
            localize(a.as_mut(), b.as_mut(), self.max_rounds).map_err(|e| e.to_string())?;
        let matches_expected = self.expected.as_ref().map(|e| match &divergence {
            None => e.kind == "none",
            Some(d) => e.round == d.round && e.kind == d.kind.label() && e.nodes == d.nodes,
        });
        Ok(ReplayReport {
            divergence,
            matches_expected,
        })
    }

    /// Deterministic human-readable replay report (what `arbmis replay`
    /// prints; byte-stable for a fixed artifact).
    pub fn render(&self, report: &ReplayReport) -> String {
        let mut out = String::new();
        out.push_str(&format!("replay artifact: {}\n", self.schema));
        out.push_str(&format!(
            "graph: n={} m={} seed={} algo={}\n",
            self.n,
            self.edges.len(),
            self.seed,
            self.algo
        ));
        out.push_str(&format!("a: {}\n", self.a.describe()));
        out.push_str(&format!("b: {}\n", self.b.describe()));
        match &report.divergence {
            None => out.push_str("divergence: none (backends agree to completion)\n"),
            Some(d) => out.push_str(&format!(
                "divergence: round {} kind={} nodes={:?}\n",
                d.round,
                d.kind.label(),
                d.nodes
            )),
        }
        match report.matches_expected {
            None => out.push_str("verdict: no expectation recorded\n"),
            Some(true) => out.push_str("verdict: divergence matches expected\n"),
            Some(false) => {
                if let Some(e) = &self.expected {
                    out.push_str(&format!(
                        "expected: round {} kind={} nodes={:?}\n",
                        e.round, e.kind, e.nodes
                    ));
                }
                out.push_str("verdict: MISMATCH with expected\n");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbmis_graph::gen;

    #[test]
    fn identical_backends_do_not_diverge() {
        let g = gen::path(20);
        let mut a = FlatBackend::new(&g, 7, FlatAlgo::Metivier);
        let mut b = CongestBackend::new(&g, 7, FlatAlgo::Metivier);
        assert_eq!(localize(&mut a, &mut b, 10_000).unwrap(), None);
    }

    #[test]
    fn coin_flip_divergence_is_localized() {
        let g = gen::cycle(16);
        let flip = CoinFlip {
            node: 5,
            iteration: 0,
            xor: u64::MAX >> 1,
        };
        let mut a = FlatBackend::new(&g, 3, FlatAlgo::Metivier).with_coin_flip(flip);
        let mut b = CongestBackend::new(&g, 3, FlatAlgo::Metivier);
        let d = localize(&mut a, &mut b, 10_000).unwrap().expect("diverges");
        // The flip hits iteration 0, whose joiners land at round 2.
        assert_eq!(d.round, 2);
        assert_eq!(d.kind, DivergenceKind::Joiners);
        assert!(!d.nodes.is_empty());
        assert!(d.nodes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sym_diff_is_minimal_and_sorted() {
        assert_eq!(sym_diff(&[1, 3, 5], &[1, 4, 5]), vec![3, 4]);
        assert_eq!(sym_diff(&[], &[2]), vec![2]);
        assert_eq!(sym_diff(&[2], &[2]), Vec::<NodeId>::new());
        assert_eq!(sym_diff(&[0, 9], &[]), vec![0, 9]);
    }

    #[test]
    fn artifact_roundtrips_and_replays() {
        let g = gen::cycle(16);
        let flip = CoinFlip {
            node: 5,
            iteration: 0,
            xor: u64::MAX >> 1,
        };
        let mut a = FlatBackend::new(&g, 3, FlatAlgo::Metivier).with_coin_flip(flip);
        let mut b = CongestBackend::new(&g, 3, FlatAlgo::Metivier);
        let d = localize(&mut a, &mut b, 10_000).unwrap().unwrap();
        let art = ReplayArtifact::from_case(
            &g,
            3,
            FlatAlgo::Metivier,
            BackendSpec::flat().with_coin_flip(flip),
            BackendSpec::congest(),
            10_000,
            Some(&d),
        );
        let json = art.to_json();
        let back = ReplayArtifact::from_json(&json).unwrap();
        assert_eq!(back, art);
        assert_eq!(back.to_json(), json, "serialization is byte-stable");
        let report = back.replay().unwrap();
        assert_eq!(report.matches_expected, Some(true));
        assert_eq!(report.divergence.as_ref(), Some(&d));
        let render = back.render(&report);
        assert!(
            render.contains("verdict: divergence matches expected"),
            "{render}"
        );
    }

    #[test]
    fn artifact_rejects_malformed_inputs() {
        assert!(ReplayArtifact::from_json("not json").is_err());
        let g = gen::path(4);
        let mut art = ReplayArtifact::from_case(
            &g,
            1,
            FlatAlgo::Luby,
            BackendSpec::flat(),
            BackendSpec::congest(),
            100,
            None,
        );
        art.schema = "bogus".into();
        assert!(ReplayArtifact::from_json(&art.to_json()).is_err());
        art.schema = REPLAY_SCHEMA.into();
        art.algo = "quantum".into();
        assert!(ReplayArtifact::from_json(&art.to_json()).is_err());
        art.algo = "bounded_arb".into(); // no arb block
        assert!(ReplayArtifact::from_json(&art.to_json()).is_err());
        art.algo = "luby".into();
        let edges = art.edges.clone();
        for bad in [
            vec![(0, 99)],        // out of range
            vec![(3, 3)],         // self loop
            vec![(3, 2)],         // not (min, max)
            vec![(2, 3)],         // repeats the last edge
            vec![(0, 2), (0, 1)], // not ascending
        ] {
            art.edges = [&edges[..], &bad[..]].concat();
            let parsed = ReplayArtifact::from_json(&art.to_json());
            assert!(parsed.is_err(), "{bad:?}");
        }
        art.edges.clear();
        art.n = 1_000_000_000_000_000_000;
        let err = ReplayArtifact::from_json(&art.to_json()).unwrap_err();
        assert!(err.contains("must fit 32 bits"), "{err}");
    }

    #[test]
    fn every_flat_scan_label_replays_one_walk() {
        let g = gen::cycle(40);
        let mut art = ReplayArtifact::from_case(
            &g,
            2,
            FlatAlgo::Metivier,
            BackendSpec::flat(),
            BackendSpec::congest(),
            10_000,
            None,
        );
        for label in ["auto", "sparse", "dense"] {
            art.a.scan = label.into();
            let report = art.replay().unwrap();
            assert_eq!(report.divergence, None, "{label}");
        }
        for label in ["frontier", "diagonal", ""] {
            art.a.scan = label.into();
            let err = art.replay().unwrap_err();
            assert!(err.contains("unknown flat scan"), "{label}: {err}");
        }
    }

    #[test]
    fn ghaffari_artifact_localizes_a_mark_flip() {
        let g = gen::cycle(16);
        let flip = CoinFlip {
            node: 5,
            iteration: 0,
            xor: 1,
        };
        let art = ReplayArtifact::from_case(
            &g,
            3,
            FlatAlgo::Ghaffari,
            BackendSpec::flat().with_coin_flip(flip),
            BackendSpec::congest(),
            10_000,
            None,
        );
        let back = ReplayArtifact::from_json(&art.to_json()).unwrap();
        assert_eq!(back.algo(), Ok(FlatAlgo::Ghaffari));
        let d = back.replay().unwrap().divergence.expect("diverges");
        // The toggled mark changes iteration 0's joiners, reported at
        // round 2.
        assert_eq!(d.round, 2);
        assert_eq!(d.kind, DivergenceKind::Joiners);
        let pristine = ReplayArtifact {
            a: BackendSpec::flat(),
            ..back
        };
        assert_eq!(pristine.replay().unwrap().divergence, None);
    }

    #[test]
    fn bounded_arb_artifact_replays() {
        let g = gen::complete(9);
        let params = ArbParams::new(3, 8, Default::default());
        let algo = FlatAlgo::BoundedArb {
            params,
            rho_cutoff: true,
        };
        let art = ReplayArtifact::from_case(
            &g,
            5,
            algo,
            BackendSpec::flat(),
            BackendSpec::congest(),
            1_000_000,
            None,
        );
        let back = ReplayArtifact::from_json(&art.to_json()).unwrap();
        let report = back.replay().unwrap();
        assert_eq!(report.divergence, None);
        assert_eq!(report.matches_expected, None);
    }
}
