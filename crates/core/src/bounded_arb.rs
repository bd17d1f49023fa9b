//! `BoundedArbIndependentSet` — Algorithm 1 of the paper.
//!
//! A parameter-rescaled `TreeIndependentSet` (Barenboim–Elkin–Pettie–
//! Schneider, FOCS 2012) run on arboricity-α graphs. The algorithm
//! proceeds in `Θ` *scales*; in scale `k` it runs `Λ` iterations of the
//! Métivier priority step, but nodes whose active degree exceeds the
//! cutoff `ρ_k` deterministically set their priority to 0 (they *opt out*
//! of the competition — the device that makes the node-vs-parent event a
//! read-ρ_k family, Theorem 3.2). After the `Λ` iterations, any node with
//! more than `Δ/2^{k+2}` high-degree active neighbors is exiled to the
//! "bad" set `B` (step 2(b)), enforcing the Invariant by construction.
//!
//! The algorithm returns the independent-but-not-maximal set `I`, the bad
//! set `B`, and the residual active set `VIB`; Algorithm 2
//! ([`mod@crate::arb_mis`]) finishes those up. Notably, the algorithm never
//! needs an edge orientation or forest decomposition — those exist only in
//! the analysis.

use crate::backend::{FlatAlgo, MisBackend};
use crate::params::{ArbParams, ParamMode};
use crate::trace::ScaleTrace;
use crate::FlatBackend;
use arbmis_graph::Graph;
use arbmis_obs::{Histogram, Recorder};
use serde::{Deserialize, Serialize};

/// Randomness tag for priority draws (shared with the CONGEST protocol).
pub const TAG_PRIORITY: u64 = 0x4241_5249; // "BARI"

/// CONGEST rounds per inner iteration (priorities, join bits, exit bits).
pub const ROUNDS_PER_ITERATION: u64 = 3;

/// CONGEST rounds per scale for step 2(b) (degree exchange, bad exits).
pub const ROUNDS_PER_SCALE_END: u64 = 2;

/// Configuration of one `BoundedArbIndependentSet` run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BoundedArbConfig {
    /// Arboricity bound `α` of the input (the only promise the algorithm
    /// needs).
    pub alpha: usize,
    /// Parameter regime (see [`ParamMode`]).
    pub mode: ParamMode,
    /// Master randomness seed.
    pub seed: u64,
    /// Whether the `ρ_k` opt-out is active. Disabling it is the E12
    /// ablation: the algorithm still runs, but the read-ρ_k structure of
    /// Event (2) is destroyed.
    pub rho_cutoff: bool,
    /// Record per-iteration joiner counts in the trace (costs memory).
    pub record_iterations: bool,
}

impl BoundedArbConfig {
    /// Practical-mode defaults for arboricity `alpha`.
    pub fn new(alpha: usize, seed: u64) -> Self {
        BoundedArbConfig {
            alpha,
            mode: ParamMode::default(),
            seed,
            rho_cutoff: true,
            record_iterations: false,
        }
    }
}

/// Output of `BoundedArbIndependentSet`: the paper's `(I, B)` plus the
/// residual `VIB` and observability data.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShatterOutcome {
    /// Independent set `I` (independent, *not* necessarily maximal).
    pub in_mis: Vec<bool>,
    /// Bad set `B`.
    pub bad: Vec<bool>,
    /// Residual active set `VIB` at termination.
    pub active: Vec<bool>,
    /// Total inner iterations executed.
    pub iterations: u64,
    /// CONGEST rounds (iterations·3 + scales·2).
    pub rounds: u64,
    /// The instantiated parameter schedule.
    pub params: ArbParams,
    /// Per-scale statistics.
    pub trace: Vec<ScaleTrace>,
}

impl ShatterOutcome {
    /// Number of nodes in `I`.
    pub fn mis_size(&self) -> usize {
        self.in_mis.iter().filter(|&&b| b).count()
    }

    /// Number of nodes in `B`.
    pub fn bad_size(&self) -> usize {
        self.bad.iter().filter(|&&b| b).count()
    }

    /// Number of residual active nodes.
    pub fn active_size(&self) -> usize {
        self.active.iter().filter(|&&b| b).count()
    }
}

/// Runs Algorithm 1.
///
/// # Panics
///
/// Panics if `cfg.alpha == 0`.
///
/// ```
/// use arbmis_core::bounded_arb::{bounded_arb_independent_set, BoundedArbConfig};
/// use arbmis_graph::gen;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let g = gen::random_ktree(500, 2, &mut rng);
/// let out = bounded_arb_independent_set(&g, &BoundedArbConfig::new(2, 7));
/// // I is independent; I, B, VIB partition the decided/undecided world.
/// assert!(arbmis_core::is_independent(&g, &out.in_mis));
/// ```
pub fn bounded_arb_independent_set(g: &Graph, cfg: &BoundedArbConfig) -> ShatterOutcome {
    bounded_arb_independent_set_with(g, cfg, &arbmis_obs::global())
}

/// [`bounded_arb_independent_set`] with an explicit observability
/// [`Recorder`]. Opens a `shattering` phase span and records the
/// joiners-per-iteration histogram and, per scale, the Invariant
/// headroom gauge (`Δ/2^{k+2}` bad threshold minus the worst surviving
/// high-degree neighbor count). Recording never changes the outcome.
pub fn bounded_arb_independent_set_with(
    g: &Graph,
    cfg: &BoundedArbConfig,
    rec: &Recorder,
) -> ShatterOutcome {
    shatter_active(&mut arb_engine(g, cfg), cfg, rec)
}

/// [`bounded_arb_independent_set_with`] on the subgraph of `g` induced by
/// `region`, run in place: no subgraph is built. The outcome equals
/// running on [`arbmis_graph::InducedSubgraph::new`]`(g, region)` and
/// lifting it to parent ids. Coins are keyed by each node's rank within
/// the region and drawn with `priority_bits` of the region size, which
/// are the subgraph's ids and `n`; ranks keep parent-id order, so
/// tie-breaks agree too. Δ is the region's maximum induced degree. The
/// masks are in parent ids and `false` outside the region.
///
/// # Panics
///
/// Panics if `cfg.alpha == 0` or `region.len() != g.n()`.
pub fn bounded_arb_region_with(
    g: &Graph,
    region: &[bool],
    cfg: &BoundedArbConfig,
    rec: &Recorder,
) -> ShatterOutcome {
    assert_eq!(region.len(), g.n(), "region mask length must equal n");
    shatter_active(&mut arb_engine(g, cfg).with_region(region), cfg, rec)
}

/// A BoundedArb engine on `g` whose schedule [`shatter_active`] sets.
fn arb_engine<'g>(g: &'g Graph, cfg: &BoundedArbConfig) -> FlatBackend<'g> {
    FlatBackend::unobserved(
        g,
        cfg.seed,
        FlatAlgo::BoundedArb {
            params: ArbParams::new(cfg.alpha, 0, cfg.mode),
            rho_cutoff: cfg.rho_cutoff,
        },
    )
}

/// Algorithm 1 on `engine`'s active set, as on the subgraph it induces,
/// under a `shattering` span: coins are keyed by rank within the active
/// set ([`FlatBackend::rank_active`]), Δ is the set's largest active
/// degree, and the engine is driven through the oblivious
/// `Θ × (Λ + scale end)` schedule. The trace and the recorder output are
/// rebuilt from its joiners and active counts. The outcome's `in_mis` is
/// the engine's whole MIS, including joiners of earlier phases.
pub(crate) fn shatter_active(
    engine: &mut FlatBackend<'_>,
    cfg: &BoundedArbConfig,
    rec: &Recorder,
) -> ShatterOutcome {
    let _span = rec.span("shattering");
    let params = ArbParams::new(cfg.alpha, engine.exact_max_active_degree(), cfg.mode);
    engine.switch_algo(
        FlatAlgo::BoundedArb {
            params,
            rho_cutoff: cfg.rho_cutoff,
        },
        cfg.seed,
    );
    engine.rank_active();
    let obs = rec.enabled();
    let mut joiners_hist = Histogram::new();
    let mut trace = Vec::with_capacity(params.theta as usize);

    for k in 1..=params.theta {
        let active_start = engine.active_count();
        let mut joined = 0usize;
        let mut eliminated = 0usize;
        let mut joined_per_iteration = Vec::new();

        // The schedule is oblivious: exactly Λ iterations run per scale
        // (the paper's algorithm never adaptively stops), so iteration
        // indices — and hence priority draws — are a pure function of the
        // schedule. Once nothing is active the engine has nothing left to
        // decide, so the remaining iterations are recorded as empty
        // without stepping it.
        for _ in 0..params.lambda {
            let before = engine.active_count();
            let joiners = if before > 0 {
                engine.advance_rounds(ROUNDS_PER_ITERATION);
                engine.joiners().len()
            } else {
                0
            };
            joined += joiners;
            eliminated += before - engine.active_count() - joiners;
            if cfg.record_iterations {
                joined_per_iteration.push(joiners);
            }
            if obs {
                joiners_hist.observe(joiners as u64);
            }
        }

        // Step 2(b): degree exchange, then Invariant violators exit to B.
        let before = engine.active_count();
        if before > 0 {
            engine.advance_rounds(ROUNDS_PER_SCALE_END);
        }
        let bad_marked = before - engine.active_count();

        if obs {
            rec.point("scale_bad_marked", bad_marked as u64);
            // Headroom of the Invariant check after exile: the bad
            // threshold Δ/2^{k+2} minus the worst surviving node's
            // high-degree neighbor count (≥ 0 by construction of 2(b)).
            let worst = engine.max_high_degree_neighbors(params.high_degree_threshold(k));
            rec.gauge(
                &format!("arbmis_invariant_headroom{{scale=\"{k}\"}}"),
                params.bad_threshold(k) - worst as f64,
            );
        }

        trace.push(ScaleTrace {
            k,
            rho: params.rho(k),
            iterations: params.lambda,
            active_start,
            active_end: engine.active_count(),
            joined,
            eliminated,
            bad_marked,
            max_active_degree_end: engine.max_active_degree(),
            joined_per_iteration,
        });
    }

    let iterations = u64::from(params.theta) * params.lambda;
    let rounds = iterations * ROUNDS_PER_ITERATION + u64::from(params.theta) * ROUNDS_PER_SCALE_END;
    if obs {
        rec.add("arbmis_shatter_iterations", iterations);
        rec.add("arbmis_shatter_scales", u64::from(params.theta));
        rec.merge_histogram("arbmis_scale_joiners", &joiners_hist);
        rec.point("rounds", rounds);
    }
    ShatterOutcome {
        in_mis: engine.mis().to_bools(),
        bad: engine.bad().to_bools(),
        active: engine.active_mask(),
        iterations,
        rounds,
        params,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_independent;
    use arbmis_graph::gen;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn sets_partition_consistently(g: &Graph, out: &ShatterOutcome) {
        for v in g.nodes() {
            let states = [out.in_mis[v], out.bad[v], out.active[v]];
            let count = states.iter().filter(|&&b| b).count();
            assert!(count <= 1, "node {v} in multiple sets");
            // A node in none of the sets must be a neighbor of I.
            if count == 0 {
                assert!(
                    g.neighbors(v).iter().any(|&u| out.in_mis[u]),
                    "node {v} vanished without an MIS neighbor"
                );
            }
        }
    }

    #[test]
    fn output_sets_are_consistent() {
        let mut r = rng(1);
        let g = gen::random_ktree(400, 2, &mut r);
        let out = bounded_arb_independent_set(&g, &BoundedArbConfig::new(2, 3));
        assert!(is_independent(&g, &out.in_mis));
        sets_partition_consistently(&g, &out);
        assert_eq!(out.trace.len(), out.params.theta as usize);
    }

    #[test]
    fn active_nodes_have_no_mis_neighbor() {
        let mut r = rng(2);
        let g = gen::apollonian(300, &mut r);
        let out = bounded_arb_independent_set(&g, &BoundedArbConfig::new(3, 5));
        for v in g.nodes() {
            if out.active[v] {
                assert!(!out.in_mis[v]);
                assert!(g.neighbors(v).iter().all(|&u| !out.in_mis[u]));
            }
        }
    }

    #[test]
    fn shattering_reduces_active_set_substantially() {
        let mut r = rng(3);
        let g = gen::forest_union(2000, 2, &mut r);
        let out = bounded_arb_independent_set(&g, &BoundedArbConfig::new(2, 9));
        assert!(
            out.active_size() + out.bad_size() < g.n() / 2,
            "residual {} + bad {} too large",
            out.active_size(),
            out.bad_size()
        );
    }

    #[test]
    fn trace_counts_add_up() {
        let mut r = rng(4);
        let g = gen::random_ktree(300, 3, &mut r);
        let mut cfg = BoundedArbConfig::new(3, 11);
        cfg.record_iterations = true;
        let out = bounded_arb_independent_set(&g, &cfg);
        for t in &out.trace {
            assert_eq!(
                t.active_start - t.active_end,
                t.joined + t.eliminated + t.bad_marked,
                "scale {} bookkeeping",
                t.k
            );
            assert_eq!(t.joined_per_iteration.iter().sum::<usize>(), t.joined);
        }
        let total_joined: usize = out.trace.iter().map(|t| t.joined).sum();
        assert_eq!(total_joined, out.mis_size());
    }

    #[test]
    fn deterministic_under_seed() {
        let mut r = rng(5);
        let g = gen::barabasi_albert(300, 2, &mut r);
        let a = bounded_arb_independent_set(&g, &BoundedArbConfig::new(2, 21));
        let b = bounded_arb_independent_set(&g, &BoundedArbConfig::new(2, 21));
        assert_eq!(a, b);
    }

    #[test]
    fn faithful_mode_with_zero_theta_is_a_noop() {
        let mut r = rng(6);
        let g = gen::random_tree_prufer(100, &mut r);
        let cfg = BoundedArbConfig {
            alpha: 1,
            mode: ParamMode::Faithful { p: 1 },
            seed: 1,
            rho_cutoff: true,
            record_iterations: false,
        };
        let out = bounded_arb_independent_set(&g, &cfg);
        // Δ too small for any faithful scale: nothing happens.
        assert_eq!(out.params.theta, 0);
        assert_eq!(out.mis_size(), 0);
        assert_eq!(out.active_size(), g.n());
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn ablation_without_cutoff_still_independent() {
        let mut r = rng(7);
        let g = gen::barabasi_albert(400, 3, &mut r);
        let cfg = BoundedArbConfig {
            rho_cutoff: false,
            ..BoundedArbConfig::new(3, 2)
        };
        let out = bounded_arb_independent_set(&g, &cfg);
        assert!(is_independent(&g, &out.in_mis));
        sets_partition_consistently(&g, &out);
    }

    #[test]
    fn recorder_observes_scales_without_changing_results() {
        let mut r = rng(9);
        let g = gen::random_ktree(400, 2, &mut r);
        let cfg = BoundedArbConfig::new(2, 5);
        let rec = arbmis_obs::Recorder::deterministic();
        let observed = bounded_arb_independent_set_with(&g, &cfg, &rec);
        let plain = bounded_arb_independent_set(&g, &cfg);
        assert_eq!(observed, plain);

        let snap = rec.snapshot();
        assert!(snap.has_span("shattering"));
        assert_eq!(
            snap.counter("arbmis_shatter_iterations"),
            Some(plain.iterations)
        );
        assert_eq!(
            snap.counter("arbmis_shatter_scales"),
            Some(u64::from(plain.params.theta))
        );
        // One joiner observation per scheduled iteration, summing to |I|.
        let joiners = snap.histogram("arbmis_scale_joiners").unwrap();
        assert_eq!(joiners.count(), plain.iterations);
        assert_eq!(joiners.sum(), plain.mis_size() as u64);
        // Step 2(b) enforces the Invariant, so every scale's headroom
        // gauge (bad threshold minus worst surviving count) is ≥ 0.
        for k in 1..=plain.params.theta {
            let name = format!("arbmis_invariant_headroom{{scale=\"{k}\"}}");
            let v = snap
                .gauge_value(&name)
                .unwrap_or_else(|| panic!("missing {name}"));
            assert!(v >= 0.0, "{name} = {v}");
        }
    }

    #[test]
    fn rounds_formula() {
        let mut r = rng(8);
        let g = gen::random_ktree(200, 2, &mut r);
        let out = bounded_arb_independent_set(&g, &BoundedArbConfig::new(2, 1));
        assert_eq!(
            out.rounds,
            out.iterations * ROUNDS_PER_ITERATION
                + u64::from(out.params.theta) * ROUNDS_PER_SCALE_END
        );
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = Graph::empty(0);
        let out = bounded_arb_independent_set(&g, &BoundedArbConfig::new(1, 0));
        assert_eq!(out.mis_size(), 0);
        let g1 = Graph::empty(5);
        let out1 = bounded_arb_independent_set(&g1, &BoundedArbConfig::new(1, 0));
        // Δ = 0: no scales; everything stays active for the finisher.
        assert_eq!(out1.active_size(), 5);
    }
}
