//! `ArbMIS` — Algorithm 2: the full MIS pipeline.
//!
//! The whole pipeline is one run of the flat engine ([`FlatBackend`]):
//! each phase switches the engine's algorithm on the active set the
//! previous phase left, so no phase builds a second engine, a region mask
//! or a residual graph (DESIGN.md §11.2).
//!
//! 1. *(optional pre-phase)* **Degree reduction**: when
//!    `Δ > α·2^√(log n·log log n)` the paper invokes the BEPS
//!    degree-reduction procedure (their Theorem 7.2) for
//!    `O(√(log n·log log n))` rounds. We substitute the closest synthetic
//!    equivalent: up to that many iterations of the Métivier step among
//!    the nodes above the target and their neighbors
//!    ([`FlatAlgo::DegreeReduction`]), which removes MIS stars around the
//!    hubs (see DESIGN.md §3 — the substitution preserves the pipeline
//!    structure and the round accounting; the exact degree guarantee is
//!    BEPS-internal machinery the brief announcement treats as a black
//!    box, so the `arbmis_degree_reduction_*` gauges record what the
//!    substitute achieved).
//! 2. **Shattering**: [`crate::bounded_arb`] produces `(I, B, VIB)` on
//!    the graph the pre-phase leaves. It runs in place on the engine's
//!    surviving active set, with coins keyed by each node's rank among
//!    them, so the outcome is the one the extracted residual graph would
//!    give (DESIGN.md §11.1).
//! 3. **Residual split**: `VIB = V_lo ∪ V_hi` by the final-scale
//!    high-degree threshold; each side induces a low-degree graph (the
//!    Invariant guarantees it for `V_hi`) and is finished by a
//!    bounded-degree MIS pass — the paper uses BEPS Theorem 7.4, we
//!    substitute the Métivier algorithm restricted to the region, whose
//!    round count on a Δ'-degree graph is `O(log Δ' + log n)` whp.
//! 4. **Bad components** (Lemma 3.8): each connected component of `B` is
//!    small whp; per component we compute a Barenboim–Elkin forest
//!    decomposition, Cole–Vishkin 3-color the first forest, and sweep
//!    color classes (id tie-break for cross-forest edges). Components are
//!    processed in parallel in the network, so the phase costs the *max*
//!    over components. Under an understated α a component's decomposition
//!    can get stuck; it is then finished by Métivier and counted in
//!    `arbmis_alpha_understated`.
//!
//! Every phase only lets nodes not yet dominated by the growing `I` join,
//! so the union is an MIS of the whole graph — asserted in debug builds.

use crate::backend::{schedule_rounds, FlatAlgo, MisBackend};
use crate::bounded_arb::{shatter_active, BoundedArbConfig, ShatterOutcome};
use crate::params::ParamMode;
use crate::tree_mis::shatter_budget;
use crate::{cole_vishkin, forest_decomp, metivier, FlatBackend};
use arbmis_graph::{traversal, Graph, NodeId};
use arbmis_obs::{Histogram, Recorder};
use serde::{Deserialize, Serialize};

/// Configuration of an `ArbMIS` run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArbMisConfig {
    /// Arboricity bound of the input.
    pub alpha: usize,
    /// Parameter regime for the shattering phase.
    pub mode: ParamMode,
    /// Master randomness seed.
    pub seed: u64,
    /// Whether to run the degree-reduction pre-phase when Δ is large.
    pub degree_reduction: bool,
    /// Slack ε of the Barenboim–Elkin decomposition (threshold
    /// `⌈(2+ε)α⌉`).
    pub eps: f64,
}

impl ArbMisConfig {
    /// Practical defaults for arboricity `alpha`.
    pub fn new(alpha: usize, seed: u64) -> Self {
        ArbMisConfig {
            alpha,
            mode: ParamMode::default(),
            seed,
            degree_reduction: true,
            eps: 1.0,
        }
    }
}

/// Per-phase CONGEST round counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseRounds {
    /// Degree-reduction pre-phase.
    pub degree_reduction: u64,
    /// `BoundedArbIndependentSet` (Algorithm 1).
    pub shattering: u64,
    /// `V_lo` finishing pass.
    pub vlo: u64,
    /// `V_hi` finishing pass.
    pub vhi: u64,
    /// Bad-component processing (max over parallel components).
    pub bad_components: u64,
}

impl PhaseRounds {
    /// Total rounds across phases.
    pub fn total(&self) -> u64 {
        self.degree_reduction + self.shattering + self.vlo + self.vhi + self.bad_components
    }
}

/// Output of `ArbMIS`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArbMisOutcome {
    /// The maximal independent set.
    pub in_mis: Vec<bool>,
    /// Total CONGEST rounds.
    pub rounds: u64,
    /// Per-phase breakdown.
    pub phases: PhaseRounds,
    /// The shattering phase's raw outcome (over the post-reduction
    /// residual graph, in original node ids).
    pub shatter: ShatterOutcome,
    /// Sizes of the connected components of `B` (Lemma 3.7's subject).
    pub bad_component_sizes: Vec<usize>,
}

impl ArbMisOutcome {
    /// Number of MIS members.
    pub fn mis_size(&self) -> usize {
        self.in_mis.iter().filter(|&&b| b).count()
    }
}

/// The degree-reduction trigger threshold `α·2^√(log₂ n · log₂ log₂ n)`.
pub fn degree_reduction_target(alpha: usize, n: usize) -> f64 {
    if n < 4 {
        return alpha as f64 * 2.0;
    }
    let logn = (n as f64).log2();
    let loglogn = logn.log2().max(1.0);
    alpha as f64 * 2f64.powf((logn * loglogn).sqrt())
}

/// Runs the full `ArbMIS` pipeline.
///
/// # Panics
///
/// Panics if `cfg.alpha == 0`, or (in debug builds) if the final set is
/// not an MIS — which would be a bug, not bad luck.
///
/// ```
/// use arbmis_core::arb_mis::{arb_mis, ArbMisConfig};
/// use arbmis_graph::gen;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let g = gen::apollonian(400, &mut rng);
/// let out = arb_mis(&g, &ArbMisConfig::new(3, 11));
/// assert!(arbmis_core::check_mis(&g, &out.in_mis).is_ok());
/// ```
pub fn arb_mis(g: &Graph, cfg: &ArbMisConfig) -> ArbMisOutcome {
    arb_mis_with(g, cfg, &arbmis_obs::global())
}

/// [`arb_mis`] with an explicit observability [`Recorder`]: each pipeline
/// phase runs under a span (`arbmis/degree_reduction`,
/// `arbmis/shattering`, `arbmis/vlo`, `arbmis/vhi`,
/// `arbmis/bad_components` with nested `forest_decomp` / `cole_vishkin`),
/// the node-degree and bad-component-size histograms are collected, and
/// the `arbmis_degree_reduction_target` / `_max_degree` gauges record
/// Phase 1's contract.
/// Recording never changes the outcome (DESIGN.md §8).
///
/// # Panics
///
/// Same conditions as [`arb_mis`].
pub fn arb_mis_with(g: &Graph, cfg: &ArbMisConfig, rec: &Recorder) -> ArbMisOutcome {
    assert!(cfg.alpha >= 1, "arboricity bound must be >= 1");
    let n = g.n();
    let _root = rec.span("arbmis");
    let obs = rec.enabled();
    if obs {
        rec.add("arbmis_runs", 1);
        let mut degrees = Histogram::new();
        for v in g.nodes() {
            degrees.observe(g.neighbors(v).len() as u64);
        }
        rec.merge_histogram("arbmis_node_degree", &degrees);
    }
    let mut phases = PhaseRounds::default();

    // Phase 1: degree reduction (substituted; see module docs). The BEPS
    // contract is "reduce the maximum degree to the target, in
    // O(√(log n·log log n)) rounds" — so the competition is restricted to
    // high-degree nodes and their neighborhoods, leaving the rest of the
    // graph untouched for the shattering phase. The engine built here
    // carries every later phase.
    let target = degree_reduction_target(cfg.alpha, n);
    let dr_span = rec.span("degree_reduction");
    let mut engine =
        FlatBackend::unobserved(g, cfg.seed ^ 0xdeed, FlatAlgo::DegreeReduction { target });
    let mut reduced = None;
    if cfg.degree_reduction && g.max_degree() as f64 > target {
        let iterations = engine.run_iterations(shatter_budget(n));
        phases.degree_reduction = schedule_rounds(iterations, 0);
        reduced = Some(engine.mis().clone());
    }
    rec.point("rounds", phases.degree_reduction);
    drop(dr_span);

    // Phase 2: shattering on the surviving active set, in place (opens
    // its own span). Its `in_mis` is reported without Phase 1's joiners.
    let ba_cfg = BoundedArbConfig {
        alpha: cfg.alpha,
        mode: cfg.mode,
        seed: cfg.seed,
        rho_cutoff: true,
        record_iterations: false,
    };
    let mut shatter = shatter_active(&mut engine, &ba_cfg, rec);
    if let Some(reduced) = &reduced {
        for v in reduced.iter() {
            shatter.in_mis[v] = false;
        }
    }
    phases.shattering = shatter.rounds;
    if obs {
        // Phase 1's contract: the post-phase Δ (the schedule's Δ) is at
        // most the target whenever the phase stopped before its cap.
        rec.gauge("arbmis_degree_reduction_target", target);
        rec.gauge(
            "arbmis_degree_reduction_max_degree",
            shatter.params.delta as f64,
        );
    }

    // Phase 3: split the residual VIB into V_lo / V_hi by the final
    // scale's high-degree threshold on its active degrees (exact after
    // the last scale end). Active nodes are undominated: every exit
    // removes a joiner's whole neighborhood. V_hi waits outside the
    // active set while V_lo runs, then rejoins minus what V_lo dominated.
    let hi_threshold = if shatter.params.theta > 0 {
        shatter.params.high_degree_threshold(shatter.params.theta)
    } else {
        f64::INFINITY
    };
    let vhi = engine.take_active_above(hi_threshold);
    phases.vlo = finish_region(&mut engine, cfg.seed ^ 0x10, rec, "vlo");
    engine.activate_undominated(&vhi);
    phases.vhi = finish_region(&mut engine, cfg.seed ^ 0x11, rec, "vhi");
    let mut in_mis = engine.mis().to_bools();

    // Phase 4: bad components, processed independently (max rounds).
    let members = if engine.bad().count_ones() > 0 {
        traversal::components_of_subset(g, &shatter.bad).members()
    } else {
        Vec::new()
    };
    let mut bad_component_sizes: Vec<usize> = Vec::new();
    let mut max_component_rounds = 0u64;
    // One reusable extraction scratch for every Phase-4 component, so
    // subgraph extraction costs O(|C| + m(C)) per component, not O(n).
    let mut scratch = arbmis_graph::SubgraphScratch::new();
    {
        let _s = rec.span("bad_components");
        let mut comp_hist = Histogram::new();
        for comp in &members {
            if comp.is_empty() {
                continue;
            }
            bad_component_sizes.push(comp.len());
            if obs {
                comp_hist.observe(comp.len() as u64);
            }
            let rounds = finish_bad_component(g, comp, cfg, rec, &mut in_mis, &mut scratch);
            max_component_rounds = max_component_rounds.max(rounds);
        }
        if obs {
            rec.merge_histogram("arbmis_bad_component_size", &comp_hist);
        }
        rec.point("rounds", max_component_rounds);
    }
    phases.bad_components = max_component_rounds;

    let rounds = phases.total();
    if obs {
        rec.add("arbmis_rounds", rounds);
        let mis_size = in_mis.iter().filter(|&&b| b).count();
        rec.gauge("arbmis_mis_size", mis_size as f64);
    }
    debug_assert!(
        crate::verify::check_mis(g, &in_mis).is_ok(),
        "ArbMIS produced a non-MIS: {:?}",
        crate::verify::check_mis(g, &in_mis)
    );
    ArbMisOutcome {
        in_mis,
        rounds,
        phases,
        shatter,
        bad_component_sizes,
    }
}

/// Phase 3 on one side of the split: Métivier under `seed` on the
/// engine's active set, to completion, under the span `name`. Returns
/// its schedule rounds.
fn finish_region(engine: &mut FlatBackend<'_>, seed: u64, rec: &Recorder, name: &str) -> u64 {
    let _s = rec.span(name);
    engine.switch_algo(FlatAlgo::Metivier, seed);
    let rounds = schedule_rounds(engine.run_to_completion(), 0);
    rec.point("rounds", rounds);
    rounds
}

/// Lemma 3.8 on one component of `B`: forest-decompose, Cole–Vishkin
/// 3-color the densest forest, sweep color classes restricted to the
/// still-undominated part of the component. Returns the rounds spent.
/// Extraction goes through the caller's `scratch`, so the cost is
/// O(|C| + m(C)) per component with no O(n) allocations.
///
/// A component whose peeling gets stuck proves α understated (subgraphs
/// never exceed the true arboricity). It is finished with Métivier on its
/// undominated nodes instead and counted in `arbmis_alpha_understated`;
/// its rounds are Métivier's alone, without the stuck peeling's.
fn finish_bad_component(
    g: &Graph,
    component: &[NodeId],
    cfg: &ArbMisConfig,
    rec: &Recorder,
    in_mis: &mut [bool],
    scratch: &mut arbmis_graph::SubgraphScratch,
) -> u64 {
    let sub = scratch.induce(g, component);
    let cg = sub.graph();
    // Region: component nodes not yet dominated by the global MIS.
    let region: Vec<bool> = (0..cg.n())
        .map(|i| {
            let v = sub.to_parent(i);
            !in_mis[v] && g.neighbors(v).iter().all(|u| !in_mis[u])
        })
        .collect();
    let decomposition = {
        let _s = rec.span("forest_decomp");
        forest_decomp::forest_decomposition(cg, cfg.alpha, cfg.eps)
    };
    let (local_mis, rounds) = match decomposition {
        Ok((forests, decomp_rounds)) => {
            // Color the first forest (largest by construction of out-edge
            // indexing); isolated-in-forest nodes are roots and get
            // colored too.
            let coloring = {
                let _s = rec.span("cole_vishkin");
                match forests.first() {
                    Some(f) => cole_vishkin::cv_color_to_three(f),
                    None => cole_vishkin::ForestColoring {
                        colors: vec![0; cg.n()],
                        num_colors: 1,
                        rounds: 0,
                    },
                }
            };
            let (local_mis, sweep_rounds) = cole_vishkin::colorwise_mis(
                cg,
                &coloring.colors,
                coloring.num_colors,
                Some(&region),
            );
            (local_mis, decomp_rounds + coloring.rounds + sweep_rounds)
        }
        Err(_) => {
            rec.add("arbmis_alpha_understated", 1);
            let run = metivier::run_region(cg, &region, cfg.seed ^ 0xbad);
            (run.in_mis, run.rounds)
        }
    };
    for i in 0..cg.n() {
        if local_mis[i] {
            in_mis[sub.to_parent(i)] = true;
        }
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_mis;
    use arbmis_graph::gen;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn produces_mis_on_bounded_arboricity_families() {
        let mut r = rng(1);
        let cases: Vec<(Graph, usize)> = vec![
            (gen::random_tree_prufer(400, &mut r), 1),
            (gen::forest_union(400, 2, &mut r), 2),
            (gen::random_ktree(400, 3, &mut r), 3),
            (gen::apollonian(400, &mut r), 3),
            (gen::barabasi_albert(400, 2, &mut r), 2),
            (gen::grid(20, 20), 2),
            (gen::path(50), 1),
            (gen::cycle(51), 2),
        ];
        for (g, alpha) in cases {
            let out = arb_mis(&g, &ArbMisConfig::new(alpha, 7));
            assert!(
                check_mis(&g, &out.in_mis).is_ok(),
                "failed on {g} α={alpha}"
            );
            assert_eq!(out.rounds, out.phases.total());
        }
    }

    #[test]
    fn multiple_seeds_all_valid() {
        let mut r = rng(2);
        let g = gen::forest_union(600, 3, &mut r);
        for seed in 0..8 {
            let out = arb_mis(&g, &ArbMisConfig::new(3, seed));
            assert!(check_mis(&g, &out.in_mis).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut r = rng(3);
        let g = gen::apollonian(300, &mut r);
        let a = arb_mis(&g, &ArbMisConfig::new(3, 5));
        let b = arb_mis(&g, &ArbMisConfig::new(3, 5));
        assert_eq!(a.in_mis, b.in_mis);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn degree_reduction_triggers_on_heavy_tail() {
        let mut r = rng(4);
        // BA graphs have hubs ≫ the trigger for moderate n.
        let g = gen::barabasi_albert(2000, 2, &mut r);
        let with = arb_mis(&g, &ArbMisConfig::new(2, 9));
        let without = arb_mis(
            &g,
            &ArbMisConfig {
                degree_reduction: false,
                ..ArbMisConfig::new(2, 9)
            },
        );
        assert!(check_mis(&g, &with.in_mis).is_ok());
        assert!(check_mis(&g, &without.in_mis).is_ok());
        if (g.max_degree() as f64) > degree_reduction_target(2, g.n()) {
            assert!(with.phases.degree_reduction > 0);
            assert_eq!(without.phases.degree_reduction, 0);
        }
    }

    #[test]
    fn degree_reduction_gauges_record_the_phase_contract() {
        let mut r = rng(11);
        let cases: Vec<(Graph, usize)> = vec![
            (gen::gnp(300, 0.3, &mut rng(0)), 1),
            (gen::barabasi_albert(2000, 1, &mut r), 1),
            (gen::star(300), 1),
            (gen::random_ktree(3000, 3, &mut r), 3),
            (gen::random_tree_prufer(500, &mut r), 1),
        ];
        let mut stopped_early = 0;
        for (g, alpha) in &cases {
            for seed in 0..4 {
                let rec = arbmis_obs::Recorder::deterministic();
                let out = arb_mis_with(g, &ArbMisConfig::new(*alpha, seed), &rec);
                let snap = rec.snapshot();
                let target = snap.gauge_value("arbmis_degree_reduction_target");
                let max_degree = snap.gauge_value("arbmis_degree_reduction_max_degree");
                assert_eq!(target, Some(degree_reduction_target(*alpha, g.n())));
                assert_eq!(max_degree, Some(out.shatter.params.delta as f64));
                let iterations = out.phases.degree_reduction / crate::backend::ROUNDS_PER_ITERATION;
                if iterations < shatter_budget(g.n()) {
                    stopped_early += usize::from(iterations > 0);
                    assert!(
                        max_degree <= target,
                        "{g} seed {seed}: {max_degree:?} > {target:?}"
                    );
                }
            }
        }
        // Some runs iterated and stopped before the cap, not only runs
        // where the phase never fired.
        assert!(stopped_early > 0);
    }

    #[test]
    fn bad_components_are_small_in_practice() {
        let mut r = rng(5);
        let g = gen::forest_union(3000, 2, &mut r);
        let out = arb_mis(&g, &ArbMisConfig::new(2, 13));
        // Lemma 3.7 shape: components of B are tiny relative to n.
        if let Some(&max) = out.bad_component_sizes.iter().max() {
            assert!(max < g.n() / 10, "bad component of size {max}");
        }
        assert!(check_mis(&g, &out.in_mis).is_ok());
    }

    #[test]
    fn empty_and_edgeless_inputs() {
        let g0 = Graph::empty(0);
        let out0 = arb_mis(&g0, &ArbMisConfig::new(1, 0));
        assert_eq!(out0.mis_size(), 0);
        let g1 = Graph::empty(12);
        let out1 = arb_mis(&g1, &ArbMisConfig::new(1, 0));
        assert_eq!(out1.mis_size(), 12);
        assert!(check_mis(&g1, &out1.in_mis).is_ok());
    }

    #[test]
    fn star_graph_handled() {
        let g = gen::star(200);
        let out = arb_mis(&g, &ArbMisConfig::new(1, 3));
        assert!(check_mis(&g, &out.in_mis).is_ok());
    }

    #[test]
    fn recorder_captures_phase_spans_without_changing_results() {
        let mut r = rng(9);
        let g = gen::random_ktree(300, 2, &mut r);
        let cfg = ArbMisConfig::new(2, 7);
        let rec = arbmis_obs::Recorder::deterministic();
        let observed = arb_mis_with(&g, &cfg, &rec);
        let plain = arb_mis(&g, &cfg);
        // Observation only: the recorder never changes the outcome.
        assert_eq!(observed, plain);

        let snap = rec.snapshot();
        for span in [
            "arbmis",
            "arbmis/degree_reduction",
            "arbmis/shattering",
            "arbmis/vlo",
            "arbmis/vhi",
            "arbmis/bad_components",
        ] {
            assert!(snap.has_span(span), "missing span {span}");
        }
        assert_eq!(snap.counter("arbmis_runs"), Some(1));
        assert_eq!(snap.counter("arbmis_rounds"), Some(plain.rounds));
        let degrees = snap.histogram("arbmis_node_degree").unwrap();
        assert_eq!(degrees.count(), g.n() as u64);
        assert_eq!(
            snap.gauge_value("arbmis_mis_size"),
            Some(plain.mis_size() as f64)
        );
        // Bad components (when any exist) nest the Lemma 3.8 machinery.
        if !plain.bad_component_sizes.is_empty() {
            assert!(snap.has_span("arbmis/bad_components/forest_decomp"));
            assert!(snap.has_span("arbmis/bad_components/cole_vishkin"));
            assert_eq!(
                snap.histogram("arbmis_bad_component_size").unwrap().count(),
                plain.bad_component_sizes.len() as u64
            );
        }
    }

    #[test]
    fn recorder_snapshot_is_deterministic_across_runs() {
        let mut r = rng(10);
        let g = gen::forest_union(400, 2, &mut r);
        let cfg = ArbMisConfig::new(2, 3);
        let run = || {
            let rec = arbmis_obs::Recorder::deterministic();
            arb_mis_with(&g, &cfg, &rec);
            rec.snapshot()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert_eq!(a.to_jsonl(), b.to_jsonl());
    }

    #[test]
    fn faithful_mode_still_correct_via_finishers() {
        // Faithful Θ = 0 on small graphs: the pipeline must still finish
        // to a valid MIS using phases 3-4 alone.
        let mut r = rng(6);
        let g = gen::random_ktree(200, 2, &mut r);
        let cfg = ArbMisConfig {
            mode: ParamMode::Faithful { p: 1 },
            ..ArbMisConfig::new(2, 1)
        };
        let out = arb_mis(&g, &cfg);
        assert!(check_mis(&g, &out.in_mis).is_ok());
        assert_eq!(out.shatter.params.theta, 0);
    }
}
