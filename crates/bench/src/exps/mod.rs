//! The experiment implementations, one module per DESIGN.md group.
//!
//! Every experiment is a plan factory `fn plan(quick: bool) ->
//! ExperimentPlan`: an ordered list of pure cells plus a reduce closure
//! (see [`crate::cell`]). `quick` shrinks trial counts and sizes so the
//! whole suite stays test-runnable; the full-size run regenerates the
//! tables recorded in EXPERIMENTS.md. Unit tests run a plan inline with
//! [`ExperimentPlan::run_serial`]; the `experiments` binary fans every
//! plan's cells onto one pool with [`crate::sched::run_scheduled`].
//!
//! Cell-decomposition conventions:
//!
//! * one cell per table-row config, with the whole seed/trial loop
//!   inside, **unless** every cross-seed aggregate is an integer (sums,
//!   maxima) — those experiments chunk seeds across cells via
//!   [`seed_chunks`], because integer merges are order-invariant;
//! * floating-point accumulations are never split across cells
//!   (addition order would leak into the bytes);
//! * every cell generates its own graphs with [`graph`], from a fixed
//!   seed, so no state is shared between cells.

pub mod ablation;
pub mod congest_model;
pub mod events;
pub mod finishing;
pub mod invariant;
pub mod readk_bounds;
pub mod rounds;
pub mod shattering;
pub mod trees;

use crate::cell::ExperimentPlan;
use arbmis_graph::gen::GraphSpec;
use arbmis_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An experiment entry: id, one-line description, and plan factory.
pub type Entry = (&'static str, &'static str, fn(bool) -> ExperimentPlan);

/// Generates the workload graph `spec` from `seed`.
pub(crate) fn graph(spec: &GraphSpec, seed: u64) -> Graph {
    spec.generate(&mut StdRng::seed_from_u64(seed))
}

/// Splits `0..total` into `[lo, hi)` seed ranges of at most `chunk`
/// seeds — the cell granularity for integer-aggregating experiments.
pub(crate) fn seed_chunks(total: u64, chunk: u64) -> Vec<(u64, u64)> {
    assert!(chunk > 0);
    (0..total.div_ceil(chunk))
        .map(|i| (i * chunk, ((i + 1) * chunk).min(total)))
        .collect()
}

/// All experiments in index order.
pub fn all() -> Vec<Entry> {
    vec![
        (
            "E1",
            "Theorem 1.1: read-k conjunction bound Pr[Y_1=…=Y_n=1] ≤ p^(n/k)",
            readk_bounds::e1_conjunction_plan,
        ),
        (
            "E2",
            "Theorem 1.2: read-k lower-tail bounds vs Chernoff/Azuma",
            readk_bounds::e2_tail_plan,
        ),
        (
            "E3",
            "Event (1) / Figure 1A: some node of M beats all its children (Theorem 3.1)",
            events::e3_event1_plan,
        ),
        (
            "E4",
            "Event (2) / Figure 1B: > |M|/2α nodes of M beat all parents (Theorem 3.2)",
            events::e4_event2_plan,
        ),
        (
            "E5",
            "Event (3) / Figure 1C: elimination via children joining the MIS (Theorem 3.3)",
            events::e5_event3_plan,
        ),
        (
            "E6",
            "Theorem 3.6: Pr[node joins B] ≤ Δ^(-2p) — Invariant violations per run",
            invariant::e6_invariant_plan,
        ),
        (
            "E7",
            "Lemma 3.7: connected components of the bad set B are small",
            shattering::e7_bad_components_plan,
        ),
        (
            "E8",
            "Theorem 2.1 shape: ArbMIS rounds vs n (fixed α) and vs α (fixed n)",
            rounds::e8_scaling_plan,
        ),
        (
            "E9",
            "§1 comparison: CONGEST rounds to a complete MIS across algorithms",
            rounds::e9_race_plan,
        ),
        (
            "E10",
            "Shattering: residual active-set components after truncated priority iterations",
            shattering::e10_residual_plan,
        ),
        (
            "E11",
            "CONGEST compliance: per-message bit accounting for every protocol",
            congest_model::e11_congest_plan,
        ),
        (
            "E12",
            "Ablation: the ρ_k opt-out (high-degree nodes set priority 0)",
            ablation::e12_rho_cutoff_plan,
        ),
        (
            "E13",
            "Ablation: iterations per scale Λ — invariant failures vs schedule budget",
            ablation::e13_lambda_sweep_plan,
        ),
        (
            "E14",
            "Lemma 3.8: forest decomposition + Cole–Vishkin finishing of bad components",
            finishing::e14_cole_vishkin_plan,
        ),
        (
            "E15",
            "Tree specialization: shatter-then-finish tree MIS vs baselines (§1 lineage)",
            trees::e15_tree_specialization_plan,
        ),
        (
            "E16",
            "Workload characterization: structural statistics of every family",
            trees::e16_workloads_plan,
        ),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn registry_ids_unique_and_ordered() {
        let entries = super::all();
        assert_eq!(entries.len(), 16);
        for (i, (id, desc, _)) in entries.iter().enumerate() {
            assert_eq!(*id, format!("E{}", i + 1));
            assert!(!desc.is_empty(), "{id} needs a description");
        }
    }

    #[test]
    fn plan_ids_match_registry_and_plans_have_cells() {
        for (id, _, plan_fn) in super::all() {
            let plan = plan_fn(true);
            assert_eq!(plan.id, id);
            assert!(!plan.cells.is_empty(), "{id} has no cells");
        }
    }

    #[test]
    fn seed_chunks_cover_exactly() {
        assert_eq!(super::seed_chunks(5, 2), vec![(0, 2), (2, 4), (4, 5)]);
        assert_eq!(super::seed_chunks(4, 4), vec![(0, 4)]);
        assert_eq!(super::seed_chunks(0, 3), Vec::<(u64, u64)>::new());
    }
}
