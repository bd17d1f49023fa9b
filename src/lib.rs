#![warn(missing_docs)]
//! # arbmis — distributed MIS on bounded-arboricity graphs
//!
//! A production-quality reproduction of
//!
//! > Sriram V. Pemmaraju and Talal Riaz, *Brief Announcement: Using Read-k
//! > Inequalities to Analyze a Distributed MIS Algorithm*, PODC 2016
//! > (full version arXiv:1605.06486).
//!
//! The workspace implements, from scratch:
//!
//! * the **shattering MIS algorithm** `BoundedArbIndependentSet`
//!   (Algorithm 1) and the full **`ArbMIS`** pipeline (Algorithm 2) for
//!   graphs of arboricity α, in `O(poly(α)·√(log n)·log log n)` CONGEST
//!   rounds;
//! * the **read-k inequality toolkit** (Gavinsky–Lovett–Saks–Srinivasan
//!   bounds) the paper's analysis is built on, with Monte-Carlo
//!   verification of the paper's three probabilistic events;
//! * every **substrate**: a CSR graph library with bounded-arboricity
//!   workload generators, degeneracy orientations and forest
//!   decompositions; a synchronous **CONGEST simulator** with per-message
//!   bit accounting; Cole–Vishkin deterministic coloring; the
//!   Barenboim–Elkin H-partition;
//! * **baselines**: Luby's algorithm, the Métivier et al. priority
//!   algorithm, and Ghaffari's SODA 2016 algorithm.
//!
//! This facade crate re-exports the six member crates under stable
//! names.
//!
//! ## Quickstart
//!
//! ```
//! use arbmis::core::{arb_mis, ArbMisConfig};
//! use arbmis::graph::gen;
//! use rand::SeedableRng;
//!
//! // A random planar network (arboricity ≤ 3).
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let g = gen::apollonian(1_000, &mut rng);
//!
//! let outcome = arb_mis(&g, &ArbMisConfig::new(3, 7));
//! assert!(arbmis::core::check_mis(&g, &outcome.in_mis).is_ok());
//! println!("MIS of {} nodes in {} CONGEST rounds", outcome.mis_size(), outcome.rounds);
//! ```

/// Graph substrate: CSR graphs, generators, orientations, arboricity,
/// forest decompositions (re-export of `arbmis-graph`).
pub use arbmis_graph as graph;

/// Deterministic observability: recorders, spans, histograms, and the
/// JSONL and Chrome-trace exports (re-export of `arbmis-obs`; see
/// DESIGN.md §8).
pub use arbmis_obs as obs;

/// Synchronous CONGEST-model simulator (re-export of `arbmis-congest`).
pub use arbmis_congest as congest;

/// Read-k families, inequalities, and Monte-Carlo verification
/// (re-export of `arbmis-readk`).
pub use arbmis_readk as readk;

/// MIS algorithms: the shattering pipeline and baselines (re-export of
/// `arbmis-core`).
pub use arbmis_core as core;

/// Flat shared-memory MIS backends behind the `MisBackend` trait,
/// round-identical to the CONGEST simulator (re-export of `arbmis-flat`;
/// see DESIGN.md §11).
pub use arbmis_flat as flat;

/// Incremental MIS maintenance under edge/node churn with
/// locality-bounded repair (re-export of `arbmis-dynamic`; see
/// DESIGN.md §12).
pub use arbmis_dynamic as dynamic;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        let g = crate::graph::gen::path(4);
        let run = crate::core::metivier::run(&g, 1);
        assert!(crate::core::check_mis(&g, &run.in_mis).is_ok());
        assert!(crate::readk::conjunction_bound(0.5, 4, 2) > 0.0);
        let _sim = crate::congest::Simulator::new(&g, 0);
        assert!(!crate::obs::Recorder::disabled().enabled());
        use crate::flat::{FlatAlgo, FlatBackend, MisBackend};
        let mut b = FlatBackend::new(&g, 1, FlatAlgo::Metivier);
        b.run(1_000).unwrap();
        assert_eq!(b.mis(), &run.in_mis[..]);
        let mut d = crate::dynamic::DynamicMis::new(g, 1);
        d.apply(&[crate::dynamic::Update::InsertNode(vec![0])]);
        assert!(d.is_valid_mis());
    }
}
