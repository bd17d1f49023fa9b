//! Region re-solve: one-call MIS of a (sub)graph on the flat engine.
//!
//! The incremental maintenance layer (`arbmis-dynamic`) extracts the
//! dirty region of an update batch as a compacted subgraph and needs a
//! fresh MIS of exactly that region. [`solve_mis`] is that entry point:
//! it runs [`FlatBackend`] to completion and hands back the membership
//! mask plus the round count, with no message plane, no protocol setup,
//! and no observability: a repair writes neither the process-wide
//! recorder nor the flight ring, so the dynamic layer's one `"dynamic"`
//! record per batch is all a churn run leaves there.

use crate::{BackendError, FlatAlgo, FlatBackend, MisBackend};
use arbmis_graph::Graph;
use arbmis_obs::{FlightRecorder, Recorder};

/// Result of a [`solve_mis`] call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionMis {
    /// MIS membership mask over the solved graph's nodes.
    pub in_mis: Vec<bool>,
    /// CONGEST rounds the flat engine spent (0 for an empty graph).
    pub rounds: u64,
}

/// Computes an MIS of `g` with the flat frontier engine's Métivier
/// under the counter-pure `(seed, node, iteration)` coin stream — the
/// same execution [`FlatBackend`] would produce round by round, packaged
/// for callers that only want the final set.
///
/// # Errors
///
/// Returns [`BackendError::RoundLimitExceeded`] if the run is still
/// pending after `max_rounds`.
pub fn solve_mis(g: &Graph, seed: u64, max_rounds: u64) -> Result<RegionMis, BackendError> {
    let mut b = FlatBackend::new(g, seed, FlatAlgo::Metivier)
        .with_recorder(Recorder::disabled())
        .with_flight(FlightRecorder::disabled());
    let run = b.run(max_rounds)?;
    Ok(RegionMis {
        in_mis: b.mis().to_bools(),
        rounds: run.rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbmis_core::is_valid_mis;
    use arbmis_graph::gen;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn solves_regions_of_all_sizes() {
        let mut rng = StdRng::seed_from_u64(3);
        for g in [
            arbmis_graph::Graph::empty(0),
            arbmis_graph::Graph::empty(1),
            gen::path(9),
            gen::gnp(200, 0.05, &mut rng),
        ] {
            let r = solve_mis(&g, 7, 100_000).unwrap();
            assert!(is_valid_mis(&g, &r.in_mis));
            assert_eq!(r.in_mis.len(), g.n());
        }
    }

    #[test]
    fn matches_backend_run_exactly() {
        let g = gen::cycle(17);
        let r = solve_mis(&g, 5, 100_000).unwrap();
        let mut b = FlatBackend::new(&g, 5, FlatAlgo::Metivier);
        let run = b.run(100_000).unwrap();
        assert_eq!(*b.mis(), r.in_mis);
        assert_eq!(r.rounds, run.rounds);
    }

    #[test]
    fn round_limit_propagates() {
        let g = gen::path(6);
        assert!(matches!(
            solve_mis(&g, 1, 1),
            Err(BackendError::RoundLimitExceeded { limit: 1 })
        ));
    }
}
