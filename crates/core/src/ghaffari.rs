//! Ghaffari's desire-level MIS algorithm (SODA 2016).
//!
//! Every node maintains a *desire level* `p_v`, initially 1/2, always a
//! power of two in `(0, 1/2]`. Each iteration a node marks itself with
//! probability `p_v`; a marked node with no marked active neighbor joins
//! the MIS. The desire level then adapts to the *effective degree*
//! `d_v = Σ_{active u ∈ N(v)} p_u`: if `d_v ≥ 2` the node halves `p_v`,
//! otherwise it doubles it (capped at 1/2). Runs in
//! `O(log Δ) + 2^{O(√(log log n))}` rounds whp; the paper cites the
//! `O(log α + √(log n))` corollary for arboricity-α graphs as the fastest
//! known, dominating its own bound (§1.2).
//!
//! Desire levels being powers of two means the CONGEST protocol only
//! exchanges exponents — `O(log log Δ)` bits.
//!
//! [`run`] is a short driver over the flat engine
//! ([`FlatBackend`] with [`FlatAlgo::Ghaffari`]), on the same
//! announce/decide/exit timeline as Luby. The decide round marks every
//! active node, records the winners, and computes every active node's
//! next exponent from its pre-removal active neighborhood. The
//! effective degree is summed in ascending neighbor id, the order of the
//! simulator's inbox, so both engines compute the same floating-point
//! sums (DESIGN.md §13). A run still active after its generous iteration
//! cap panics.

use crate::backend::{FlatAlgo, MisBackend};
use crate::result::MisRun;
use crate::FlatBackend;
use arbmis_congest::rng;
use arbmis_graph::{Graph, NodeId};

/// Randomness tag for marking coins.
pub const TAG_MARK: u64 = 0x4748_4146; // "GHAF"

/// CONGEST rounds per iteration: exchange (exponent, mark), join bits,
/// exit bits.
pub const ROUNDS_PER_ITERATION: u64 = 3;

/// Hard iteration cap: Ghaffari's algorithm terminates whp long before
/// this; exceeding it indicates a bug and panics.
fn iteration_cap(n: usize) -> u64 {
    let logn = (n.max(2) as f64).log2();
    2000 + (60.0 * logn * logn) as u64
}

/// The desire level `2^-e`, exactly: the bits of `0.5f64.powi(e)`, built
/// from the exponent field (subnormal below `2^-1022`, 0 below
/// `2^-1074`) instead of by repeated multiplication.
#[inline]
pub fn desire(e: u32) -> f64 {
    match e {
        0..=1022 => f64::from_bits(u64::from(1023 - e) << 52),
        1023..=1074 => f64::from_bits(1 << (1074 - e)),
        _ => 0.0,
    }
}

/// Whether `v` marks itself in `iter` at desire exponent `e` (`p = 2^-e`).
#[inline]
pub fn is_marked(seed: u64, v: NodeId, iter: u64, e: u32) -> bool {
    rng::draw_unit(seed, v, iter, TAG_MARK) < desire(e)
}

/// The next desire exponent of a node at exponent `e` whose active
/// neighbors' desires sum to `d`: halve the desire when `d ≥ 2`, else
/// double it, capped at 1/2.
#[inline]
pub fn next_exponent(e: u32, d: f64) -> u32 {
    if d >= 2.0 {
        e + 1
    } else {
        e.saturating_sub(1).max(1)
    }
}

/// Runs Ghaffari's algorithm to completion on the flat engine.
///
/// # Panics
///
/// Panics if the (generous) internal iteration cap is exceeded, which
/// would indicate an implementation bug rather than bad luck.
///
/// ```
/// use arbmis_graph::gen;
/// let g = gen::grid(8, 8);
/// let run = arbmis_core::ghaffari::run(&g, 5);
/// assert!(arbmis_core::check_mis(&g, &run.in_mis).is_ok());
/// ```
pub fn run(g: &Graph, seed: u64) -> MisRun {
    let cap = iteration_cap(g.n());
    let mut engine = FlatBackend::unobserved(g, seed, FlatAlgo::Ghaffari);
    let iterations = engine.run_iterations(cap);
    assert!(
        engine.active_count() == 0,
        "ghaffari exceeded iteration cap {cap}"
    );
    MisRun::new(
        engine.mis().to_bools(),
        iterations,
        iterations * ROUNDS_PER_ITERATION,
    )
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
    fn produces_mis_on_families() {
        let mut r = rng(1);
        let graphs = vec![
            gen::path(40),
            gen::cycle(33),
            gen::complete(9),
            gen::star(20),
            gen::random_tree_prufer(250, &mut r),
            gen::gnp(150, 0.08, &mut r),
            gen::apollonian(150, &mut r),
            arbmis_graph::Graph::empty(7),
        ];
        for g in graphs {
            for seed in 0..3 {
                let run = run(&g, seed);
                assert!(
                    check_mis(&g, &run.in_mis).is_ok(),
                    "failed on {g} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut r = rng(2);
        let g = gen::gnp(100, 0.1, &mut r);
        assert_eq!(run(&g, 4), run(&g, 4));
    }

    #[test]
    fn fast_on_bounded_degree() {
        let g = gen::grid(40, 40);
        let res = run(&g, 7);
        assert!(res.iterations <= 60, "iterations {}", res.iterations);
        assert!(check_mis(&g, &res.in_mis).is_ok());
    }

    #[test]
    fn desire_exponent_cannot_go_below_one() {
        // Isolated nodes keep e = 1 (p = 1/2) and join geometrically fast.
        let g = arbmis_graph::Graph::empty(20);
        let res = run(&g, 9);
        assert_eq!(res.size(), 20);
        assert!(res.iterations <= 30);
    }

    #[test]
    fn desire_matches_powi_bit_for_bit() {
        for e in 0..=2200u32 {
            assert_eq!(
                desire(e).to_bits(),
                0.5f64.powi(e as i32).to_bits(),
                "e = {e}"
            );
        }
    }

    #[test]
    fn heavy_tailed_graph() {
        let mut r = rng(3);
        let g = gen::barabasi_albert(400, 3, &mut r);
        let res = run(&g, 2);
        assert!(check_mis(&g, &res.in_mis).is_ok());
    }
}
