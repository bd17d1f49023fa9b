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
//! sums (DESIGN.md §13).
//!
//! The engine keeps one *coin word* per node: an active node's holds
//! its exponent with this iteration's mark in bit 31 (`MARK`); every
//! other node's is `INACTIVE`, no mark and an exponent whose desire is
//! 0. The pull reads one word per neighbor, adds its desire by table
//! (`coin_desire`) and ORs in its mark, with no activity test: an
//! inactive neighbor adds +0.0, which leaves every partial sum
//! bit-identical to the sum over active neighbors alone.

use crate::backend::FlatAlgo;
use crate::result::MisRun;
use crate::FlatBackend;
use arbmis_congest::rng;
use arbmis_graph::{Graph, NodeId};

/// Randomness tag for marking coins.
pub const TAG_MARK: u64 = 0x4748_4146; // "GHAF"

/// The mark bit of a coin word.
pub(crate) const MARK: u32 = 1 << 31;

/// The coin word of an inactive node: no mark, and exponent 1075, the
/// smallest whose desire is 0. The desire table ends there.
pub(crate) const INACTIVE: u32 = 1075;

/// The desire level `2^-e`, exactly: the bits of `0.5f64.powi(e)`, built
/// from the exponent field (subnormal below `2^-1022`, 0 below
/// `2^-1074`) instead of by repeated multiplication.
#[inline]
pub const fn desire(e: u32) -> f64 {
    match e {
        0..=1022 => f64::from_bits(((1023 - e) as u64) << 52),
        1023..=1074 => f64::from_bits(1 << (1074 - e)),
        _ => 0.0,
    }
}

/// [`desire`] of every exponent up to [`INACTIVE`]'s; every larger
/// exponent's desire is 0 too.
static DESIRES: [f64; INACTIVE as usize + 1] = {
    let mut table = [0.0; INACTIVE as usize + 1];
    let mut e = 0;
    while e <= INACTIVE {
        table[e as usize] = desire(e);
        e += 1;
    }
    table
};

/// The desire of a coin word's exponent, `desire(coin & !MARK)` bit for
/// bit, read from a table without a branch on the exponent.
#[inline]
pub(crate) fn coin_desire(coin: u32) -> f64 {
    DESIRES[(coin & !MARK).min(INACTIVE) as usize]
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
/// If nodes are still active after the engine's iteration cap, which
/// would indicate an implementation bug rather than bad luck.
///
/// ```
/// use arbmis_graph::gen;
/// let g = gen::grid(8, 8);
/// let run = arbmis_core::ghaffari::run(&g, 5);
/// assert!(arbmis_core::check_mis(&g, &run.in_mis).is_ok());
/// ```
pub fn run(g: &Graph, seed: u64) -> MisRun {
    FlatBackend::unobserved(g, seed, FlatAlgo::Ghaffari).into_mis_run()
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

    /// The table the engine's pull reads agrees with [`desire`] for
    /// every exponent a run can reach, with or without the mark bit, and
    /// gives the inactive word desire +0.0.
    #[test]
    fn coin_desire_matches_desire_bit_for_bit() {
        for e in 0..=2200u32 {
            let bits = desire(e).to_bits();
            assert_eq!(coin_desire(e).to_bits(), bits, "e = {e}");
            assert_eq!(coin_desire(e | MARK).to_bits(), bits, "marked, e = {e}");
        }
        assert_eq!(coin_desire(INACTIVE).to_bits(), 0.0f64.to_bits());
        assert_eq!(coin_desire(INACTIVE).to_bits(), desire(INACTIVE).to_bits());
        assert_eq!(coin_desire(u32::MAX).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn heavy_tailed_graph() {
        let mut r = rng(3);
        let g = gen::barabasi_albert(400, 3, &mut r);
        let res = run(&g, 2);
        assert!(check_mis(&g, &res.in_mis).is_ok());
    }
}
