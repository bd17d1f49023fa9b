//! Erdős–Rényi random graphs, which carry no arboricity guarantee. They
//! serve as dense/irregular baselines in the comparison experiments.

use crate::graph::Graph;
use crate::GraphBuilder;
use rand::Rng;

/// Erdős–Rényi `G(n, p)`: every unordered pair is an edge independently
/// with probability `p`.
///
/// Uses the geometric skipping method of Batagelj–Brandes, so the cost is
/// `O(n + m)` rather than `O(n²)` for sparse `p`.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
pub fn gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p={p} out of [0,1]");
    let mut b = GraphBuilder::new(n);
    if p <= 0.0 || n < 2 {
        return b.build();
    }
    if p >= 1.0 {
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u, v);
            }
        }
        return b.build();
    }
    // Walk the strictly-upper-triangular pair sequence with geometric skips.
    let log_q = (1.0 - p).ln();
    let mut v: usize = 1;
    let mut w: i64 = -1;
    while v < n {
        let r: f64 = rng.gen_range(f64::EPSILON..1.0);
        w += 1 + (r.ln() / log_q).floor() as i64;
        while w >= v as i64 && v < n {
            w -= v as i64;
            v += 1;
        }
        if v < n {
            b.add_edge(w as usize, v);
        }
    }
    b.build()
}

/// `G(n, p)` parameterized by expected average degree `d`: `p = d/(n-1)`.
pub fn gnp_with_expected_degree<R: Rng + ?Sized>(n: usize, d: f64, rng: &mut R) -> Graph {
    if n < 2 {
        return Graph::empty(n);
    }
    let p = (d / (n - 1) as f64).clamp(0.0, 1.0);
    gnp(n, p, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::check_well_formed;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(gnp(10, 0.0, &mut rng(0)).m(), 0);
        assert_eq!(gnp(10, 1.0, &mut rng(0)).m(), 45);
        assert_eq!(gnp(1, 0.5, &mut rng(0)).m(), 0);
        assert_eq!(gnp(0, 0.5, &mut rng(0)).n(), 0);
    }

    #[test]
    fn gnp_edge_count_concentrates() {
        let n = 400;
        let p = 0.05;
        let g = gnp(n, p, &mut rng(11));
        let expect = p * (n * (n - 1) / 2) as f64;
        let sd = (expect * (1.0 - p)).sqrt();
        assert!(
            ((g.m() as f64) - expect).abs() < 6.0 * sd,
            "m={} expected~{expect}",
            g.m()
        );
        assert!(check_well_formed(&g).is_ok());
    }

    #[test]
    #[should_panic]
    fn gnp_rejects_bad_p() {
        let _ = gnp(5, 1.5, &mut rng(0));
    }

    #[test]
    fn gnp_expected_degree() {
        let g = gnp_with_expected_degree(500, 6.0, &mut rng(2));
        let avg = g.avg_degree();
        assert!((avg - 6.0).abs() < 1.5, "avg degree {avg} far from 6");
        assert_eq!(gnp_with_expected_degree(1, 4.0, &mut rng(2)).n(), 1);
    }

    #[test]
    fn gnp_deterministic_under_seed() {
        let g1 = gnp(100, 0.1, &mut rng(42));
        let g2 = gnp(100, 0.1, &mut rng(42));
        assert_eq!(g1, g2);
    }
}
