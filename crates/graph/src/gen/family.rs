//! Declarative graph-family specifications.
//!
//! Experiment harnesses describe workloads as data ([`GraphSpec`]) so runs
//! can be serialized, tabulated, and reproduced from a seed.

use crate::graph::Graph;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The named random/deterministic families used across experiments.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum GraphFamily {
    /// Path graph `P_n`.
    Path,
    /// Cycle graph `C_n`.
    Cycle,
    /// Uniformly random labelled tree (Prüfer).
    RandomTree,
    /// Caterpillar with pendant leaves per spine node; `n` is the total
    /// node count.
    Caterpillar {
        /// Pendant leaves per spine node.
        legs: usize,
    },
    /// Union of `alpha` random forests.
    ForestUnion {
        /// Number of forests (the arboricity certificate).
        alpha: usize,
    },
    /// Random `k`-tree.
    KTree {
        /// Treewidth parameter.
        k: usize,
    },
    /// Random Apollonian (planar) network.
    Apollonian,
    /// Barabási–Albert with attachment `m`.
    BarabasiAlbert {
        /// Edges added per new node.
        m: usize,
    },
    /// Erdős–Rényi with expected average degree `d`.
    GnpAvgDegree {
        /// Expected average degree.
        d: f64,
    },
    /// Square-ish grid (`rows = cols = ⌈√n⌉`, truncated to `n` is NOT done;
    /// the generated graph has `rows·cols` nodes).
    Grid,
    /// `d`-dimensional hypercube (`n` is rounded down to a power of two).
    Hypercube,
    /// Random series-parallel graph (treewidth ≤ 2).
    SeriesParallel,
    /// Ring of `k`-cliques (`n` is rounded to a multiple of `k`).
    RingOfCliques {
        /// Clique size.
        k: usize,
    },
    /// Random geometric (unit-disk) graph with the given radius.
    Geometric {
        /// Connection radius in the unit square.
        radius: f64,
    },
    /// Holme–Kim power-law cluster graph.
    PowerlawCluster {
        /// Attachment links per node.
        m: usize,
        /// Triad-closing probability.
        p: f64,
    },
}

impl GraphFamily {
    /// A short, stable identifier for tables.
    pub fn label(&self) -> String {
        match self {
            GraphFamily::Path => "path".into(),
            GraphFamily::Cycle => "cycle".into(),
            GraphFamily::RandomTree => "tree".into(),
            GraphFamily::Caterpillar { legs } => format!("caterpillar(l={legs})"),
            GraphFamily::ForestUnion { alpha } => format!("forests(α={alpha})"),
            GraphFamily::KTree { k } => format!("ktree(k={k})"),
            GraphFamily::Apollonian => "apollonian".into(),
            GraphFamily::BarabasiAlbert { m } => format!("ba(m={m})"),
            GraphFamily::GnpAvgDegree { d } => format!("gnp(d={d})"),
            GraphFamily::Grid => "grid".into(),
            GraphFamily::Hypercube => "hypercube".into(),
            GraphFamily::SeriesParallel => "series-parallel".into(),
            GraphFamily::RingOfCliques { k } => format!("cliquering(k={k})"),
            GraphFamily::Geometric { radius } => format!("geometric(r={radius})"),
            GraphFamily::PowerlawCluster { m, p } => format!("plc(m={m},p={p})"),
        }
    }

    /// The arboricity bound this family guarantees by construction, if any.
    pub fn arboricity_bound(&self) -> Option<usize> {
        match self {
            GraphFamily::Path | GraphFamily::RandomTree | GraphFamily::Caterpillar { .. } => {
                Some(1)
            }
            GraphFamily::Cycle | GraphFamily::Grid => Some(2),
            GraphFamily::ForestUnion { alpha } => Some(*alpha),
            GraphFamily::KTree { k } => Some(*k),
            GraphFamily::Apollonian => Some(3),
            GraphFamily::BarabasiAlbert { m } => Some(*m),
            GraphFamily::SeriesParallel => Some(2),
            GraphFamily::RingOfCliques { k } => Some(k.div_ceil(2)),
            GraphFamily::PowerlawCluster { m, .. } => Some(2 * m),
            GraphFamily::GnpAvgDegree { .. }
            | GraphFamily::Hypercube
            | GraphFamily::Geometric { .. } => None,
        }
    }
}

impl fmt::Display for GraphFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A fully-specified workload: family + target size.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GraphSpec {
    /// The family to draw from.
    pub family: GraphFamily,
    /// Target number of nodes (exact for most families; see
    /// [`GraphFamily::Grid`] / [`GraphFamily::Hypercube`] caveats).
    pub n: usize,
}

impl GraphSpec {
    /// Creates a spec.
    pub fn new(family: GraphFamily, n: usize) -> Self {
        GraphSpec { family, n }
    }

    /// Instantiates the workload with the given RNG.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Graph {
        let n = self.n;
        match self.family {
            GraphFamily::Path => super::path(n),
            GraphFamily::Cycle => super::cycle(n),
            GraphFamily::RandomTree => super::random_tree_prufer(n, rng),
            GraphFamily::Caterpillar { legs } => {
                let spine = (n / (legs + 1)).max(1);
                super::caterpillar(spine, legs)
            }
            GraphFamily::ForestUnion { alpha } => super::forest_union(n, alpha, rng),
            GraphFamily::KTree { k } => super::random_ktree(n.max(k + 1), k, rng),
            GraphFamily::Apollonian => super::apollonian(n.max(3), rng),
            GraphFamily::BarabasiAlbert { m } => super::barabasi_albert(n.max(m + 1), m, rng),
            GraphFamily::GnpAvgDegree { d } => super::gnp_with_expected_degree(n, d, rng),
            GraphFamily::Grid => {
                let side = (n as f64).sqrt().ceil() as usize;
                super::grid(side, side)
            }
            GraphFamily::Hypercube => {
                let d = (n.max(2) as f64).log2().floor() as u32;
                super::hypercube(d)
            }
            GraphFamily::SeriesParallel => super::series_parallel(n.max(2), rng),
            GraphFamily::RingOfCliques { k } => super::ring_of_cliques((n / k).max(1), k),
            GraphFamily::Geometric { radius } => super::random_geometric(n, radius, rng),
            GraphFamily::PowerlawCluster { m, p } => {
                super::powerlaw_cluster(n.max(m + 1), m, p, rng)
            }
        }
    }
}

impl fmt::Display for GraphSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[n={}]", self.family, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1)
    }

    #[test]
    fn every_family_generates() {
        let families = [
            GraphFamily::Path,
            GraphFamily::Cycle,
            GraphFamily::RandomTree,
            GraphFamily::Caterpillar { legs: 3 },
            GraphFamily::ForestUnion { alpha: 2 },
            GraphFamily::KTree { k: 2 },
            GraphFamily::Apollonian,
            GraphFamily::BarabasiAlbert { m: 2 },
            GraphFamily::GnpAvgDegree { d: 4.0 },
            GraphFamily::Grid,
            GraphFamily::Hypercube,
            GraphFamily::SeriesParallel,
            GraphFamily::RingOfCliques { k: 4 },
            GraphFamily::Geometric { radius: 0.2 },
            GraphFamily::PowerlawCluster { m: 2, p: 0.5 },
        ];
        for fam in families {
            let g = GraphSpec::new(fam, 64).generate(&mut rng());
            assert!(g.n() >= 3, "{fam} generated tiny graph");
            assert!(!fam.label().is_empty());
        }
    }

    #[test]
    fn arboricity_bounds_hold_empirically() {
        use crate::arboricity::degeneracy;
        let bounded = [
            GraphFamily::RandomTree,
            GraphFamily::ForestUnion { alpha: 3 },
            GraphFamily::KTree { k: 3 },
            GraphFamily::Apollonian,
            GraphFamily::BarabasiAlbert { m: 3 },
        ];
        for fam in bounded {
            let bound = fam.arboricity_bound().unwrap();
            let g = GraphSpec::new(fam, 300).generate(&mut rng());
            // degeneracy ≤ 2α − 1 for arboricity α.
            assert!(
                degeneracy(&g) <= 2 * bound,
                "{fam}: degeneracy {} vs α bound {bound}",
                degeneracy(&g)
            );
        }
    }

    #[test]
    fn spec_display_roundtrip_serde() {
        let spec = GraphSpec::new(GraphFamily::KTree { k: 2 }, 128);
        let s = format!("{spec}");
        assert!(s.contains("ktree"));
    }
}
