//! E15/E16 — the tree specialization (the paper's §1 lineage) and
//! workload characterization.

use super::graph;
use crate::cell::{Cell, CellOut, ExperimentPlan};
use crate::{fmt_f, ExperimentReport, Table};
use arbmis_core::{arb_mis, check_mis, luby, metivier, tree_mis, ArbMisConfig};
use arbmis_graph::gen::{GraphFamily, GraphSpec};
use arbmis_graph::stats::GraphStats;

const E15_FAMILIES: [GraphFamily; 2] = [
    GraphFamily::RandomTree,
    GraphFamily::Caterpillar { legs: 5 },
];

/// E15: on forests, compare the dedicated shatter-then-finish tree
/// pipeline (Lenzen–Wattenhofer / BEPS style) against the baselines and
/// against `ArbMIS` run at α = 1 — the specialization relationship §1 of
/// the paper describes.
///
/// One cell per `(family, n)` — the seed loop accumulates f64 means, so
/// it stays whole inside the cell.
pub fn e15_tree_specialization_plan(quick: bool) -> ExperimentPlan {
    let seeds: u64 = if quick { 2 } else { 5 };
    let sizes: &[usize] = if quick {
        &[1 << 10, 1 << 12]
    } else {
        &[1 << 10, 1 << 13, 1 << 16]
    };
    let mut cells = Vec::new();
    for fam in E15_FAMILIES {
        for &n in sizes {
            let spec = GraphSpec::new(fam, n);
            cells.push(Cell::new(format!("E15/{}:n={n}", fam.label()), move || {
                let g = graph(&spec, 0x15);
                let mut sums = [0f64; 6];
                for seed in 0..seeds {
                    let t = tree_mis::tree_mis(&g, seed);
                    check_mis(&g, &t.in_mis).expect("tree_mis invalid");
                    let a = arb_mis(&g, &ArbMisConfig::new(1, seed));
                    check_mis(&g, &a.in_mis).expect("arbmis invalid");
                    let vals = [
                        luby::run(&g, seed).rounds as f64,
                        metivier::run(&g, seed).rounds as f64,
                        t.rounds as f64,
                        t.shatter_rounds as f64,
                        t.finish_rounds as f64,
                        a.rounds as f64,
                    ];
                    for (s, v) in sums.iter_mut().zip(vals) {
                        *s += v;
                    }
                }
                let k = seeds as f64;
                let logn = (g.n() as f64).log2();
                CellOut::from_rows(vec![vec![
                    fam.label(),
                    g.n().to_string(),
                    fmt_f(sums[0] / k),
                    fmt_f(sums[1] / k),
                    fmt_f(sums[2] / k),
                    fmt_f(sums[3] / k),
                    fmt_f(sums[4] / k),
                    fmt_f(sums[5] / k),
                    fmt_f((logn * logn.log2()).sqrt()),
                ]])
            }));
        }
    }
    ExperimentPlan::new("E15", cells, move |outs| {
        let mut table = Table::new([
            "tree family",
            "n",
            "luby",
            "metivier",
            "tree-mis",
            "  (shatter)",
            "  (finish)",
            "arbmis α=1",
            "√(lg n·lglg n)",
        ]);
        for out in outs {
            for row in out.rows {
                table.push_row(row);
            }
        }
        ExperimentReport {
            id: "E15".into(),
            title: "Tree specialization: shatter-then-finish tree MIS vs baselines (§1 lineage)"
                .into(),
            table,
            notes: vec![
                format!("mean over {seeds} seeds; every output verified to be an MIS."),
                "tree-mis caps its randomized phase at ⌈√(log₂ n·log₂log₂ n)⌉ iterations and finishes residual components with Cole–Vishkin — the Lenzen-Wattenhofer/BEPS recipe the paper generalizes.".into(),
                "arbmis at α = 1 runs the same machinery through the general scale schedule: same asymptotics, bigger schedule constant — the specialization relationship is visible directly.".into(),
            ],
        }
    })
}

const E16_FAMILIES: [GraphFamily; 13] = [
    GraphFamily::RandomTree,
    GraphFamily::Caterpillar { legs: 4 },
    GraphFamily::ForestUnion { alpha: 2 },
    GraphFamily::ForestUnion { alpha: 4 },
    GraphFamily::KTree { k: 3 },
    GraphFamily::Apollonian,
    GraphFamily::SeriesParallel,
    GraphFamily::BarabasiAlbert { m: 3 },
    GraphFamily::PowerlawCluster { m: 3, p: 0.7 },
    GraphFamily::GnpAvgDegree { d: 8.0 },
    GraphFamily::Geometric { radius: 0.02 },
    GraphFamily::RingOfCliques { k: 6 },
    GraphFamily::Grid,
];

/// E16: structural characterization of every workload family used across
/// the suite — so the other tables are interpretable.
///
/// One cell per family — `GraphStats::compute` is the expensive part
/// and each family's statistics are independent.
pub fn e16_workloads_plan(quick: bool) -> ExperimentPlan {
    let n = if quick { 1_000 } else { 10_000 };
    let cells = E16_FAMILIES
        .into_iter()
        .map(|fam| {
            let spec = GraphSpec::new(fam, n);
            Cell::new(format!("E16/{}", fam.label()), move || {
                let g = graph(&spec, 0x16);
                let s = GraphStats::compute(&g);
                CellOut::from_rows(vec![vec![
                    fam.label(),
                    s.n.to_string(),
                    s.m.to_string(),
                    s.max_degree.to_string(),
                    fmt_f(s.avg_degree),
                    s.degeneracy.to_string(),
                    format!("[{},{}]", s.arboricity_lower, s.arboricity_upper),
                    s.components.to_string(),
                    s.triangles.to_string(),
                    format!("{:.3}", s.clustering),
                ]])
            })
        })
        .collect();
    ExperimentPlan::new("E16", cells, |outs| {
        let mut table = Table::new([
            "family",
            "n",
            "m",
            "Δ",
            "avg deg",
            "degen",
            "α bounds",
            "comps",
            "triangles",
            "clustering",
        ]);
        for out in outs {
            for row in out.rows {
                table.push_row(row);
            }
        }
        ExperimentReport {
            id: "E16".into(),
            title: "Workload characterization: structural statistics of every family".into(),
            table,
            notes: vec![
                "degeneracy certifies the arboricity upper bound used as α in the algorithm runs; families advertised as arboricity-bounded must show degen ≤ 2α−1.".into(),
            ],
        }
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn e15_quick() {
        let r = super::e15_tree_specialization_plan(true).run_serial();
        assert_eq!(r.table.rows.len(), 4);
    }

    #[test]
    fn e16_quick() {
        let r = super::e16_workloads_plan(true).run_serial();
        assert_eq!(r.table.rows.len(), 13);
        // Bounded families: degeneracy within certificate.
        for row in &r.table.rows {
            let degen: usize = row[5].parse().unwrap();
            assert!(degen <= 40, "row {row:?}");
        }
    }
}
