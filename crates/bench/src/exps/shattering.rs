//! E7/E10 — shattering structure: bad-set components (Lemma 3.7) and
//! residual active-set components.

use super::graph;
use crate::cell::{Cell, CellOut, ExperimentPlan};
use crate::exps::seed_chunks;
use crate::{ExperimentReport, Table};
use arbmis_core::metivier;
use arbmis_graph::gen::{GraphFamily, GraphSpec};
use arbmis_graph::{powerband, traversal};

const E7_FAMILIES: [GraphFamily; 4] = [
    GraphFamily::ForestUnion { alpha: 2 },
    GraphFamily::Apollonian,
    GraphFamily::BarabasiAlbert { m: 3 },
    GraphFamily::GnpAvgDegree { d: 6.0 },
];

/// E7: Lemma 3.7 — components of the bad set are small.
///
/// Algorithm runs at simulable scales produce an *empty* B (see E6), so
/// the structural half of the lemma is exercised directly: mark each node
/// bad independently with the Theorem 3.6 probability Δ^{-2p}, exactly
/// the distributional premise of the lemma (Theorem 3.6 additionally
/// shows independence beyond distance 7, which independent marking
/// satisfies trivially), and measure components of B both in `G` and in
/// the paper's `G^[7,13]` band graph.
///
/// One cell per `(family, seed-range)` — all cross-seed aggregates are
/// integer sums and maxima.
pub fn e7_bad_components_plan(quick: bool) -> ExperimentPlan {
    let (n, seeds) = if quick { (3_000, 3u64) } else { (30_000, 10) };
    let chunks = seed_chunks(seeds, 3);
    let mut cells = Vec::new();
    for fam in E7_FAMILIES {
        let spec = GraphSpec::new(fam, n);
        for &(lo, hi) in &chunks {
            cells.push(Cell::new(
                format!("E7/{}[{lo}..{hi})", fam.label()),
                move || {
                    let g = graph(&spec, 0xe7);
                    let delta = g.max_degree().max(2) as f64;
                    // p = 1: the weakest version of Theorem 3.6.
                    let p_bad = (1.0 / (delta * delta)).min(0.5);
                    let mut total_b = 0usize;
                    let mut max_g = 0usize;
                    let mut max_band = 0usize;
                    for seed in lo..hi {
                        let bad: Vec<bool> = (0..g.n())
                            .map(|v| arbmis_congest::rng::draw_bool(0xbad0 + seed, v, 0, 0, p_bad))
                            .collect();
                        total_b += bad.iter().filter(|&&b| b).count();
                        let sizes = traversal::subset_component_sizes(&g, &bad);
                        max_g = max_g.max(sizes.into_iter().max().unwrap_or(0));
                        if !quick || g.n() <= 3_000 {
                            let band = powerband::power_band_of_subset(&g, 7, 13, &bad);
                            let band_sizes = traversal::subset_component_sizes(&band, &bad);
                            max_band = max_band.max(band_sizes.into_iter().max().unwrap_or(0));
                        }
                    }
                    let mut out = CellOut::default();
                    out.put("total_b", total_b as f64);
                    out.put("max_g", max_g as f64);
                    out.put("max_band", max_band as f64);
                    out.put("delta", delta);
                    out.put("p_bad", p_bad);
                    out.put("gn", g.n() as f64);
                    out
                },
            ));
        }
    }
    let per_family = chunks.len();
    ExperimentPlan::new("E7", cells, move |outs| {
        let mut table = Table::new([
            "family",
            "Δ",
            "p_bad",
            "mean |B|",
            "max comp in G",
            "max comp in G^[7,13]",
            "lemma cap Δ⁶·log_Δ n",
        ]);
        for (i, fam) in E7_FAMILIES.into_iter().enumerate() {
            let group = &outs[i * per_family..(i + 1) * per_family];
            let total_b: usize = group.iter().map(|o| o.get("total_b") as usize).sum();
            let max_g = group.iter().map(|o| o.get("max_g") as usize).max().unwrap();
            let max_band = group
                .iter()
                .map(|o| o.get("max_band") as usize)
                .max()
                .unwrap();
            let delta = group[0].get("delta");
            let gn = group[0].get("gn");
            let cap = delta.powi(6) * gn.log(delta.max(2.0));
            table.push_row([
                fam.label(),
                format!("{delta:.0}"),
                crate::fmt_p(group[0].get("p_bad")),
                format!("{:.1}", total_b as f64 / seeds as f64),
                max_g.to_string(),
                max_band.to_string(),
                format!("{cap:.1e}"),
            ]);
        }
        ExperimentReport {
            id: "E7".into(),
            title: "Lemma 3.7: connected components of the bad set B are small".into(),
            table,
            notes: vec![
                "B is sampled i.i.d. at the Theorem 3.6 rate Δ^(-2p), p = 1 — algorithm runs themselves produce B = ∅ at simulable scales (E6).".into(),
                "observed components are tiny in both G and the band graph G^[7,13] the lemma's union bound walks over; the Δ⁶·log_Δ n cap is astronomically loose.".into(),
            ],
        }
    })
}

const E10_FAMILIES: [GraphFamily; 3] = [
    GraphFamily::ForestUnion { alpha: 2 },
    GraphFamily::Apollonian,
    GraphFamily::GnpAvgDegree { d: 10.0 },
];

/// E10: residual components after truncated Métivier — the shattering
/// picture itself.
///
/// One cell per `(family, iters, seed-range)` — all cross-seed
/// aggregates are integer sums and maxima.
pub fn e10_residual_plan(quick: bool) -> ExperimentPlan {
    let (n, seeds) = if quick { (3_000, 3u64) } else { (50_000, 10) };
    let chunks = seed_chunks(seeds, 3);
    let mut cells = Vec::new();
    for fam in E10_FAMILIES {
        let spec = GraphSpec::new(fam, n);
        for iters in [1u64, 2, 3] {
            for &(lo, hi) in &chunks {
                cells.push(Cell::new(
                    format!("E10/{}×{iters}[{lo}..{hi})", fam.label()),
                    move || {
                        let g = graph(&spec, 0x10);
                        let mut sum_active = 0usize;
                        let mut sum_comps = 0usize;
                        let mut sum_max = 0usize;
                        let mut overall_max = 0usize;
                        for seed in lo..hi {
                            let p = metivier::run_partial(&g, seed, iters);
                            let sizes = traversal::subset_component_sizes(&g, &p.active);
                            sum_active += sizes.iter().sum::<usize>();
                            sum_comps += sizes.len();
                            let mx = sizes.into_iter().max().unwrap_or(0);
                            sum_max += mx;
                            overall_max = overall_max.max(mx);
                        }
                        let mut out = CellOut::default();
                        out.put("sum_active", sum_active as f64);
                        out.put("sum_comps", sum_comps as f64);
                        out.put("sum_max", sum_max as f64);
                        out.put("overall_max", overall_max as f64);
                        out
                    },
                ));
            }
        }
    }
    let per_config = chunks.len();
    ExperimentPlan::new("E10", cells, move |outs| {
        let mut table = Table::new([
            "family",
            "iters",
            "mean active",
            "mean #comps",
            "mean max comp",
            "max comp (all seeds)",
        ]);
        let mut groups = outs.chunks(per_config);
        for fam in E10_FAMILIES {
            for iters in [1u64, 2, 3] {
                let group = groups.next().unwrap();
                let sum = |k: &str| -> usize { group.iter().map(|o| o.get(k) as usize).sum() };
                let overall_max = group
                    .iter()
                    .map(|o| o.get("overall_max") as usize)
                    .max()
                    .unwrap();
                let s = seeds as f64;
                table.push_row([
                    fam.label(),
                    iters.to_string(),
                    format!("{:.0}", sum("sum_active") as f64 / s),
                    format!("{:.0}", sum("sum_comps") as f64 / s),
                    format!("{:.1}", sum("sum_max") as f64 / s),
                    overall_max.to_string(),
                ]);
            }
        }
        ExperimentReport {
            id: "E10".into(),
            title: "Shattering: residual active-set components after truncated priority iterations"
                .into(),
            table,
            notes: vec![
                format!("n = {n}, {seeds} seeds; after 2-3 iterations the giant component is gone and residual components are O(1)-sized — the structure all shattering MIS algorithms (Lenzen-Wattenhofer, BEPS, this paper) exploit."),
            ],
        }
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn e7_quick() {
        let r = super::e7_bad_components_plan(true).run_serial();
        assert_eq!(r.table.rows.len(), 4);
        // Observed max component must stay far below the lemma cap.
        for row in &r.table.rows {
            let max_g: usize = row[4].parse().unwrap();
            assert!(max_g < 100, "row {row:?}");
        }
    }

    #[test]
    fn e10_quick() {
        let r = super::e10_residual_plan(true).run_serial();
        assert_eq!(r.table.rows.len(), 9);
    }
}
