//! E12/E13 — ablations: the ρ_k opt-out device and the Λ iteration
//! budget.

use super::graph;
use crate::cell::{Cell, CellOut, ExperimentPlan};
use crate::exps::seed_chunks;
use crate::{fmt_p, ExperimentReport, Table};
use arbmis_core::bounded_arb::{bounded_arb_independent_set, BoundedArbConfig};
use arbmis_core::params::ParamMode;
use arbmis_graph::gen::{GraphFamily, GraphSpec};
use arbmis_graph::orientation::Orientation;
use arbmis_readk::events::EventScenario;

const E12_FAMILIES: [(GraphFamily, usize); 3] = [
    (GraphFamily::BarabasiAlbert { m: 2 }, 2usize),
    (GraphFamily::BarabasiAlbert { m: 3 }, 3),
    (GraphFamily::Apollonian, 3),
];

/// E12: the ρ_k cutoff. Its analytical role is to cap the Event (2) read
/// parameter at ρ_k (a parent's priority is read only by its ≤ ρ_k
/// children when competitive). Measured: the read parameter of the
/// Event (2) family with and without the cutoff on heavy-tailed graphs,
/// plus whole-algorithm outcomes with the cutoff disabled.
///
/// One cell per graph family (each cell is one row).
pub fn e12_rho_cutoff_plan(quick: bool) -> ExperimentPlan {
    let n = if quick { 2_000 } else { 20_000 };
    let cells = E12_FAMILIES
        .into_iter()
        .map(|(fam, alpha)| {
            let spec = GraphSpec::new(fam, n);
            Cell::new(format!("E12/{}", fam.label()), move || {
                let g = graph(&spec, 0x12);
                let o = Orientation::by_degeneracy(&g);
                let delta = g.max_degree();
                // ρ at a deep scale, where the cutoff actually bites
                // (ρ_1 ≈ 4Δ·lnΔ exceeds Δ, so early scales never
                // exclude anyone).
                let rho = (delta / 8).max(2);
                let m: Vec<usize> = (0..n.min(2_000)).collect();
                let uncut = EventScenario::new(&g, &o, m.clone(), None);
                let cut = EventScenario::new(&g, &o, m, Some(rho));

                let on = bounded_arb_independent_set(&g, &BoundedArbConfig::new(alpha, 7));
                let off = bounded_arb_independent_set(
                    &g,
                    &BoundedArbConfig {
                        rho_cutoff: false,
                        ..BoundedArbConfig::new(alpha, 7)
                    },
                );
                CellOut::from_rows(vec![vec![
                    fam.label(),
                    delta.to_string(),
                    rho.to_string(),
                    uncut.event2_read_parameter().to_string(),
                    cut.event2_read_parameter().to_string(),
                    on.mis_size().to_string(),
                    off.mis_size().to_string(),
                    on.rounds.to_string(),
                    off.rounds.to_string(),
                ]])
            })
        })
        .collect();
    ExperimentPlan::new("E12", cells, |outs| {
        let mut table = Table::new([
            "graph",
            "Δ",
            "ρ",
            "k(Event2) no cutoff",
            "k(Event2) cutoff",
            "|I| on",
            "|I| off",
            "rounds on",
            "rounds off",
        ]);
        for out in outs {
            for row in out.rows {
                table.push_row(row);
            }
        }
        ExperimentReport {
            id: "E12".into(),
            title: "Ablation: the ρ_k opt-out (high-degree nodes set priority 0)".into(),
            table,
            notes: vec![
                "the cutoff caps the Event (2) read parameter at ρ — without it a hub's priority is read by its whole (unbounded) child set, and Theorem 3.2's read-ρ_k argument collapses.".into(),
                "operationally the algorithm barely changes on these inputs (columns on/off): the device exists for the *analysis*, exactly as the paper presents it.".into(),
            ],
        }
    })
}

const E13_SCALES: [f64; 6] = [1e-9, 0.002, 0.01, 0.05, 0.2, 1.0];

/// E13: Λ sweep — how many inner iterations a scale actually needs.
///
/// One cell per `(λ-scale, seed-range)` — cross-seed aggregates are
/// integer sums, and Λ itself is a pure function of `(α, Δ, mode)`, so
/// any chunk can report it.
pub fn e13_lambda_sweep_plan(quick: bool) -> ExperimentPlan {
    let n = if quick { 2_000 } else { 20_000 };
    let seeds: u64 = if quick { 3 } else { 10 };
    let chunks = seed_chunks(seeds, 5);
    let spec = GraphSpec::new(GraphFamily::BarabasiAlbert { m: 3 }, n);
    let mut cells = Vec::new();
    for scale in E13_SCALES {
        for &(lo, hi) in &chunks {
            cells.push(Cell::new(
                format!("E13/λ×{scale}[{lo}..{hi})"),
                move || {
                    let g = graph(&spec, 0x13);
                    let mut mis = 0usize;
                    let mut residual = 0usize;
                    let mut bad = 0usize;
                    let mut rounds = 0u64;
                    let mut lambda = 0u64;
                    for seed in lo..hi {
                        let cfg = BoundedArbConfig {
                            mode: ParamMode::Practical {
                                lambda_scale: scale,
                            },
                            ..BoundedArbConfig::new(3, seed)
                        };
                        let out = bounded_arb_independent_set(&g, &cfg);
                        mis += out.mis_size();
                        residual += out.active_size();
                        bad += out.bad_size();
                        rounds += out.rounds;
                        lambda = out.params.lambda;
                    }
                    let mut out = CellOut::default();
                    out.put("mis", mis as f64);
                    out.put("residual", residual as f64);
                    out.put("bad", bad as f64);
                    out.put("rounds", rounds as f64);
                    out.put("lambda", lambda as f64);
                    out
                },
            ));
        }
    }
    let per_scale = chunks.len();
    ExperimentPlan::new("E13", cells, move |outs| {
        let mut table = Table::new([
            "λ-scale",
            "Λ",
            "mean |I|",
            "mean residual",
            "mean |B|",
            "bad frac",
            "rounds",
        ]);
        for (i, scale) in E13_SCALES.into_iter().enumerate() {
            let group = &outs[i * per_scale..(i + 1) * per_scale];
            let sum =
                |k: &str| -> f64 { group.iter().map(|o| o.get(k) as u64).sum::<u64>() as f64 };
            let s = seeds as f64;
            let bad = sum("bad");
            table.push_row([
                format!("{scale}"),
                (group[0].get("lambda") as u64).to_string(),
                format!("{:.0}", sum("mis") / s),
                format!("{:.1}", sum("residual") / s),
                format!("{:.2}", bad / s),
                fmt_p(bad / (s * n as f64)),
                format!("{:.0}", sum("rounds") / s),
            ]);
        }
        ExperimentReport {
            id: "E13".into(),
            title: "Ablation: iterations per scale Λ — invariant failures vs schedule budget"
                .into(),
            table,
            notes: vec![
                format!("n = {n}, {seeds} seeds on a heavy-tailed α=3 graph."),
                "even Λ = 1 leaves a near-empty residual and a bad fraction far below Δ⁻²; the paper's Λ ~ α⁸·log(α·logΔ) is pure proof slack (its own §1.2 concedes the α-degree is reducible).".into(),
                "rounds grow linearly in Λ — the knob trades schedule cost against the probability the Invariant needs its step-2(b) safety valve.".into(),
            ],
        }
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn e12_quick() {
        let r = super::e12_rho_cutoff_plan(true).run_serial();
        assert_eq!(r.table.rows.len(), 3);
        for row in &r.table.rows {
            let k_off: usize = row[3].parse().unwrap();
            let k_on: usize = row[4].parse().unwrap();
            assert!(
                k_on <= k_off,
                "cutoff must not increase the read parameter: {row:?}"
            );
        }
    }

    #[test]
    fn e13_quick() {
        let r = super::e13_lambda_sweep_plan(true).run_serial();
        assert_eq!(r.table.rows.len(), 6);
        // Rounds must be monotone in Λ.
        let rounds: Vec<f64> = r.table.rows.iter().map(|r| r[6].parse().unwrap()).collect();
        for w in rounds.windows(2) {
            assert!(w[0] <= w[1] + 1.0, "{rounds:?}");
        }
    }
}
