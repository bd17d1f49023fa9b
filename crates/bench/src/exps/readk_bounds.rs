//! E1/E2 — the Gavinsky et al. inequalities on synthetic read-k families.

use crate::cell::{Cell, CellOut, ExperimentPlan};
use crate::{fmt_p, ExperimentReport, Table};
use arbmis_readk::family::sliding_window_family;
use arbmis_readk::{bounds, estimate};

fn trials(quick: bool) -> u64 {
    if quick {
        3_000
    } else {
        60_000
    }
}

/// E1: Theorem 1.1 — `Pr[∧ Y_j] ≤ p^{n/k}` on sliding-window families.
///
/// One cell per `(n, span, frac)` configuration, all trials inside (the
/// Monte-Carlo tally is a single integer count).
pub fn e1_conjunction_plan(quick: bool) -> ExperimentPlan {
    let trials = trials(quick);
    // Window span s with stride 1 gives read parameter s; the per-Y
    // marginal is (1 − frac)^s.
    let configs = [
        (8usize, 1usize, 0.2f64),
        (8, 2, 0.2),
        (8, 3, 0.2),
        (12, 2, 0.1),
        (12, 4, 0.1),
        (16, 4, 0.05),
    ];
    let cells = configs
        .into_iter()
        .map(|(n, span, frac)| {
            Cell::new(format!("E1/n={n},span={span}"), move || {
                let fam = sliding_window_family(n, span, 1, frac);
                let p = (1.0 - frac).powi(span as i32);
                let k = fam.read_parameter();
                let est = estimate(trials, |t| {
                    let x = fam.sample_base(0xe1, t);
                    fam.all_ones(&x)
                });
                let bound = bounds::conjunction_bound(p, n, k);
                // The bound is tight at k = 1 (true probability = bound),
                // so the statistically sound check is that the 99% *lower*
                // CI does not exceed the bound.
                let (lo, _) = est.wilson_ci(2.58);
                let holds = lo <= bound + 1e-9;
                let mut out = CellOut::from_rows(vec![vec![
                    n.to_string(),
                    span.to_string(),
                    k.to_string(),
                    fmt_p(p),
                    fmt_p(est.p_hat()),
                    fmt_p(bound),
                    if holds {
                        "✓".into()
                    } else {
                        "VIOLATED".to_string()
                    },
                ]]);
                out.put("viol", if holds { 0.0 } else { 1.0 });
                out
            })
        })
        .collect();
    ExperimentPlan::new("E1", cells, move |outs| {
        let mut table = Table::new([
            "n",
            "span",
            "k",
            "p per Y",
            "measured",
            "bound p^(n/k)",
            "holds",
        ]);
        let mut violations = 0usize;
        for out in outs {
            violations += out.get("viol") as usize;
            for row in out.rows {
                table.push_row(row);
            }
        }
        ExperimentReport {
            id: "E1".into(),
            title: "Theorem 1.1: read-k conjunction bound Pr[Y_1=…=Y_n=1] ≤ p^(n/k)".into(),
            table,
            notes: vec![
                format!("{trials} Monte-Carlo trials per row; 'holds' compares the 99% Wilson upper CI against the bound."),
                format!("violations: {violations} (expected 0 — the bound is a theorem)"),
                "with k = 1 the family is independent and the bound is tight (p^n); growing k weakens it exponentially, exactly the paper's reading.".into(),
            ],
        }
    })
}

/// E2: Theorem 1.2 — read-k lower tails, forms (1)/(2), vs Chernoff and
/// Azuma comparators.
///
/// One cell per `(n, span, delta)` configuration.
pub fn e2_tail_plan(quick: bool) -> ExperimentPlan {
    let trials = trials(quick);
    let configs = [
        (200usize, 1usize, 0.5f64),
        (200, 2, 0.5),
        (200, 4, 0.5),
        (200, 2, 0.3),
        (400, 3, 0.4),
    ];
    let cells = configs
        .into_iter()
        .map(|(n, span, delta)| {
            Cell::new(format!("E2/n={n},span={span},δ={delta}"), move || {
                let fam = sliding_window_family(n, span, 1, 0.5);
                let p = 0.5f64.powi(span as i32);
                let exp_y = p * n as f64;
                let threshold = ((1.0 - delta) * exp_y).floor() as usize;
                let k = fam.read_parameter();
                let est = estimate(trials, |t| fam.sample_count(0xe2, t) <= threshold);
                let form2 = bounds::tail_form2(delta, exp_y, k);
                // Form (1) with ε = δ·p̄ (same threshold expressed additively).
                let form1 = bounds::tail_form1(delta * p, n, k);
                let chern = bounds::chernoff_lower_tail(delta, exp_y);
                let azuma = bounds::azuma_lower_tail(delta * exp_y, fam.m(), k);
                let (lo, _) = est.wilson_ci(2.58);
                let mut out = CellOut::from_rows(vec![vec![
                    n.to_string(),
                    k.to_string(),
                    format!("{delta}"),
                    fmt_p(est.p_hat()),
                    fmt_p(form2),
                    fmt_p(form1),
                    fmt_p(chern),
                    fmt_p(azuma),
                ]]);
                out.put("viol", if lo > form2 + 1e-9 { 1.0 } else { 0.0 });
                out
            })
        })
        .collect();
    ExperimentPlan::new("E2", cells, move |outs| {
        let mut table = Table::new([
            "n",
            "k",
            "δ",
            "measured",
            "read-k form2",
            "form1",
            "chernoff",
            "azuma",
        ]);
        let mut violations = 0usize;
        for out in outs {
            violations += out.get("viol") as usize;
            for row in out.rows {
                table.push_row(row);
            }
        }
        ExperimentReport {
            id: "E2".into(),
            title: "Theorem 1.2: read-k lower-tail bounds vs Chernoff/Azuma".into(),
            table,
            notes: vec![
                format!("{trials} trials per row; read-k form (2) must upper-bound 'measured' (violations: {violations}, expected 0)."),
                "Chernoff (k = 1 case) is NOT valid for dependent rows — where measured exceeds it, the dependence is biting.".into(),
                "Azuma treats Y as a k-Lipschitz function of the m base variables; the read-k bound is tighter whenever n ≈ m (GLSS §1), visible in every row.".into(),
            ],
        }
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn e1_runs_quick_with_no_violations() {
        let r = super::e1_conjunction_plan(true).run_serial();
        assert_eq!(r.table.rows.len(), 6);
        assert!(
            r.notes.iter().any(|n| n.contains("violations: 0")),
            "{:?}",
            r.notes
        );
    }

    #[test]
    fn e2_runs_quick_with_no_violations() {
        let r = super::e2_tail_plan(true).run_serial();
        assert_eq!(r.table.rows.len(), 5);
        assert!(
            r.notes.iter().any(|n| n.contains("violations: 0")),
            "{:?}",
            r.notes
        );
    }
}
