//! E11 — CONGEST compliance: message sizes and counts under real message
//! passing.

use super::graph;
use crate::cell::{Cell, CellOut, ExperimentPlan};
use crate::{fmt_f, ExperimentReport, Table};
use arbmis_congest::Simulator;
use arbmis_core::bounded_arb::{bounded_arb_independent_set, BoundedArbConfig};
use arbmis_core::params::{ArbParams, ParamMode};
use arbmis_core::protocols::MisProtocol;
use arbmis_core::FlatAlgo;
use arbmis_graph::gen::{GraphFamily, GraphSpec};

fn metrics_row(name: &str, m: arbmis_congest::Metrics, budget: usize) -> Vec<String> {
    vec![
        name.to_string(),
        m.rounds.to_string(),
        m.messages.to_string(),
        m.bits.to_string(),
        m.max_message_bits.to_string(),
        fmt_f(m.avg_message_bits()),
        budget.to_string(),
        if m.within_budget() {
            "✓".into()
        } else {
            "NO".to_string()
        },
    ]
}

/// E11: run every protocol on the simulator and account for bandwidth.
///
/// One cell per protocol, each simulating the full message-passing run
/// on the same workload graph. BoundedArb runs with a trimmed Λ so the
/// oblivious schedule stays cheap to message-simulate; its cell also
/// checks the protocol against the fast path, which is exact either way
/// (protocol tests in arbmis-core assert it).
pub fn e11_congest_plan(quick: bool) -> ExperimentPlan {
    let n = if quick { 300 } else { 2_000 };
    let seed = 0x11u64;
    let spec = GraphSpec::new(GraphFamily::ForestUnion { alpha: 2 }, n);
    let cfg = BoundedArbConfig {
        mode: ParamMode::Practical { lambda_scale: 0.02 },
        ..BoundedArbConfig::new(2, seed)
    };
    let bounded_arb = FlatAlgo::BoundedArb {
        params: ArbParams::new(cfg.alpha, graph(&spec, seed).max_degree(), cfg.mode),
        rho_cutoff: cfg.rho_cutoff,
    };
    let cells = [
        ("metivier", FlatAlgo::Metivier),
        ("luby", FlatAlgo::Luby),
        ("ghaffari", FlatAlgo::Ghaffari),
        ("bounded-arb (alg 1)", bounded_arb),
    ]
    .into_iter()
    .map(|(name, algo)| {
        Cell::new(format!("E11/{name}"), move || {
            let g = graph(&spec, seed);
            let sim = Simulator::new(&g, seed);
            let run = sim.run(&MisProtocol(algo), 100_000).unwrap();
            let mut out = CellOut::default();
            if let FlatAlgo::BoundedArb { params, .. } = algo {
                let fast = bounded_arb_independent_set(&g, &cfg);
                let mis: Vec<bool> = run.states.iter().map(|s| s.in_mis).collect();
                let equal = fast.params == params && mis == fast.in_mis;
                out.put("equal", equal as u64 as f64);
            }
            out.rows = vec![metrics_row(name, run.metrics, sim.budget_bits())];
            out
        })
    })
    .collect();
    ExperimentPlan::new("E11", cells, move |outs| {
        let mut table = Table::new([
            "protocol",
            "rounds",
            "messages",
            "total bits",
            "max msg bits",
            "avg msg bits",
            "budget bits",
            "within",
        ]);
        let mut equal = true;
        for out in outs {
            if out.try_get("equal").is_some() {
                equal = out.get("equal") != 0.0;
            }
            for row in out.rows {
                table.push_row(row);
            }
        }
        ExperimentReport {
            id: "E11".into(),
            title: "CONGEST compliance: per-message bit accounting for every protocol".into(),
            table,
            notes: vec![
                format!("n = {n}; budget = 16·⌈log₂ n⌉ bits/message, enforced by the simulator (a violation aborts the run)."),
                format!("bounded-arb protocol vs fast path bit-identical MIS: {equal} (also asserted by unit tests)."),
                "priorities are 4·⌈log₂ n⌉-bit values — the dominant payload; Ghaffari's desire levels cross the wire as exponents (O(log log Δ) bits).".into(),
            ],
        }
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn e11_quick_within_budget() {
        let r = super::e11_congest_plan(true).run_serial();
        assert_eq!(r.table.rows.len(), 4);
        for row in &r.table.rows {
            assert_eq!(row[7], "✓", "row {row:?}");
        }
        assert!(r
            .notes
            .iter()
            .any(|n| n.contains("bit-identical MIS: true")));
    }
}
