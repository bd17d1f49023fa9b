//! E11 — CONGEST compliance: message sizes and counts under real message
//! passing.

use super::graph;
use crate::cell::{Cell, CellOut, ExperimentPlan};
use crate::{fmt_f, ExperimentReport, Table};
use arbmis_congest::Simulator;
use arbmis_core::bounded_arb::{bounded_arb_independent_set, BoundedArbConfig};
use arbmis_core::params::ParamMode;
use arbmis_core::protocols::{
    BoundedArbProtocol, GhaffariProtocol, LubyProtocol, MetivierProtocol,
};
use arbmis_graph::gen::{GraphFamily, GraphSpec};

const PROTOCOLS: [&str; 4] = ["metivier", "luby", "ghaffari", "bounded-arb (alg 1)"];

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
/// on the same workload graph.
pub fn e11_congest_plan(quick: bool) -> ExperimentPlan {
    let n = if quick { 300 } else { 2_000 };
    let seed = 0x11u64;
    let spec = GraphSpec::new(GraphFamily::ForestUnion { alpha: 2 }, n);
    let cells = PROTOCOLS
        .into_iter()
        .map(|name| {
            Cell::new(format!("E11/{name}"), move || {
                let g = graph(&spec, seed);
                let budget = Simulator::new(&g, seed).budget_bits().unwrap();
                let mut out = CellOut::default();
                let metrics = match name {
                    "metivier" => {
                        Simulator::new(&g, seed)
                            .run(&MetivierProtocol, 100_000)
                            .unwrap()
                            .metrics
                    }
                    "luby" => {
                        Simulator::new(&g, seed)
                            .run(&LubyProtocol, 100_000)
                            .unwrap()
                            .metrics
                    }
                    "ghaffari" => {
                        Simulator::new(&g, seed)
                            .run(&GhaffariProtocol, 100_000)
                            .unwrap()
                            .metrics
                    }
                    _ => {
                        // BoundedArb with a trimmed Λ so the oblivious
                        // schedule stays cheap to message-simulate; the
                        // equivalence with the fast path is exact either
                        // way (protocol tests in arbmis-core assert it).
                        let cfg = BoundedArbConfig {
                            mode: ParamMode::Practical { lambda_scale: 0.02 },
                            ..BoundedArbConfig::new(2, seed)
                        };
                        let fast = bounded_arb_independent_set(&g, &cfg);
                        let proto = BoundedArbProtocol {
                            params: fast.params,
                            rho_cutoff: true,
                        };
                        let run = Simulator::new(&g, seed)
                            .run(&proto, fast.rounds + 2)
                            .unwrap();
                        let mis: Vec<bool> = run.states.iter().map(|s| s.in_mis).collect();
                        out.put("equal", (mis == fast.in_mis) as u64 as f64);
                        run.metrics
                    }
                };
                out.rows = vec![metrics_row(name, metrics, budget)];
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
