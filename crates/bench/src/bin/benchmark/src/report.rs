//! Rendering a pass: the one-line result `measure` prints, the table and
//! the results document `run` writes.

use crate::json::{self, num, obj, text, Value};
use crate::metrics::{Decl, Pass, END_TO_END, PER_LAYER};
use crate::stats::{summarize, Summary};

/// Whether a pass can be trusted: something ran, nothing failed, and
/// every declared metric of `decls` was measured when `complete` is
/// required (end-to-end metrics must all be there; a per-layer metric of
/// a layer the workload does not exercise reads 0).
fn correct(pass: &Pass, decls: &[Decl], complete: bool) -> bool {
    pass.attempted > 0
        && pass.failed == 0
        && (!complete || decls.iter().all(|d| pass.samples.contains_key(d.name)))
}

fn summary(pass: &Pass, d: &Decl) -> Summary {
    summarize(pass.samples.get(d.name).map_or(&[][..], Vec::as_slice))
}

/// The last line `measure` prints, and whether the pass was correct.
pub fn result_line(pass: &Pass, traced: bool) -> (String, bool) {
    let (decls, complete) = if traced {
        (PER_LAYER, false)
    } else {
        (END_TO_END, true)
    };
    let ok = correct(pass, decls, complete);
    let metrics = decls
        .iter()
        .map(|d| {
            let value = obj(vec![
                ("value", num(summary(pass, d).median)),
                ("unit", text(d.unit)),
            ]);
            (d.name.to_string(), value)
        })
        .collect();
    let line = obj(vec![
        ("correct", Value::Bool(ok)),
        ("attempted", Value::UInt(pass.attempted)),
        ("failed", Value::UInt(pass.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    (json::compact(&line), ok)
}

/// Prints one workload's metrics, each with its unit and sample count,
/// and returns whether both passes were correct.
pub fn print_workload(name: &str, e2e: &Pass, layer: &Pass) -> bool {
    let ok = correct(e2e, END_TO_END, true) && correct(layer, PER_LAYER, false);
    let (attempted, failed) = (e2e.attempted + layer.attempted, e2e.failed + layer.failed);
    println!(
        "== {name}: attempted {attempted}, failed {failed}, fail_rate {}{}",
        failed as f64 / attempted.max(1) as f64,
        if ok { "" } else { "  ** FAILED **" }
    );
    for (heading, pass, decls) in [
        ("end-to-end", e2e, END_TO_END),
        ("per-layer", layer, PER_LAYER),
    ] {
        println!("  {heading}");
        for d in decls {
            let s = summary(pass, d);
            let tail = match s.tail {
                Some((p, v)) => format!("p{p}={v:.4}"),
                None => String::new(),
            };
            println!(
                "    {:<36} {:>16.4} {:<6} n={:<8} {tail}",
                d.name, s.median, d.unit, s.n
            );
        }
    }
    ok
}

fn metric_json(kind: &str, pass: &Pass, d: &Decl) -> Value {
    let s = summary(pass, d);
    let (tail_pct, tail) = match s.tail {
        Some((p, v)) => (num(p), num(v)),
        None => (Value::Null, Value::Null),
    };
    obj(vec![
        ("name", text(d.name)),
        ("kind", text(kind)),
        ("unit", text(d.unit)),
        ("better", text(d.better.label())),
        ("value", num(s.median)),
        ("q1", num(s.q1)),
        ("q3", num(s.q3)),
        ("samples", Value::UInt(s.n as u64)),
        ("tail_pct", tail_pct),
        ("tail", tail),
    ])
}

/// One workload's entry in the results document.
pub fn workload_json(name: &str, e2e: &Pass, layer: &Pass) -> Value {
    let (attempted, failed) = (e2e.attempted + layer.attempted, e2e.failed + layer.failed);
    let metrics = END_TO_END
        .iter()
        .map(|d| metric_json("end_to_end", e2e, d))
        .chain(PER_LAYER.iter().map(|d| metric_json("per_layer", layer, d)))
        .collect();
    obj(vec![
        ("name", text(name)),
        ("attempted", Value::UInt(attempted)),
        ("failed", Value::UInt(failed)),
        ("fail_rate", num(failed as f64 / attempted.max(1) as f64)),
        ("metrics", Value::Array(metrics)),
    ])
}
