//! One benchmark for the arbmis workspace: the `ArbMIS` pipeline, the
//! algorithm race on trees, churn repair and flat sweeps larger than the
//! cache, each measured end to end and layer by layer.
//!
//! ```text
//! benchmark run [--seed S] [--workload NAME]... [--seconds S] [--smoke]
//!               [--out results.json] [--trace-out trace.json]
//! benchmark measure --workload NAME --seed S --seconds S --trace 0|1 [--smoke]
//! benchmark compare BASE.json NEW.json [--spec BENCHMARK.json]
//! ```
//!
//! `run` measures each workload untraced (end-to-end metrics), then
//! traced (per-layer metrics), prints every metric and can write the
//! results and a Perfetto trace. `measure` runs one pass of one workload
//! and prints its result as one JSON line. `compare` judges two `run`
//! results against the bounds in `BENCHMARK.json`. The exit status is
//! 0 on success, 1 when an operation failed (or `compare` found a
//! regression), 2 on bad arguments. See README.md.

mod arbmis;
mod churn;
mod compare;
mod flat;
mod harness;
mod json;
mod metrics;
mod race;
mod report;
mod spans;
mod spec;
mod stats;

use arbmis_obs::Recorder;
use harness::Ctx;
use json::{num, obj, text, Value};
use metrics::Pass;
use std::process::ExitCode;

/// A workload: its name, its untraced pass and its traced pass.
type Workload = (&'static str, fn(&Ctx) -> Pass, fn(&Ctx, &Recorder) -> Pass);

const WORKLOADS: [Workload; 4] = [
    (arbmis::NAME, arbmis::end_to_end, arbmis::traced),
    (race::NAME, race::end_to_end, race::traced),
    (churn::NAME, churn::end_to_end, churn::traced),
    (flat::NAME, flat::end_to_end, flat::traced),
];

/// Measurement window of `run` when `--seconds` is not given; the same
/// as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("measure") => measure(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => Err("usage: benchmark run|measure|compare … (see README.md)".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Options shared by `run` and `measure`.
struct Options {
    ctx: Ctx,
    workloads: Vec<Workload>,
    trace: Option<bool>,
    out: Option<String>,
    trace_out: Option<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        ctx: Ctx {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            smoke: false,
        },
        workloads: Vec::new(),
        trace: None,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.ctx.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--seed" => o.ctx.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                o.ctx.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?
            }
            "--workload" => o.workloads.push(
                *WORKLOADS
                    .iter()
                    .find(|w| w.0 == value)
                    .ok_or_else(|| bad("one of the workload names"))?,
            ),
            "--trace" => {
                o.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--out" => o.out = Some(value.clone()),
            "--trace-out" => o.trace_out = Some(value.clone()),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(o)
}

/// One pass of one workload; prints the result line last on stdout.
fn measure(args: &[String]) -> Result<bool, String> {
    let o = parse(args)?;
    let [(_, end_to_end, traced)] = o.workloads[..] else {
        return Err("measure takes exactly one --workload".into());
    };
    let trace = o.trace.ok_or("measure needs --trace 0|1")?;
    let pass = if trace {
        traced(&o.ctx, &Recorder::new())
    } else {
        end_to_end(&o.ctx)
    };
    let (line, ok) = report::result_line(&pass, trace);
    println!("{line}");
    Ok(ok)
}

/// Both passes of every selected workload (all by default).
fn run(args: &[String]) -> Result<bool, String> {
    let mut o = parse(args)?;
    if o.workloads.is_empty() {
        o.workloads = WORKLOADS.to_vec();
    }
    let rec = Recorder::new();
    let mut docs = Vec::new();
    let mut ok = true;
    for (name, end_to_end, traced) in &o.workloads {
        eprintln!(
            "benchmark: {name} (seed {}, {} s)",
            o.ctx.seed, o.ctx.seconds
        );
        harness::reset_peak_rss();
        let e2e = end_to_end(&o.ctx);
        let layer = traced(&o.ctx, &rec);
        ok &= report::print_workload(name, &e2e, &layer);
        docs.push(report::workload_json(name, &e2e, &layer));
    }
    if let Some(path) = &o.out {
        let host_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        let doc = obj(vec![
            ("schema", text("arbmis-benchmark/v1")),
            ("seed", Value::UInt(o.ctx.seed)),
            ("seconds", num(o.ctx.seconds)),
            ("smoke", Value::Bool(o.ctx.smoke)),
            ("host_threads", Value::UInt(host_threads as u64)),
            ("workloads", Value::Array(docs)),
        ]);
        write(path, &(json::pretty(&doc) + "\n"))?;
    }
    if let Some(path) = &o.trace_out {
        write(path, &rec.snapshot().to_chrome_trace())?;
    }
    Ok(ok)
}

fn write(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("benchmark: wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{END_TO_END, PER_LAYER};
    use spec::Spec;

    fn spec() -> Spec {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        Spec::load(path).expect("BENCHMARK.json at the repository root")
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_and_workload_names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n:?}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
    }

    #[test]
    fn benchmark_json_declares_exactly_what_is_emitted() {
        let spec = spec();
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(spec.workloads, workloads);
        for (declared, emitted) in [(&spec.end_to_end, END_TO_END), (&spec.per_layer, PER_LAYER)] {
            let declared: Vec<(&str, &str, &str)> = declared
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
                .collect();
            let emitted: Vec<(&str, &str, &str)> = emitted
                .iter()
                .map(|d| (d.name, d.unit, d.better.label()))
                .collect();
            assert_eq!(declared, emitted);
        }
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
    }

    #[test]
    fn smoke_run_of_every_workload_succeeds() {
        let ctx = Ctx {
            seed: 7,
            seconds: 0.05,
            smoke: true,
        };
        let known: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for (name, end_to_end, traced) in WORKLOADS {
            let rec = Recorder::new();
            for (pass, trace) in [(end_to_end(&ctx), false), (traced(&ctx, &rec), true)] {
                assert!(pass.attempted > 0, "{name}: nothing ran");
                assert_eq!(pass.failed, 0, "{name}: fail_rate must be 0");
                for metric in pass.samples.keys() {
                    assert!(known.contains(metric), "{name}: undeclared metric {metric}");
                }
                let (line, ok) = report::result_line(&pass, trace);
                assert!(ok, "{name}: {line}");
            }
        }
    }

    #[test]
    fn arbmis_self_time_and_phases_add_up_to_the_root() {
        let ctx = Ctx {
            seed: 3,
            seconds: 0.0,
            smoke: true,
        };
        for (name, _, traced) in &WORKLOADS[..2] {
            let rec = Recorder::new();
            traced(&ctx, &rec);
            let all = spans::under(&spans::span_times(&rec.snapshot().events), name);
            let roots: Vec<&spans::SpanTime> = all
                .iter()
                .filter(|s| s.path == "core.arb_mis/arbmis")
                .collect();
            assert!(!roots.is_empty(), "{name}: no traced arb_mis run");
            let phases: u64 = all
                .iter()
                .filter(|s| {
                    s.path.matches('/').count() == 2 && s.path.starts_with("core.arb_mis/arbmis/")
                })
                .map(|s| s.wall_ns)
                .sum();
            let total: u64 = roots.iter().map(|s| s.wall_ns).sum();
            let glue: u64 = roots.iter().map(|s| s.self_ns).sum();
            assert_eq!(glue + phases, total, "{name}");
        }
    }
}
