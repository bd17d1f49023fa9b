//! Regenerates every quantitative claim of the paper (experiment index
//! E1–E16; see DESIGN.md §4 and EXPERIMENTS.md).
//!
//! ```sh
//! experiments                 # run the full suite (text to stdout)
//! experiments --list          # print the experiment index and exit
//! experiments --exp E3 E7     # selected experiments
//! experiments --quick         # reduced sizes (used in CI/tests)
//! experiments --markdown      # markdown rendering (for EXPERIMENTS.md)
//! experiments --json out.json # machine-readable results
//! experiments --threads 4     # cells in flight on the worker pool
//!                             # (0 = auto, 1 = serial; results identical)
//! experiments --trace-out t.jsonl   # JSONL span/event log of the run
//! experiments --perfetto-out t.json # Chrome trace-event (Perfetto) export
//! experiments --flight        # bounded per-round flight recorder, dumped
//!                             # to stderr on panic (--flight-out saves it)
//! ```
//!
//! Experiments are decomposed into cells and fanned onto one shared
//! work-stealing pool; reports are reduced in deterministic cell order,
//! so `--threads N` never changes a report byte (DESIGN.md §9), only the
//! stderr status lines. Every run computes every cell; nothing is read
//! from or written to disk except the requested outputs.
//!
//! `--trace-out` / `--perfetto-out` install a process-wide recorder
//! (`arbmis_obs::set_global`), and `--flight` installs the process-wide
//! flight ring; per DESIGN.md §8 none of this ever changes an experiment
//! result — the `--json` report is byte-identical with and without them
//! (CI diffs exactly that).

use arbmis_bench::sched::{cell_count, run_scheduled};
use arbmis_bench::ExperimentReport;
use arbmis_congest::Parallelism;
use std::io::Write as _;

const USAGE: &str = "usage: experiments [--list] [--quick] [--markdown] [--json PATH] \
                     [--threads N] [--trace-out PATH] [--perfetto-out PATH] \
                     [--flight] [--flight-out PATH] [--exp E1 E2 ...]";

#[derive(Default)]
struct Args {
    help: bool,
    quick: bool,
    markdown: bool,
    list: bool,
    json: Option<String>,
    selected: Vec<String>,
    threads: Option<usize>,
    trace_out: Option<String>,
    perfetto_out: Option<String>,
    flight: bool,
    flight_out: Option<String>,
}

/// Parses the command line (without the program name). Every malformed
/// flag is an `Err` carrying the message to print.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{a} needs {what}"));
        match a.as_str() {
            "--quick" => args.quick = true,
            "--markdown" => args.markdown = true,
            "--list" => args.list = true,
            "--json" => args.json = Some(value("a path")?),
            "--threads" => {
                let v = value("a count")?;
                let t = v
                    .parse()
                    .map_err(|_| format!("--threads needs a non-negative integer, got {v:?}"))?;
                args.threads = Some(t);
            }
            "--trace-out" => args.trace_out = Some(value("a path")?),
            "--perfetto-out" => args.perfetto_out = Some(value("a path")?),
            "--flight" => args.flight = true,
            "--flight-out" => args.flight_out = Some(value("a path")?),
            "--exp" => {
                // Consume ids until the next flag.
            }
            "--help" | "-h" => args.help = true,
            id if id.starts_with('E') || id.starts_with('e') => {
                args.selected.push(id.to_uppercase());
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.help {
        eprintln!("{USAGE}");
        return;
    }
    let registry = arbmis_bench::exps::all();
    if args.list {
        for (id, desc, _) in registry {
            println!("{id:<4} {desc}");
        }
        return;
    }
    // Validate every requested id up front: an unknown id is an error,
    // never a silent skip.
    let unknown: Vec<&str> = args
        .selected
        .iter()
        .filter(|s| !registry.iter().any(|(id, _, _)| id == s))
        .map(String::as_str)
        .collect();
    if !unknown.is_empty() {
        let valid: Vec<&str> = registry.iter().map(|(id, _, _)| *id).collect();
        eprintln!(
            "unknown experiment id(s): {} (valid: {})",
            unknown.join(" "),
            valid.join(" ")
        );
        std::process::exit(2);
    }
    let parallelism = match args.threads {
        None | Some(0) => Parallelism::Auto,
        Some(1) => Parallelism::Serial,
        Some(t) => Parallelism::Threads(t),
    };
    let recorder = if args.trace_out.is_some() || args.perfetto_out.is_some() {
        // One process-wide recorder feeds the simulator, the ArbMIS
        // pipeline, the Monte-Carlo driver, and the cell scheduler for
        // the whole run.
        let rec = arbmis_obs::Recorder::new();
        arbmis_obs::set_global(rec.clone());
        Some(rec)
    } else {
        None
    };
    // The flight recorder rides along without a metric recorder: its
    // ring captures the last rounds of every engine in the run, and the
    // panic hook dumps them if anything trips (DESIGN.md 8).
    let flight = if args.flight || args.flight_out.is_some() {
        let f = arbmis_obs::FlightRecorder::bounded(4096);
        arbmis_obs::set_global_flight(f.clone());
        arbmis_obs::install_flight_panic_hook();
        eprintln!("[experiments] flight recorder: last 4096 rounds");
        Some(f)
    } else {
        None
    };
    let to_run: Vec<_> = registry
        .into_iter()
        .filter(|(id, _, _)| args.selected.is_empty() || args.selected.iter().any(|s| s == id))
        .collect();
    if to_run.is_empty() {
        eprintln!("no experiments matched {:?}", args.selected);
        std::process::exit(2);
    }

    let ids: Vec<&str> = to_run.iter().map(|(id, _, _)| *id).collect();
    let plans: Vec<_> = to_run
        .iter()
        .map(|(_, _, plan_fn)| plan_fn(args.quick))
        .collect();
    eprintln!(
        "[experiments] {} experiment(s) [{}] resolved to {} cells ({}mode, {parallelism:?})",
        plans.len(),
        ids.join(" "),
        cell_count(&plans),
        if args.quick { "quick " } else { "" }
    );
    let outcome = run_scheduled(plans, parallelism);
    eprintln!(
        "[experiments] done in {:.1?}: {} cells on {} worker(s)",
        outcome.stats.wall, outcome.stats.cells, outcome.stats.workers
    );
    let reports: Vec<ExperimentReport> = outcome.reports;
    for report in &reports {
        if args.markdown {
            println!("{}", report.to_markdown());
        } else {
            println!("{}", report.to_text());
        }
    }

    if let Some(path) = args.json {
        let json = serde_json::to_string_pretty(&reports).expect("serialize reports");
        let mut f = std::fs::File::create(&path).expect("create json output");
        f.write_all(json.as_bytes()).expect("write json output");
        eprintln!("[experiments] wrote {path}");
    }

    if let Some(rec) = recorder {
        let snap = rec.snapshot();
        if let Some(path) = args.trace_out {
            std::fs::write(&path, snap.to_jsonl()).expect("write trace output");
            eprintln!("[experiments] wrote {path}");
        }
        if let Some(path) = args.perfetto_out {
            std::fs::write(&path, snap.to_chrome_trace()).expect("write perfetto output");
            eprintln!("[experiments] wrote {path}");
        }
    }
    if let (Some(f), Some(path)) = (&flight, args.flight_out) {
        std::fs::write(&path, f.to_jsonl()).expect("write flight output");
        eprintln!("[experiments] wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn parse(argv: &[&str]) -> Result<super::Args, String> {
        parse_args(argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn malformed_flags_are_errors_not_panics() {
        // The last two cases are flags this binary no longer has: they
        // must be rejected, not silently ignored.
        let retired = concat!("--no", "-cache");
        for argv in [
            &["--threads", "x"][..],
            &["--json"],
            &[retired],
            &["--metrics-out", "x"],
        ] {
            assert!(parse(argv).is_err(), "{argv:?} must be rejected");
        }
    }

    #[test]
    fn well_formed_flags_parse() {
        let args = parse(&["--quick", "--threads", "2", "--json", "r.json", "E9", "e1"]).unwrap();
        assert!(args.quick);
        assert_eq!(args.threads, Some(2));
        assert_eq!(args.json.as_deref(), Some("r.json"));
        assert_eq!(args.selected, ["E9", "E1"]);
    }
}
