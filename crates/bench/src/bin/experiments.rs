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
//! experiments --cache-dir D   # graph/result cache root (default
//!                             # target/arbmis-cache)
//! experiments --no-cache      # recompute everything, touch no disk state
//! experiments --metrics-out m.prom  # Prometheus text exposition of the run
//! experiments --trace-out t.jsonl   # JSONL span/event log of the run
//! experiments --perfetto-out t.json # Chrome trace-event (Perfetto) export
//! experiments --flight        # bounded per-round flight recorder, dumped
//!                             # to stderr on panic (--flight-out saves it)
//! ```
//!
//! Experiments are decomposed into cells and fanned onto one shared
//! work-stealing pool; reports are reduced in deterministic cell order,
//! so `--threads N`, `--no-cache`, and cache temperature never change a
//! report byte (DESIGN.md §9) — only the stderr status lines.
//!
//! `--metrics-out` / `--trace-out` / `--perfetto-out` install a
//! process-wide recorder (`arbmis_obs::set_global`), and `--flight`
//! installs the process-wide flight ring; per DESIGN.md §8 none of this
//! ever changes an experiment result — the `--json` report is
//! byte-identical with and without them (CI diffs exactly that).

use arbmis_bench::cache::{set_global_cache, Cache};
use arbmis_bench::sched::{cell_count, run_scheduled};
use arbmis_bench::ExperimentReport;
use arbmis_congest::Parallelism;
use std::io::Write as _;
use std::sync::Arc;

/// Default on-disk cache root (relative to the working directory).
const DEFAULT_CACHE_DIR: &str = "target/arbmis-cache";

struct Args {
    quick: bool,
    markdown: bool,
    list: bool,
    json: Option<String>,
    selected: Vec<String>,
    threads: Option<usize>,
    cache_dir: Option<String>,
    no_cache: bool,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    perfetto_out: Option<String>,
    flight: bool,
    flight_out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        markdown: false,
        list: false,
        json: None,
        selected: Vec::new(),
        threads: None,
        cache_dir: None,
        no_cache: false,
        metrics_out: None,
        trace_out: None,
        perfetto_out: None,
        flight: false,
        flight_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--markdown" => args.markdown = true,
            "--list" => args.list = true,
            "--json" => {
                args.json = Some(it.next().expect("--json needs a path"));
            }
            "--threads" => {
                let v = it.next().expect("--threads needs a count");
                args.threads = Some(v.parse().expect("--threads needs an integer"));
            }
            "--cache-dir" => {
                args.cache_dir = Some(it.next().expect("--cache-dir needs a path"));
            }
            "--no-cache" => args.no_cache = true,
            "--metrics-out" => {
                args.metrics_out = Some(it.next().expect("--metrics-out needs a path"));
            }
            "--trace-out" => {
                args.trace_out = Some(it.next().expect("--trace-out needs a path"));
            }
            "--perfetto-out" => {
                args.perfetto_out = Some(it.next().expect("--perfetto-out needs a path"));
            }
            "--flight" => args.flight = true,
            "--flight-out" => {
                args.flight_out = Some(it.next().expect("--flight-out needs a path"));
            }
            "--exp" => {
                // Consume ids until the next flag.
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments [--list] [--quick] [--markdown] [--json PATH] \
                     [--threads N] [--cache-dir PATH] [--no-cache] [--metrics-out PATH] \
                     [--trace-out PATH] [--perfetto-out PATH] [--flight] [--flight-out PATH] \
                     [--exp E1 E2 ...]"
                );
                std::process::exit(0);
            }
            id if id.starts_with('E') || id.starts_with('e') => {
                args.selected.push(id.to_uppercase());
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
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
    if args.no_cache {
        set_global_cache(None);
        eprintln!("[experiments] cache: disabled");
    } else {
        let dir = args.cache_dir.as_deref().unwrap_or(DEFAULT_CACHE_DIR);
        match Cache::open(dir) {
            Ok(cache) => {
                eprintln!("[experiments] cache: {dir}");
                set_global_cache(Some(Arc::new(cache)));
            }
            Err(e) => {
                eprintln!("[experiments] cache disabled ({dir}: {e})");
                set_global_cache(None);
            }
        }
    }
    let observing =
        args.metrics_out.is_some() || args.trace_out.is_some() || args.perfetto_out.is_some();
    let recorder = if observing {
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
        "[experiments] done in {:.1?}: {} cells on {} worker(s), cell cache {}/{} hits ({:.0}%)",
        outcome.stats.wall,
        outcome.stats.cells,
        outcome.stats.workers,
        outcome.stats.cell_hits,
        outcome.stats.cells,
        outcome.stats.hit_rate() * 100.0
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
        if let Some(path) = args.metrics_out {
            std::fs::write(&path, snap.to_prometheus()).expect("write metrics output");
            eprintln!("[experiments] wrote {path}");
        }
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
