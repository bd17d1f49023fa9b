//! `arbmis` — command-line driver for the library.
//!
//! ```sh
//! # Generate a workload and compute an MIS with a chosen algorithm:
//! arbmis run --family apollonian --n 10000 --algo arbmis --alpha 3 --seed 7
//!
//! # Or load a graph from an edge-list file:
//! arbmis run --input graph.txt --algo metivier
//!
//! # Inspect a graph:
//! arbmis stats --family ba3 --n 5000
//!
//! # Generate and save a workload:
//! arbmis gen --family ktree2 --n 1000 --output k.txt
//! ```

use arbmis::core::{arb_mis, check_mis, greedy, tree_mis, ArbMisConfig};
use arbmis::flat::{CongestBackend, FlatAlgo, FlatBackend, MisBackend, ReplayArtifact};
use arbmis::graph::gen::{GraphFamily, GraphSpec};
use arbmis::graph::stats::GraphStats;
use arbmis::graph::{arboricity, io, Graph};
use arbmis_bench::churn;
use rand::SeedableRng;
use std::collections::HashMap;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  arbmis run    (--input FILE | --family NAME --n N) --algo ALGO [--alpha A] [--seed S] [--obs]
                [--backend flat|congest] [--flat-threads N]
                [--flight] [--flight-out FILE] [--trace-out FILE] [--perfetto-out FILE]
  arbmis stats  (--input FILE | --family NAME --n N) [--seed S]
  arbmis gen    --family NAME --n N --output FILE [--seed S]
  arbmis replay --input ARTIFACT.json
  arbmis churn  [--workload NAME] [--n N] [--seed S] [--batches B] [--batch-size K]
                [--verify] [--obs] [--flight] [--flight-out FILE]
  arbmis obs report --input TRACE.jsonl

algorithms: greedy luby metivier ghaffari treemis arbmis
families:   tree caterpillar4 forests2 forests3 ktree2 ktree3 apollonian
            sp ba2 ba3 plc3 gnp8 grid geometric cliquering6

--obs attaches the observability recorder and prints a per-phase
round/time table after the run (results are unchanged; DESIGN.md §8).
--trace-out / --perfetto-out (need --obs) save the run's event log as
JSONL / as a Chrome trace-event file loadable in Perfetto.

--flight attaches a bounded flight recorder (last 4096 rounds) that is
dumped to stderr on panic or backend failure; --flight-out saves it as
JSONL after the run.

--backend picks the execution engine for luby/metivier/ghaffari: the flat
shared-memory engine (default) or the CONGEST message-passing
simulator. Both produce the same MIS in the same number of executed
rounds, counting the final all-halt round (DESIGN.md §11).

--flat-threads N runs the flat backend's sweeps on N worker threads.
It is an execution detail: the transcript — joiners, rounds, the MIS —
is byte-identical for every thread count (DESIGN.md §13).

replay re-runs a divergence artifact (see DESIGN.md §8) and reports the
first divergent round; obs report renders a saved trace.

churn plays an edit script (workloads: localized uniform flash hub all;
default all) through the incremental maintenance layer and reports
locality-bounded repair against full recompute per batch; --verify
audits the MIS after every batch (DESIGN.md §12)."
    );
    ExitCode::from(2)
}

fn family_by_name(name: &str) -> Option<GraphFamily> {
    Some(match name {
        "tree" => GraphFamily::RandomTree,
        "caterpillar4" => GraphFamily::Caterpillar { legs: 4 },
        "forests2" => GraphFamily::ForestUnion { alpha: 2 },
        "forests3" => GraphFamily::ForestUnion { alpha: 3 },
        "ktree2" => GraphFamily::KTree { k: 2 },
        "ktree3" => GraphFamily::KTree { k: 3 },
        "apollonian" => GraphFamily::Apollonian,
        "sp" => GraphFamily::SeriesParallel,
        "ba2" => GraphFamily::BarabasiAlbert { m: 2 },
        "ba3" => GraphFamily::BarabasiAlbert { m: 3 },
        "plc3" => GraphFamily::PowerlawCluster { m: 3, p: 0.6 },
        "gnp8" => GraphFamily::GnpAvgDegree { d: 8.0 },
        "grid" => GraphFamily::Grid,
        "geometric" => GraphFamily::Geometric { radius: 0.02 },
        "cliquering6" => GraphFamily::RingOfCliques { k: 6 },
        _ => return None,
    })
}

/// Boolean flags take no value; everything else is `--key value`.
const BOOLEAN_FLAGS: &[&str] = &["obs", "flight", "verify"];

/// The flags each subcommand's usage line lists, space-separated;
/// `None` for an unknown subcommand.
fn known_flags(cmd: &str) -> Option<&'static str> {
    Some(match cmd {
        "run" => "input family n algo alpha seed obs backend flat-threads flight flight-out trace-out perfetto-out",
        "stats" => "input family n seed",
        "gen" => "family n output seed",
        "replay" => "input",
        "churn" => "workload n seed batches batch-size verify obs flight flight-out",
        "obs report" => "input",
        _ => return None,
    })
}

/// Parses `args` as `cmd`'s flags. An unknown subcommand or flag, or a
/// malformed argument list, prints the usage text and yields exit code 2.
fn parse_flags(cmd: &str, args: &[String]) -> Result<HashMap<String, String>, ExitCode> {
    let known = known_flags(cmd).ok_or_else(usage)?;
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a.strip_prefix("--").ok_or_else(usage)?;
        if !known.split(' ').any(|k| k == key) {
            eprintln!("unknown flag --{key} for {cmd}");
            return Err(usage());
        }
        let value = if BOOLEAN_FLAGS.contains(&key) {
            "true".to_string()
        } else {
            it.next().ok_or_else(usage)?.clone()
        };
        map.insert(key.to_string(), value);
    }
    Ok(map)
}

/// Parses the numeric flag `--key`, if present; an unparsable value is
/// an error ("bad --key"), never a silent default.
fn flag_num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    flags
        .get(key)
        .map(|s| s.parse().map_err(|_| format!("bad --{key}")))
        .transpose()
}

fn load_graph(flags: &HashMap<String, String>) -> Result<Graph, String> {
    if let Some(path) = flags.get("input") {
        return io::read_file(path).map_err(|e| format!("reading {path}: {e}"));
    }
    let family = flags
        .get("family")
        .ok_or("need --input FILE or --family NAME")?;
    let fam = family_by_name(family).ok_or_else(|| format!("unknown family {family:?}"))?;
    let n: usize = flag_num(flags, "n")?.ok_or("need --n with --family")?;
    let seed: u64 = flag_num(flags, "seed")?.unwrap_or(1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Ok(GraphSpec::new(fam, n).generate(&mut rng))
}

/// Renders the `--obs` table (phase spans, counters, gauges, and
/// histogram percentiles) via the shared `obs::report` renderer — the
/// same output `arbmis obs report` produces from a saved trace.
fn print_obs_table(snap: &arbmis::obs::Snapshot) {
    print!("{}", arbmis::obs::report::render(snap));
}

fn read_file_or_die(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("error: reading {path}: {e}");
        ExitCode::FAILURE
    })
}

fn write_file_or_die(path: &str, contents: &str) -> Result<(), ExitCode> {
    std::fs::write(path, contents).map_err(|e| {
        eprintln!("error: writing {path}: {e}");
        ExitCode::FAILURE
    })
}

/// `arbmis replay --input ARTIFACT.json`: re-run a divergence artifact
/// and print the deterministic replay report.
fn cmd_replay(flags: &HashMap<String, String>) -> ExitCode {
    let Some(path) = flags.get("input") else {
        eprintln!("replay needs --input ARTIFACT.json");
        return usage();
    };
    let text = match read_file_or_die(path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let artifact = match ReplayArtifact::from_json(&text) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match artifact.replay() {
        Ok(report) => {
            print!("{}", artifact.render(&report));
            if report.matches_expected == Some(false) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `arbmis churn`: play churn edit scripts through the incremental
/// maintenance layer, comparing locality-bounded repair against a full
/// re-solve after every batch.
fn cmd_churn(flags: &HashMap<String, String>, seed: u64) -> ExitCode {
    let workload = flags.get("workload").map_or("all", String::as_str);
    // The smallest graph each workload's generator accepts: localized
    // churn edits 16-id windows, and a hub flap needs a fan of 2 spokes
    // besides the hub.
    let min_n = match workload {
        "localized" | "all" => 32,
        "uniform" | "flash" => 2,
        "hub" => 4,
        other => {
            eprintln!(
                "unknown workload {other:?} (expected localized, uniform, flash, hub, or all)"
            );
            return usage();
        }
    };
    let (n, batches, batch_size) = match churn_sizes(flags, workload, min_n) {
        Ok(sizes) => sizes,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let verify = flags.contains_key("verify");
    let scripts = match workload {
        "all" => churn::standard_suite(n, seed),
        "localized" => vec![churn::localized_churn(n, batches, batch_size, seed)],
        "uniform" => vec![churn::uniform_mix(n, batches, batch_size, seed)],
        "flash" => vec![churn::flash_crowd(
            n,
            batches,
            batch_size.max(1) / 4 + 1,
            seed,
        )],
        _ => vec![churn::hub_churn(n, batches, (n / 4).clamp(2, 64), seed)],
    };
    println!(
        "{:<16} {:>8} {:>8} {:>12} {:>11} {:>14} {:>15} {:>13} {:>8}  valid",
        "workload",
        "batches",
        "updates",
        "mean region",
        "max region",
        "repair rounds",
        "repair p50 µs",
        "full p50 µs",
        "speedup"
    );
    let mut all_valid = true;
    for script in &scripts {
        let r = churn::run_script(script, seed, verify);
        all_valid &= r.valid;
        println!(
            "{:<16} {:>8} {:>8} {:>12.1} {:>11} {:>14} {:>15.1} {:>13.1} {:>7.1}x  {}",
            r.name,
            r.batches,
            r.updates,
            r.mean_region,
            r.max_region,
            r.repair_rounds,
            r.repair_p50_ns as f64 / 1e3,
            r.full_p50_ns as f64 / 1e3,
            r.speedup,
            if r.valid { "✓" } else { "INVALID" },
        );
    }
    if all_valid {
        ExitCode::SUCCESS
    } else {
        eprintln!("OUTPUT IS NOT AN MIS on at least one workload");
        ExitCode::FAILURE
    }
}

/// `(n, batches, batch_size)` for `arbmis churn`. `--workload all` runs
/// the fixed standard suite, so it takes no script shape.
fn churn_sizes(
    flags: &HashMap<String, String>,
    workload: &str,
    min_n: usize,
) -> Result<(usize, usize, usize), String> {
    let n = flag_num(flags, "n")?.unwrap_or(2_000);
    if n < min_n {
        return Err(format!("--workload {workload} needs --n >= {min_n}"));
    }
    if workload == "all" && (flags.contains_key("batches") || flags.contains_key("batch-size")) {
        return Err("--batches and --batch-size need a single --workload, not all".into());
    }
    let batches = flag_num(flags, "batches")?.unwrap_or(48);
    let batch_size = flag_num(flags, "batch-size")?.unwrap_or(16);
    Ok((n, batches, batch_size))
}

/// `arbmis obs report --input TRACE.jsonl`: render a saved trace.
fn cmd_obs(rest: &[String]) -> ExitCode {
    let Some((sub, rest)) = rest.split_first() else {
        eprintln!("obs needs a subcommand: report");
        return usage();
    };
    if sub != "report" {
        eprintln!("unknown obs subcommand {sub:?} (expected report)");
        return usage();
    }
    let flags = match parse_flags("obs report", rest) {
        Ok(flags) => flags,
        Err(code) => return code,
    };
    let Some(path) = flags.get("input") else {
        eprintln!("obs report needs --input TRACE.jsonl");
        return usage();
    };
    let text = match read_file_or_die(path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    match arbmis::obs::report::parse_jsonl(&text) {
        Ok(snap) => {
            print!("{}", arbmis::obs::report::render(&snap));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    if cmd == "obs" {
        return cmd_obs(rest);
    }
    let flags = match parse_flags(cmd, rest) {
        Ok(flags) => flags,
        Err(code) => return code,
    };
    let seed: u64 = match flag_num(&flags, "seed") {
        Ok(seed) => seed.unwrap_or(1),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    match cmd.as_str() {
        "replay" => cmd_replay(&flags),
        "churn" => {
            let recorder = if flags.contains_key("obs") {
                let rec = arbmis::obs::Recorder::new();
                arbmis::obs::set_global(rec.clone());
                Some(rec)
            } else {
                None
            };
            let flight = if flags.contains_key("flight") || flags.contains_key("flight-out") {
                let f = arbmis::obs::FlightRecorder::bounded(4096);
                arbmis::obs::set_global_flight(f.clone());
                Some(f)
            } else {
                None
            };
            let code = cmd_churn(&flags, seed);
            if let Some(rec) = &recorder {
                print_obs_table(&rec.snapshot());
            }
            if let Some(f) = &flight {
                if let Some(path) = flags.get("flight-out") {
                    if let Err(code) = write_file_or_die(path, &f.to_jsonl()) {
                        return code;
                    }
                }
            }
            code
        }
        "run" => {
            let recorder = if flags.contains_key("obs") {
                let rec = arbmis::obs::Recorder::new();
                arbmis::obs::set_global(rec.clone());
                Some(rec)
            } else {
                None
            };
            if recorder.is_none()
                && (flags.contains_key("trace-out") || flags.contains_key("perfetto-out"))
            {
                eprintln!("error: --trace-out / --perfetto-out need --obs");
                return ExitCode::FAILURE;
            }
            let flight = if flags.contains_key("flight") || flags.contains_key("flight-out") {
                let f = arbmis::obs::FlightRecorder::bounded(4096);
                arbmis::obs::set_global_flight(f.clone());
                arbmis::obs::install_flight_panic_hook();
                Some(f)
            } else {
                None
            };
            let g = match load_graph(&flags) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let algo = flags.get("algo").map(String::as_str).unwrap_or("arbmis");
            let alpha: usize = match flag_num(&flags, "alpha") {
                Ok(alpha) => alpha.unwrap_or_else(|| arboricity::degeneracy(&g).max(1)),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if alpha == 0 {
                eprintln!("error: --alpha must be >= 1");
                return ExitCode::FAILURE;
            }
            if algo == "treemis" && !arbmis::graph::traversal::is_forest(&g) {
                eprintln!(
                    "error: treemis requires a forest; this graph has a cycle (use --algo arbmis)"
                );
                return ExitCode::FAILURE;
            }
            let backend = flags.get("backend").map(String::as_str).unwrap_or("flat");
            if !matches!(backend, "flat" | "congest") {
                eprintln!("unknown backend {backend:?} (expected flat or congest)");
                return usage();
            }
            let engine_algo = matches!(algo, "luby" | "metivier" | "ghaffari");
            if flags.contains_key("backend") && !engine_algo {
                eprintln!("--backend {backend} only supports --algo luby, metivier or ghaffari");
                return ExitCode::FAILURE;
            }
            let flat_threads: usize = match flags.get("flat-threads") {
                None => 1,
                Some(s) => match s.parse() {
                    Ok(t) if t >= 1 => t,
                    _ => {
                        eprintln!("--flat-threads must be an integer >= 1");
                        return ExitCode::FAILURE;
                    }
                },
            };
            if flags.contains_key("flat-threads") && (backend != "flat" || !engine_algo) {
                eprintln!(
                    "--flat-threads needs --algo luby, metivier or ghaffari on --backend flat"
                );
                return ExitCode::FAILURE;
            }
            let (in_mis, rounds) = match algo {
                "greedy" => (greedy::greedy_mis(&g), 0),
                "luby" | "metivier" | "ghaffari" => {
                    let flat_algo = match algo {
                        "luby" => FlatAlgo::Luby,
                        "metivier" => FlatAlgo::Metivier,
                        _ => FlatAlgo::Ghaffari,
                    };
                    let max_rounds = 100_000;
                    // Both engine paths report under the same span name so
                    // `--backend flat --obs` and `--backend congest --obs`
                    // produce directly comparable phase tables.
                    let rec = arbmis::obs::global();
                    let span = rec.span(&format!("backend/{algo}"));
                    let result = if backend == "flat" {
                        let mut b =
                            FlatBackend::new(&g, seed, flat_algo).with_threads(flat_threads);
                        b.run(max_rounds).map(|r| (b.mis().to_bools(), r.rounds))
                    } else {
                        let mut b = CongestBackend::new(&g, seed, flat_algo);
                        b.run(max_rounds).map(|r| (b.mis().to_bools(), r.rounds))
                    };
                    match result {
                        Ok((mis, rounds)) => {
                            rec.point("rounds", rounds);
                            drop(span);
                            (mis, rounds)
                        }
                        Err(e) => {
                            drop(span);
                            if let Some(f) = &flight {
                                eprintln!("--- flight recorder dump (last {} rounds) ---", f.len());
                                let _ = f.dump_to(&mut std::io::stderr().lock());
                                eprintln!("--- end flight recorder dump ---");
                            }
                            eprintln!("error: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                "treemis" => {
                    let r = tree_mis::tree_mis(&g, seed);
                    (r.in_mis, r.rounds)
                }
                "arbmis" => {
                    let r = arb_mis(&g, &ArbMisConfig::new(alpha, seed));
                    println!("phases: {:?}", r.phases);
                    (r.in_mis, r.rounds)
                }
                other => {
                    eprintln!("unknown algorithm {other:?}");
                    return usage();
                }
            };
            if let Some(rec) = &recorder {
                let snap = rec.snapshot();
                print_obs_table(&snap);
                if let Some(path) = flags.get("trace-out") {
                    if let Err(code) = write_file_or_die(path, &snap.to_jsonl()) {
                        return code;
                    }
                }
                if let Some(path) = flags.get("perfetto-out") {
                    if let Err(code) = write_file_or_die(path, &snap.to_chrome_trace()) {
                        return code;
                    }
                }
            }
            if let Some(f) = &flight {
                if let Some(path) = flags.get("flight-out") {
                    if let Err(code) = write_file_or_die(path, &f.to_jsonl()) {
                        return code;
                    }
                }
            }
            match check_mis(&g, &in_mis) {
                Ok(()) => {
                    let size = in_mis.iter().filter(|&&b| b).count();
                    println!("{algo} on {g}: MIS size {size}, {rounds} CONGEST rounds, verified ✓");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("OUTPUT IS NOT AN MIS: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "stats" => {
            let g = match load_graph(&flags) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("{}", GraphStats::compute(&g));
            ExitCode::SUCCESS
        }
        "gen" => {
            let g = match load_graph(&flags) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let Some(out) = flags.get("output") else {
                eprintln!("gen needs --output FILE");
                return usage();
            };
            if let Err(e) = io::write_file(&g, out) {
                eprintln!("writing {out}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {g} to {out}");
            ExitCode::SUCCESS
        }
        _ => unreachable!("parse_flags rejects unknown subcommands"),
    }
}
