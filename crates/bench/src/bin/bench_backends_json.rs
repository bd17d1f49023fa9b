//! Backend benchmark: measures median ns/round of the CONGEST
//! simulator and the flat engine on identical executions (same coins,
//! same rounds) and writes `BENCH_backends.json` so the speedup
//! trajectory accumulates across commits.
//!
//! Usage:
//!
//! ```text
//! bench_backends_json [--out PATH] [--samples N] [--quick]
//! ```
//!
//! The workload is G(n, d̄ = 4): Métivier at generator scales
//! 50k / 1M / 10M nodes plus a Luby row at 1M; `--quick` keeps only the
//! 50k Métivier and Luby points (the CI smoke). Before timing, each
//! point cross-checks that both engines computed the same MIS — the
//! numbers are only comparable because the executions are identical.
//!
//! Columns per row:
//!
//! * `congest_serial_ns_per_round` — the message-passing simulator.
//! * `flat_ns_per_round` — the flat engine ([`arbmis_flat::FlatBackend`])
//!   at identity order, single thread.
//! * `flat_speedup` — congest / flat.
//!
//! Artifacts committed before the byte-mask reference engine was retired
//! also carry `flat_opt_*` columns; there `flat_ns_per_round` is the
//! byte-mask engine and `flat_opt_ns_per_round` the bit-packed one.

use arbmis_congest::Simulator;
use arbmis_core::protocols::{LubyProtocol, MetivierProtocol, MisNodeState};
use arbmis_flat::{FlatAlgo, FlatBackend, MisBackend};
use arbmis_graph::{gen, Graph};
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

const SEED: u64 = 3;
const MAX_ROUNDS: u64 = 100_000;

#[derive(Serialize, Deserialize)]
struct BenchDoc {
    schema: String,
    samples: u64,
    host_threads: u64,
    workloads: Vec<BenchEntry>,
}

#[derive(Serialize, Deserialize)]
struct BenchEntry {
    name: String,
    protocol: String,
    n: u64,
    m: u64,
    /// CONGEST rounds — identical for all engines by construction.
    rounds: u64,
    congest_serial_ns_per_round: f64,
    flat_ns_per_round: f64,
    /// `congest_serial_ns_per_round / flat_ns_per_round`.
    flat_speedup: f64,
}

/// Median of `samples` measurements of `ns/round`; also returns the
/// round count (identical across samples — the engines are
/// deterministic).
fn median_ns_per_round(samples: usize, mut run: impl FnMut() -> (u64, u64)) -> (f64, u64) {
    let mut rounds = 0;
    let mut per_round: Vec<f64> = (0..samples)
        .map(|_| {
            let (ns, r) = run();
            rounds = r;
            ns as f64 / r.max(1) as f64
        })
        .collect();
    per_round.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (per_round[per_round.len() / 2], rounds)
}

fn measure(g: &Graph, algo: FlatAlgo, samples: usize) -> BenchEntry {
    let run_congest = || {
        let sim = Simulator::new(g, SEED);
        match algo {
            FlatAlgo::Luby => sim.run(&LubyProtocol, MAX_ROUNDS),
            _ => sim.run(&MetivierProtocol, MAX_ROUNDS),
        }
        .expect("congest run")
    };
    // Cross-check once: same MIS, same round count, both engines.
    let sim_states: Vec<MisNodeState> = run_congest().states;
    let mut flat = FlatBackend::new(g, SEED, algo);
    flat.run(MAX_ROUNDS).expect("flat run");
    for (v, s) in sim_states.iter().enumerate() {
        assert_eq!(
            flat.mis().test(v),
            s.in_mis,
            "backends disagree on node {v}"
        );
    }

    let (congest_ns, rounds) = median_ns_per_round(samples, || {
        let t0 = Instant::now();
        let r = run_congest().metrics.rounds;
        (t0.elapsed().as_nanos() as u64, r)
    });
    let (flat_ns, flat_rounds) = median_ns_per_round(samples, || {
        let t0 = Instant::now();
        let r = flat.run(MAX_ROUNDS).unwrap().rounds;
        (t0.elapsed().as_nanos() as u64, r)
    });
    assert_eq!(flat_rounds, rounds, "backends disagree on round count");

    let name = format!("gnp{}_d4", fmt_scale(g.n()));
    eprintln!(
        "{name}/{}: congest {congest_ns:.0} ns/round, flat {flat_ns:.0} ({:.2}x)",
        algo.label(),
        congest_ns / flat_ns
    );
    BenchEntry {
        name,
        protocol: algo.label().to_string(),
        n: g.n() as u64,
        m: g.m() as u64,
        rounds,
        congest_serial_ns_per_round: congest_ns,
        flat_ns_per_round: flat_ns,
        flat_speedup: congest_ns / flat_ns,
    }
}

fn fmt_scale(n: usize) -> String {
    if n.is_multiple_of(1_000_000) {
        format!("{}m", n / 1_000_000)
    } else {
        format!("{}k", n / 1_000)
    }
}

fn main() {
    let mut out_path = "BENCH_backends.json".to_string();
    let mut samples = 3usize;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--samples" => {
                samples = args
                    .next()
                    .expect("--samples needs a count")
                    .parse()
                    .expect("--samples must be an integer")
            }
            "--quick" => quick = true,
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    // (scale, protocol) rows; graphs are regenerated per scale so the
    // two 1M rows share a workload.
    let rows: &[(usize, FlatAlgo)] = if quick {
        &[(50_000, FlatAlgo::Metivier), (50_000, FlatAlgo::Luby)]
    } else {
        &[
            (50_000, FlatAlgo::Metivier),
            (1_000_000, FlatAlgo::Metivier),
            (1_000_000, FlatAlgo::Luby),
            (10_000_000, FlatAlgo::Metivier),
        ]
    };
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut entries = Vec::new();
    let mut cached: Option<(usize, Graph)> = None;
    for &(n, algo) in rows {
        if cached.as_ref().is_none_or(|(cn, _)| *cn != n) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(2);
            cached = Some((n, gen::gnp_with_expected_degree(n, 4.0, &mut rng)));
        }
        let (_, g) = cached.as_ref().unwrap();
        entries.push(measure(g, algo, samples));
    }

    let doc = BenchDoc {
        schema: "bench_backends/v1".to_string(),
        samples: samples as u64,
        host_threads: threads as u64,
        workloads: entries,
    };
    let text = serde_json::to_string_pretty(&doc).expect("serializing the JSON artifact");
    std::fs::write(&out_path, text + "\n").expect("writing the JSON artifact");
    eprintln!("wrote {out_path}");
}
