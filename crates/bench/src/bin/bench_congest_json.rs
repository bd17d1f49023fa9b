//! Machine-readable companion to the `bench_congest` Criterion group:
//! measures median ns/round of the CONGEST round engine on the standard
//! acceptance workloads — broadcast-heavy G(50k, p = 4/n) and a random
//! k-tree — and writes `BENCH_congest.json` so the perf trajectory
//! accumulates across commits.
//!
//! Usage:
//!
//! ```text
//! bench_congest_json [--out PATH] [--baseline PATH] [--samples N]
//! ```
//!
//! `--baseline` points at a previously emitted JSON (e.g. captured before
//! a refactor); its `serial_ns_per_round` values are copied into
//! `baseline_serial_ns_per_round` and the speedup ratio is reported, so
//! the committed artifact carries both numbers.

use arbmis_congest::algorithms::ConvergeCast;
use arbmis_congest::{Protocol, Simulator};
use arbmis_core::params::{ArbParams, ParamMode};
use arbmis_core::protocols::{BoundedArbProtocol, MetivierProtocol};
use arbmis_graph::{gen, Graph};
use arbmis_obs::{FlightRecorder, Recorder};
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

const SEED: u64 = 3;
const MAX_ROUNDS: u64 = 100_000;

#[derive(Serialize, Deserialize)]
struct BenchDoc {
    schema: String,
    samples: u64,
    /// Core count of the machine that produced the numbers.
    #[serde(default)]
    host_threads: u64,
    workloads: Vec<BenchEntry>,
    /// Observability-overhead guardrail: serial ns/round on `gnp50k_d4`
    /// with the deterministic metric recorder *and* a bounded flight
    /// recorder attached, vs the plain run. Capture must stay cheap
    /// enough to leave on everywhere (DESIGN.md §8).
    #[serde(default)]
    obs_overhead: Option<ObsOverhead>,
}

#[derive(Serialize, Deserialize)]
struct ObsOverhead {
    workload: String,
    plain_ns_per_round: f64,
    recorded_ns_per_round: f64,
    overhead_ratio: f64,
}

#[derive(Serialize, Deserialize)]
struct BenchEntry {
    name: String,
    protocol: String,
    n: u64,
    m: u64,
    rounds: u64,
    serial_ns_per_round: f64,
    baseline_serial_ns_per_round: Option<f64>,
    serial_speedup_vs_baseline: Option<f64>,
}

/// The protocol a workload drives — broadcast-heavy MIS twins plus the
/// shattering-tail cases where activity collapses long before the run
/// ends (most rounds touch a handful of nodes; the frontier engine must
/// not bill O(n) for them).
enum WorkloadProto {
    Metivier,
    BoundedArb(BoundedArbProtocol),
    ConvergeCast(ConvergeCast),
}

struct Workload {
    name: &'static str,
    protocol: &'static str,
    graph: Graph,
    proto: WorkloadProto,
    max_rounds: u64,
}

fn workloads() -> Vec<Workload> {
    // Same generator seeds as benches/bench_congest.rs, so the Criterion
    // group and this emitter measure the same graphs.
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let n = 50_000;
    let gnp = gen::gnp(n, 4.0 / n as f64, &mut rng);
    let ktree = gen::random_ktree(20_000, 3, &mut rng);

    // BoundedArb twin on the k-tree: nodes halt as soon as they resolve,
    // so the later rounds step a shrinking survivor set — the frontier
    // engine must bill those rounds by survivors, not by n.
    let params = ArbParams::new(
        3,
        ktree.max_degree(),
        ParamMode::Practical { lambda_scale: 1.0 },
    );
    let arb = BoundedArbProtocol {
        params,
        rho_cutoff: true,
    };
    let arb_rounds = arb.total_rounds() + 2;

    // Sparse-activity tail in the extreme: a converge-cast wave up a
    // path steps exactly one node per round for ~n rounds. Engine cost
    // must track the wave front, not n.
    let wave_n = 20_000;
    let path = gen::path(wave_n);
    let parent: Vec<Option<usize>> = (0..wave_n)
        .map(|v| (v + 1 < wave_n).then_some(v + 1))
        .collect();
    let cast = ConvergeCast::new(parent, vec![1u64; wave_n]);

    vec![
        Workload {
            name: "gnp50k_d4",
            protocol: "metivier",
            graph: gnp,
            proto: WorkloadProto::Metivier,
            max_rounds: MAX_ROUNDS,
        },
        Workload {
            name: "ktree20k_k3",
            protocol: "metivier",
            graph: ktree.clone(),
            proto: WorkloadProto::Metivier,
            max_rounds: MAX_ROUNDS,
        },
        Workload {
            name: "ktree20k_arb",
            protocol: "bounded_arb",
            graph: ktree,
            proto: WorkloadProto::BoundedArb(arb),
            max_rounds: arb_rounds,
        },
        Workload {
            name: "wavepath20k",
            protocol: "converge_cast",
            graph: path,
            proto: WorkloadProto::ConvergeCast(cast),
            max_rounds: wave_n as u64 + 5,
        },
    ]
}

/// Median of `samples` measurements of `ns/round`; also returns the round
/// count (identical across samples — the engines are deterministic).
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

/// Median ns/round for one protocol on one graph.
fn measure<P: Protocol>(g: &Graph, proto: &P, max_rounds: u64, samples: usize) -> (f64, u64) {
    median_ns_per_round(samples, || {
        let sim = Simulator::new(g, SEED);
        let t0 = Instant::now();
        let run = sim.run(proto, max_rounds).unwrap();
        (t0.elapsed().as_nanos() as u64, run.metrics.rounds)
    })
}

fn main() {
    let mut out_path = "BENCH_congest.json".to_string();
    let mut baseline_path: Option<String> = None;
    let mut samples = 5usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--baseline" => baseline_path = Some(args.next().expect("--baseline needs a path")),
            "--samples" => {
                samples = args
                    .next()
                    .expect("--samples needs a count")
                    .parse()
                    .expect("--samples must be an integer")
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    let baseline: Option<BenchDoc> = baseline_path.map(|p| {
        let text = std::fs::read_to_string(&p).expect("baseline JSON must be readable");
        serde_json::from_str(&text).expect("baseline JSON must parse")
    });
    let baseline_serial = |name: &str| -> Option<f64> {
        baseline
            .as_ref()?
            .workloads
            .iter()
            .find(|w| w.name == name)
            .map(|w| w.serial_ns_per_round)
    };

    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut entries = Vec::new();
    let mut obs_overhead = None;
    for w in workloads() {
        let g = &w.graph;
        let (serial, rounds) = match &w.proto {
            WorkloadProto::Metivier => measure(g, &MetivierProtocol, w.max_rounds, samples),
            WorkloadProto::BoundedArb(p) => measure(g, p, w.max_rounds, samples),
            WorkloadProto::ConvergeCast(p) => measure(g, p, w.max_rounds, samples),
        };
        if w.name == "gnp50k_d4" {
            // Guardrail: the same serial run with full capture attached
            // (deterministic metric recorder + bounded flight ring).
            let (recorded, _) = median_ns_per_round(samples, || {
                let sim = Simulator::new(g, SEED)
                    .with_recorder(Recorder::deterministic())
                    .with_flight(FlightRecorder::bounded(4096));
                let t0 = Instant::now();
                let run = sim.run(&MetivierProtocol, w.max_rounds).unwrap();
                (t0.elapsed().as_nanos() as u64, run.metrics.rounds)
            });
            eprintln!(
                "{}: obs-recorded serial {recorded:.0} ns/round ({:.2}x plain)",
                w.name,
                recorded / serial
            );
            obs_overhead = Some(ObsOverhead {
                workload: w.name.to_string(),
                plain_ns_per_round: serial,
                recorded_ns_per_round: recorded,
                overhead_ratio: recorded / serial,
            });
        }
        let base = baseline_serial(w.name);
        eprintln!(
            "{}: serial {serial:.0} ns/round{}",
            w.name,
            base.map(|b| format!(", baseline {b:.0} ({:.2}x)", b / serial))
                .unwrap_or_default()
        );
        entries.push(BenchEntry {
            name: w.name.to_string(),
            protocol: w.protocol.to_string(),
            n: g.n() as u64,
            m: g.m() as u64,
            rounds,
            serial_ns_per_round: serial,
            baseline_serial_ns_per_round: base,
            serial_speedup_vs_baseline: base.map(|b| b / serial),
        });
    }

    let doc = BenchDoc {
        schema: "bench_congest/v1".to_string(),
        samples: samples as u64,
        host_threads: threads as u64,
        workloads: entries,
        obs_overhead,
    };
    let text = serde_json::to_string_pretty(&doc).expect("serializing the JSON artifact");
    std::fs::write(&out_path, text + "\n").expect("writing the JSON artifact");
    eprintln!("wrote {out_path}");
}
