//! The metrics the benchmark emits, and the tally one pass collects.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single list of names, units
//! and directions; `BENCHMARK.json` must declare exactly these (a unit
//! test checks it). Every run emits every name of its kind: a per-layer
//! metric of a layer the workload does not exercise reads 0.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, sizes, counts of work).
    Lower,
    /// Larger is better (throughput, useful-work ratios, speed-ups).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct Decl {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, e.g. `ms` or `count`.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a caller of the library sees, measured with tracing off.
pub const END_TO_END: &[Decl] = &[
    lower("setup_s", "s"),
    lower("op_p50_ms", "ms"),
    higher("ops_per_s", "1/s"),
    lower("peak_rss_mib", "MiB"),
];

/// Single layers, measured in the traced pass.
pub const PER_LAYER: &[Decl] = &[
    lower("graph.gen_s", "s"),
    lower("graph.csr_build_s", "s"),
    lower("graph.degeneracy_s", "s"),
    lower("graph.csr_mib_computed", "MiB"),
    lower("core.arbmis_ms", "ms"),
    lower("core.arbmis.degree_reduction_ms", "ms"),
    lower("core.arbmis.shattering_ms", "ms"),
    lower("core.arbmis.vlo_ms", "ms"),
    lower("core.arbmis.vhi_ms", "ms"),
    lower("core.arbmis.bad_components_ms", "ms"),
    lower("core.arbmis.self_ms", "ms"),
    higher("core.arbmis.useful_iter_ratio", "ratio"),
    lower("core.arbmis.rounds.degree_reduction", "count"),
    lower("core.arbmis.rounds.shattering", "count"),
    lower("core.arbmis.rounds.vlo", "count"),
    lower("core.arbmis.rounds.vhi", "count"),
    lower("core.arbmis.rounds.bad_components", "count"),
    lower("core.arbmis.shatter_iterations", "count"),
    lower("core.arbmis.bad_nodes", "count"),
    lower("core.arbmis.residual_nodes", "count"),
    lower("core.luby_ms", "ms"),
    lower("core.metivier_ms", "ms"),
    lower("core.ghaffari_ms", "ms"),
    lower("core.luby.rounds", "count"),
    lower("core.metivier.rounds", "count"),
    lower("core.ghaffari.rounds", "count"),
    lower("flat.new_us", "us"),
    lower("flat.metivier_ms", "ms"),
    lower("flat.luby_ms", "ms"),
    lower("flat.metivier_2t_ms", "ms"),
    lower("flat.luby_2t_ms", "ms"),
    lower("flat.metivier.ns_per_round", "ns"),
    lower("flat.luby.ns_per_round", "ns"),
    lower("flat.metivier.rounds", "count"),
    lower("flat.luby.rounds", "count"),
    higher("flat.metivier.speedup_2t", "ratio"),
    higher("flat.luby.speedup_2t", "ratio"),
    lower("dynamic.new_ms", "ms"),
    lower("dynamic.apply_p50_us.local", "us"),
    lower("dynamic.apply_p50_us.arrival", "us"),
    lower("dynamic.apply_p50_us.hub", "us"),
    lower("dynamic.apply_p99_us.local", "us"),
    lower("dynamic.apply_p99_us.arrival", "us"),
    lower("dynamic.apply_p99_us.hub", "us"),
    lower("dynamic.region_nodes_mean", "count"),
    lower("dynamic.region_nodes_max", "count"),
    lower("dynamic.compactions", "count"),
    higher("dynamic.useful_ratio", "ratio"),
    lower("dynamic.repair_rounds_total", "count"),
    lower("obs.overhead_ratio", "ratio"),
];

/// Operations attempted and failed in one pass, plus the samples of
/// every metric it measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Operations attempted: set-ups, MIS computations, CSR rebuilds and
    /// repair batches.
    pub attempted: u64,
    /// Operations that panicked or whose output failed certification.
    pub failed: u64,
    /// Samples by metric name; a metric's value is their median.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Pass {
    /// Adds one sample.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Adds several samples.
    pub fn extend(&mut self, name: &'static str, values: impl IntoIterator<Item = f64>) {
        self.samples.entry(name).or_default().extend(values);
    }

    /// Runs one operation. A panic or an `Err` counts as a failure and
    /// yields `None`; the run goes on either way.
    pub fn op<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(value)) => Some(value),
            Ok(Err(msg)) => {
                self.fail(what, &msg);
                None
            }
            Err(_) => {
                self.fail(what, "panicked");
                None
            }
        }
    }

    /// Counts a failure of an operation already attempted (a failed
    /// certification of its output).
    pub fn fail(&mut self, what: &str, msg: &str) {
        self.failed += 1;
        eprintln!("benchmark: {what}: {msg}");
    }
}
