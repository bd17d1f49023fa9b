//! What every workload shares: seeds, the untraced measurement loop,
//! peak-memory readings and the traced graph layer.

use crate::metrics::Pass;
use crate::spans::{walls, SpanTime};
use arbmis_graph::Graph;
use arbmis_obs::Recorder;
use std::time::Instant;

/// Set-ups per untraced pass; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Round limit for flat-engine runs: far above any round count the
/// workloads reach, so hitting it is a failure, not a slow run.
pub const ROUND_LIMIT: u64 = 1 << 20;

/// How one workload pass is run.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    /// The `--seed` every input and algorithm seed derives from.
    pub seed: u64,
    /// Length of the untraced measurement window.
    pub seconds: f64,
    /// Tiny inputs, for tests and quick checks.
    pub smoke: bool,
}

impl Ctx {
    /// `full` nodes, or `smoke` of them in a smoke run.
    pub fn nodes(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// A seed for one purpose (`tag`), derived from `--seed` by splitmix64.
    pub fn derive(&self, tag: u64) -> u64 {
        let mut z = self.seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Seed tag of generated graphs.
pub const TAG_GRAPH: u64 = 1;
/// Seed tag of algorithm coins.
pub const TAG_ALGO: u64 = 2;

/// Resets the process's peak resident set (`VmHWM`) to its current size,
/// so one process can measure several workloads. Best effort: without
/// `/proc` the reading is the process-lifetime peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set since the last reset, in MiB (0 without `/proc`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The untraced pass every workload runs for its end-to-end metrics:
/// [`SETUPS`] timed set-ups (each dropping the previous input first), one
/// warm-up operation, then operations until `ctx.seconds` have passed.
/// `op` times its own call into the library and certifies the output
/// outside that time; it returns the seconds timed, or `None` on failure.
pub fn end_to_end<I>(
    ctx: &Ctx,
    pass: &mut Pass,
    mut setup: impl FnMut() -> I,
    mut op: impl FnMut(&mut I, &mut Pass) -> Option<f64>,
) {
    let mut input = None;
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        drop(input.take());
        let t0 = Instant::now();
        input = pass.op("set-up", || Ok(setup()));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let Some(mut input) = input else { return };
    pass.extend("setup_s", setups);

    op(&mut input, pass);
    let mut times = Vec::new();
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < ctx.seconds {
        if let Some(dt) = op(&mut input, pass) {
            times.push(dt);
        }
    }
    let busy: f64 = times.iter().sum();
    if busy > 0.0 {
        pass.push("ops_per_s", times.len() as f64 / busy);
    }
    pass.extend("op_p50_ms", times.iter().map(|t| t * 1e3));
    pass.push("peak_rss_mib", peak_rss_mib());
}

/// Rebuilds `g`'s CSR from its edge list under a `graph.csr_build` span,
/// checks the rebuild is equal, and records the CSR's computed size.
pub fn traced_csr_build(rec: &Recorder, pass: &mut Pass, g: &Graph) {
    let edges: Vec<_> = g.edges().collect();
    let rebuilt = pass.op("csr build", || {
        let _s = rec.span("graph.csr_build");
        Ok(Graph::from_edges(g.n(), &edges))
    });
    if rebuilt.is_some_and(|r| r != *g) {
        pass.fail("csr build", "rebuilt graph differs from the generated one");
    }
    let words = g.n() + 1 + 2 * g.m();
    pass.push(
        "graph.csr_mib_computed",
        (8 * words) as f64 / (1 << 20) as f64,
    );
}

/// The graph-layer metrics of a traced pass, read from its spans.
pub fn graph_layer(pass: &mut Pass, spans: &[SpanTime]) {
    pass.extend("graph.gen_s", walls(spans, "graph.gen", 1e9));
    pass.extend("graph.csr_build_s", walls(spans, "graph.csr_build", 1e9));
    pass.extend("graph.degeneracy_s", walls(spans, "graph.degeneracy", 1e9));
}

/// An MIS and the rounds it took.
pub type Mis = (Vec<bool>, u64);

/// Certifies `out` as an MIS of `g` and checks it against the first
/// output of the same computation (kept in `reference`): same set, same
/// rounds. Counts a failure and returns `false` otherwise.
pub fn certify(
    pass: &mut Pass,
    what: &str,
    g: &Graph,
    out: Mis,
    reference: &mut Option<Mis>,
) -> bool {
    if let Err(e) = arbmis_core::check_mis(g, &out.0) {
        pass.fail(what, &e.to_string());
        return false;
    }
    match reference {
        Some(r) if *r != out => {
            pass.fail(what, "outcome differs from the first run");
            false
        }
        Some(_) => true,
        None => {
            *reference = Some(out);
            true
        }
    }
}

/// Time `f`, returning its value and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = f();
    (value, t0.elapsed().as_secs_f64())
}
