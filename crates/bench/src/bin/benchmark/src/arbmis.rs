//! `arbmis_ktree3_1m`: the paper's algorithm on its target family.
//!
//! A random 3-tree has arboricity 3 and hubs of degree ~20k at 10⁶ nodes,
//! so `ArbMIS` runs its degree-reduction pre-phase and every shattering
//! scale. Shattering and the glue between phases do most of the work;
//! the flat engine does none.

use crate::harness::{self, Ctx, TAG_ALGO, TAG_GRAPH};
use crate::metrics::Pass;
use crate::spans::{self, selfs, walls, SpanTime};
use crate::stats::median;
use arbmis_core::arb_mis::{arb_mis_with, ArbMisConfig, ArbMisOutcome};
use arbmis_core::check_mis;
use arbmis_graph::{arboricity, gen, Graph};
use arbmis_obs::Recorder;
use rand::{rngs::StdRng, SeedableRng};

/// Workload name.
pub const NAME: &str = "arbmis_ktree3_1m";

/// Untraced/traced pairs of runs in a traced pass.
const TRACED_PAIRS: usize = 3;

/// The root span `arb_mis_with` opens, under the benchmark's own span.
const ROOT: &str = "core.arb_mis/arbmis";

/// Phase spans under [`ROOT`] and the metrics they feed.
const PHASES: [(&str, &str); 5] = [
    ("degree_reduction", "core.arbmis.degree_reduction_ms"),
    ("shattering", "core.arbmis.shattering_ms"),
    ("vlo", "core.arbmis.vlo_ms"),
    ("vhi", "core.arbmis.vhi_ms"),
    ("bad_components", "core.arbmis.bad_components_ms"),
];

fn generate(ctx: &Ctx) -> Graph {
    let mut rng = StdRng::seed_from_u64(ctx.derive(TAG_GRAPH));
    gen::random_ktree(ctx.nodes(1_000_000, 3_000), 3, &mut rng)
}

/// The arboricity bound `ArbMIS` is given: the degeneracy, which is at
/// least the arboricity.
pub fn certified_alpha(g: &Graph) -> usize {
    arboricity::degeneracy(g).max(1)
}

/// Untraced pass: set-up is generation plus α certification, one
/// operation is one `arb_mis` call.
pub fn end_to_end(ctx: &Ctx) -> Pass {
    let mut pass = Pass::default();
    let seed = ctx.derive(TAG_ALGO);
    let mut reference = None;
    harness::end_to_end(
        ctx,
        &mut pass,
        || {
            let g = generate(ctx);
            let alpha = certified_alpha(&g);
            (g, alpha)
        },
        |(g, alpha), pass| run(pass, g, *alpha, seed, &Recorder::disabled(), &mut reference),
    );
    pass
}

/// Traced pass: the graph layer, then [`trace_pipeline`].
pub fn traced(ctx: &Ctx, rec: &Recorder) -> Pass {
    let mut pass = Pass::default();
    {
        let _w = rec.span(NAME);
        let g = {
            let _s = rec.span("graph.gen");
            generate(ctx)
        };
        harness::traced_csr_build(rec, &mut pass, &g);
        let alpha = {
            let _s = rec.span("graph.degeneracy");
            certified_alpha(&g)
        };
        trace_pipeline(&mut pass, &g, alpha, ctx.derive(TAG_ALGO), rec);
    }
    let spans = spans::under(&spans::span_times(&rec.snapshot().events), NAME);
    harness::graph_layer(&mut pass, &spans);
    pipeline_layer(&mut pass, &spans);
    pass
}

/// One certified `arb_mis_with` call, returning the seconds it took. The
/// first outcome is the reference: every later one, traced or not, must
/// have the same MIS and the same rounds in every phase.
pub fn run(
    pass: &mut Pass,
    g: &Graph,
    alpha: usize,
    seed: u64,
    rec: &Recorder,
    reference: &mut Option<ArbMisOutcome>,
) -> Option<f64> {
    let cfg = ArbMisConfig::new(alpha, seed);
    let (out, dt) = pass.op("arb_mis", || {
        Ok(harness::timed(|| arb_mis_with(g, &cfg, rec)))
    })?;
    if let Err(e) = check_mis(g, &out.in_mis) {
        pass.fail("arb_mis", &e.to_string());
        return None;
    }
    match reference {
        Some(r) if r.in_mis != out.in_mis || r.phases != out.phases => {
            pass.fail("arb_mis", "outcome differs from the first run");
            return None;
        }
        Some(_) => {}
        None => *reference = Some(out),
    }
    Some(dt)
}

/// The `ArbMIS` part of a traced pass: pairs of one untraced and one
/// traced run taken side by side, so `obs.overhead_ratio` compares
/// samples taken under the same conditions. Records the pipeline's exact
/// counts and the share of shattering iterations that had joiners.
pub fn trace_pipeline(pass: &mut Pass, g: &Graph, alpha: usize, seed: u64, rec: &Recorder) {
    let before = joiner_iterations(rec);
    let mut reference = None;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..TRACED_PAIRS {
        plain.extend(run(
            pass,
            g,
            alpha,
            seed,
            &Recorder::disabled(),
            &mut reference,
        ));
        let _s = rec.span("core.arb_mis");
        traced.extend(run(pass, g, alpha, seed, rec, &mut reference));
    }
    if !plain.is_empty() && !traced.is_empty() {
        pass.push("obs.overhead_ratio", median(&traced) / median(&plain));
    }
    let after = joiner_iterations(rec);
    let iterations = after.0 - before.0;
    if iterations > 0 {
        let useful = after.1 - before.1;
        pass.push(
            "core.arbmis.useful_iter_ratio",
            useful as f64 / iterations as f64,
        );
    }
    let Some(out) = reference else { return };
    let p = out.phases;
    for (name, rounds) in [
        ("core.arbmis.rounds.degree_reduction", p.degree_reduction),
        ("core.arbmis.rounds.shattering", p.shattering),
        ("core.arbmis.rounds.vlo", p.vlo),
        ("core.arbmis.rounds.vhi", p.vhi),
        ("core.arbmis.rounds.bad_components", p.bad_components),
    ] {
        pass.push(name, rounds as f64);
    }
    pass.push(
        "core.arbmis.shatter_iterations",
        out.shatter.iterations as f64,
    );
    pass.push("core.arbmis.bad_nodes", out.shatter.bad_size() as f64);
    pass.push(
        "core.arbmis.residual_nodes",
        out.shatter.active_size() as f64,
    );
}

/// Shattering iterations recorded so far, and how many had a joiner
/// (the `arbmis_scale_joiners` histogram: bucket 0 holds empty ones).
fn joiner_iterations(rec: &Recorder) -> (u64, u64) {
    rec.snapshot()
        .histogram("arbmis_scale_joiners")
        .map_or((0, 0), |h| {
            let empty = h.bucket_counts().first().copied().unwrap_or(0);
            (h.count(), h.count() - empty)
        })
}

/// Pipeline metrics from a traced pass's spans: the root, each phase,
/// and the root's self time (the glue no phase span covers), so that
/// self time plus the phases adds up to the root in every run.
pub fn pipeline_layer(pass: &mut Pass, spans: &[SpanTime]) {
    pass.extend("core.arbmis_ms", walls(spans, ROOT, 1e6));
    pass.extend("core.arbmis.self_ms", selfs(spans, ROOT, 1e6));
    for (phase, name) in PHASES {
        pass.extend(name, walls(spans, &format!("{ROOT}/{phase}"), 1e6));
    }
}
