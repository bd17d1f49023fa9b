//! `race_tree_1m`: `ArbMIS` against the baselines on a uniform random tree.
//!
//! The paper compares ArbMIS with Luby, Métivier and Ghaffari; on a tree
//! (α = 1, Δ ≈ 9 at 10⁶ nodes) degree reduction never triggers and the
//! `core` active-view loops do most of the work, beside the flat engine's
//! Luby and Métivier. Routing `core` through the flat engine shows here;
//! a degree-reduction change does not.

use crate::arbmis::{self, certified_alpha};
use crate::flat::{self, LUBY, METIVIER};
use crate::harness::{self, Ctx, Mis, TAG_ALGO, TAG_GRAPH};
use crate::metrics::Pass;
use crate::spans::{self, walls};
use arbmis_core::{ghaffari, luby, metivier, MisRun};
use arbmis_graph::{gen, Graph};
use arbmis_obs::Recorder;
use rand::{rngs::StdRng, SeedableRng};

/// Workload name.
pub const NAME: &str = "race_tree_1m";

/// Traced runs of each baseline in a traced pass.
const TRACED_REPS: usize = 2;

/// A centralized baseline: its span, its metrics and its entry point.
struct Baseline {
    span: &'static str,
    rounds: &'static str,
    ms: &'static str,
    solve: fn(&Graph, u64) -> MisRun,
}

const CORE: [Baseline; 3] = [
    Baseline {
        span: "core.luby",
        rounds: "core.luby.rounds",
        ms: "core.luby_ms",
        solve: luby::run,
    },
    Baseline {
        span: "core.metivier",
        rounds: "core.metivier.rounds",
        ms: "core.metivier_ms",
        solve: metivier::run,
    },
    Baseline {
        span: "core.ghaffari",
        rounds: "core.ghaffari.rounds",
        ms: "core.ghaffari_ms",
        solve: ghaffari::run,
    },
];

fn generate(ctx: &Ctx) -> Graph {
    let mut rng = StdRng::seed_from_u64(ctx.derive(TAG_GRAPH));
    gen::random_tree_prufer(ctx.nodes(1_000_000, 3_000), &mut rng)
}

/// Reference outputs of the baselines: the three `core` ones in
/// [`CORE`] order, then flat Métivier and flat Luby.
#[derive(Default)]
struct Refs {
    core: [Option<Mis>; 3],
    flat_metivier: Option<Mis>,
    flat_luby: Option<Mis>,
}

/// Every baseline once; returns their summed seconds.
fn baselines(
    pass: &mut Pass,
    g: &Graph,
    seed: u64,
    rec: &Recorder,
    refs: &mut Refs,
) -> Option<f64> {
    let mut total = Some(0.0);
    for (b, reference) in CORE.iter().zip(&mut refs.core) {
        let out = pass.op(b.span, || {
            let _s = rec.span(b.span);
            Ok(harness::timed(|| (b.solve)(g, seed)))
        });
        let dt = out.and_then(|(r, dt)| {
            harness::certify(pass, b.span, g, (r.in_mis, r.rounds), reference).then_some(dt)
        });
        total = total.zip(dt).map(|(a, b)| a + b);
    }
    for (v, reference) in [
        (METIVIER, &mut refs.flat_metivier),
        (LUBY, &mut refs.flat_luby),
    ] {
        let dt = flat::run(pass, g, seed, v, rec, reference);
        total = total.zip(dt).map(|(a, b)| a + b);
    }
    total
}

/// Untraced pass: set-up is generation plus α certification, one
/// operation is one run of `ArbMIS` and of every baseline.
pub fn end_to_end(ctx: &Ctx) -> Pass {
    let mut pass = Pass::default();
    let seed = ctx.derive(TAG_ALGO);
    let mut arb_ref = None;
    let mut refs = Refs::default();
    harness::end_to_end(
        ctx,
        &mut pass,
        || {
            let g = generate(ctx);
            let alpha = certified_alpha(&g);
            (g, alpha)
        },
        |(g, alpha), pass| {
            let none = Recorder::disabled();
            let arb = arbmis::run(pass, g, *alpha, seed, &none, &mut arb_ref);
            let rest = baselines(pass, g, seed, &none, &mut refs);
            arb.zip(rest).map(|(a, b)| a + b)
        },
    );
    pass
}

/// Traced pass: the graph layer, the traced `ArbMIS` pairs, then every
/// baseline under its span.
pub fn traced(ctx: &Ctx, rec: &Recorder) -> Pass {
    let mut pass = Pass::default();
    let mut refs = Refs::default();
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
        let seed = ctx.derive(TAG_ALGO);
        arbmis::trace_pipeline(&mut pass, &g, alpha, seed, rec);
        for _ in 0..TRACED_REPS {
            baselines(&mut pass, &g, seed, rec, &mut refs);
        }
    }
    let spans = spans::under(&spans::span_times(&rec.snapshot().events), NAME);
    harness::graph_layer(&mut pass, &spans);
    arbmis::pipeline_layer(&mut pass, &spans);
    for (b, reference) in CORE.iter().zip(&refs.core) {
        pass.extend(b.ms, walls(&spans, b.span, 1e6));
        if let Some((_, r)) = reference {
            pass.push(b.rounds, *r as f64);
        }
    }
    flat::flat_layer(
        &mut pass,
        &spans,
        refs.flat_metivier.map(|r| r.1),
        refs.flat_luby.map(|r| r.1),
    );
    pass
}
