//! `flat_gnp_4m`: the flat engine on a graph larger than the cache.
//!
//! G(4·10⁶, d̄=4) has a 160 MiB CSR against 105 MiB of shared L3, so
//! every sweep streams from memory. Métivier and Luby each run at one
//! thread (the plain baseline) and at two, the most this host has. Only
//! here do layout, bit-packing or threading changes show.

use crate::harness::{self, Ctx, Mis, ROUND_LIMIT, TAG_ALGO, TAG_GRAPH};
use crate::metrics::Pass;
use crate::spans::{self, walls, SpanTime};
use crate::stats::median;
use arbmis_flat::{FlatAlgo, FlatBackend, MisBackend};
use arbmis_graph::{gen, Graph};
use arbmis_obs::Recorder;
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "flat_gnp_4m";

/// Traced runs of each variant in a traced pass.
const TRACED_REPS: usize = 2;

/// One flat-engine configuration; `span` names its run span.
#[derive(Clone, Copy, Debug)]
pub struct Variant {
    algo: FlatAlgo,
    threads: usize,
    span: &'static str,
}

/// Métivier, one thread.
pub const METIVIER: Variant = Variant {
    algo: FlatAlgo::Metivier,
    threads: 1,
    span: "flat.metivier",
};
/// Métivier, two threads.
const METIVIER_2T: Variant = Variant {
    algo: FlatAlgo::Metivier,
    threads: 2,
    span: "flat.metivier_2t",
};
/// Luby, one thread.
pub const LUBY: Variant = Variant {
    algo: FlatAlgo::Luby,
    threads: 1,
    span: "flat.luby",
};
/// Luby, two threads.
const LUBY_2T: Variant = Variant {
    algo: FlatAlgo::Luby,
    threads: 2,
    span: "flat.luby_2t",
};

fn generate(ctx: &Ctx) -> Graph {
    let mut rng = StdRng::seed_from_u64(ctx.derive(TAG_GRAPH));
    gen::gnp_with_expected_degree(ctx.nodes(4_000_000, 5_000), 4.0, &mut rng)
}

/// Reference outputs: one per algorithm, shared by both thread counts,
/// whose outputs must be bit-identical.
#[derive(Default)]
struct Refs {
    metivier: Option<Mis>,
    luby: Option<Mis>,
}

/// All four variants once; returns their summed seconds.
fn sweep(pass: &mut Pass, g: &Graph, seed: u64, rec: &Recorder, refs: &mut Refs) -> Option<f64> {
    [
        run(pass, g, seed, METIVIER, rec, &mut refs.metivier),
        run(pass, g, seed, METIVIER_2T, rec, &mut refs.metivier),
        run(pass, g, seed, LUBY, rec, &mut refs.luby),
        run(pass, g, seed, LUBY_2T, rec, &mut refs.luby),
    ]
    .into_iter()
    .sum()
}

/// Untraced pass: set-up is generation, one operation is one run of each
/// variant.
pub fn end_to_end(ctx: &Ctx) -> Pass {
    let mut pass = Pass::default();
    let seed = ctx.derive(TAG_ALGO);
    let mut refs = Refs::default();
    harness::end_to_end(
        ctx,
        &mut pass,
        || generate(ctx),
        |g, pass| sweep(pass, g, seed, &Recorder::disabled(), &mut refs),
    );
    pass
}

/// Traced pass: the graph layer, then every variant under its span.
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
        for _ in 0..TRACED_REPS {
            sweep(&mut pass, &g, ctx.derive(TAG_ALGO), rec, &mut refs);
        }
    }
    let spans = spans::under(&spans::span_times(&rec.snapshot().events), NAME);
    harness::graph_layer(&mut pass, &spans);
    flat_layer(
        &mut pass,
        &spans,
        refs.metivier.map(|r| r.1),
        refs.luby.map(|r| r.1),
    );
    pass
}

/// One certified flat-engine run, construction included, returning its
/// seconds. `FlatBackend::new` runs under `flat.new`, the run under the
/// variant's span.
pub fn run(
    pass: &mut Pass,
    g: &Graph,
    seed: u64,
    v: Variant,
    rec: &Recorder,
    reference: &mut Option<Mis>,
) -> Option<f64> {
    let (out, dt) = pass.op(v.span, || {
        let t0 = Instant::now();
        let mut b = {
            let _s = rec.span("flat.new");
            FlatBackend::new(g, seed, v.algo).with_threads(v.threads)
        };
        let run = {
            let _s = rec.span(v.span);
            b.run(ROUND_LIMIT)
        }
        .map_err(|e| e.to_string())?;
        let dt = t0.elapsed().as_secs_f64();
        Ok(((b.mis().to_bools(), run.rounds), dt))
    })?;
    harness::certify(pass, v.span, g, out, reference).then_some(dt)
}

/// Flat-engine metrics from a traced pass's spans, given the round counts
/// of the Métivier and Luby runs (absent when that algorithm did not run).
pub fn flat_layer(pass: &mut Pass, spans: &[SpanTime], metivier: Option<u64>, luby: Option<u64>) {
    pass.extend("flat.new_us", walls(spans, "flat.new", 1e3));
    let singles = [
        (
            METIVIER,
            metivier,
            "flat.metivier_ms",
            "flat.metivier.ns_per_round",
            "flat.metivier.rounds",
        ),
        (
            LUBY,
            luby,
            "flat.luby_ms",
            "flat.luby.ns_per_round",
            "flat.luby.rounds",
        ),
    ];
    for (v, rounds, ms, per_round, rounds_name) in singles {
        let Some(rounds) = rounds else { continue };
        let ns = walls(spans, v.span, 1.0);
        pass.extend(ms, ns.iter().map(|x| x / 1e6));
        pass.extend(per_round, ns.iter().map(|x| x / rounds.max(1) as f64));
        pass.push(rounds_name, rounds as f64);
    }
    let pairs = [
        (
            METIVIER,
            METIVIER_2T,
            "flat.metivier_2t_ms",
            "flat.metivier.speedup_2t",
        ),
        (LUBY, LUBY_2T, "flat.luby_2t_ms", "flat.luby.speedup_2t"),
    ];
    for (one, two, ms, speedup) in pairs {
        let (a, b) = (walls(spans, one.span, 1e6), walls(spans, two.span, 1e6));
        if a.is_empty() || b.is_empty() {
            continue;
        }
        pass.push(speedup, median(&a) / median(&b));
        pass.extend(ms, b);
    }
}
