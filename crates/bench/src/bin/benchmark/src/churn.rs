//! `churn_mix_1m`: the write path, a stream of update batches repaired
//! by `DynamicMis` over G(10⁶, d̄=4).
//!
//! One episode interleaves three `bench::churn` edit scripts by a seeded
//! schedule that keeps each script's own order: localized edits (16 per
//! batch), flash-crowd arrivals (8 per batch) and hub flaps (a 256-spoke
//! fan attached, then torn down). Regions hold 1–300 nodes, so each call
//! into the flat engine is small and its per-call set-up dominates.
//! After an episode the state is rebuilt from the base graph (untimed),
//! so every episode repeats the same work and the same repair counts.

use crate::harness::{self, Ctx, TAG_ALGO, TAG_GRAPH};
use crate::metrics::Pass;
use crate::spans::{self, walls};
use crate::stats::{median, percentile};
use arbmis_bench::churn::{flash_crowd, hub_churn, localized_churn, ChurnScript};
use arbmis_dynamic::{DynamicMis, Repair, Update};
use arbmis_graph::{Graph, NodeId};
use arbmis_obs::Recorder;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Workload name.
pub const NAME: &str = "churn_mix_1m";

/// Seed tag of the interleaving schedule.
const TAG_SCHEDULE: u64 = 3;

/// Batches between full validity audits.
const AUDIT_EVERY: usize = 1_000;

/// The kinds of batch, with the span each is traced under and the
/// metrics its latency feeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Local,
    Arrival,
    Hub,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Local, Kind::Arrival, Kind::Hub];

    fn span(self) -> &'static str {
        match self {
            Kind::Local => "dynamic.apply.local",
            Kind::Arrival => "dynamic.apply.arrival",
            Kind::Hub => "dynamic.apply.hub",
        }
    }

    fn metrics(self) -> (&'static str, &'static str) {
        match self {
            Kind::Local => ("dynamic.apply_p50_us.local", "dynamic.apply_p99_us.local"),
            Kind::Arrival => (
                "dynamic.apply_p50_us.arrival",
                "dynamic.apply_p99_us.arrival",
            ),
            Kind::Hub => ("dynamic.apply_p50_us.hub", "dynamic.apply_p99_us.hub"),
        }
    }
}

/// A maintained MIS over the base graph, with the batches of its episode.
fn setup(ctx: &Ctx, rec: &Recorder) -> State {
    let n = ctx.nodes(1_000_000, 3_000);
    let (local, arrivals, flaps, fan) = if ctx.smoke {
        (180, 10, 5, 16)
    } else {
        (18_000, 1_000, 500, 256)
    };
    // One seed for all three scripts: each builds the same base graph and
    // draws its edits from its own stream.
    let seed = ctx.derive(TAG_GRAPH);
    let (base, loc, crowd, hub) = {
        let _s = rec.span("graph.gen");
        let ChurnScript { base, batches, .. } = localized_churn(n, local, 16, seed);
        let crowd = flash_crowd(n, arrivals, 8, seed).batches;
        (base, batches, crowd, hub_churn(n, flaps, fan, seed).batches)
    };
    let repair_seed = ctx.derive(TAG_ALGO);
    let mis = {
        let _s = rec.span("dynamic.new");
        DynamicMis::new(base.clone(), repair_seed)
    };

    // `hub_churn` flaps node 0. Whether the hub is in the MIS decides if a
    // flap evicts its spokes (the stress case) or changes nothing, a coin
    // flip of the seed; swapping ids 0 and h, the lowest-id MIS member,
    // makes every seed the stress case.
    let h = mis.mis().iter().position(|&b| b).unwrap_or(0);
    let swap = |v: NodeId| match v {
        0 => h,
        v if v == h => 0,
        v => v,
    };
    let hub: Vec<Vec<Update>> = hub
        .into_iter()
        .map(|batch| {
            batch
                .into_iter()
                .map(|u| match u {
                    Update::InsertEdge(a, b) => Update::InsertEdge(swap(a), swap(b)),
                    Update::RemoveEdge(a, b) => Update::RemoveEdge(swap(a), swap(b)),
                    other => other,
                })
                .collect()
        })
        .collect();

    let mut kinds: Vec<Kind> = [
        (Kind::Local, loc.len()),
        (Kind::Arrival, crowd.len()),
        (Kind::Hub, hub.len()),
    ]
    .into_iter()
    .flat_map(|(k, count)| std::iter::repeat_n(k, count))
    .collect();
    let mut rng = StdRng::seed_from_u64(ctx.derive(TAG_SCHEDULE));
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.gen_range(0..=i));
    }
    let (mut loc, mut crowd, mut hub) = (loc.into_iter(), crowd.into_iter(), hub.into_iter());
    let batches = kinds
        .into_iter()
        .map(|k| {
            let next = match k {
                Kind::Local => loc.next(),
                Kind::Arrival => crowd.next(),
                Kind::Hub => hub.next(),
            };
            (
                k,
                next.expect("the schedule holds each script's batch count"),
            )
        })
        .collect();
    State {
        base,
        batches,
        seed: repair_seed,
        mis,
        cursor: 0,
        tally: Tally::default(),
        reference: None,
    }
}

/// What one episode's repairs did. Every field is a pure function of the
/// seed, so two complete episodes must agree exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Tally {
    batches: usize,
    region_nodes: usize,
    region_max: usize,
    added: usize,
    rounds: u64,
    compactions: u64,
}

impl Tally {
    fn add(&mut self, r: &Repair) {
        self.batches += 1;
        self.region_nodes += r.region_nodes;
        self.region_max = self.region_max.max(r.region_nodes);
        self.added += r.added.len();
        self.rounds += r.repair_rounds;
        self.compactions += u64::from(r.compacted);
    }
}

/// The maintained MIS, partway through an episode.
struct State {
    base: Graph,
    batches: Vec<(Kind, Vec<Update>)>,
    seed: u64,
    mis: DynamicMis,
    cursor: usize,
    tally: Tally,
    reference: Option<Tally>,
}

impl State {
    /// Applies the next batch, returning its seconds. At the end of an
    /// episode it first audits, checks the tally against the first
    /// episode's and starts over from the base graph (all untimed).
    fn step(&mut self, pass: &mut Pass, rec: &Recorder) -> Option<f64> {
        if self.cursor == self.batches.len() {
            self.restart(pass);
        }
        let (kind, batch) = &self.batches[self.cursor];
        self.cursor += 1;
        let mis = &mut self.mis;
        let Some((repair, dt)) = pass.op(kind.span(), || {
            let _s = rec.span(kind.span());
            Ok(harness::timed(|| mis.apply(batch)))
        }) else {
            // A panic may leave the repair state half-updated: abandon
            // the episode, whose tally now falls short of a full one.
            self.cursor = self.batches.len();
            return None;
        };
        self.tally.add(&repair);
        if self.cursor.is_multiple_of(AUDIT_EVERY) {
            self.audit(pass);
        }
        Some(dt)
    }

    fn audit(&self, pass: &mut Pass) {
        if !self.mis.is_valid_mis() {
            pass.fail(
                "dynamic audit",
                "maintained set is not an MIS of the current graph",
            );
        }
    }

    /// Ends the current episode and returns its tally.
    fn restart(&mut self, pass: &mut Pass) -> Tally {
        let tally = std::mem::take(&mut self.tally);
        if tally.batches == self.batches.len() {
            self.audit(pass);
            match self.reference {
                Some(r) if r != tally => {
                    pass.fail("dynamic", "episode repairs differ from the first episode")
                }
                Some(_) => {}
                None => self.reference = Some(tally),
            }
        }
        self.mis = DynamicMis::new(self.base.clone(), self.seed);
        self.cursor = 0;
        tally
    }
}

/// Untraced pass: set-up is building the scripts (each generates the
/// base graph) plus `DynamicMis::new`, one operation is one batch.
pub fn end_to_end(ctx: &Ctx) -> Pass {
    let mut pass = Pass::default();
    let none = Recorder::disabled();
    harness::end_to_end(
        ctx,
        &mut pass,
        || setup(ctx, &none),
        |state, pass| state.step(pass, &none),
    );
    pass
}

/// Traced pass: one untraced episode, then one with every batch under
/// its kind's span; both must repair identically.
pub fn traced(ctx: &Ctx, rec: &Recorder) -> Pass {
    let mut pass = Pass::default();
    let mut tally = Tally::default();
    {
        let _w = rec.span(NAME);
        let mut state = setup(ctx, rec);
        harness::traced_csr_build(rec, &mut pass, &state.base);
        for r in [Recorder::disabled(), rec.clone()] {
            while state.cursor < state.batches.len() {
                state.step(&mut pass, &r);
            }
            tally = state.restart(&mut pass);
        }
    }
    let spans = spans::under(&spans::span_times(&rec.snapshot().events), NAME);
    harness::graph_layer(&mut pass, &spans);
    pass.extend("dynamic.new_ms", walls(&spans, "dynamic.new", 1e6));
    for kind in Kind::ALL {
        let us = walls(&spans, kind.span(), 1e3);
        let (p50, p99) = kind.metrics();
        pass.push(p50, median(&us));
        pass.push(p99, percentile(&us, 99.0));
    }
    let batches = tally.batches.max(1) as f64;
    pass.push(
        "dynamic.region_nodes_mean",
        tally.region_nodes as f64 / batches,
    );
    pass.push("dynamic.region_nodes_max", tally.region_max as f64);
    pass.push("dynamic.compactions", tally.compactions as f64);
    pass.push(
        "dynamic.useful_ratio",
        tally.added as f64 / tally.region_nodes.max(1) as f64,
    );
    pass.push("dynamic.repair_rounds_total", tally.rounds as f64);
    pass
}
