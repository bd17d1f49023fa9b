#![warn(missing_docs)]
//! Incremental MIS maintenance under edge/node churn.
//!
//! The static pipeline answers one-shot "compute the MIS of `G`"
//! requests; a live service sees `G` as a *stream* of edge and node
//! inserts and deletes. [`DynamicMis`] maintains a valid MIS across that
//! stream with **locality-bounded repair**: an update batch invalidates
//! only a bounded neighborhood (the shattering structure of
//! Pemmaraju–Riaz makes damage local by design), so instead of a full
//! recompute the layer
//!
//! 1. applies the structural updates to a mutable
//!    [`arbmis_graph::OverlayGraph`] over the CSR base,
//! 2. resolves independence violations by deterministic eviction (a new
//!    MIS–MIS edge keeps its lower-id endpoint),
//! 3. computes the **dirty region** — the set of alive nodes left with
//!    no MIS neighbor — among the batch's candidates (evicted nodes,
//!    their neighbors, former neighbors of removed MIS nodes, endpoints
//!    of removed MIS edges, new nodes). Each node carries a count of its
//!    MIS neighbors, kept exact by every membership and MIS-incident
//!    edge change, so a candidate's test is one lookup, not a scan of
//!    its neighborhood —
//! 4. extracts it with the shared [`arbmis_graph::SubgraphScratch`] and
//!    re-solves *only that region* on the flat frontier engine
//!    ([`arbmis_flat::solve_mis`]), lifting the joiners back.
//!
//! Every node of the dirty region has, by construction, no neighbor in
//! the surviving MIS, so adding an MIS of the region's induced subgraph
//! restores both independence and maximality globally — that is the
//! repair soundness argument, enforced by the differential oracle in
//! `tests/dynamic_equivalence.rs` on every prefix of random edit
//! scripts.
//!
//! Repairs are **deterministic and replayable**: the repair RNG is
//! counter-pure (`(seed, epoch)` keyed, no state carried between
//! batches), eviction is id-ordered, compaction is a pure function of
//! the update sequence, and each batch emits one `engine="dynamic"`
//! flight-recorder row, so two replicas applying the same script hold
//! byte-identical state and transcripts at every prefix — at any thread
//! count (DESIGN.md §12).

use arbmis_congest::rng;
use arbmis_flat::solve_mis;
use arbmis_graph::{Graph, NodeId, OverlayGraph, SubgraphScratch};
use arbmis_obs::{FlightRecorder, Recorder, RoundRecord};

/// RNG tag for per-epoch repair seeds (`"DYNA"`), disjoint from the
/// protocol tags (`LUBY`/`METI`/`BARI`/`GHAF`).
pub const TAG_REPAIR: u64 = 0x4459_4e41;

/// Flat-engine round budget per repair. Repairs run Luby/Métivier on the
/// dirty region, which finishes in `O(log |region|)` iterations with
/// overwhelming probability; this limit is astronomically above that.
const REPAIR_ROUND_LIMIT: u64 = 1 << 20;

/// Compaction floor: deltas below this never trigger a compaction.
const COMPACT_MIN_ENTRIES: usize = 64;

/// One graph mutation in an update batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Update {
    /// Insert the undirected edge `{u, v}` (no-op if present).
    InsertEdge(NodeId, NodeId),
    /// Remove the undirected edge `{u, v}` (no-op if absent).
    RemoveEdge(NodeId, NodeId),
    /// Append a new node wired to the listed (alive) neighbors; its id
    /// is the graph's node count at application time.
    InsertNode(Vec<NodeId>),
    /// Remove a node and all its incident edges. Its id is never reused.
    RemoveNode(NodeId),
}

/// What one [`DynamicMis::apply`] call did — the deterministic,
/// replayable record of a batch's repair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Repair {
    /// Batch index (epoch 0 is the initial full solve).
    pub epoch: u64,
    /// Updates in the batch.
    pub updates: usize,
    /// Nodes removed from the MIS (evictions and removed members),
    /// ascending.
    pub evicted: Vec<NodeId>,
    /// Nodes the repair added to the MIS, ascending.
    pub added: Vec<NodeId>,
    /// Dirty-region size (nodes re-solved).
    pub region_nodes: usize,
    /// Edges of the dirty region's induced subgraph.
    pub region_edges: usize,
    /// Flat-engine rounds the region re-solve took.
    pub repair_rounds: u64,
    /// The counter-pure seed the repair drew its coins from.
    pub repair_seed: u64,
    /// Whether the overlay was compacted after this batch.
    pub compacted: bool,
}

impl Repair {
    /// One-line deterministic rendering, stable across runs and thread
    /// counts — the unit the replay/differential tests compare
    /// byte-for-byte.
    pub fn transcript(&self) -> String {
        format!(
            "epoch={} updates={} evicted={:?} added={:?} region={}n/{}m rounds={} seed={:016x} compacted={}",
            self.epoch,
            self.updates,
            self.evicted,
            self.added,
            self.region_nodes,
            self.region_edges,
            self.repair_rounds,
            self.repair_seed,
            self.compacted
        )
    }
}

/// A maintained MIS over a mutable graph. See the crate docs for the
/// repair algorithm and determinism contract.
pub struct DynamicMis {
    overlay: OverlayGraph,
    in_mis: Vec<bool>,
    /// `mis_nbrs[v]` — how many MIS members are adjacent to `v` (exact
    /// for alive nodes, 0 for dead ones).
    mis_nbrs: Vec<u32>,
    seed: u64,
    epoch: u64,
    scratch: SubgraphScratch,
    /// Reusable dirty-candidate buffer; filtered down to the dirty
    /// region at the end of each batch.
    seeds: Vec<NodeId>,
    recorder: Recorder,
    flight: FlightRecorder,
}

impl DynamicMis {
    /// Takes ownership of `g`, computes the initial MIS (epoch 0) with
    /// Métivier on the flat engine, and is ready for updates.
    pub fn new(g: Graph, seed: u64) -> Self {
        let initial_seed = rng::draw(seed, 0, 0, TAG_REPAIR);
        let solved = solve_mis(&g, initial_seed, REPAIR_ROUND_LIMIT)
            .expect("flat engine cannot fail within the repair round limit");
        let mut mis_nbrs = vec![0u32; g.n()];
        for v in (0..g.n()).filter(|&v| solved.in_mis[v]) {
            for &u in g.neighbors(v) {
                mis_nbrs[u] += 1;
            }
        }
        DynamicMis {
            overlay: OverlayGraph::new(g),
            in_mis: solved.in_mis,
            mis_nbrs,
            seed,
            epoch: 0,
            scratch: SubgraphScratch::new(),
            seeds: Vec::new(),
            recorder: arbmis_obs::global(),
            flight: arbmis_obs::global_flight(),
        }
    }

    /// Routes observability through `recorder` instead of the global one.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Routes per-batch flight rows through `flight` instead of the
    /// global ring.
    #[must_use]
    pub fn with_flight(mut self, flight: FlightRecorder) -> Self {
        self.flight = flight;
        self
    }

    /// The mutable graph being maintained.
    pub fn graph(&self) -> &OverlayGraph {
        &self.overlay
    }

    /// Current MIS membership mask (length [`OverlayGraph::n`]; dead
    /// nodes are always `false`).
    pub fn mis(&self) -> &[bool] {
        &self.in_mis
    }

    /// Whether `v` is currently in the MIS.
    pub fn is_in_mis(&self, v: NodeId) -> bool {
        self.in_mis[v]
    }

    /// Current MIS size.
    pub fn mis_size(&self) -> usize {
        self.in_mis.iter().filter(|&&b| b).count()
    }

    /// Batches applied so far (0 right after construction).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Full validity audit against the *current* (mutated) graph:
    /// members are alive and pairwise non-adjacent, every alive
    /// non-member has a member neighbor, and every alive node's stored
    /// MIS-neighbor count equals a recount. `O(n + m)` — the
    /// differential oracle, not a per-batch cost.
    pub fn is_valid_mis(&self) -> bool {
        (0..self.overlay.n()).all(|v| {
            if !self.overlay.is_alive(v) {
                return !self.in_mis[v];
            }
            let count = self.recount(v);
            count == self.mis_nbrs[v] as usize && (count == 0) == self.in_mis[v]
        })
    }

    /// Applies an update batch and repairs the MIS; returns the repair
    /// record. Updates are applied in order; the repair runs once, after
    /// all of them, against the batch's final structure.
    ///
    /// # Panics
    ///
    /// Panics on structurally invalid updates (self loops, out-of-range
    /// ids, updates touching dead nodes) — the graph API's contract.
    pub fn apply(&mut self, batch: &[Update]) -> Repair {
        self.epoch += 1;
        let mut evicted: Vec<NodeId> = Vec::new();
        self.seeds.clear();
        for up in batch {
            self.apply_one(up, &mut evicted);
        }
        // The dirty region: candidates that ended the batch alive,
        // outside the MIS, and with no MIS neighbor. Nodes beyond the
        // candidate set kept their dominator, so this IS the full
        // uncovered set.
        let (overlay, in_mis, mis_nbrs) = (&self.overlay, &self.in_mis, &self.mis_nbrs);
        self.seeds
            .retain(|&v| overlay.is_alive(v) && !in_mis[v] && mis_nbrs[v] == 0);
        self.seeds.sort_unstable();
        self.seeds.dedup();
        let region = &self.seeds;
        let region_nodes = region.len();
        let repair_seed = rng::draw(self.seed, 0, self.epoch, TAG_REPAIR);
        let (added, region_edges, repair_rounds) = if region.is_empty() {
            (Vec::new(), 0, 0)
        } else {
            let sub = self
                .scratch
                .induce_by(self.overlay.n(), region, |v| self.overlay.neighbors(v));
            let solved = solve_mis(sub.graph(), repair_seed, REPAIR_ROUND_LIMIT)
                .expect("flat engine cannot fail within the repair round limit");
            let added: Vec<NodeId> = solved
                .in_mis
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b)
                .map(|(i, _)| sub.to_parent(i))
                .collect();
            (added, sub.graph().m(), solved.rounds)
        };
        for &v in &added {
            self.join(v);
        }
        evicted.sort_unstable();
        evicted.dedup();
        // Deterministic compaction schedule: fold the overlay back into
        // the CSR once deltas exceed max(64, |E_base|) directed entries.
        let compacted =
            self.overlay.delta_entries() > COMPACT_MIN_ENTRIES.max(self.overlay.base_m());
        if compacted {
            self.overlay.compact();
        }
        let repair = Repair {
            epoch: self.epoch,
            updates: batch.len(),
            evicted,
            added,
            region_nodes,
            region_edges,
            repair_rounds,
            repair_seed,
            compacted,
        };
        self.observe(&repair);
        repair
    }

    /// Applies one update, collecting dirty candidates and evictions
    /// and keeping every MIS-neighbor count exact.
    fn apply_one(&mut self, up: &Update, evicted: &mut Vec<NodeId>) {
        match *up {
            Update::InsertEdge(u, v) => {
                if self.overlay.insert_edge(u, v) {
                    self.mis_nbrs[u] += u32::from(self.in_mis[v]);
                    self.mis_nbrs[v] += u32::from(self.in_mis[u]);
                    if self.in_mis[u] && self.in_mis[v] {
                        // Deterministic tie-break: the lower id stays.
                        let out = u.max(v);
                        self.seeds.push(out);
                        self.evict(out, evicted);
                    }
                }
            }
            Update::RemoveEdge(u, v) => {
                if self.overlay.remove_edge(u, v) {
                    debug_assert!(
                        !(self.in_mis[u] && self.in_mis[v]),
                        "independence invariant broken before removal of ({u},{v})"
                    );
                    if self.in_mis[u] {
                        self.mis_nbrs[v] -= 1;
                        self.seeds.push(v);
                    }
                    if self.in_mis[v] {
                        self.mis_nbrs[u] -= 1;
                        self.seeds.push(u);
                    }
                }
            }
            Update::InsertNode(ref nbrs) => {
                let v = self.overlay.insert_node(nbrs);
                self.in_mis.push(false);
                let count = u32::try_from(self.recount(v)).expect("MIS-neighbor count fits u32");
                self.mis_nbrs.push(count);
                self.seeds.push(v);
            }
            Update::RemoveNode(v) => {
                if self.in_mis[v] {
                    self.evict(v, evicted);
                }
                self.overlay.remove_node(v);
                self.mis_nbrs[v] = 0;
            }
        }
    }

    /// Takes `v` out of the MIS. One pass over its neighborhood drops
    /// each neighbor's count and collects it as a candidate NOW, not
    /// after the batch: a later update in the same batch may disconnect
    /// (or delete) these nodes, and they would be unreachable from `v`
    /// by then while still having lost their dominator.
    fn evict(&mut self, v: NodeId, evicted: &mut Vec<NodeId>) {
        self.in_mis[v] = false;
        evicted.push(v);
        for u in self.overlay.neighbors(v) {
            self.mis_nbrs[u] -= 1;
            self.seeds.push(u);
        }
    }

    /// MIS neighbors of `v`, counted from its adjacency.
    fn recount(&self, v: NodeId) -> usize {
        self.overlay
            .neighbors(v)
            .filter(|&u| self.in_mis[u])
            .count()
    }

    /// Adds repair joiner `v` to the MIS, raising its neighbors' counts.
    fn join(&mut self, v: NodeId) {
        self.in_mis[v] = true;
        for u in self.overlay.neighbors(v) {
            self.mis_nbrs[u] += 1;
        }
    }

    /// Records churn counters, repair-size histograms, and the
    /// `engine="dynamic"` flight row for one batch. Observation only —
    /// results never depend on whether a recorder is attached
    /// (DESIGN.md §8).
    fn observe(&self, repair: &Repair) {
        if self.recorder.enabled() {
            self.recorder.add("dynamic_batches", 1);
            self.recorder.add("dynamic_updates", repair.updates as u64);
            self.recorder
                .add("dynamic_evictions", repair.evicted.len() as u64);
            self.recorder
                .add("dynamic_joins", repair.added.len() as u64);
            if repair.compacted {
                self.recorder.add("dynamic_compactions", 1);
            }
            self.recorder
                .observe("dynamic_repair_region", repair.region_nodes as u64);
            self.recorder
                .observe("dynamic_repair_rounds", repair.repair_rounds);
        }
        if self.flight.enabled() {
            self.flight.record(RoundRecord {
                engine: "dynamic",
                round: repair.epoch,
                frontier: repair.region_nodes as u64,
                joiners: repair.added.len() as u64,
                joiner_digest: arbmis_flat::divergence::joiner_digest(&repair.added),
                coin_digest: repair.repair_seed,
                messages: repair.updates as u64,
                bits: 0,
                scan: "repair",
                span_seq: self.recorder.seq(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbmis_graph::gen;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn initial_solve_is_valid() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = gen::gnp(120, 0.05, &mut rng);
        let d = DynamicMis::new(g.clone(), 7);
        assert!(d.is_valid_mis());
        assert_eq!(
            d.mis(),
            &solve_mis(&g, rng::draw(7, 0, 0, TAG_REPAIR), 1 << 20)
                .unwrap()
                .in_mis[..]
        );
    }

    #[test]
    fn audit_catches_a_drifted_count() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = gen::gnp(80, 0.06, &mut rng);
        let mut d = DynamicMis::new(g, 5);
        d.apply(&[Update::InsertNode(vec![0, 1, 2]), Update::RemoveNode(3)]);
        assert!(d.is_valid_mis());
        let v = (0..d.graph().n())
            .find(|&v| d.graph().is_alive(v) && !d.is_in_mis(v))
            .unwrap();
        d.mis_nbrs[v] += 1;
        assert!(
            !d.is_valid_mis(),
            "a stored count above its recount must fail"
        );
        d.mis_nbrs[v] -= 1;
        assert!(d.is_valid_mis());
    }

    #[test]
    fn edge_insert_between_members_evicts_and_repairs() {
        // Path 0-1-2-3-4: Métivier MIS always contains non-adjacent
        // nodes; force a known shape with a tiny graph instead.
        let g = Graph::empty(2);
        let mut d = DynamicMis::new(g, 3);
        assert!(d.is_in_mis(0) && d.is_in_mis(1), "isolated nodes all join");
        let r = d.apply(&[Update::InsertEdge(0, 1)]);
        assert_eq!(r.evicted, vec![1], "higher id evicted");
        assert!(d.is_valid_mis());
        assert!(d.is_in_mis(0) && !d.is_in_mis(1));
    }

    #[test]
    fn removing_a_member_repairs_coverage() {
        let g = gen::star(5); // center 0
        let mut d = DynamicMis::new(g, 2);
        assert!(d.is_valid_mis());
        let center_in = d.is_in_mis(0);
        let victim = if center_in { 0 } else { 1 };
        let r = d.apply(&[Update::RemoveNode(victim)]);
        assert!(d.is_valid_mis());
        assert!(r.evicted.contains(&victim) || !center_in || victim != 0);
        assert!(!d.is_in_mis(victim));
        assert!(!d.graph().is_alive(victim));
    }

    #[test]
    fn node_insert_joins_or_is_covered() {
        let g = gen::path(6);
        let mut d = DynamicMis::new(g, 9);
        let r = d.apply(&[Update::InsertNode(vec![0, 3])]);
        assert!(d.is_valid_mis());
        assert_eq!(d.graph().n(), 7);
        assert!(r.region_nodes <= 1, "at most the new node is dirty");
    }

    #[test]
    fn batches_are_deterministic_and_replayable() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = gen::gnp(60, 0.08, &mut rng);
        let script: Vec<Vec<Update>> = (0..20)
            .map(|_| {
                (0..8)
                    .map(|_| {
                        let u = rng.gen_range(0..60usize);
                        let v = rng.gen_range(0..60usize);
                        if u == v {
                            Update::InsertNode(vec![u])
                        } else if rng.gen_bool(0.5) {
                            Update::InsertEdge(u, v)
                        } else {
                            Update::RemoveEdge(u, v)
                        }
                    })
                    .collect()
            })
            .collect();
        // Two independent replicas; node inserts above only wire to ids
        // < 60, so every update is valid on both.
        let mut a = DynamicMis::new(g.clone(), 11);
        let mut b = DynamicMis::new(g, 11);
        for batch in &script {
            let ra = a.apply(batch);
            let rb = b.apply(batch);
            assert_eq!(ra.transcript(), rb.transcript());
            assert_eq!(ra, rb);
            assert!(a.is_valid_mis());
        }
        assert_eq!(a.mis(), b.mis());
    }

    #[test]
    fn compaction_preserves_the_mis_and_future_repairs() {
        // Densify a sparse path one edge per batch: the delta layer must
        // eventually cross max(64, base_m) and fold into the CSR, and
        // validity must hold across (and after) every compaction.
        let g = gen::path(14);
        let mut d = DynamicMis::new(g, 4);
        let mut compactions = 0;
        for u in 0..14usize {
            for v in (u + 2)..14 {
                let r = d.apply(&[Update::InsertEdge(u, v)]);
                compactions += u64::from(r.compacted);
                assert!(d.is_valid_mis(), "after inserting ({u},{v})");
                assert_eq!(
                    r.compacted,
                    d.graph().delta_entries() == 0 && r.compacted,
                    "compaction clears the delta layer"
                );
            }
        }
        assert!(compactions > 0, "churn volume must trigger compaction");
        // The now-dense graph still repairs correctly.
        let r = d.apply(&[Update::RemoveNode(0)]);
        assert!(d.is_valid_mis());
        assert!(r.epoch > 0);
    }

    #[test]
    fn repair_is_local_for_local_damage() {
        // A long path: deleting one member's edge should dirty O(1)
        // nodes, never the whole graph.
        let g = gen::path(2000);
        let mut d = DynamicMis::new(g, 6);
        let member = (0..2000).find(|&v| d.is_in_mis(v) && v > 10).unwrap();
        let r = d.apply(&[Update::RemoveNode(member)]);
        assert!(d.is_valid_mis());
        assert!(
            r.region_nodes <= 4,
            "path repair must be O(1), got {}",
            r.region_nodes
        );
    }

    #[test]
    fn flight_row_emitted_per_batch() {
        let flight = FlightRecorder::bounded(16);
        let g = gen::cycle(9);
        let mut d = DynamicMis::new(g, 1).with_flight(flight.clone());
        d.apply(&[Update::RemoveNode(0)]);
        d.apply(&[Update::InsertNode(vec![1, 3])]);
        let rows = flight.to_jsonl();
        assert_eq!(rows.matches("\"engine\":\"dynamic\"").count(), 2, "{rows}");
        assert!(rows.contains("\"scan\":\"repair\""), "{rows}");
    }
}
