//! Churn workloads for the incremental MIS layer, plus the
//! repair-vs-recompute harness behind the `arbmis churn` subcommand.
//! The benchmark package replays `localized_churn`, `flash_crowd` and
//! `hub_churn` in its `churn_mix_1m` workload.
//!
//! A workload is a deterministic **edit script**: a base graph and a
//! sequence of update batches, generated from a seed. Four shapes cover
//! the regimes that matter for a maintenance layer:
//!
//! | script            | shape                                            |
//! |-------------------|--------------------------------------------------|
//! | `localized_churn` | each batch edits one small id window — the case locality-bounded repair is built for |
//! | `uniform_mix`     | inserts/removes scattered uniformly — damage everywhere, but each batch still small |
//! | `flash_crowd`     | waves of node arrivals wired to random hosts, with stragglers departing |
//! | `hub_churn`       | adversarial: one hub's entire edge set flaps on and off — maximal single-node damage |
//!
//! [`run_script`] plays a script through [`DynamicMis`] (timing only the
//! `apply` calls) and, for every batch, also times the static
//! alternative: materialize the current graph and re-solve it from
//! scratch on the flat engine. The ratio of the two per-batch medians
//! is the locality win; a median, unlike a total, is not decided by a
//! first batch's one-time array growth. Timings are wall-clock and
//! 1-core; the *structural* columns (region sizes, rounds, update
//! counts) are deterministic and comparable across machines.

use arbmis_dynamic::{DynamicMis, Update};
use arbmis_flat::solve_mis;
use arbmis_graph::{gen, Graph, NodeId};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Instant;

/// A deterministic churn workload: base graph plus update batches.
pub struct ChurnScript {
    /// Workload name (stable; used in JSON artifacts and CI checks).
    pub name: String,
    /// The graph before any updates.
    pub base: Graph,
    /// Update batches, applied in order.
    pub batches: Vec<Vec<Update>>,
}

impl ChurnScript {
    /// Total updates across all batches.
    pub fn updates(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }
}

/// Base graph shared by the edge-churn scripts: G(n, d̄=4).
fn base_graph(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    gen::gnp_with_expected_degree(n, 4.0, &mut rng)
}

/// Each batch picks one random center and edits edges only inside a
/// 16-id window around it — churn a repair layer should answer in time
/// proportional to the window, not the graph.
pub fn localized_churn(n: usize, batches: usize, batch_size: usize, seed: u64) -> ChurnScript {
    ChurnScript {
        name: "localized_churn".into(),
        base: base_graph(n, seed),
        batches: localized_batches(n, batches, batch_size, seed),
    }
}

/// [`localized_churn`]'s update batches.
fn localized_batches(n: usize, batches: usize, batch_size: usize, seed: u64) -> Vec<Vec<Update>> {
    assert!(n >= 32, "window churn needs at least 32 nodes");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6c6f_6361);
    (0..batches)
        .map(|_| {
            let center = rng.gen_range(0..n as u64) as usize;
            (0..batch_size)
                .map(|_| {
                    let u = (center + rng.gen_range(0..16u64) as usize) % n;
                    let mut v = (center + rng.gen_range(0..16u64) as usize) % n;
                    if u == v {
                        v = (v + 1) % n;
                    }
                    if rng.gen_bool(0.5) {
                        Update::InsertEdge(u, v)
                    } else {
                        Update::RemoveEdge(u, v)
                    }
                })
                .collect()
        })
        .collect()
}

/// Inserts and removals with uniformly random endpoints — no locality
/// for the repair layer to exploit beyond batch size itself.
pub fn uniform_mix(n: usize, batches: usize, batch_size: usize, seed: u64) -> ChurnScript {
    ChurnScript {
        name: "uniform_mix".into(),
        base: base_graph(n, seed),
        batches: uniform_batches(n, batches, batch_size, seed),
    }
}

/// [`uniform_mix`]'s update batches.
fn uniform_batches(n: usize, batches: usize, batch_size: usize, seed: u64) -> Vec<Vec<Update>> {
    assert!(n >= 2);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x756e_6966);
    (0..batches)
        .map(|_| {
            (0..batch_size)
                .map(|_| {
                    let u = rng.gen_range(0..n as u64) as usize;
                    let mut v = rng.gen_range(0..n as u64) as usize;
                    if u == v {
                        v = (v + 1) % n;
                    }
                    if rng.gen_bool(0.5) {
                        Update::InsertEdge(u, v)
                    } else {
                        Update::RemoveEdge(u, v)
                    }
                })
                .collect()
        })
        .collect()
}

/// Waves of node arrivals (each wired to a few random hosts alive at
/// script-generation time) with occasional departures of earlier
/// arrivals — the membership-churn regime of a service.
pub fn flash_crowd(n: usize, batches: usize, arrivals_per_batch: usize, seed: u64) -> ChurnScript {
    ChurnScript {
        name: "flash_crowd".into(),
        base: base_graph(n, seed),
        batches: flash_crowd_batches(n, batches, arrivals_per_batch, seed),
    }
}

/// [`flash_crowd`]'s update batches.
fn flash_crowd_batches(
    n: usize,
    batches: usize,
    arrivals_per_batch: usize,
    seed: u64,
) -> Vec<Vec<Update>> {
    assert!(n >= 2);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x666c_6173);
    let mut next_id = n;
    let mut arrivals: Vec<NodeId> = Vec::new();
    (0..batches)
        .map(|_| {
            let mut batch = Vec::new();
            for _ in 0..arrivals_per_batch {
                let hosts: Vec<NodeId> = (0..rng.gen_range(1..4u64))
                    .map(|_| rng.gen_range(0..n as u64) as usize)
                    .collect();
                batch.push(Update::InsertNode(hosts));
                arrivals.push(next_id);
                next_id += 1;
            }
            // A straggler from an earlier wave departs now and then.
            if arrivals.len() > 4 && rng.gen_bool(0.5) {
                let leaver = arrivals.remove(rng.gen_range(0..arrivals.len() as u64) as usize);
                batch.push(Update::RemoveNode(leaver));
            }
            batch
        })
        .collect()
}

/// Adversarial hub flapping: batches alternately attach the hub (node 0)
/// to a large random fan and tear the same fan down. Every flap slams
/// the hub's whole neighborhood — the worst single-node damage an update
/// can cause, and the stress case for dirty-region sizing.
pub fn hub_churn(n: usize, flaps: usize, fan: usize, seed: u64) -> ChurnScript {
    ChurnScript {
        name: "hub_churn".into(),
        base: base_graph(n, seed),
        batches: hub_batches(n, flaps, fan, seed),
    }
}

/// [`hub_churn`]'s update batches.
fn hub_batches(n: usize, flaps: usize, fan: usize, seed: u64) -> Vec<Vec<Update>> {
    assert!(n > fan + 1, "fan must leave spokes to pick from");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6875_6273);
    let mut script = Vec::new();
    for _ in 0..flaps {
        let spokes: Vec<NodeId> = (0..fan)
            .map(|_| 1 + rng.gen_range(0..(n - 1) as u64) as usize)
            .collect();
        script.push(spokes.iter().map(|&s| Update::InsertEdge(0, s)).collect());
        script.push(spokes.iter().map(|&s| Update::RemoveEdge(0, s)).collect());
    }
    script
}

/// What one script measured. Structural columns are deterministic;
/// `*_ns` columns are wall-clock (1-core, machine-dependent).
#[derive(Clone, Debug)]
pub struct ChurnReport {
    /// Workload name.
    pub name: String,
    /// Batches applied.
    pub batches: usize,
    /// Total updates.
    pub updates: usize,
    /// Mean dirty-region size per batch.
    pub mean_region: f64,
    /// Largest dirty region any batch produced.
    pub max_region: usize,
    /// Total flat-engine rounds across all repairs.
    pub repair_rounds: u64,
    /// Median ns of one batch's `DynamicMis::apply`.
    pub repair_p50_ns: u64,
    /// Median ns to rebuild + fully re-solve after one batch.
    pub full_p50_ns: u64,
    /// `full_p50_ns / repair_p50_ns`.
    pub speedup: f64,
    /// Whether every per-batch validity audit passed (always audited on
    /// the final state; per-batch when `verify_each`).
    pub valid: bool,
}

/// Plays `script` through [`DynamicMis`], timing repair against a
/// from-scratch re-solve of the full current graph after every batch.
/// With `verify_each`, additionally audits `is_valid_mis` after every
/// batch (the audit is untimed either way).
pub fn run_script(script: &ChurnScript, seed: u64, verify_each: bool) -> ChurnReport {
    let mut d = DynamicMis::new(script.base.clone(), seed);
    let mut repair_ns = Vec::with_capacity(script.batches.len());
    let mut full_ns = Vec::with_capacity(script.batches.len());
    let mut region_total = 0usize;
    let mut max_region = 0usize;
    let mut repair_rounds = 0u64;
    let mut valid = true;
    for batch in &script.batches {
        let t0 = Instant::now();
        let r = d.apply(batch);
        repair_ns.push(t0.elapsed().as_nanos() as u64);
        region_total += r.region_nodes;
        max_region = max_region.max(r.region_nodes);
        repair_rounds += r.repair_rounds;
        if verify_each {
            valid &= d.is_valid_mis();
        }
        // The static alternative: materialize the mutated graph and
        // solve it from scratch (what a non-incremental pipeline would
        // have to do to answer the same query).
        let t1 = Instant::now();
        let g = d.graph().to_graph();
        let full = solve_mis(&g, seed, u64::MAX).expect("full re-solve cannot hit the round limit");
        full_ns.push(t1.elapsed().as_nanos() as u64);
        std::hint::black_box(&full.in_mis);
    }
    valid &= d.is_valid_mis();
    let (repair_p50_ns, full_p50_ns) = (median(&mut repair_ns), median(&mut full_ns));
    ChurnReport {
        name: script.name.clone(),
        batches: script.batches.len(),
        updates: script.updates(),
        mean_region: region_total as f64 / script.batches.len().max(1) as f64,
        max_region,
        repair_rounds,
        repair_p50_ns,
        full_p50_ns,
        speedup: full_p50_ns as f64 / repair_p50_ns.max(1) as f64,
        valid,
    }
}

/// The middle value (the upper one of an even count; 0 when empty).
fn median(xs: &mut [u64]) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let mid = xs.len() / 2;
    *xs.select_nth_unstable(mid).1
}

/// The standard workload suite at scale `n` (`arbmis churn --n`): the
/// four scripts at the sizes below, sharing one generated base graph.
pub fn standard_suite(n: usize, seed: u64) -> Vec<ChurnScript> {
    let base = base_graph(n, seed);
    let script = |name: &str, batches| ChurnScript {
        name: name.into(),
        base: base.clone(),
        batches,
    };
    vec![
        script("localized_churn", localized_batches(n, 48, 16, seed)),
        script("uniform_mix", uniform_batches(n, 48, 16, seed)),
        script("flash_crowd", flash_crowd_batches(n, 48, 4, seed)),
        script("hub_churn", hub_batches(n, 12, 64.min(n / 4), seed)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_apply_cleanly_and_stay_valid() {
        for script in standard_suite(256, 5) {
            let report = run_script(&script, 9, true);
            assert!(report.valid, "{} must stay valid", report.name);
            assert_eq!(report.batches, script.batches.len());
            assert!(report.updates > 0);
        }
    }

    #[test]
    fn median_is_the_middle_batch() {
        assert_eq!(median(&mut []), 0);
        assert_eq!(median(&mut [7]), 7);
        // One slow first batch does not move it.
        assert_eq!(median(&mut [900, 5, 6, 4, 5]), 5);
        assert_eq!(median(&mut [3, 1, 4, 2]), 3);
    }

    #[test]
    fn scripts_are_deterministic() {
        let a = localized_churn(128, 8, 8, 3);
        let b = localized_churn(128, 8, 8, 3);
        assert_eq!(a.batches, b.batches);
        let ra = run_script(&a, 1, false);
        let rb = run_script(&b, 1, false);
        assert_eq!(ra.mean_region.to_bits(), rb.mean_region.to_bits());
        assert_eq!(ra.repair_rounds, rb.repair_rounds);
    }

    #[test]
    fn localized_regions_stay_small() {
        let script = localized_churn(4096, 16, 8, 7);
        let report = run_script(&script, 2, true);
        // Damage is confined to 16-id windows; the dirty region must be
        // window-sized, never graph-sized.
        assert!(
            report.max_region < 128,
            "localized churn leaked: max region {}",
            report.max_region
        );
    }

    #[test]
    fn hub_churn_is_the_named_stress_workload() {
        let script = hub_churn(200, 3, 32, 11);
        assert_eq!(script.name, "hub_churn");
        assert_eq!(script.batches.len(), 6, "one attach + one detach per flap");
        let report = run_script(&script, 4, true);
        assert!(report.valid);
        // Detaching the whole fan uncovers many spokes at once.
        assert!(report.max_region >= 4, "hub damage should not be tiny");
    }

    #[test]
    fn standard_suite_matches_the_public_constructors() {
        let (n, seed) = (300, 4);
        let each = [
            localized_churn(n, 48, 16, seed),
            uniform_mix(n, 48, 16, seed),
            flash_crowd(n, 48, 4, seed),
            hub_churn(n, 12, 64.min(n / 4), seed),
        ];
        let suite = standard_suite(n, seed);
        assert_eq!(suite.len(), each.len());
        for (s, e) in suite.iter().zip(&each) {
            assert_eq!(s.name, e.name);
            assert!(s.base == e.base, "{} base differs", s.name);
            assert_eq!(s.batches, e.batches, "{} batches differ", s.name);
        }
    }
}
