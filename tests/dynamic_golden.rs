//! Byte-identity pins for the incremental MIS layer's write path.
//!
//! `tests/dynamic_equivalence.rs` checks validity and replica agreement,
//! but both replicas run the same code, so a rewrite of the repair
//! bookkeeping that changes *which* MIS it maintains would pass it. This
//! test pins what the repairs do: it plays the standard churn suite
//! (`arbmis churn --n 20000 --seed 9`, the EXPERIMENTS.md churn table)
//! and one eviction-heavy `hub_churn` script through `DynamicMis`, and
//! takes one FNV-128 digest per script over every batch's
//! `Repair::transcript()` line and the final MIS mask.
//!
//! The hub script flaps a 256-spoke fan on the lowest-id member of the
//! initial MIS, relabelled into node 0's place as the `churn_mix_1m`
//! benchmark does, so every attach evicts spokes and every detach
//! uncovers them.
//!
//! On a mismatch the test prints the full table it computed.

use arbmis::dynamic::{DynamicMis, Update};
use arbmis::graph::digest::Fnv128;
use arbmis::graph::NodeId;
use arbmis_bench::churn::{hub_churn, standard_suite, ChurnScript};

const N: usize = 20_000;
const SEED: u64 = 9;

/// One table row: script name, batch count, final MIS size and the
/// digest of every transcript line followed by the final mask.
fn row(script: &ChurnScript, mut d: DynamicMis) -> String {
    let mut h = Fnv128::new();
    for batch in &script.batches {
        h.write_str(&d.apply(batch).transcript());
    }
    for &b in d.mis() {
        h.write(&[u8::from(b)]);
    }
    format!(
        "{} batches={} mis={} digest={}",
        script.name,
        script.batches.len(),
        d.mis_size(),
        h.hex()
    )
}

/// `hub_churn` with its hub (node 0) swapped with the lowest-id member
/// of the initial MIS, so the hub is a member when each fan attaches;
/// returned with that initial state.
fn relabelled_hub() -> (ChurnScript, DynamicMis) {
    let mut script = hub_churn(N, 8, 256, SEED);
    let initial = DynamicMis::new(script.base.clone(), SEED);
    let h = initial.mis().iter().position(|&b| b).unwrap_or(0);
    let swap = |v: NodeId| match v {
        0 => h,
        v if v == h => 0,
        v => v,
    };
    for batch in &mut script.batches {
        for up in batch.iter_mut() {
            *up = match *up {
                Update::InsertEdge(a, b) => Update::InsertEdge(swap(a), swap(b)),
                Update::RemoveEdge(a, b) => Update::RemoveEdge(swap(a), swap(b)),
                ref other => other.clone(),
            };
        }
    }
    script.name = "hub_churn(relabelled,256)".into();
    (script, initial)
}

fn table() -> Vec<String> {
    let mut rows: Vec<String> = standard_suite(N, SEED)
        .iter()
        .map(|s| row(s, DynamicMis::new(s.base.clone(), SEED)))
        .collect();
    let (hub, initial) = relabelled_hub();
    rows.push(row(&hub, initial));
    rows
}

const EXPECTED: &[&str] = &[
    "localized_churn batches=48 mis=8058 digest=0f3f32840d3d442b3633f9694c812af8",
    "uniform_mix batches=48 mis=8036 digest=5924ac7c59180bf5aecbf5dd85c2da4f",
    "flash_crowd batches=48 mis=8134 digest=820d0624702f93286758736fbdab168e",
    "hub_churn batches=24 mis=8104 digest=f9a6e4252db149977cf755e32451bbab",
    "hub_churn(relabelled,256) batches=16 mis=8158 digest=1e7e7d3e85fa0b6f88440aaba72c7a41",
];

#[test]
fn dynamic_repairs_are_pinned() {
    let rows = table();
    if rows != EXPECTED {
        for r in &rows {
            println!("    \"{r}\",");
        }
        panic!(
            "dynamic repair digests differ from the pinned table (computed table printed above)"
        );
    }
}
