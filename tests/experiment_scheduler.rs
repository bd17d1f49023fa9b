//! Integration test for the experiment cell scheduler (DESIGN.md §9):
//! report bytes must be invariant to the worker count.

use arbmis_bench::cell::ExperimentPlan;
use arbmis_bench::exps;
use arbmis_bench::sched::{run_scheduled, SchedOutcome};
use arbmis_congest::Parallelism;

fn suite() -> Vec<ExperimentPlan> {
    exps::all().into_iter().map(|(_, _, f)| f(true)).collect()
}

fn report_bytes(outcome: &SchedOutcome) -> Vec<String> {
    outcome
        .reports
        .iter()
        .map(|r| serde_json::to_string(r).expect("reports serialize"))
        .collect()
}

#[test]
fn quick_suite_reports_byte_identical_across_thread_counts() {
    let baseline = report_bytes(&run_scheduled(suite(), Parallelism::Threads(1)));
    assert_eq!(baseline.len(), 16);
    for threads in [2usize, 4, 8] {
        let outcome = run_scheduled(suite(), Parallelism::Threads(threads));
        assert_eq!(
            report_bytes(&outcome),
            baseline,
            "threads={threads} changed report bytes"
        );
    }
}
