//! The work-stealing cell scheduler.
//!
//! [`run_scheduled`] fans the cells of *all* requested experiments into
//! one shared worker pool ([`arbmis_congest::execute_indexed`] — the
//! same atomic-claim executor the flat engine's sweeps and the
//! Monte-Carlo pool use), then reduces each experiment's outputs in
//! deterministic cell order. The determinism contract (DESIGN.md §9):
//!
//! 1. cells are pure, so *what* a cell computes never depends on which
//!    worker ran it or when;
//! 2. outputs are assembled by cell index and reduced in plan order, so
//!    scheduling cannot leak into report bytes;
//! 3. while the scheduler owns the pool, the process-wide default is
//!    forced to [`Parallelism::Serial`]. Its only reader is the read-k
//!    Monte-Carlo driver, whose estimates are thread-count-invariant
//!    (DESIGN.md §7), so this changes wall-clock only, and it keeps
//!    `--threads N` meaning "N cells in flight", never N² threads.
//!
//! Hence `--threads 1` and `--threads N` produce byte-identical reports.

use crate::cell::{Cell, CellOut, ExperimentPlan, ReduceFn};
use crate::ExperimentReport;
use arbmis_congest::{default_parallelism, execute_indexed, set_default_parallelism, Parallelism};
use arbmis_obs::Recorder;
use std::time::{Duration, Instant};

/// What one scheduled run did. Everything here is **timing-class**
/// information (wall-clock, pool size): print it to stderr, never into
/// report output.
#[derive(Clone, Copy, Debug)]
pub struct SchedStats {
    /// Total cells scheduled.
    pub cells: usize,
    /// Worker threads used.
    pub workers: usize,
    /// End-to-end wall time of the scheduled run.
    pub wall: Duration,
}

/// The reports (in request order) plus run statistics.
#[derive(Debug)]
pub struct SchedOutcome {
    /// One report per requested experiment, in request order.
    pub reports: Vec<ExperimentReport>,
    /// Timing-class run statistics.
    pub stats: SchedStats,
}

/// Total cell count across a set of plans (what `--threads N` fans out).
pub fn cell_count(plans: &[ExperimentPlan]) -> usize {
    plans.iter().map(|p| p.cells.len()).sum()
}

/// Runs every cell of every plan on one shared work-stealing pool and
/// reduces to reports. See the module docs for the determinism contract.
pub fn run_scheduled(plans: Vec<ExperimentPlan>, parallelism: Parallelism) -> SchedOutcome {
    let start = Instant::now();
    // Split reduces (FnOnce, not Sync) from cells (Sync) so the cell
    // groups can be shared across the pool.
    let mut reduces: Vec<(usize, ReduceFn)> = Vec::with_capacity(plans.len());
    let mut groups: Vec<Vec<Cell>> = Vec::with_capacity(plans.len());
    for plan in plans {
        reduces.push((plan.cells.len(), plan.reduce));
        groups.push(plan.cells);
    }
    let index: Vec<&Cell> = groups.iter().flatten().collect();
    let cells = index.len();

    let workers = parallelism.effective_threads(cells);
    let rec = arbmis_obs::global();
    rec.add("sched_cells", cells as u64);

    // Monte-Carlo goes serial while the scheduler owns the pool
    // (restored below); see module docs, rule 3.
    let saved = default_parallelism();
    set_default_parallelism(Parallelism::Serial);
    let outs: Vec<CellOut> = execute_indexed(cells, parallelism, |_w, i| run_one(index[i], &rec));
    set_default_parallelism(saved);

    let mut outs = outs.into_iter();
    let mut reports = Vec::with_capacity(reduces.len());
    for (n, reduce) in reduces {
        let plan_outs: Vec<CellOut> = outs.by_ref().take(n).collect();
        reports.push(reduce(plan_outs));
    }

    let stats = SchedStats {
        cells,
        workers,
        wall: start.elapsed(),
    };
    SchedOutcome { reports, stats }
}

/// Runs one cell, recording its wall time in the `cell_run_ns`
/// histogram (a quarantined timing-class name per DESIGN.md §8).
fn run_one(cell: &Cell, rec: &Recorder) -> CellOut {
    let t = rec.timing().then(Instant::now);
    let out = (cell.run)();
    if let Some(t) = t {
        rec.observe_timing("cell_run_ns", t.elapsed().as_nanos() as u64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Table;

    fn toy_plan(id: &'static str, cells: usize, base: usize) -> ExperimentPlan {
        let cells = (0..cells)
            .map(|i| {
                Cell::new(format!("{id}/c{i}"), move || {
                    CellOut::from_rows(vec![vec![format!("{}", base + i)]])
                })
            })
            .collect();
        ExperimentPlan::new(id, cells, move |outs| {
            let mut table = Table::new(["v"]);
            for o in outs {
                for r in o.rows {
                    table.push_row(r);
                }
            }
            ExperimentReport {
                id: id.into(),
                title: "toy".into(),
                table,
                notes: vec![],
            }
        })
    }

    fn column(r: &ExperimentReport) -> Vec<String> {
        r.table.rows.iter().map(|row| row[0].clone()).collect()
    }

    #[test]
    fn scheduled_reports_identical_at_every_thread_count() {
        let render = |threads| {
            let plans = vec![toy_plan("A", 7, 0), toy_plan("B", 3, 100)];
            let outcome = run_scheduled(plans, Parallelism::Threads(threads));
            assert_eq!(outcome.stats.cells, 10);
            outcome
                .reports
                .iter()
                .map(|r| serde_json::to_string(r).unwrap())
                .collect::<Vec<_>>()
        };
        let baseline = render(1);
        assert!(
            baseline[0].contains("\"id\":\"A\""),
            "request order preserved"
        );
        for threads in [2, 4, 8] {
            assert_eq!(render(threads), baseline, "threads={threads}");
        }
    }

    #[test]
    fn reduction_order_is_cell_order_not_completion_order() {
        let outcome = run_scheduled(vec![toy_plan("A", 16, 0)], Parallelism::Threads(8));
        let want: Vec<String> = (0..16).map(|i| i.to_string()).collect();
        assert_eq!(column(&outcome.reports[0]), want);
    }

    #[test]
    fn empty_plan_set_is_fine() {
        let outcome = run_scheduled(vec![], Parallelism::Auto);
        assert!(outcome.reports.is_empty());
        assert_eq!(outcome.stats.cells, 0);
    }
}
