//! The cell decomposition of an experiment.
//!
//! A **cell** is the scheduler's unit of work: one (config, seed-range)
//! slice of an experiment, run by a pure function of its inputs. An
//! experiment is an [`ExperimentPlan`] — an ordered list of cells plus a
//! `reduce` closure that folds the per-cell outputs (in *cell index
//! order*, never completion order) into the final
//! [`ExperimentReport`](crate::ExperimentReport). Because every cell is
//! pure and reduction order is fixed, scheduling cells across any number
//! of workers cannot change a single output byte (DESIGN.md §9).
//!
//! Cell boundaries follow one rule: **a floating-point accumulation is
//! never split across cells.** Integer tallies (success counts, failure
//! counts) are order-invariant and may be chunked by seed range; `f64`
//! sums and means are not, so experiments that pool real-valued
//! statistics keep the whole seed loop inside one cell.

use crate::ExperimentReport;

/// The output of one cell: table-row fragments plus named scalars for
/// the reduce step.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellOut {
    /// Row-major table cells this cell contributes, already formatted.
    pub rows: Vec<Vec<String>>,
    /// Named scalar results, kept sorted by name.
    pub scalars: Vec<(String, f64)>,
}

impl CellOut {
    /// An output consisting of the given rows.
    pub fn from_rows(rows: Vec<Vec<String>>) -> Self {
        CellOut {
            rows,
            scalars: Vec::new(),
        }
    }

    /// Stores a named scalar, replacing any previous value under the
    /// same name.
    pub fn put(&mut self, key: &str, value: f64) {
        match self.scalars.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(i) => self.scalars[i].1 = value,
            Err(i) => self.scalars.insert(i, (key.to_string(), value)),
        }
    }

    /// Reads a named scalar back.
    ///
    /// # Panics
    ///
    /// Panics if the key was never stored — a cell/reduce contract bug.
    pub fn get(&self, key: &str) -> f64 {
        match self.scalars.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(i) => self.scalars[i].1,
            Err(_) => panic!("cell output missing scalar {key:?}"),
        }
    }

    /// Reads a named scalar back, `None` if never stored.
    pub fn try_get(&self, key: &str) -> Option<f64> {
        self.scalars
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.scalars[i].1)
    }
}

/// One schedulable unit of work.
pub struct Cell {
    /// Human-readable label for progress/tracing, e.g. `E9/ba(m=2)`.
    pub label: String,
    /// The pure work function.
    pub run: Box<dyn Fn() -> CellOut + Send + Sync>,
}

impl Cell {
    /// Creates a cell.
    pub fn new<F>(label: impl Into<String>, run: F) -> Self
    where
        F: Fn() -> CellOut + Send + Sync + 'static,
    {
        Cell {
            label: label.into(),
            run: Box::new(run),
        }
    }
}

impl std::fmt::Debug for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cell")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// A plan's reduction: folds per-cell outputs (index order) into the
/// final report.
pub type ReduceFn = Box<dyn FnOnce(Vec<CellOut>) -> ExperimentReport + Send>;

/// An experiment decomposed into cells plus its reduction.
pub struct ExperimentPlan {
    /// Experiment id, e.g. `"E9"`.
    pub id: &'static str,
    /// The cells, in reduction order.
    pub cells: Vec<Cell>,
    /// Folds per-cell outputs (index order) into the final report.
    pub reduce: ReduceFn,
}

impl ExperimentPlan {
    /// Creates a plan.
    pub fn new<R>(id: &'static str, cells: Vec<Cell>, reduce: R) -> Self
    where
        R: FnOnce(Vec<CellOut>) -> ExperimentReport + Send + 'static,
    {
        ExperimentPlan {
            id,
            cells,
            reduce: Box::new(reduce),
        }
    }

    /// Runs every cell inline, without the worker pool, and reduces: the
    /// reference path the experiment modules' unit tests use.
    pub fn run_serial(self) -> ExperimentReport {
        let outs = self.cells.iter().map(|c| (c.run)()).collect();
        (self.reduce)(outs)
    }
}

impl std::fmt::Debug for ExperimentPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentPlan")
            .field("id", &self.id)
            .field("cells", &self.cells.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Table;

    #[test]
    #[should_panic(expected = "missing scalar")]
    fn missing_scalar_panics() {
        CellOut::default().get("absent");
    }

    #[test]
    fn plan_run_serial_reduces_in_cell_order() {
        let cells = (0..4)
            .map(|i| {
                Cell::new(format!("c{i}"), move || {
                    CellOut::from_rows(vec![vec![i.to_string()]])
                })
            })
            .collect();
        let plan = ExperimentPlan::new("E0", cells, |outs| {
            let mut table = Table::new(["i"]);
            for o in outs {
                for r in o.rows {
                    table.push_row(r);
                }
            }
            ExperimentReport {
                id: "E0".into(),
                title: "order".into(),
                table,
                notes: vec![],
            }
        });
        let report = plan.run_serial();
        let col: Vec<&str> = report.table.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(col, ["0", "1", "2", "3"]);
    }
}
