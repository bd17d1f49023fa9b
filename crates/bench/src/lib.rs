#![warn(missing_docs)]
//! Experiment harness support: table formatting, experiment registry
//! plumbing, and shared workload helpers.
//!
//! The binary `experiments` (in `src/bin`) regenerates every quantitative
//! claim of the paper (the E1–E16 index in DESIGN.md / EXPERIMENTS.md).
//! This library keeps the presentation layer testable.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

pub mod cell;
pub mod churn;
pub mod exps;
pub mod sched;

/// A rendered experiment: identifier, headline, table, commentary.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Experiment id, e.g. `"E3"`.
    pub id: String,
    /// One-line title naming the claim being reproduced.
    pub title: String,
    /// The regenerated table.
    pub table: Table,
    /// Free-form notes: what to look for, what held, caveats.
    pub notes: Vec<String>,
}

impl ExperimentReport {
    /// Renders the report as GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}\n", self.id, self.title);
        out.push_str(&self.table.to_markdown());
        for note in &self.notes {
            let _ = writeln!(out, "\n> {note}");
        }
        out.push('\n');
        out
    }

    /// Renders the report as aligned plain text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==\n", self.id, self.title);
        out.push_str(&self.table.to_text());
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out.push('\n');
        out
    }
}

/// A simple string table with aligned plain-text and markdown renderers.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Row-major cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table from headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, row: I) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != header width {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Column widths for aligned output.
    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.chars().count());
            }
        }
        w
    }

    /// Renders as aligned plain text.
    pub fn to_text(&self) -> String {
        let w = self.widths();
        let mut out = String::new();
        let fmt_row = |cells: &[String], w: &[usize]| -> String {
            cells
                .iter()
                .zip(w)
                .map(|(c, &w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &w));
        let total: usize = w.iter().sum::<usize>() + 2 * (w.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &w));
        }
        out
    }

    /// Renders as a markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }
}

/// Formats a probability with enough precision for small tails.
pub fn fmt_p(p: f64) -> String {
    if p == 0.0 {
        "0".into()
    } else if p >= 0.001 {
        format!("{p:.4}")
    } else {
        format!("{p:.2e}")
    }
}

/// Formats a float to 2 decimals.
pub fn fmt_f(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_text_alignment() {
        let mut t = Table::new(["a", "long-header"]);
        t.push_row(["1", "2"]);
        t.push_row(["333", "4"]);
        let txt = t.to_text();
        assert!(txt.contains("long-header"));
        assert_eq!(txt.lines().count(), 4);
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = Table::new(["a", "b"]);
        t.push_row(["only-one"]);
    }

    #[test]
    fn markdown_render() {
        let mut t = Table::new(["x"]);
        t.push_row(["1"]);
        let md = t.to_markdown();
        assert!(md.starts_with("| x |"));
        assert!(md.contains("|---|"));
    }

    #[test]
    fn report_markdown() {
        let r = ExperimentReport {
            id: "E0".into(),
            title: "smoke".into(),
            table: Table::new(["c"]),
            notes: vec!["note".into()],
        };
        let md = r.to_markdown();
        assert!(md.contains("## E0"));
        assert!(md.contains("> note"));
        assert!(r.to_text().contains("E0"));
    }

    #[test]
    fn probability_formatting() {
        assert_eq!(fmt_p(0.0), "0");
        assert_eq!(fmt_p(0.25), "0.2500");
        assert!(fmt_p(1e-7).contains('e'));
    }
}
