//! `benchmark compare BASE.json NEW.json`: every workload × metric of two
//! `run` results side by side, judged against the bounds in
//! `BENCHMARK.json`. Run on two results of the same commit it is the A/A
//! check; on a parent and a change it is the regression gate.

use crate::json::{self, Value};
use crate::spec::Spec;
use crate::stats::spread;

/// How a metric moved between two results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Moved by no more than the bound.
    Within,
    /// Worsened by more than the bound: a regression.
    Worse,
    /// A side's own quartile spread exceeds the bound, so the move is
    /// not resolvable from these two results.
    Unresolved,
}

/// One side of a comparison: a metric's median and quartiles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Side {
    /// Median.
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Side {
    fn read(metric: &Value) -> Result<Side, String> {
        Ok(Side {
            value: json::num_field(metric, "value")?,
            q1: json::num_field(metric, "q1")?,
            q3: json::num_field(metric, "q3")?,
        })
    }

    fn spread(&self) -> f64 {
        spread(self.q1, self.value, self.q3)
    }
}

/// Judges `new` against `base` for a metric with this bound and
/// direction (`higher_is_better`).
pub fn verdict(base: Side, new: Side, bound: f64, higher_is_better: bool) -> Verdict {
    if base.spread() > bound || new.spread() > bound {
        return Verdict::Unresolved;
    }
    let change = (new.value - base.value) / base.value.abs().max(f64::MIN_POSITIVE);
    let worsening = if higher_is_better { -change } else { change };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn find<'a>(items: &'a [Value], name: &str) -> Option<&'a Value> {
    items
        .iter()
        .find(|v| v.get("name").and_then(json::as_str) == Some(name))
}

/// Runs the subcommand; `Ok(false)` when any end-to-end metric is worse.
pub fn main(args: &[String]) -> Result<bool, String> {
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spec" => spec_path = it.next().ok_or("--spec needs a path")?.clone(),
            _ => files.push(a.clone()),
        }
    }
    let [base_path, new_path] = &files[..] else {
        return Err("usage: benchmark compare BASE.json NEW.json [--spec BENCHMARK.json]".into());
    };
    let spec = Spec::load(&spec_path)?;
    let (base, new) = (json::read(base_path)?, json::read(new_path)?);
    let (base_workloads, new_workloads) = (
        json::array_field(&base, "workloads")?,
        json::array_field(&new, "workloads")?,
    );

    let (mut worse, mut unresolved, mut mismatched) = (0, 0, 0);
    println!(
        "{:<18} {:<36} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "base", "new", "Δ%"
    );
    for name in &spec.workloads {
        let (Some(bw), Some(nw)) = (find(base_workloads, name), find(new_workloads, name)) else {
            println!("{name:<18} (absent from a side)");
            continue;
        };
        let (base_metrics, new_metrics) = (
            json::array_field(bw, "metrics")?,
            json::array_field(nw, "metrics")?,
        );
        for decl in spec.end_to_end.iter().chain(&spec.per_layer) {
            let metric = decl.name.as_str();
            let (Some(bm), Some(nm)) = (find(base_metrics, metric), find(new_metrics, metric))
            else {
                println!("{name:<18} {metric:<36} (absent from a side)");
                continue;
            };
            let (b, n) = (Side::read(bm)?, Side::read(nm)?);
            let label = if let Some(bound) = decl.bound {
                let v = verdict(b, n, bound, decl.better == "higher");
                worse += usize::from(v == Verdict::Worse);
                unresolved += usize::from(v == Verdict::Unresolved);
                format!("{v:?} (bound {:.0}%)", bound * 100.0).to_lowercase()
            } else if decl.unit == "count" {
                if b.value == n.value {
                    "count repeats".to_string()
                } else {
                    mismatched += 1;
                    "COUNT MISMATCH".to_string()
                }
            } else {
                String::new()
            };
            let delta = if b.value == 0.0 {
                "-".to_string()
            } else {
                format!("{:+.2}", (n.value - b.value) / b.value.abs() * 100.0)
            };
            println!(
                "{name:<18} {metric:<36} {:>14.4} {:>14.4} {delta:>9}  {label}",
                b.value, n.value
            );
        }
    }
    println!(
        "compare: {worse} worse, {unresolved} unresolved, {mismatched} per-layer counts that do not repeat"
    );
    Ok(worse == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(value: f64, q1: f64, q3: f64) -> Side {
        Side { value, q1, q3 }
    }

    #[test]
    fn verdicts_against_the_bound() {
        let base = side(100.0, 99.0, 101.0);
        assert_eq!(
            verdict(base, side(105.0, 104.0, 106.0), 0.1, false),
            Verdict::Within
        );
        assert_eq!(
            verdict(base, side(115.0, 114.0, 116.0), 0.1, false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(base, side(85.0, 84.0, 86.0), 0.1, false),
            Verdict::Better
        );
        // Higher is better: a drop is the regression.
        assert_eq!(
            verdict(base, side(85.0, 84.0, 86.0), 0.1, true),
            Verdict::Worse
        );
        // A side whose own spread exceeds the bound cannot be judged.
        assert_eq!(
            verdict(base, side(150.0, 120.0, 180.0), 0.1, false),
            Verdict::Unresolved
        );
    }
}
