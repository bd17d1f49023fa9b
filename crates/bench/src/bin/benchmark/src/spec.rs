//! `BENCHMARK.json`: the declared workloads, metrics and bounds.

use crate::json::{self, Value};

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecMetric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Share of the base median by which an end-to-end metric may worsen
    /// before it counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark reads.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<SpecMetric>,
    /// Per-layer metrics.
    pub per_layer: Vec<SpecMetric>,
}

impl Spec {
    /// Reads and checks `path`.
    pub fn load(path: &str) -> Result<Spec, String> {
        Spec::from_value(&json::read(path)?).map_err(|e| format!("{path}: {e}"))
    }

    fn from_value(doc: &Value) -> Result<Spec, String> {
        let workloads = json::array_field(doc, "workloads")?
            .iter()
            .map(|w| json::str_field(w, "name").map(str::to_string))
            .collect::<Result<_, _>>()?;
        let metrics = |key: &str, bounded: bool| -> Result<Vec<SpecMetric>, String> {
            json::array_field(doc, key)?
                .iter()
                .map(|m| {
                    Ok(SpecMetric {
                        name: json::str_field(m, "name")?.to_string(),
                        unit: json::str_field(m, "unit")?.to_string(),
                        better: json::str_field(m, "better")?.to_string(),
                        bound: if bounded {
                            Some(json::num_field(m, "bound")?)
                        } else {
                            None
                        },
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }
}
