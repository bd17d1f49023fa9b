//! Span durations and self times, read back from a recorder's event log.
//!
//! The benchmark wraps every public call it times in a span of its own
//! (`graph.gen`, `core.arb_mis`, `flat.metivier.run`, …), and
//! `arb_mis_with` nests its phase spans under them. A span's self time is
//! its duration minus the durations of its direct children, so for the
//! `arbmis` root the self time is the pipeline glue no phase span covers.

use arbmis_obs::Event;

/// One completed span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanTime {
    /// Full nesting path, `/`-joined.
    pub path: String,
    /// Wall time of the span.
    pub wall_ns: u64,
    /// Wall time not covered by direct child spans.
    pub self_ns: u64,
}

/// Every completed span in `events`, in completion order.
pub fn span_times(events: &[Event]) -> Vec<SpanTime> {
    // One accumulator per open span: the wall time of its closed children.
    let mut open: Vec<u64> = Vec::new();
    let mut out = Vec::new();
    for e in events {
        match e {
            Event::SpanStart { .. } => open.push(0),
            Event::SpanEnd { path, wall_ns, .. } => {
                let children = open.pop().unwrap_or(0);
                if let Some(parent) = open.last_mut() {
                    *parent += wall_ns;
                }
                out.push(SpanTime {
                    path: path.clone(),
                    wall_ns: *wall_ns,
                    self_ns: wall_ns.saturating_sub(children),
                });
            }
            Event::Point { .. } => {}
        }
    }
    out
}

/// Spans under `prefix/`, with the prefix stripped from their paths.
pub fn under(spans: &[SpanTime], prefix: &str) -> Vec<SpanTime> {
    let lead = format!("{prefix}/");
    spans
        .iter()
        .filter_map(|s| {
            s.path.strip_prefix(&lead).map(|rest| SpanTime {
                path: rest.to_string(),
                ..s.clone()
            })
        })
        .collect()
}

/// Wall times, in `unit_ns` units, of the spans whose path is `path`.
pub fn walls(spans: &[SpanTime], path: &str, unit_ns: f64) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.path == path)
        .map(|s| s.wall_ns as f64 / unit_ns)
        .collect()
}

/// Self times, in `unit_ns` units, of the spans whose path is `path`.
pub fn selfs(spans: &[SpanTime], path: &str, unit_ns: f64) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.path == path)
        .map(|s| s.self_ns as f64 / unit_ns)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(seq: u64, path: &str) -> Event {
        Event::SpanStart {
            seq,
            path: path.into(),
        }
    }

    fn end(seq: u64, path: &str, wall_ns: u64) -> Event {
        Event::SpanEnd {
            seq,
            path: path.into(),
            wall_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root(100) ⊃ { a(30) ⊃ { leaf(10) }, point, b(50) }
        let events = vec![
            start(0, "root"),
            start(1, "root/a"),
            start(2, "root/a/leaf"),
            end(3, "root/a/leaf", 10),
            end(4, "root/a", 30),
            Event::Point {
                seq: 5,
                path: "root".into(),
                name: "rounds".into(),
                value: 7,
            },
            start(6, "root/b"),
            end(7, "root/b", 50),
            end(8, "root", 100),
        ];
        let spans = span_times(&events);
        let self_of = |p: &str| spans.iter().find(|s| s.path == p).unwrap().self_ns;
        assert_eq!(self_of("root/a/leaf"), 10);
        assert_eq!(self_of("root/a"), 20);
        assert_eq!(self_of("root/b"), 50);
        assert_eq!(self_of("root"), 20);
        // Self time plus direct children reconstructs the parent.
        assert_eq!(self_of("root") + 30 + 50, 100);
    }

    #[test]
    fn repeated_spans_and_prefix_filtering() {
        let events = vec![
            start(0, "w/x"),
            end(1, "w/x", 2_000_000),
            start(2, "w/x"),
            end(3, "w/x", 4_000_000),
            start(4, "other/x"),
            end(5, "other/x", 9),
        ];
        let spans = under(&span_times(&events), "w");
        assert_eq!(walls(&spans, "x", 1e6), vec![2.0, 4.0]);
        assert_eq!(selfs(&spans, "x", 1e6), vec![2.0, 4.0]);
    }
}
