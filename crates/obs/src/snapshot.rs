//! A consistent copy of a [`crate::Recorder`]'s state, and the two
//! renderings of it: a JSONL event log, the one machine-readable export
//! (read back by [`crate::report::parse_jsonl`]), and a Chrome
//! trace-event timeline.
//!
//! Both renderings are fully deterministic given the snapshot: events
//! appear in recorded order, metrics in lexicographic name order
//! (`BTreeMap` iteration order at snapshot time). With a
//! [`crate::Recorder::deterministic`] recorder, the rendered bytes are
//! identical run to run.

use crate::hist::Histogram;
use crate::recorder::Event;
use std::fmt::Write as _;

/// Everything a recorder has accumulated: the chronological event log
/// plus the final counter/gauge/histogram values.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Chronological event log (spans and point events).
    pub events: Vec<Event>,
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// `(name, histogram)` pairs, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
}

impl Snapshot {
    /// The value of a counter, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The value of a gauge, if recorded.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The named histogram, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Completed spans as `(path, wall_ns)` in completion order.
    pub fn span_durations(&self) -> Vec<(String, u64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::SpanEnd { path, wall_ns, .. } => Some((path.clone(), *wall_ns)),
                _ => None,
            })
            .collect()
    }

    /// Whether a span with this exact path completed.
    pub fn has_span(&self, path: &str) -> bool {
        self.span_durations().iter().any(|(p, _)| p == path)
    }

    /// Renders the snapshot as a JSONL event log: one JSON object per
    /// line — a `meta` header, every event in order, then every counter,
    /// gauge, and histogram.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"type\":\"meta\",\"format\":\"arbmis-obs\",\"version\":1}}"
        );
        for e in &self.events {
            match e {
                Event::SpanStart { seq, path } => {
                    let _ = writeln!(
                        out,
                        "{{\"type\":\"span_start\",\"seq\":{seq},\"path\":\"{}\"}}",
                        escape(path)
                    );
                }
                Event::SpanEnd { seq, path, wall_ns } => {
                    let _ = writeln!(
                        out,
                        "{{\"type\":\"span_end\",\"seq\":{seq},\"path\":\"{}\",\"wall_ns\":{wall_ns}}}",
                        escape(path)
                    );
                }
                Event::Point {
                    seq,
                    path,
                    name,
                    value,
                } => {
                    let _ = writeln!(
                        out,
                        "{{\"type\":\"point\",\"seq\":{seq},\"path\":\"{}\",\"name\":\"{}\",\"value\":{value}}}",
                        escape(path),
                        escape(name)
                    );
                }
            }
        }
        for (name, v) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{v}}}",
                escape(name)
            );
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(
                out,
                "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
                escape(name),
                fmt_f64(*v)
            );
        }
        for (name, h) in &self.histograms {
            let buckets: Vec<String> = h
                .cumulative()
                .iter()
                .map(|(le, c)| format!("[{le},{c}]"))
                .collect();
            let _ = writeln!(
                out,
                "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"cumulative_buckets\":[{}]}}",
                escape(name),
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                buckets.join(",")
            );
        }
        out
    }

    /// Renders the event log in the Chrome trace-event JSON format
    /// (loadable in Perfetto / `chrome://tracing`): every span becomes a
    /// `B`/`E` duration pair, every point event an `i` instant, all on
    /// one synthetic track (`pid` 1, `tid` 1), timestamps in
    /// microseconds.
    ///
    /// Wall-clock placement uses a running clock fed by the recorded
    /// span durations: a span starts at the current clock, ends at
    /// `start + wall_ns` (never before a child's end), and advances the
    /// clock. Under a [`crate::Recorder::deterministic`] recorder every
    /// duration is zero, so all timestamps collapse to 0 — the event
    /// *order* (array order) still reproduces the phase structure, and
    /// the rendered bytes are identical run to run.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut now_ns = 0u64;
        let mut starts: Vec<u64> = Vec::new();
        let push = |out: &mut String, first: &mut bool, ev: String| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('\n');
            out.push_str(&ev);
        };
        let ts_us = |ns: u64| format!("{:.3}", ns as f64 / 1e3);
        for e in &self.events {
            match e {
                Event::SpanStart { seq, path } => {
                    let name = path.rsplit('/').next().unwrap_or(path);
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":{},\"name\":\"{}\",\"args\":{{\"path\":\"{}\",\"seq\":{seq}}}}}",
                            ts_us(now_ns),
                            escape(name),
                            escape(path)
                        ),
                    );
                    starts.push(now_ns);
                }
                Event::SpanEnd { seq, path, wall_ns } => {
                    let start = starts.pop().unwrap_or(now_ns);
                    // Never end before the clock (children already
                    // advanced it); nested spans stay properly nested.
                    let end = (start + wall_ns).max(now_ns);
                    let name = path.rsplit('/').next().unwrap_or(path);
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":{},\"name\":\"{}\",\"args\":{{\"path\":\"{}\",\"seq\":{seq}}}}}",
                            ts_us(end),
                            escape(name),
                            escape(path)
                        ),
                    );
                    now_ns = end;
                }
                Event::Point {
                    seq,
                    path,
                    name,
                    value,
                } => {
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":{},\"s\":\"t\",\"name\":\"{}\",\"args\":{{\"path\":\"{}\",\"value\":{value},\"seq\":{seq}}}}}",
                            ts_us(now_ns),
                            escape(name),
                            escape(path)
                        ),
                    );
                }
            }
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Formats a gauge value for JSONL: Rust's shortest round-trip form, so
/// the report parser reads back the exact `f64`.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no number token for ±inf or NaN, so these are written
        // as the strings "inf", "-inf" and "NaN", which the report parser
        // accepts.
        format!("\"{v}\"")
    }
}

/// JSON string escaping for the small character set metric names use.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn sample() -> Snapshot {
        let r = Recorder::deterministic();
        {
            let _root = r.span("arbmis");
            let _p = r.span("shattering");
            r.point("scale", 1);
        }
        r.add("congest_messages", 12);
        r.gauge("headroom", 1.5);
        r.observe("round_bits{proto=\"luby\"}", 0);
        r.observe("round_bits{proto=\"luby\"}", 5);
        r.snapshot()
    }

    #[test]
    fn jsonl_shape_pinned() {
        let s = sample();
        let jsonl = s.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines[0],
            "{\"type\":\"meta\",\"format\":\"arbmis-obs\",\"version\":1}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"span_start\",\"seq\":0,\"path\":\"arbmis\"}"
        );
        assert!(lines.iter().any(|l| l.contains("\"span_end\"")
            && l.contains("\"arbmis/shattering\"")
            && l.contains("\"wall_ns\":0")));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"counter\"") && l.contains("\"congest_messages\"")));
        assert!(lines.iter().any(|l| l.contains("\"histogram\"")
            && l.contains("\"cumulative_buckets\":[[0,1],[1,1],[3,1],[7,2]]")));
    }

    #[test]
    fn jsonl_lines_are_self_contained_objects() {
        // The vendored serde_json has no raw-Value entry point, so check
        // the line grammar structurally: every line is one JSON object
        // with a type tag and balanced quoting.
        for line in sample().to_jsonl().lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"type\":\""), "{line}");
            assert_eq!(
                line.matches('"').count() % 2,
                0,
                "unbalanced quotes: {line}"
            );
        }
    }

    #[test]
    fn chrome_trace_shape_pinned() {
        let s = sample();
        let trace = s.to_chrome_trace();
        assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
        assert!(trace.trim_end().ends_with("],\"displayTimeUnit\":\"ms\"}"));
        // One B and one E per span, one i per point.
        assert_eq!(trace.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(trace.matches("\"ph\":\"E\"").count(), 2);
        assert_eq!(trace.matches("\"ph\":\"i\"").count(), 1);
        // Span names are the last path segment; full path in args.
        assert!(trace.contains("\"name\":\"shattering\""));
        assert!(trace.contains("\"path\":\"arbmis/shattering\""));
        // Deterministic recorder: every timestamp is 0.000.
        assert_eq!(trace.matches("\"ts\":0.000").count(), 5);
        // Deterministic bytes run to run.
        assert_eq!(trace, sample().to_chrome_trace());
    }

    #[test]
    fn chrome_trace_timed_spans_nest() {
        let r = Recorder::new();
        {
            let _a = r.span("outer");
            let _b = r.span("inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let trace = r.snapshot().to_chrome_trace();
        // Extract ts values in event order: B(outer) B(inner) E(inner) E(outer).
        let ts: Vec<f64> = trace
            .lines()
            .filter_map(|l| {
                let i = l.find("\"ts\":")?;
                let rest = &l[i + 5..];
                let end = rest.find(',')?;
                rest[..end].parse().ok()
            })
            .collect();
        assert_eq!(ts.len(), 4);
        assert_eq!(ts[0], 0.0);
        assert_eq!(ts[1], 0.0);
        assert!(ts[2] > 0.0, "inner span has nonzero duration");
        assert!(ts[3] >= ts[2], "outer ends at or after inner");
    }

    #[test]
    fn deterministic_recorder_renders_identically() {
        let make = || {
            let r = Recorder::deterministic();
            {
                let _s = r.span("phase");
                r.add("c", 1);
                r.observe("h", 42);
            }
            r.snapshot()
        };
        let (a, b) = (make(), make());
        assert_eq!(a, b);
        assert_eq!(a.to_jsonl(), b.to_jsonl());
    }

    #[test]
    fn span_helpers() {
        let s = sample();
        assert!(s.has_span("arbmis"));
        assert!(s.has_span("arbmis/shattering"));
        assert!(!s.has_span("missing"));
        assert_eq!(s.span_durations().len(), 2);
        // Inner span completes first.
        assert_eq!(s.span_durations()[0].0, "arbmis/shattering");
    }
}
