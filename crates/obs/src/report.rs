//! Trace-report tooling: parse an `arbmis-obs` JSONL export back into a
//! [`Snapshot`] and render it as a human-readable phase/round table with
//! percentile summaries.
//!
//! The parser accepts exactly the format [`Snapshot::to_jsonl`] emits —
//! a `meta` header line, then one self-contained JSON object per event,
//! counter, gauge, and histogram. It is a small hand-rolled field
//! extractor (the vendored `serde_json` has no dynamic-value entry
//! point), which is fine because the grammar is ours and pinned by unit
//! tests on the round-trip.

use crate::hist::Histogram;
use crate::recorder::Event;
use crate::snapshot::Snapshot;
use std::fmt::Write as _;

/// Parses an `arbmis-obs` JSONL export (the output of
/// [`Snapshot::to_jsonl`]) back into a [`Snapshot`].
///
/// # Errors
///
/// Returns a line-numbered message when the header is missing or a line
/// does not parse.
pub fn parse_jsonl(text: &str) -> Result<Snapshot, String> {
    let mut snap = Snapshot::default();
    let mut saw_meta = false;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let ty = str_field(line, "type").ok_or(format!("line {lineno}: missing \"type\""))?;
        let err = |what: &str| format!("line {lineno}: {ty} record missing {what}");
        match ty.as_str() {
            "meta" => {
                let fmt = str_field(line, "format").ok_or_else(|| err("format"))?;
                if fmt != "arbmis-obs" {
                    return Err(format!("line {lineno}: unknown format {fmt:?}"));
                }
                saw_meta = true;
            }
            "span_start" => snap.events.push(Event::SpanStart {
                seq: u64_field(line, "seq").ok_or_else(|| err("seq"))?,
                path: str_field(line, "path").ok_or_else(|| err("path"))?,
            }),
            "span_end" => snap.events.push(Event::SpanEnd {
                seq: u64_field(line, "seq").ok_or_else(|| err("seq"))?,
                path: str_field(line, "path").ok_or_else(|| err("path"))?,
                wall_ns: u64_field(line, "wall_ns").ok_or_else(|| err("wall_ns"))?,
            }),
            "point" => snap.events.push(Event::Point {
                seq: u64_field(line, "seq").ok_or_else(|| err("seq"))?,
                path: str_field(line, "path").ok_or_else(|| err("path"))?,
                name: str_field(line, "name").ok_or_else(|| err("name"))?,
                value: u64_field(line, "value").ok_or_else(|| err("value"))?,
            }),
            "counter" => snap.counters.push((
                str_field(line, "name").ok_or_else(|| err("name"))?,
                u64_field(line, "value").ok_or_else(|| err("value"))?,
            )),
            "gauge" => snap.gauges.push((
                str_field(line, "name").ok_or_else(|| err("name"))?,
                f64_field(line, "value").ok_or_else(|| err("value"))?,
            )),
            "histogram" => {
                let name = str_field(line, "name").ok_or_else(|| err("name"))?;
                let h = Histogram::from_cumulative(
                    u64_field(line, "count").ok_or_else(|| err("count"))?,
                    u64_field(line, "sum").ok_or_else(|| err("sum"))?,
                    u64_field(line, "min").ok_or_else(|| err("min"))?,
                    u64_field(line, "max").ok_or_else(|| err("max"))?,
                    &buckets_field(line).ok_or_else(|| err("cumulative_buckets"))?,
                )
                .ok_or(format!("line {lineno}: inconsistent histogram buckets"))?;
                snap.histograms.push((name, h));
            }
            other => return Err(format!("line {lineno}: unknown record type {other:?}")),
        }
    }
    if !saw_meta {
        return Err("not an arbmis-obs trace (missing meta header)".to_string());
    }
    Ok(snap)
}

/// Renders a snapshot as the human-readable trace report: the per-phase
/// round/time table (one row per completed span, rounds taken from the
/// span's `rounds` point event), then counters, gauges, and a percentile
/// summary table for every histogram.
pub fn render(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut rounds_by_path: Vec<(&str, u64)> = Vec::new();
    for e in &snap.events {
        if let Event::Point {
            path, name, value, ..
        } = e
        {
            if name == "rounds" {
                rounds_by_path.retain(|(p, _)| *p != path.as_str());
                rounds_by_path.push((path, *value));
            }
        }
    }
    let spans = snap.span_durations();
    if !spans.is_empty() {
        let _ = writeln!(out, "{:<42} {:>10} {:>12}", "phase", "rounds", "time");
        for (path, wall_ns) in &spans {
            let rounds = rounds_by_path
                .iter()
                .find(|(p, _)| p == path)
                .map_or_else(|| "-".to_string(), |(_, r)| r.to_string());
            let time = format!("{:.3}ms", *wall_ns as f64 / 1e6);
            let _ = writeln!(out, "{path:<42} {rounds:>10} {time:>12}");
        }
    }
    for (name, v) in &snap.counters {
        let _ = writeln!(out, "{name} = {v}");
    }
    for (name, v) in &snap.gauges {
        let _ = writeln!(out, "{name} = {v}");
    }
    if !snap.histograms.is_empty() {
        let _ = writeln!(
            out,
            "{:<34} {:>9} {:>10} {:>8} {:>8} {:>8} {:>8}",
            "histogram", "count", "mean", "p50", "p90", "p99", "max"
        );
        for (name, h) in &snap.histograms {
            let s = h.summary();
            let _ = writeln!(
                out,
                "{:<34} {:>9} {:>10.2} {:>8} {:>8} {:>8} {:>8}",
                name, s.count, s.mean, s.p50, s.p90, s.p99, s.max
            );
        }
    }
    out
}

/// Extracts the string value of `"key":"…"` with JSON unescaping.
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                c => out.push(c),
            },
            c => out.push(c),
        }
    }
}

/// Extracts the raw token after `"key":` up to the next `,` or `}`.
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    Some(&rest[..end])
}

fn u64_field(line: &str, key: &str) -> Option<u64> {
    raw_field(line, key)?.parse().ok()
}

/// Parses a number, or one of the quoted `"inf"`, `"-inf"` and `"NaN"`
/// strings the exporter writes for non-finite gauges.
fn f64_field(line: &str, key: &str) -> Option<f64> {
    let raw = raw_field(line, key)?;
    let raw = raw
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .unwrap_or(raw);
    raw.parse().ok()
}

/// Extracts `"cumulative_buckets":[[le,c],…]` as `(le, c)` pairs.
fn buckets_field(line: &str) -> Option<Vec<(u64, u64)>> {
    let pat = "\"cumulative_buckets\":[";
    let start = line.find(pat)? + pat.len();
    let rest = &line[start..];
    // The array ends at the first `]` not closing an inner pair.
    let mut depth = 1usize;
    let mut end = None;
    for (i, c) in rest.char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    end = Some(i);
                    break;
                }
            }
            _ => {}
        }
    }
    let body = &rest[..end?];
    let mut out = Vec::new();
    for pair in body.split("],") {
        let pair = pair.trim_matches(|c| c == '[' || c == ']');
        if pair.is_empty() {
            continue;
        }
        let (le, c) = pair.split_once(',')?;
        out.push((le.parse().ok()?, c.parse().ok()?));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn sample() -> Snapshot {
        let r = Recorder::deterministic();
        {
            let _root = r.span("congest");
            let _p = r.span("metivier");
            r.point("rounds", 13);
        }
        r.add("congest_messages", 240);
        r.gauge("headroom", 1.5);
        for v in [0u64, 1, 5, 5, 90] {
            r.observe("congest_round_messages", v);
        }
        r.snapshot()
    }

    #[test]
    fn jsonl_roundtrips_through_parser() {
        let snap = sample();
        let parsed = parse_jsonl(&snap.to_jsonl()).unwrap();
        assert_eq!(parsed, snap);
        // Re-rendering the parsed snapshot is byte-identical.
        assert_eq!(parsed.to_jsonl(), snap.to_jsonl());
    }

    #[test]
    fn escaped_paths_roundtrip() {
        let r = Recorder::deterministic();
        {
            let _s = r.span("odd \"phase\"\\name");
            r.point("rounds", 1);
        }
        let snap = r.snapshot();
        let parsed = parse_jsonl(&snap.to_jsonl()).unwrap();
        assert_eq!(parsed, snap);
    }

    /// Label blocks holding `"`, `\` and a newline, and non-finite gauge
    /// values, survive an export and read back.
    #[test]
    fn escaped_labels_and_non_finite_gauges_roundtrip() {
        let r = Recorder::deterministic();
        r.add("c{msg=\"two\nlines\"}", 3);
        r.gauge("g{path=\"C:\\temp\\x\"}", 1.0);
        r.gauge("g{q=\"say \"hi\" now\"}", f64::INFINITY);
        r.gauge("neg_inf", f64::NEG_INFINITY);
        r.observe("h{src=\"x\\y\",note=\"a\nb\"}", 2);
        let snap = r.snapshot();
        let jsonl = snap.to_jsonl();
        // A raw newline in a name would split its record across lines.
        assert_eq!(jsonl.lines().count(), 6, "{jsonl}");
        let parsed = parse_jsonl(&jsonl).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(parsed.to_jsonl(), jsonl);
        assert_eq!(
            parsed.gauge_value("g{q=\"say \"hi\" now\"}"),
            Some(f64::INFINITY)
        );
        assert_eq!(parsed.gauge_value("neg_inf"), Some(f64::NEG_INFINITY));

        let r = Recorder::deterministic();
        r.gauge("nan", f64::NAN);
        let parsed = parse_jsonl(&r.snapshot().to_jsonl()).unwrap();
        assert!(parsed.gauge_value("nan").unwrap().is_nan());
        assert!(render(&parsed).contains("nan = NaN"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_jsonl("").is_err());
        assert!(parse_jsonl("{\"type\":\"meta\",\"format\":\"other\",\"version\":1}").is_err());
        let bad =
            "{\"type\":\"meta\",\"format\":\"arbmis-obs\",\"version\":1}\n{\"type\":\"mystery\"}";
        let err = parse_jsonl(bad).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn render_contains_all_sections() {
        let report = render(&sample());
        assert!(report.contains("phase"), "{report}");
        // The span row carries the rounds point.
        assert!(report.contains("congest/metivier"), "{report}");
        let row = report
            .lines()
            .find(|l| l.starts_with("congest/metivier"))
            .unwrap();
        assert!(row.contains("13"), "{row}");
        assert!(report.contains("congest_messages = 240"));
        assert!(report.contains("headroom = 1.5"));
        let hist_row = report
            .lines()
            .find(|l| l.starts_with("congest_round_messages"))
            .unwrap();
        // count=5, p50=5 (values 0,1,5,5,90 → rank 3 is 5, bucket le 7
        // clamped to nothing below max), p99=max bucket clamp 90.
        assert!(hist_row.contains('5'), "{hist_row}");
        assert!(hist_row.ends_with("90"), "{hist_row}");
    }

    #[test]
    fn render_is_deterministic() {
        assert_eq!(render(&sample()), render(&sample()));
    }
}
