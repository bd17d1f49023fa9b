//! The [`Recorder`]: the single handle every instrumented layer writes
//! through.
//!
//! A recorder is either *disabled* — a `None` inner, so every call is a
//! branch on a null pointer and returns immediately — or *enabled*,
//! holding shared aggregation state behind a mutex. Cloning is cheap
//! (an `Option<Arc>` clone); all clones write to the same state.
//!
//! Determinism contract (DESIGN.md §8): everything a recorder stores is
//! split into two classes.
//!
//! * **Deterministic class** — counters, gauges, histograms, point
//!   events, and the span *structure* (names, nesting, order). These are
//!   pure functions of `(graph, seed, config)` and are identical run to
//!   run and at every thread count.
//! * **Timing class** — span `wall_ns` durations and every metric whose
//!   name ends in `_ns` (round and cell wall-time) or starts with
//!   `worker_` (per-worker scheduler counters). These are wall-clock
//!   measurements and vary run to run; [`Recorder::deterministic`]
//!   disables them for byte-identical sink output.
//!
//! Attaching, detaching, or swapping a recorder never changes simulation
//! results: instrumented code only *reads* the quantities it reports.

use crate::hist::Histogram;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// One entry of the chronological event log.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A phase span opened (`path` is `/`-joined from the span stack).
    SpanStart {
        /// Global event sequence number.
        seq: u64,
        /// Full nesting path, e.g. `arbmis/bad_components/cole_vishkin`.
        path: String,
    },
    /// A phase span closed.
    SpanEnd {
        /// Global event sequence number.
        seq: u64,
        /// Full nesting path of the span being closed.
        path: String,
        /// Wall-clock duration in nanoseconds (0 when timing is
        /// disabled — the timing-class field of the event log).
        wall_ns: u64,
    },
    /// A point annotation (e.g. one Monte-Carlo trial batch).
    Point {
        /// Global event sequence number.
        seq: u64,
        /// Span path at the time of the event.
        path: String,
        /// Event name.
        name: String,
        /// Event payload value.
        value: u64,
    },
}

/// Whether a metric name belongs to the **timing class** of the §8
/// contract: wall-clock or schedule/environment-dependent data, which
/// must be quarantined to names ending in `_ns` or starting with
/// `worker_` so [`Recorder::deterministic`] sink output stays
/// byte-identical. A `{label="value"}` suffix is stripped first,
/// so `worker_busy_ns{worker="3"}` and `cell_run_ns{exp="E9"}` both
/// classify by their base name.
pub fn is_timing_class(name: &str) -> bool {
    let base = name.split('{').next().unwrap_or(name);
    base.ends_with("_ns") || base.starts_with("worker_")
}

#[derive(Default)]
struct State {
    seq: u64,
    stack: Vec<String>,
    events: Vec<Event>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
}

impl State {
    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    fn path_with(&self, name: &str) -> String {
        if self.stack.is_empty() {
            name.to_string()
        } else {
            format!("{}/{}", self.stack.join("/"), name)
        }
    }
}

struct Inner {
    timing: bool,
    state: Mutex<State>,
}

/// A cheap, cloneable observability handle. See the module docs for the
/// determinism contract.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Recorder(disabled)"),
            Some(inner) => write!(f, "Recorder(enabled, timing={})", inner.timing),
        }
    }
}

impl Recorder {
    /// The no-op recorder: every call is a null-check and a return.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// An enabled recorder with wall-clock timing.
    pub fn new() -> Self {
        Self::with_timing(true)
    }

    /// An enabled recorder whose timing-class fields are all zero, so
    /// two identical runs produce byte-identical sink output.
    pub fn deterministic() -> Self {
        Self::with_timing(false)
    }

    fn with_timing(timing: bool) -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                timing,
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// Whether this recorder stores anything. Hot paths gate batched
    /// collection on this.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether wall-clock timing is being recorded.
    pub fn timing(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.timing)
    }

    /// The next event sequence number (0 when disabled). Deterministic
    /// class: events are pure functions of `(graph, seed, config)`, so
    /// this ties external records (e.g. flight-recorder rounds) to a
    /// stable position in the event log.
    pub fn seq(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.state.lock().seq)
    }

    /// Opens a nested phase span; the returned guard closes it on drop.
    /// Spans model the *coordinating* control flow: open and close them
    /// on one logical thread, LIFO.
    pub fn span(&self, name: &str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard {
                recorder: Recorder::disabled(),
                path: String::new(),
                start: None,
            };
        };
        let mut st = inner.state.lock();
        let path = st.path_with(name);
        let seq = st.next_seq();
        st.events.push(Event::SpanStart {
            seq,
            path: path.clone(),
        });
        st.stack.push(name.to_string());
        SpanGuard {
            recorder: self.clone(),
            path,
            start: inner.timing.then(Instant::now),
        }
    }

    fn close_span(&self, path: String, start: Option<Instant>) {
        let Some(inner) = &self.inner else { return };
        let wall_ns = start.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let mut st = inner.state.lock();
        st.stack.pop();
        let seq = st.next_seq();
        st.events.push(Event::SpanEnd { seq, path, wall_ns });
    }

    /// Records a point event (with the current span path attached).
    pub fn point(&self, name: &str, value: u64) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.lock();
        let path = st.stack.join("/");
        let seq = st.next_seq();
        st.events.push(Event::Point {
            seq,
            path,
            name: name.to_string(),
            value,
        });
    }

    /// Adds `delta` to the named counter.
    pub fn add(&self, name: &str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.lock();
        *st.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Adds `delta` to a **timing-class** counter: a no-op unless
    /// wall-clock timing is enabled, so schedule- or environment-
    /// dependent counts (worker utilization, per-worker chunk tallies)
    /// never reach a [`Recorder::deterministic`] sink. The name must
    /// satisfy [`is_timing_class`] (debug-asserted) — callers wanting a
    /// deterministic counter use [`Recorder::add`] with a
    /// non-quarantined name instead.
    pub fn add_timing(&self, name: &str, delta: u64) {
        debug_assert!(
            is_timing_class(name),
            "add_timing requires a *_ns / worker_* name, got {name:?}"
        );
        if self.timing() {
            self.add(name, delta);
        }
    }

    /// Records one observation into a **timing-class** histogram; the
    /// timing-gated analogue of [`Recorder::observe`] (see
    /// [`Recorder::add_timing`] for the contract).
    pub fn observe_timing(&self, name: &str, value: u64) {
        debug_assert!(
            is_timing_class(name),
            "observe_timing requires a *_ns / worker_* name, got {name:?}"
        );
        if self.timing() {
            self.observe(name, value);
        }
    }

    /// Sets the named gauge.
    pub fn gauge(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.lock();
        st.gauges.insert(name.to_string(), value);
    }

    /// Records one observation into the named histogram.
    pub fn observe(&self, name: &str, value: u64) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.lock();
        st.hists.entry(name.to_string()).or_default().observe(value);
    }

    /// Merges a locally-accumulated histogram into the named one — the
    /// batched form hot loops use (one lock per round, not per message).
    pub fn merge_histogram(&self, name: &str, h: &Histogram) {
        if h.count() == 0 {
            return;
        }
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.lock();
        st.hists.entry(name.to_string()).or_default().merge(h);
    }

    /// A consistent copy of everything recorded so far.
    pub fn snapshot(&self) -> crate::snapshot::Snapshot {
        let Some(inner) = &self.inner else {
            return crate::snapshot::Snapshot::default();
        };
        let st = inner.state.lock();
        crate::snapshot::Snapshot {
            events: st.events.clone(),
            counters: st.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: st.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: st
                .hists
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }
}

/// Closes its span on drop.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    recorder: Recorder,
    path: String,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let start = self.start.take();
        let path = std::mem::take(&mut self.path);
        let rec = std::mem::take(&mut self.recorder);
        rec.close_span(path, start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.enabled());
        r.add("c", 3);
        r.gauge("g", 1.0);
        r.observe("h", 2);
        r.point("p", 1);
        {
            let _s = r.span("phase");
        }
        let snap = r.snapshot();
        assert!(snap.events.is_empty());
        assert!(snap.counters.is_empty());
    }

    #[test]
    fn spans_nest_and_close_lifo() {
        let r = Recorder::deterministic();
        {
            let _a = r.span("outer");
            {
                let _b = r.span("inner");
            }
        }
        let snap = r.snapshot();
        let paths: Vec<(&str, &str)> = snap
            .events
            .iter()
            .map(|e| match e {
                Event::SpanStart { path, .. } => ("start", path.as_str()),
                Event::SpanEnd { path, .. } => ("end", path.as_str()),
                Event::Point { name, .. } => ("point", name.as_str()),
            })
            .collect();
        assert_eq!(
            paths,
            vec![
                ("start", "outer"),
                ("start", "outer/inner"),
                ("end", "outer/inner"),
                ("end", "outer"),
            ]
        );
        // Deterministic recorder: all durations are zero.
        for e in &snap.events {
            if let Event::SpanEnd { wall_ns, .. } = e {
                assert_eq!(*wall_ns, 0);
            }
        }
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let r = Recorder::new();
        r.add("c", 2);
        r.add("c", 3);
        r.gauge("g", 1.5);
        r.gauge("g", 2.5); // gauges overwrite
        r.observe("h", 1);
        r.observe("h", 9);
        let snap = r.snapshot();
        assert_eq!(snap.counter("c"), Some(5));
        assert_eq!(snap.gauge_value("g"), Some(2.5));
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 10);
    }

    #[test]
    fn clones_share_state() {
        let r = Recorder::deterministic();
        let r2 = r.clone();
        r.add("x", 1);
        r2.add("x", 1);
        assert_eq!(r.snapshot().counter("x"), Some(2));
    }

    #[test]
    fn point_events_carry_span_path() {
        let r = Recorder::deterministic();
        {
            let _s = r.span("mc");
            r.point("batch", 512);
        }
        let snap = r.snapshot();
        assert!(snap.events.iter().any(|e| matches!(
            e,
            Event::Point { path, name, value, .. }
                if path == "mc" && name == "batch" && *value == 512
        )));
    }

    #[test]
    fn timing_class_names_classify_correctly() {
        for name in [
            "round_wall_ns",
            "cell_run_ns",
            "worker_chunks",
            "worker_busy_ns{worker=\"3\"}",
            "cell_run_ns{exp=\"E9\"}",
        ] {
            assert!(is_timing_class(name), "{name} should be timing-class");
        }
        for name in ["rounds", "messages", "ns_total", "nsx", "readk_mc_trials"] {
            assert!(!is_timing_class(name), "{name} should be deterministic");
        }
    }

    #[test]
    fn timing_gated_writes_respect_timing_flag() {
        let det = Recorder::deterministic();
        det.add_timing("worker_chunks", 4);
        det.observe_timing("cell_run_ns", 100);
        let snap = det.snapshot();
        assert_eq!(snap.counter("worker_chunks"), None);
        assert!(snap.histogram("cell_run_ns").is_none());

        let timed = Recorder::new();
        timed.add_timing("worker_chunks", 4);
        timed.observe_timing("cell_run_ns", 100);
        let snap = timed.snapshot();
        assert_eq!(snap.counter("worker_chunks"), Some(4));
        assert_eq!(snap.histogram("cell_run_ns").unwrap().count(), 1);
    }

    #[test]
    fn timing_recorder_measures_elapsed() {
        let r = Recorder::new();
        assert!(r.timing());
        {
            let _s = r.span("t");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = r.snapshot();
        let ns = snap
            .events
            .iter()
            .find_map(|e| match e {
                Event::SpanEnd { wall_ns, .. } => Some(*wall_ns),
                _ => None,
            })
            .unwrap();
        assert!(ns > 0);
    }
}
