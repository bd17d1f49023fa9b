#![warn(missing_docs)]
//! Deterministic observability for the arbmis workspace.
//!
//! A [`Recorder`] collects phase **spans** (nested, named), **counters**,
//! **gauges**, **histograms** ([`Histogram`]: log₂-bucketed), and
//! **point events**; a [`Snapshot`] renders them as a JSONL event log
//! (read back by [`report::parse_jsonl`]) or a Chrome trace-event
//! timeline. The disabled recorder is a null pointer check per call, so
//! instrumentation stays in release builds.
//!
//! Two rules make the layer safe to leave attached everywhere
//! (DESIGN.md §8):
//!
//! 1. **Observation only.** Instrumented code reads the quantities it
//!    reports; it never branches on the recorder beyond skipping
//!    collection. Transcripts, `Metrics` counters, and MIS outputs are
//!    bit-identical with the recorder enabled, disabled, or swapped —
//!    enforced by differential tests.
//! 2. **Timing is quarantined.** Wall-clock durations only ever appear
//!    in span `wall_ns` fields and metrics named `*_ns` / `worker_*`;
//!    everything else is a pure function of `(graph, seed, config)`.
//!    [`Recorder::deterministic`] zeroes the timing class for
//!    byte-identical sink output.
//!
//! # Example
//!
//! ```
//! use arbmis_obs::Recorder;
//!
//! let rec = Recorder::deterministic();
//! {
//!     let _run = rec.span("run");
//!     rec.add("messages", 10);
//!     rec.observe("message_bits", 24);
//! }
//! let snap = rec.snapshot();
//! assert!(snap.has_span("run"));
//! assert_eq!(snap.counter("messages"), Some(10));
//! assert!(snap
//!     .to_jsonl()
//!     .contains(r#"{"type":"counter","name":"messages","value":10}"#));
//! ```

pub mod flight;
pub mod hist;
pub mod recorder;
pub mod report;
pub mod snapshot;

pub use flight::{
    global_flight, install_flight_panic_hook, set_global_flight, FlightRecorder, RoundRecord,
};
pub use hist::Histogram;
pub use recorder::{is_timing_class, Event, Recorder, SpanGuard};
pub use snapshot::Snapshot;

use std::sync::Mutex;

/// The process-wide default recorder, initially disabled. Binaries set
/// it once at startup; library entry points pick it up as their default.
static GLOBAL: Mutex<Option<Recorder>> = Mutex::new(None);

/// Installs `rec` as the process-wide default recorder (picked up by
/// `Simulator::new` and `arb_mis`, among others). Call once at startup;
/// library code and tests should pass explicit recorders instead.
pub fn set_global(rec: Recorder) {
    *GLOBAL.lock().unwrap() = Some(rec);
}

/// The process-wide default recorder (disabled unless [`set_global`] was
/// called). Cloning is cheap; all clones share state.
pub fn global() -> Recorder {
    GLOBAL
        .lock()
        .unwrap()
        .clone()
        .unwrap_or_else(Recorder::disabled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_recorder_is_shared() {
        // The global starts disabled; installing an enabled recorder
        // makes every subsequent `global()` clone write to it. (This is
        // the only test in the workspace that touches the global — the
        // harness shares one process across test threads.)
        let r = global();
        r.add("noop", 1); // no-op on the disabled default, must not panic
        let rec = Recorder::deterministic();
        set_global(rec.clone());
        global().add("shared", 2);
        assert_eq!(rec.snapshot().counter("shared"), Some(2));
        set_global(Recorder::disabled());
        assert!(!global().enabled());
    }
}
