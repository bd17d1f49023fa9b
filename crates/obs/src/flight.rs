//! The flight recorder: a bounded ring buffer of per-round
//! [`RoundRecord`]s, kept alongside (not inside) the metric
//! [`crate::Recorder`] so round-level forensics stay cheap and
//! size-bounded even on million-round executions.
//!
//! Engines push one record per executed round; when the buffer is full
//! the oldest record is evicted, so after a crash the buffer holds the
//! *last* `capacity` rounds — the ones that matter. The same §8 contract
//! as the recorder applies (DESIGN.md):
//!
//! 1. **Observation only.** Recording a round never changes simulation
//!    results; engines only read the quantities they report.
//! 2. **Determinism.** Every [`RoundRecord`] field is deterministic
//!    class: for a fixed `(graph, seed, config)` the recorded bytes are
//!    identical run to run, across the serial and parallel CONGEST
//!    engines, and at every thread count. There is no timing field.
//!
//! A disabled recorder (the default) is an `Option<Arc>` null check per
//! call. Install one process-wide with [`set_global_flight`] and dump it
//! on panic via [`install_flight_panic_hook`].

use std::collections::VecDeque;
use std::io::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

/// One round's structured flight-recorder entry.
///
/// `engine` names the capture source; fields a source cannot observe are
/// zero (`0` digests, `"-"` scan):
///
/// * `"congest"` — the CONGEST simulator:
///   `frontier` is the number of nodes stepped, `messages`/`bits` are
///   the round's deltas, `scan` is `"frontier"` or `"full"`. Digests are
///   zero (the simulator is protocol-generic).
/// * `"flat"` — the flat backend's capture:
///   `frontier` is the active-set size entering the round, `scan` is
///   `"frontier"` (its one sweep), and the joiner/coin digests are
///   filled.
/// * `"congest-backend"` — the `CongestBackend` adapter's backend-level
///   capture, with the same digest definitions as `"flat"` (the
///   cross-backend comparable columns).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundRecord {
    /// Capture source (see the type docs).
    pub engine: &'static str,
    /// Round index (0-based; the round this record describes).
    pub round: u64,
    /// Frontier / active-set size for this round.
    pub frontier: u64,
    /// Number of nodes that joined the MIS this round.
    pub joiners: u64,
    /// FNV-1a digest of the ascending joiner ids (0 when none).
    pub joiner_digest: u64,
    /// FNV-1a digest of the round's coin stream (0 on non-decide
    /// rounds or when no active node drew).
    pub coin_digest: u64,
    /// Messages sent this round (simulator capture only).
    pub messages: u64,
    /// Total bits sent this round (simulator capture only).
    pub bits: u64,
    /// Scan mode label: `"frontier"`, `"full"`, `"repair"` (dynamic
    /// repairs), or `"-"` when not applicable.
    pub scan: &'static str,
    /// The metric recorder's event sequence number at record time — ties
    /// the round to the enclosing phase span in the event log (0 when no
    /// recorder is attached).
    pub span_seq: u64,
}

impl RoundRecord {
    /// Renders the record as one self-contained JSON object (no trailing
    /// newline). Digests are fixed-width hex for easy column diffing.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"type\":\"round\",\"engine\":\"{}\",\"round\":{},\"frontier\":{},\"joiners\":{},\"joiner_digest\":\"{:016x}\",\"coin_digest\":\"{:016x}\",\"messages\":{},\"bits\":{},\"scan\":\"{}\",\"span_seq\":{}}}",
            self.engine,
            self.round,
            self.frontier,
            self.joiners,
            self.joiner_digest,
            self.coin_digest,
            self.messages,
            self.bits,
            self.scan,
            self.span_seq,
        )
    }
}

struct Ring {
    records: VecDeque<RoundRecord>,
    capacity: usize,
    total: u64,
}

/// A bounded, cheaply-cloneable per-round flight recorder. All clones
/// share the same ring; the disabled recorder ([`FlightRecorder::disabled`],
/// also the `Default`) makes every call a null check.
#[derive(Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<Mutex<Ring>>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("FlightRecorder(disabled)"),
            Some(_) => write!(f, "FlightRecorder(capacity={})", self.capacity()),
        }
    }
}

impl FlightRecorder {
    /// The no-op recorder.
    pub fn disabled() -> Self {
        FlightRecorder { inner: None }
    }

    /// A recorder keeping the most recent `capacity` rounds (at least 1).
    pub fn bounded(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            inner: Some(Arc::new(Mutex::new(Ring {
                records: VecDeque::with_capacity(capacity),
                capacity,
                total: 0,
            }))),
        }
    }

    /// Whether records are being kept.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Ring capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |i| i.lock().unwrap().capacity)
    }

    /// Records one round, evicting the oldest record when full.
    pub fn record(&self, r: RoundRecord) {
        let Some(inner) = &self.inner else { return };
        let mut ring = inner.lock().unwrap();
        if ring.records.len() == ring.capacity {
            ring.records.pop_front();
        }
        ring.records.push_back(r);
        ring.total += 1;
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> Vec<RoundRecord> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.lock().unwrap().records.iter().copied().collect()
        })
    }

    /// Number of retained records (≤ capacity).
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |i| i.lock().unwrap().records.len())
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total records ever pushed (including evicted ones).
    pub fn total_recorded(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.lock().unwrap().total)
    }

    /// Empties the ring (capacity unchanged).
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            let mut ring = inner.lock().unwrap();
            ring.records.clear();
            ring.total = 0;
        }
    }

    /// Renders the ring as JSONL: a `meta` header then one line per
    /// retained record, oldest first. Deterministic-class bytes only.
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"type\":\"meta\",\"format\":\"arbmis-flight\",\"version\":1,\"capacity\":{},\"total_recorded\":{}}}\n",
            self.capacity(),
            self.total_recorded()
        );
        for r in self.records() {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }

    /// Writes [`to_jsonl`](Self::to_jsonl) to `w`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn dump_to<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        w.write_all(self.to_jsonl().as_bytes())
    }
}

/// The process-wide flight recorder, initially disabled (mirrors
/// [`crate::global`] for the metric recorder).
static GLOBAL_FLIGHT: Mutex<Option<FlightRecorder>> = Mutex::new(None);

/// Installs `fr` as the process-wide flight recorder (picked up by
/// `Simulator::new` and the flat backends). Call once at startup.
pub fn set_global_flight(fr: FlightRecorder) {
    *GLOBAL_FLIGHT.lock().unwrap() = Some(fr);
}

/// The process-wide flight recorder (disabled unless
/// [`set_global_flight`] was called). Clones share the ring.
pub fn global_flight() -> FlightRecorder {
    GLOBAL_FLIGHT
        .lock()
        .unwrap()
        .clone()
        .unwrap_or_else(FlightRecorder::disabled)
}

/// Installs (once per process) a panic hook that dumps the global flight
/// recorder's retained rounds to stderr before the previous hook runs —
/// so a panic inside an engine, an invariant violation, or a failed
/// equivalence assertion leaves the last-N-rounds forensics on the
/// console. A disabled or empty global recorder dumps nothing.
pub fn install_flight_panic_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let flight = global_flight();
            if flight.enabled() && !flight.is_empty() {
                let mut err = std::io::stderr().lock();
                let _ = writeln!(
                    err,
                    "--- flight recorder dump (last {} rounds) ---",
                    flight.len()
                );
                let _ = flight.dump_to(&mut err);
                let _ = writeln!(err, "--- end flight recorder dump ---");
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(round: u64) -> RoundRecord {
        RoundRecord {
            engine: "congest",
            round,
            frontier: 10 + round,
            joiners: 1,
            joiner_digest: 0xabcd,
            coin_digest: 0,
            messages: 4,
            bits: 32,
            scan: "frontier",
            span_seq: 0,
        }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let f = FlightRecorder::disabled();
        assert!(!f.enabled());
        f.record(rec(0));
        assert_eq!(f.len(), 0);
        assert_eq!(f.capacity(), 0);
        assert_eq!(f.total_recorded(), 0);
        assert!(f.records().is_empty());
        assert!(f.to_jsonl().starts_with("{\"type\":\"meta\""));
    }

    #[test]
    fn ring_evicts_oldest() {
        let f = FlightRecorder::bounded(3);
        for r in 0..5 {
            f.record(rec(r));
        }
        assert_eq!(f.len(), 3);
        assert_eq!(f.total_recorded(), 5);
        let rounds: Vec<u64> = f.records().iter().map(|r| r.round).collect();
        assert_eq!(rounds, vec![2, 3, 4]);
    }

    #[test]
    fn clones_share_the_ring() {
        let f = FlightRecorder::bounded(8);
        let g = f.clone();
        f.record(rec(0));
        g.record(rec(1));
        assert_eq!(f.len(), 2);
        g.clear();
        assert!(f.is_empty());
        assert_eq!(f.total_recorded(), 0);
    }

    #[test]
    fn jsonl_shape_pinned() {
        let f = FlightRecorder::bounded(4);
        f.record(rec(7));
        let out = f.to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[0],
            "{\"type\":\"meta\",\"format\":\"arbmis-flight\",\"version\":1,\"capacity\":4,\"total_recorded\":1}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"round\",\"engine\":\"congest\",\"round\":7,\"frontier\":17,\"joiners\":1,\"joiner_digest\":\"000000000000abcd\",\"coin_digest\":\"0000000000000000\",\"messages\":4,\"bits\":32,\"scan\":\"frontier\",\"span_seq\":0}"
        );
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let f = FlightRecorder::bounded(0);
        assert_eq!(f.capacity(), 1);
        f.record(rec(0));
        f.record(rec(1));
        assert_eq!(f.len(), 1);
        assert_eq!(f.records()[0].round, 1);
    }
}
