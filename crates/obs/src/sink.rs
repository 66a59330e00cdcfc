//! Event sinks: where trace events go.
//!
//! The default sink is a no-op and the hot path is gated on one relaxed
//! atomic load, so instrumentation costs almost nothing until a sink is
//! installed (`--trace` in the CLI, or a [`MemorySink`] in tests).

use crate::decision::{DecisionRecord, SCHEMA_VERSION};
use crate::event::Event;
use crate::registry::Snapshot;
use parking_lot::{Mutex, RwLock};
use serde::{Serialize, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Receives trace events.
pub trait EventSink: Send + Sync {
    /// Handles one event.
    fn emit(&self, event: &Event);

    /// Handles one decision-provenance record (dropped by default, so
    /// event-only sinks need no changes).
    fn emit_decision(&self, _record: &DecisionRecord) {}

    /// Appends a final registry-snapshot record (dropped by default).
    /// File-backed sinks write it as the closing frame of the trace
    /// so `talon report` can render counters and histograms offline.
    fn write_snapshot(&self, _snapshot: &Snapshot) {}

    /// Flushes buffered output (no-op by default).
    fn flush(&self) {}
}

/// Accounts for one failed trace write: bumps `health.trace_write_failed`
/// and warns to stderr the first time (once per process). Deliberately
/// counter-only — emitting an anomaly *event* from here would re-enter the
/// failing sink and recurse. Losing provenance silently is the bug this
/// exists to fix (a full disk used to drop decision records with no
/// signal at all).
pub(crate) fn note_write_error(sink: &str, what: &str, err: &std::io::Error) {
    crate::health::tally("trace_write_failed", 1);
    static WARNED: AtomicBool = AtomicBool::new(false);
    if !WARNED.swap(true, Ordering::Relaxed) {
        eprintln!(
            "warning: {sink}: writing {what} failed: {err}; trace output is \
             incomplete (further failures only bump health.trace_write_failed)"
        );
    }
}

/// Discards everything.
#[derive(Debug, Default)]
pub struct NoopSink;

impl EventSink for NoopSink {
    fn emit(&self, _event: &Event) {}
}

/// Buffers events in memory; used by tests and short capture windows.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
    decisions: Mutex<Vec<DecisionRecord>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Removes and returns every event captured so far.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.lock())
    }

    /// Removes and returns every decision record captured so far.
    pub fn take_decisions(&self) -> Vec<DecisionRecord> {
        std::mem::take(&mut self.decisions.lock())
    }

    /// Total buffered records: events *and* decision records. (This used
    /// to count events only, so a sink holding nothing but decisions
    /// reported itself empty.)
    pub fn len(&self) -> usize {
        self.events.lock().len() + self.decisions.lock().len()
    }

    /// Number of buffered events alone.
    pub fn events_len(&self) -> usize {
        self.events.lock().len()
    }

    /// Number of buffered decision records alone.
    pub fn decisions_len(&self) -> usize {
        self.decisions.lock().len()
    }

    /// Whether nothing at all — no event, no decision record — has been
    /// captured.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty() && self.decisions.lock().is_empty()
    }
}

impl EventSink for MemorySink {
    fn emit(&self, event: &Event) {
        self.events.lock().push(event.clone());
    }

    fn emit_decision(&self, record: &DecisionRecord) {
        self.decisions.lock().push(record.clone());
    }
}

/// The JSON line object for one trace record: what `talon trace convert`
/// writes per line when it exports a binary trace as JSON Lines. Every
/// line leads with the `schema_version` it was written under; decision
/// lines carry it as a struct field (see [`DecisionRecord::to_line`]).
///
/// The trace-cost test (`tests/trace_cost.rs`) prices its JSONL ratio
/// with the same function, so the JSONL it measures is byte for byte the
/// JSONL users get. `snapshot_ts_us` stamps a snapshot record's line (binary traces
/// do not store one).
pub fn record_line(record: &crate::binfmt::TraceRecord, snapshot_ts_us: u64) -> Value {
    use crate::binfmt::TraceRecord;
    let version = ("schema_version".to_string(), Value::U64(SCHEMA_VERSION));
    match record {
        TraceRecord::Event(e) => {
            let mut line = e.serialize();
            if let Value::Map(entries) = &mut line {
                entries.insert(0, version);
            }
            line
        }
        TraceRecord::Decision(d) => d.to_line(),
        TraceRecord::Snapshot(s) => Value::Map(vec![
            version,
            ("kind".into(), Value::Str("snapshot".into())),
            ("ts_us".into(), Value::U64(snapshot_ts_us)),
            ("snapshot".into(), s.serialize()),
        ]),
    }
}

static SINK_ACTIVE: AtomicBool = AtomicBool::new(false);

fn sink_slot() -> &'static RwLock<Option<Arc<dyn EventSink>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<dyn EventSink>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Installs `sink` as the process-wide event sink.
pub fn set_sink(sink: Arc<dyn EventSink>) {
    *sink_slot().write() = Some(sink);
    SINK_ACTIVE.store(true, Ordering::Release);
}

/// Flushes and removes the current sink, returning to no-op.
pub fn clear_sink() {
    SINK_ACTIVE.store(false, Ordering::Release);
    if let Some(sink) = sink_slot().write().take() {
        sink.flush();
    }
}

/// Whether a sink is installed (the one-load fast path).
#[inline]
pub fn sink_active() -> bool {
    SINK_ACTIVE.load(Ordering::Relaxed)
}

/// Sends `event` to the installed sink, if any. When a thread-local
/// capture scope is active (see [`crate::trace::with_context`]), the event
/// goes to that scope's buffer instead, avoiding sink contention from
/// worker threads.
pub fn emit(event: &Event) {
    if !sink_active() {
        return;
    }
    if crate::trace::capture_push(event) {
        return;
    }
    if let Some(sink) = sink_slot().read().as_ref() {
        sink.emit(event);
    }
}

/// Sends `record` to the installed sink, if any, honoring the same
/// thread-local capture scope as [`emit`] so decision records interleave
/// deterministically with events in parallel engines.
pub fn emit_decision(record: &DecisionRecord) {
    if !sink_active() {
        return;
    }
    if crate::trace::capture_push_decision(record) {
        return;
    }
    if let Some(sink) = sink_slot().read().as_ref() {
        sink.emit_decision(record);
    }
}

/// Flushes the installed sink, if any.
pub fn flush() {
    if let Some(sink) = sink_slot().read().as_ref() {
        sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Fields;

    #[test]
    fn memory_sink_captures_emitted_events() {
        let _guard = crate::testing::lock();
        let sink = Arc::new(MemorySink::new());
        set_sink(sink.clone());
        emit(&Event::mark(1, "test.stage", Fields::new()));
        clear_sink();
        emit(&Event::mark(2, "test.after", Fields::new()));
        let events = sink.take();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].stage, "test.stage");
    }

    #[test]
    fn memory_sink_counts_decisions_as_well_as_events() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        sink.emit_decision(&DecisionRecord::new("css.select"));
        // A sink holding only decision records is not empty (len/is_empty
        // used to look at events alone).
        assert!(!sink.is_empty());
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.events_len(), 0);
        assert_eq!(sink.decisions_len(), 1);
        sink.emit(&Event::mark(3, "test.mark", Fields::new()));
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.events_len(), 1);
        sink.take_decisions();
        assert_eq!(sink.len(), 1);
        assert!(!sink.is_empty());
    }

    #[test]
    fn no_sink_is_silent() {
        let _guard = crate::testing::lock();
        clear_sink();
        assert!(!sink_active());
        emit(&Event::mark(0, "dropped", Fields::new()));
    }
}
