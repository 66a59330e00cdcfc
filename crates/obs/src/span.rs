//! Span timers: RAII guards that time a stage and report on drop.

use crate::event::Event;
use crate::metrics::Histogram;
use crate::sink;
use crate::trace::{self, SpanIds};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Per-stage cache of the `<stage>.dur_us` histogram handles.
///
/// Stages are `&'static str` literals, so the cache is tiny and the lookup
/// avoids the registry's name-allocation on the span drop fast path.
fn stage_histogram(stage: &'static str) -> Arc<Histogram> {
    static CACHE: OnceLock<Mutex<BTreeMap<&'static str, Arc<Histogram>>>> = OnceLock::new();
    let mut cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new())).lock();
    cache
        .entry(stage)
        .or_insert_with(|| crate::global().histogram(&format!("{stage}.dur_us")))
        .clone()
}

/// Times a stage from construction to drop.
///
/// On drop, the duration is recorded to the global histogram
/// `<stage>.dur_us` and — when a sink is installed — a span [`Event`]
/// carrying the attached fields and the span's causal-tree ids is emitted.
///
/// While a sink is active, the span also participates in hierarchical
/// tracing: it pushes itself on the thread's span stack (so nested spans
/// parent under it), joins the thread's active trace, or auto-roots a
/// fresh trace when none is active (see [`crate::trace`]). Without a sink
/// none of that machinery runs — the cost is two clock reads and one
/// histogram update, with no allocation.
#[derive(Debug)]
pub struct Span {
    stage: &'static str,
    start: Instant,
    start_us: u64,
    ids: Option<SpanIds>,
    fields: Option<BTreeMap<String, f64>>,
}

impl Span {
    /// Starts timing `stage`.
    pub fn start(stage: &'static str) -> Self {
        let recording = sink::sink_active();
        Span {
            stage,
            start: Instant::now(),
            // The trace clock only matters for emitted events; skip the
            // extra clock read on the no-sink fast path.
            start_us: if recording { crate::now_us() } else { 0 },
            ids: recording.then(trace::begin_span),
            fields: recording.then(BTreeMap::new),
        }
    }

    /// Attaches a numeric field (kept only while a sink is active).
    pub fn field(&mut self, name: &str, value: f64) {
        if let Some(fields) = &mut self.fields {
            fields.insert(name.to_string(), value);
        }
    }

    /// Whether fields are being collected (sink installed at start).
    pub fn is_recording(&self) -> bool {
        self.fields.is_some()
    }

    /// The causal-tree ids assigned to this span (`None` when not
    /// recording).
    pub fn ids(&self) -> Option<SpanIds> {
        self.ids
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_us = self.start.elapsed().as_micros() as u64;
        stage_histogram(self.stage).record(dur_us);
        if let Some(ids) = self.ids.take() {
            trace::end_span(ids.span_id);
            if let Some(fields) = self.fields.take() {
                sink::emit(
                    &Event::span(self.start_us, self.stage, dur_us, fields).with_ids(
                        ids.trace_id,
                        ids.span_id,
                        ids.parent_id,
                    ),
                );
            }
        }
    }
}

/// Starts timing `stage`; the returned guard reports when dropped.
pub fn span(stage: &'static str) -> Span {
    Span::start(stage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;
    use std::sync::Arc;

    #[test]
    fn span_records_histogram_and_event() {
        let _guard = crate::testing::lock();
        let mem = Arc::new(MemorySink::new());
        sink::set_sink(mem.clone());
        {
            let mut s = span("obs.test.span");
            assert!(s.is_recording());
            s.field("answer", 42.0);
        }
        sink::clear_sink();
        let events = mem.take();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].stage, "obs.test.span");
        assert_eq!(events[0].kind, "span");
        assert_eq!(events[0].field("answer"), Some(42.0));
        assert_ne!(events[0].trace_id, 0, "recording spans join a trace");
        assert_ne!(events[0].span_id, 0);
        assert!(crate::global().histogram("obs.test.span.dur_us").count() >= 1);
    }

    #[test]
    fn span_without_sink_skips_fields_and_ids() {
        let _guard = crate::testing::lock();
        sink::clear_sink();
        let mut s = span("obs.test.silent");
        assert!(!s.is_recording());
        assert!(s.ids().is_none());
        s.field("ignored", 1.0);
        drop(s);
        assert!(crate::global().histogram("obs.test.silent.dur_us").count() >= 1);
    }
}
