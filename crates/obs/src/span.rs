//! Span timers: RAII guards that time a stage and report on drop.

use crate::event::{Event, Fields};
use crate::metrics::Histogram;
use crate::sink;
use crate::trace::{self, SpanIds};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Most fields one span can carry ([`Span::field`] panics past it). The
/// busiest call site, `css.estimate`, attaches six.
const MAX_SPAN_FIELDS: usize = 8;

/// One instrumented stage: its name and its `<stage>.dur_us` histogram,
/// resolved from the registry on first use and held from then on.
///
/// [`span!`](crate::span!) declares one `static` stage per call site, so
/// a span's drop records its duration through a handle it already holds
/// and takes no lock.
#[derive(Debug)]
pub struct Stage {
    name: &'static str,
    histogram: OnceLock<Arc<Histogram>>,
}

impl Stage {
    /// The stage `name` (use through [`span!`](crate::span!)).
    pub const fn new(name: &'static str) -> Self {
        Stage {
            name,
            histogram: OnceLock::new(),
        }
    }

    /// Starts timing this stage.
    pub fn span(&'static self) -> Span {
        Span::start(self)
    }

    fn histogram(&self) -> &Histogram {
        self.histogram
            .get_or_init(|| crate::global().histogram(&format!("{}.dur_us", self.name)))
    }
}

/// Starts timing the stage named by a string literal; the returned
/// [`Span`] reports when dropped. Each call site holds its own static
/// [`Stage`].
///
/// ```
/// let mut span = obs::span!("doc.example");
/// span.field("items", 3.0);
/// ```
#[macro_export]
macro_rules! span {
    ($stage:literal) => {{
        static STAGE: $crate::span::Stage = $crate::span::Stage::new($stage);
        STAGE.span()
    }};
}

/// Times a stage from construction to drop.
///
/// On drop, the duration is recorded to the stage's `<stage>.dur_us`
/// histogram and — when a sink is installed — a span [`Event`] carrying
/// the attached fields and the span's causal-tree ids is emitted.
///
/// While a sink is active, the span also participates in hierarchical
/// tracing: it pushes itself on the thread's span stack (so nested spans
/// parent under it), joins the thread's active trace, or auto-roots a
/// fresh trace when none is active (see [`crate::trace`]). Without a sink
/// none of that machinery runs — the cost is two clock reads and one
/// histogram update, with no allocation.
///
/// Fields are held inline, name-sorted, with `&'static str` names; the
/// emitted event borrows the names and fills a per-thread field buffer, so
/// a warm recording span allocates nothing either.
#[derive(Debug)]
pub struct Span {
    stage: &'static Stage,
    start: Instant,
    start_us: u64,
    ids: Option<SpanIds>,
    /// The attached fields, name-sorted; the first `len` are set.
    fields: [(&'static str, f64); MAX_SPAN_FIELDS],
    len: usize,
}

impl Span {
    fn start(stage: &'static Stage) -> Self {
        let recording = sink::sink_active();
        Span {
            stage,
            start: Instant::now(),
            // The trace clock only matters for emitted events; skip the
            // extra clock read on the no-sink fast path.
            start_us: if recording { crate::now_us() } else { 0 },
            ids: recording.then(trace::begin_span),
            fields: [("", 0.0); MAX_SPAN_FIELDS],
            len: 0,
        }
    }

    /// Attaches a numeric field (kept only while a sink is active); a
    /// name attached twice keeps the later value.
    ///
    /// # Panics
    /// Panics when a recording span would hold more than eight fields.
    pub fn field(&mut self, name: &'static str, value: f64) {
        if !self.is_recording() {
            return;
        }
        let set = &mut self.fields[..self.len];
        match set.binary_search_by(|(k, _)| k.cmp(&name)) {
            Ok(i) => set[i].1 = value,
            Err(i) => {
                assert!(
                    self.len < MAX_SPAN_FIELDS,
                    "span {}: more than {MAX_SPAN_FIELDS} fields",
                    self.stage.name
                );
                self.fields.copy_within(i..self.len, i + 1);
                self.fields[i] = (name, value);
                self.len += 1;
            }
        }
    }

    /// Whether fields are being collected (sink installed at start).
    pub fn is_recording(&self) -> bool {
        self.ids.is_some()
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
        self.stage.histogram().record(dur_us);
        if let Some(ids) = self.ids.take() {
            trace::end_span(ids.span_id);
            let mut fields = Fields::spare();
            for &(name, value) in &self.fields[..self.len] {
                fields.push_sorted(Cow::Borrowed(name), value);
            }
            let event = Event::span(self.start_us, self.stage.name, dur_us, fields).with_ids(
                ids.trace_id,
                ids.span_id,
                ids.parent_id,
            );
            sink::emit(&event);
            event.fields.recycle();
        }
    }
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
            let mut s = crate::span!("obs.test.span");
            assert!(s.is_recording());
            s.field("zeta", 2.0);
            s.field("answer", 41.0);
            s.field("answer", 42.0);
        }
        sink::clear_sink();
        let events = mem.take();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].stage, "obs.test.span");
        assert_eq!(events[0].kind, "span");
        assert_eq!(events[0].field("answer"), Some(42.0));
        let names: Vec<&str> = events[0].fields.iter().map(|(k, _)| k).collect();
        assert_eq!(names, ["answer", "zeta"], "name-sorted, a repeat replaced");
        assert_ne!(events[0].trace_id, 0, "recording spans join a trace");
        assert_ne!(events[0].span_id, 0);
        assert!(crate::global().histogram("obs.test.span.dur_us").count() >= 1);
    }

    #[test]
    fn span_without_sink_skips_fields_and_ids() {
        let _guard = crate::testing::lock();
        sink::clear_sink();
        let mut s = crate::span!("obs.test.silent");
        assert!(!s.is_recording());
        assert!(s.ids().is_none());
        s.field("ignored", 1.0);
        drop(s);
        assert!(crate::global().histogram("obs.test.silent.dur_us").count() >= 1);
    }
}
